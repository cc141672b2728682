//! AMAC-style batched lookups across both tiers (see `DESIGN.md` §13).
//!
//! The scalar [`AltIndex::get`] is one model prediction plus one bucket
//! probe — which makes its cost almost entirely cache misses: the
//! directory line, the predicted bucket, and (for conflict keys)
//! the ART descent. This module overlaps those misses across a small
//! ring of in-flight keys. Each key is a state machine:
//!
//! 1. **Predict** — locate the GPL model in the directory, compute the
//!    predicted bucket, issue a prefetch for both its cache lines, its
//!    keys' and its values';
//! 2. **Probe** — the optimistic bucket snapshot (same version protocol
//!    as the scalar path). Learned-layer hits and conclusive misses finish
//!    here; the verdict `Art` (no lane holds the key and the bucket
//!    spilled) prefetches the ART root and hands off to
//! 3. **ART descent** — the interleaved engine of `art::batch`, one
//!    prefetch-then-advance hop per step.
//!
//! The ring is [`art::drive_ring`], the one ART's batch runs too:
//! it steps the flights round-robin and refills a retired key's slot in
//! place, so every prefetch gets a full revolution of other keys' work
//! before its line is touched. This module gives it a flight's start
//! (the predict stage) and its step.
//!
//! Per-key linearizability: every transition runs the scalar protocol
//! itself — the same bucket snapshot and the one reader's verdict on it
//! ([`SlotArray::probe`](crate::slots::SlotArray::probe)), the one
//! [`GplModel::miss_is_final`] re-validation before a miss is declared
//! conclusive, the same per-key retry budget escalating to
//! [`AltIndex::get_pessimistic`]. Interleaving other keys between a
//! key's stages only widens the window between its snapshot and its
//! validation; it never skips a validation, so each result is one some
//! scalar `get` interleaved at the same instants could have returned.

use crate::index::AltIndex;
use crate::model::GplModel;
use crate::slots::Probe;
use art::{drive_ring, BatchCursor, BatchStep};
use crossbeam_epoch::{self as epoch, Guard};
use probe::metrics::{self, Counter};

/// The paused state of one in-flight key.
enum Stage<'g> {
    /// Slot prefetch issued; the optimistic probe runs next step.
    Probe { m: &'g GplModel, pred: usize },
    /// Handed off to the interleaved ART descent. `ver` is the line's
    /// version from the probe's snapshot — an ART miss is only
    /// conclusive if the line (and model) are unchanged since, exactly
    /// like the scalar path.
    Art {
        m: &'g GplModel,
        pred: usize,
        ver: u64,
        cur: BatchCursor<'g>,
    },
}

/// One in-flight key: its state-machine stage and its personal retry
/// budget.
struct Flight<'g> {
    key: u64,
    retry: resilience::Retry,
    stage: Stage<'g>,
}

impl AltIndex {
    /// Batched point lookup over the AMAC ring: `out[i] = get(keys[i])`
    /// with up to [`art::RING_WIDTH`] lookups in flight, their directory,
    /// slot, and ART-node misses overlapped by software prefetching.
    /// This is the [`index_api::ConcurrentIndex::get_batch`]
    /// implementation for ALT-index.
    pub fn get_batch_amac(&self, keys: &[u64], out: &mut [Option<u64>]) {
        metrics::incr(Counter::AltBatchLookups);
        metrics::add(Counter::AltBatchKeys, keys.len() as u64);
        // One pin for the whole batch: it keeps every flight's model
        // reference (possibly from a superseded directory) and every ART
        // cursor's node pointers alive until the ring drains.
        let guard = epoch::pin();
        drive_ring(
            keys,
            out,
            |key| Flight {
                key,
                retry: resilience::Retry::new(),
                stage: predict(self, key, &guard),
            },
            |fl| step(self, fl, &guard),
        );
    }
}

/// The predict stage: the key's (model, predicted bucket) from the
/// current directory, with the bucket prefetch issued.
#[inline]
fn predict<'g>(idx: &'g AltIndex, key: u64, guard: &'g Guard) -> Stage<'g> {
    let m: &'g GplModel = idx.dir.load(guard).model_for(key);
    let pred = m.predict(key);
    m.slots.prefetch(pred);
    metrics::incr(Counter::AltBatchPrefetch);
    Stage::Probe { m, pred }
}

/// A failed validation: charge the key's budget, then either escalate to
/// the conclusive pessimistic lookup or send the key back to the predict
/// stage (the directory may have been republished).
fn restart<'g>(idx: &'g AltIndex, fl: &mut Flight<'g>, guard: &'g Guard) -> Option<Option<u64>> {
    metrics::incr(Counter::AltBatchRestart);
    if fl.retry.wait_or_escalate(&crate::LAYER) {
        return Some(idx.get_pessimistic(fl.key));
    }
    fl.stage = predict(idx, fl.key, guard);
    None
}

/// Advance one flight by one stage. `Some(result)` retires the key.
#[inline]
fn step<'g>(idx: &'g AltIndex, fl: &mut Flight<'g>, guard: &'g Guard) -> Option<Option<u64>> {
    probe::chaos::point("batch.stage");
    match &mut fl.stage {
        Stage::Probe { m, pred } => {
            let (m, pred) = (*m, *pred);
            let (verdict, ver) = m.slots.probe(pred, fl.key);
            match verdict {
                Probe::Hit(value) => {
                    metrics::incr(Counter::AltBatchLearnedHit);
                    Some(Some(value))
                }
                Probe::Absent if !m.is_retired() => {
                    metrics::incr(Counter::AltBatchLearnedHit);
                    Some(None)
                }
                Probe::Absent => restart(idx, fl, guard),
                Probe::Art => {
                    // Conflict data: hand off to the interleaved ART
                    // descent.
                    metrics::incr(Counter::AltBatchArtHandoff);
                    let cur = idx.art.batch_cursor(fl.key, guard);
                    metrics::incr(Counter::AltBatchPrefetch);
                    fl.stage = Stage::Art { m, pred, ver, cur };
                    None
                }
            }
        }
        Stage::Art { m, pred, ver, cur } => {
            let (m, pred, ver) = (*m, *pred, *ver);
            match idx.art.batch_step(cur) {
                BatchStep::Pending => None,
                BatchStep::Done(Some(v)) => Some(Some(v)),
                BatchStep::Done(None) if m.miss_is_final(pred, ver) => Some(None),
                BatchStep::Done(None) => restart(idx, fl, guard),
                // The cursor's budget ran out: the scalar path owns the
                // guaranteed-progress escalation chain.
                BatchStep::Escalate => Some(idx.get(fl.key)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AltConfig;
    use crate::index::AltIndex;

    fn sample_index(cfg: AltConfig) -> (AltIndex, Vec<(u64, u64)>) {
        // A mildly irregular key distribution so some keys conflict into
        // ART and others sit in their predicted buckets.
        let pairs: Vec<(u64, u64)> = (1..=30_000u64).map(|i| (i * 7 + (i % 13) * 3, i)).collect();
        let mut pairs = pairs;
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        let idx = AltIndex::bulk_load_with(&pairs, cfg);
        (idx, pairs)
    }

    #[test]
    fn batch_matches_scalar_gets() {
        let (idx, pairs) = sample_index(AltConfig::default());
        // Mix of present keys, near misses, far misses, and key 0.
        let keys: Vec<u64> = (0..400usize)
            .map(|i| match i % 4 {
                0 => pairs[(i * 37) % pairs.len()].0,
                1 => pairs[(i * 53) % pairs.len()].0 + 1,
                2 => 0,
                _ => u64::MAX - i as u64,
            })
            .collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn batch_sees_removals_and_art_residents() {
        let (idx, pairs) = sample_index(AltConfig::default());
        // Remove every 11th key, then re-insert neighbours so removed
        // keys and ART conflicts both appear on the lookup path.
        let mut removed = Vec::new();
        for p in pairs.iter().step_by(11) {
            idx.remove(p.0);
            removed.push(p.0);
        }
        for p in pairs.iter().step_by(23) {
            let k = p.0 + 2;
            let _ = idx.insert(k, 0xBEEF);
        }
        let keys: Vec<u64> = pairs
            .iter()
            .step_by(5)
            .map(|p| p.0)
            .chain(removed.iter().copied())
            .collect();
        let mut out = vec![None; keys.len()];
        idx.get_batch_amac(&keys, &mut out);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(out[i], idx.get(k), "key {k}");
        }
    }

    #[test]
    fn batch_width_edge_cases() {
        let (idx, pairs) = sample_index(AltConfig::default());
        for width in [0usize, 1, 7, 8, 9, 61] {
            let keys: Vec<u64> = pairs.iter().take(width).map(|p| p.0).collect();
            let mut out = vec![None; width];
            idx.get_batch_amac(&keys, &mut out);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(out[i], idx.get(k), "width {width}, key {k}");
            }
        }
    }
}
