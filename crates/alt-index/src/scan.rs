//! Range queries: the paper's two-step scan (§III-G) — a slot walk over
//! the learned layer merged with an ART range query — done in bounded
//! key-interval chunks.
//!
//! Keys in a GPL model sit in their predicted buckets, each bucket holds
//! its keys ascending, and the prediction is monotone, so walking buckets
//! in order yields keys in order; the slot-resident keys of a key interval
//! lie in the window of buckets its two ends predict; models themselves
//! are sorted, so the learned-layer side of the merge is a forward walk. A
//! scan advances in chunks `[cursor, kb]` sized from the models to hold
//! about what it still needs: per chunk one ART read of the interval, then
//! one walk of its bucket window, merged as they come. DESIGN.md §18 has
//! the protocol and its ordering argument.

use crate::dir::ModelDir;
use crate::index::AltIndex;
use crossbeam_epoch as epoch;
use probe::metrics::{self, Counter};

/// Most keys a chunk is sized for, and the ART entries it can hold (on
/// the stack) between its ART read and its slot walk.
const CHUNK_KEYS: usize = 128;

/// Most a run of short chunks may multiply the next one's size by.
const MAX_BOOST: usize = 64;

impl AltIndex {
    /// Append every `(key, value)` with `lo <= key <= hi`, ascending.
    /// Returns the number appended.
    pub fn range(&self, lo: u64, hi: u64, out: &mut Vec<(u64, u64)>) -> usize {
        self.collect(lo, hi, usize::MAX, out)
    }

    /// Scan at most `n` entries starting at `lo` (the paper's scan
    /// workload: 100-key scans), ascending. Returns the count.
    pub fn scan_n(&self, lo: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
        self.collect(lo, u64::MAX, n, out)
    }

    /// Append the first `limit` entries of `[lo, hi]` to `out`.
    ///
    /// Ordering against concurrent structure changes: the only thing
    /// that moves a present key between the layers is a retrain, whose
    /// absorb moves ART keys into slots of models this pass does not
    /// walk, so the whole collection retries if a retrain published
    /// meanwhile (§III-F redirection for scans). Within every chunk ART
    /// is read *before* the slot walk (DESIGN.md §18 says what that
    /// order does and does not carry).
    fn collect(&self, lo: u64, hi: u64, limit: usize, out: &mut Vec<(u64, u64)>) -> usize {
        let before = out.len();
        let lo = lo.max(1); // key 0 is reserved
        if lo > hi || limit == 0 {
            return 0;
        }
        let guard = epoch::pin();
        // Retrain churn can republish the directory every pass; once the
        // retry budget runs out, one pass under `dir_lock` (under which no
        // retrain publishes) is guaranteed to validate.
        let mut retry = resilience::Retry::new();
        let mut dl = None;
        loop {
            let dir = self.dir.load(&guard);
            self.collect_chunks(dir, lo, hi, before.saturating_add(limit), out);
            // The pin keeps `dir` allocated, so its address cannot come
            // back: the same pointer means no retrain published meanwhile.
            if std::ptr::eq(self.dir.load(&guard), dir) {
                break;
            }
            out.truncate(before);
            metrics::incr(Counter::ScanEpochRetry);
            if retry.wait_or_escalate(&crate::LAYER) {
                dl = Some(self.dir_lock.lock());
            }
        }
        drop(dl);
        out.len() - before
    }

    /// One pass over `dir`: chunk after chunk from `lo` until `out` is
    /// `full` entries long or `hi` is passed.
    fn collect_chunks(
        &self,
        dir: &ModelDir,
        lo: u64,
        hi: u64,
        full: usize,
        out: &mut Vec<(u64, u64)>,
    ) {
        let mut art_side = [(0u64, 0u64); CHUNK_KEYS];
        let mut cursor = lo;
        // Doubles with every chunk that came up short: the data is
        // sparser here than the models' build density says.
        let mut boost = 1usize;
        loop {
            let had = out.len();
            let need = (full - had).min(CHUNK_KEYS);
            let first = dir.locate(cursor);
            let m = &dir.models[first];
            let first_bucket = m.predict(cursor);
            // A quarter over: a chunk that comes up short costs another
            // ART descent, one that overshoots only the tail of its reads.
            let mut kb = chunk_end(dir, first, first_bucket, (need + need / 4 + 4) * boost)
                .max(cursor)
                .min(hi);
            m.slots.prefetch_window(first_bucket, m.predict(kb));

            // Step 1: ART. A full buffer ends the chunk at its last key.
            let mut art_len = 0;
            self.art.scan_with(cursor, kb, need, |k, v| {
                art_side[art_len] = (k, v);
                art_len += 1;
            });
            if art_len == need {
                kb = art_side[art_len - 1].0;
            }
            metrics::incr(Counter::ScanChunk);
            metrics::add(Counter::ScanArtKey, art_len as u64);
            probe::chaos::point("scan.chunk.post_art");

            // Step 2: the bucket window of the same interval, read a bucket
            // at a time, its live lanes already in key order, merged with
            // the ART side as it is walked; on the transient
            // double-presence the slot copy wins.
            let mut from_art = art_side[..art_len].iter().copied().peekable();
            'walk: for (mi, m) in dir.models.iter().enumerate().skip(first) {
                if mi > first && m.first_key > kb {
                    break;
                }
                let from = if mi == first { first_bucket } else { 0 };
                for b in m.slots.walk(from, m.predict(kb)) {
                    let (entries, n) = m.slots.read_bucket(b);
                    for &(key, value) in &entries[..n] {
                        if key < cursor || key > kb {
                            continue;
                        }
                        out.extend(std::iter::from_fn(|| from_art.next_if(|a| a.0 < key)));
                        from_art.next_if(|a| a.0 == key);
                        out.push((key, value));
                        if out.len() >= full {
                            break 'walk;
                        }
                    }
                }
            }
            out.extend(from_art);
            out.truncate(full);
            if out.len() == full || kb >= hi {
                return;
            }
            cursor = kb + 1;
            boost = if out.len() - had < need {
                (2 * boost).min(MAX_BOOST)
            } else {
                (boost / 2).max(1)
            };
        }
    }
}

/// Where a chunk that starts at bucket `from` of model `mi` should end to
/// hold about `want` keys, going by each model's build-time keys per
/// bucket: inside `mi` if its remaining buckets are expected to hold that
/// many, else on through whole following models (fb has models of a few
/// keys — a chunk per model would cost an ART descent each) to the one
/// they run out in.
fn chunk_end(dir: &ModelDir, mut mi: usize, mut from: usize, want: usize) -> u64 {
    let mut want = want as f64;
    loop {
        let m = &dir.models[mi];
        let buckets = m.slots.buckets();
        let keys_per_bucket = m.build_size.max(1) as f64 / buckets as f64;
        let to = from.saturating_add((want / keys_per_bucket) as usize);
        if to < buckets {
            return m.last_key(to);
        }
        let Some(next_first) = dir.upper_bound(mi) else {
            return u64::MAX;
        };
        want -= (buckets - from) as f64 * keys_per_bucket;
        if want <= 0.0 {
            return next_first - 1;
        }
        mi += 1;
        from = 0;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::AltConfig;
    use crate::index::AltIndex;
    use std::collections::BTreeMap;

    fn build(keys: impl IntoIterator<Item = u64>) -> (AltIndex, BTreeMap<u64, u64>) {
        let mut m = BTreeMap::new();
        for k in keys {
            m.insert(k, k.wrapping_mul(3));
        }
        let pairs: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        let idx = AltIndex::bulk_load_with(
            &pairs,
            AltConfig {
                epsilon: Some(64.0),
                ..Default::default()
            },
        );
        (idx, m)
    }

    #[test]
    fn range_matches_btreemap_on_mixed_data() {
        let (idx, m) = build((1..5000u64).map(|i| i * 13 % 100_000 + 1));
        for (lo, hi) in [(0u64, u64::MAX), (500, 50_000), (99_000, 101_000), (7, 7)] {
            let mut got = Vec::new();
            idx.range(lo, hi, &mut got);
            let lo1 = lo.max(1);
            let want: Vec<(u64, u64)> = m.range(lo1..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "range {lo}..={hi}");
        }
    }

    #[test]
    fn range_sees_runtime_inserts_in_both_layers() {
        let (idx, mut m) = build((1..1000u64).map(|i| i * 10));
        for i in 1..500u64 {
            let k = i * 10 + 3; // mixture of gap hits and ART spills
            idx.insert(k, k).unwrap();
            m.insert(k, k);
        }
        let mut got = Vec::new();
        idx.range(100, 3000, &mut got);
        let want: Vec<(u64, u64)> = m.range(100..=3000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_skips_removed_keys() {
        let (idx, mut m) = build((1..200u64).map(|i| i * 5));
        for k in [50u64, 100, 150, 500] {
            idx.remove(k);
            m.remove(&k);
        }
        let mut got = Vec::new();
        idx.range(1, 1000, &mut got);
        let want: Vec<(u64, u64)> = m.range(1..=1000).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn scan_n_returns_exactly_n_sorted() {
        let (idx, m) = build((1..10_000u64).map(|i| i * 7 % 200_000 + 1));
        for lo in [1u64, 5_000, 150_000] {
            let mut got = Vec::new();
            let n = idx.scan_n(lo, 100, &mut got);
            let want: Vec<(u64, u64)> = m.range(lo..).take(100).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "scan from {lo}");
            assert_eq!(n, want.len());
        }
    }

    #[test]
    fn scan_past_the_end() {
        let (idx, _) = build([10u64, 20, 30]);
        let mut got = Vec::new();
        assert_eq!(idx.scan_n(25, 100, &mut got), 1);
        assert_eq!(got, vec![(30, 90)]);
        got.clear();
        assert_eq!(idx.scan_n(31, 100, &mut got), 0);
    }
}
