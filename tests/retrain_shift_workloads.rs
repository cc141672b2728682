//! Distribution-shift workloads under the oracle, concurrent vs sequential.
//!
//! Two guarantees per (shift kind × seed):
//!
//! 1. **Oracle correctness under concurrent retraining** — the shift
//!    streams are thread-disjoint by construction (reads included), so
//!    a concurrent run recorded through the testkit is checked by exact
//!    per-thread sequential replay (`check_disjoint`), while one
//!    thread's rebuild races every other thread's operations.
//! 2. **Sequential equivalence** — replaying the *identical*
//!    deterministic streams on one thread, where every retrain runs
//!    inline with the op stream, yields the same length and the same
//!    full key/value dump: when a rebuild happens must not change what
//!    the index stores.
//!
//! 8 seeds per kind, alternating thread counts, exercises all three
//! generators: monotonic append, rolling window, sudden mid-run shift.
//!
//! And one bound: on monotone append a retrained index stays within a
//! few dozen bytes per key (`append_retrains_at_the_bulk_load_density`).
//! And one identity: a retrain rebuilds its span exactly as a bulk load
//! of the span's pairs would (`a_retrain_rebuilds_its_span_as_bulk_load_would`).

use alt_index::{AltConfig, AltIndex};
use index_api::ConcurrentIndex;
use std::sync::Barrier;
use testkit::oracle::{check_disjoint, History, Recorder};
use workloads::{DriverConfig, Op, ShiftKind, ShiftPlan};

const SEEDS: u64 = 8;
const OPS_PER_THREAD: usize = 12_000;

/// Tight ε: overflow (and therefore rebuilds) happen many times within
/// one run.
fn config() -> AltConfig {
    AltConfig {
        epsilon: Some(16.0),
        ..AltConfig::default()
    }
}

/// Run the plan's streams concurrently against `idx`, recording every
/// operation for the oracle.
fn run_recorded(idx: &AltIndex, plan: &ShiftPlan, threads: usize) -> Vec<History> {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stream = plan.stream(t, threads, OPS_PER_THREAD);
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = Recorder::new(idx);
                    barrier.wait();
                    for op in stream {
                        match op {
                            Op::Read(k) => {
                                rec.get(k);
                            }
                            Op::Insert(k, v) => {
                                rec.insert(k, v).unwrap_or_else(|e| {
                                    panic!("insert {k} failed: {e:?} (streams are disjoint)")
                                });
                            }
                            Op::Remove(k) => {
                                rec.remove(k);
                            }
                            Op::Scan(k, n) => {
                                rec.scan(k, n);
                            }
                        }
                    }
                    rec.into_history()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Replay the same streams on one thread against a fresh index.
fn run_inline(plan: &ShiftPlan, threads: usize) -> AltIndex {
    let idx = AltIndex::bulk_load_with(&plan.initial_pairs(), config());
    // Round-robin across threads' streams so the retrains see an
    // interleaving, not one thread's ops en bloc. Any interleaving is
    // valid: the streams are key-disjoint across threads.
    let mut streams: Vec<_> = (0..threads)
        .map(|t| plan.stream(t, threads, OPS_PER_THREAD))
        .collect();
    let mut live = true;
    while live {
        live = false;
        for s in &mut streams {
            if let Some(op) = s.next() {
                live = true;
                match op {
                    Op::Read(k) => {
                        idx.get(k);
                    }
                    Op::Insert(k, v) => idx.insert(k, v).expect("disjoint insert"),
                    Op::Remove(k) => {
                        idx.remove(k);
                    }
                    Op::Scan(k, n) => {
                        let mut buf = Vec::new();
                        idx.scan_n(k, n, &mut buf);
                    }
                }
            }
        }
    }
    idx
}

fn dump(idx: &AltIndex) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    ConcurrentIndex::range(idx, 1, u64::MAX, &mut out);
    out
}

fn sweep(kind: ShiftKind) {
    for s in 0..SEEDS {
        let seed = 11_000 + s;
        let threads = if s % 2 == 0 { 2 } else { 4 };
        let mut plan = ShiftPlan::new(kind, seed);
        // Small preload: the linear grid bulk-loads into few models, and
        // `wants_retrain` requires overflowing a model's own build size —
        // 4k keeps that well below the per-run insert volume so every
        // run retrains (the vacuity assert below enforces it).
        plan.preload = 4_000;
        let initial = plan.initial_pairs();

        let concurrent = AltIndex::bulk_load_with(&initial, config());
        let histories = run_recorded(&concurrent, &plan, threads);
        if let Err(report) = check_disjoint(&concurrent, &initial, &histories) {
            panic!("{} seed {seed} ({threads} threads): {report}", kind.label());
        }
        assert!(
            concurrent.retrain_count() > 0,
            "{} seed {seed}: run never retrained — the sweep is vacuous",
            kind.label()
        );

        let sequential = run_inline(&plan, threads);
        assert_eq!(
            ConcurrentIndex::len(&concurrent),
            ConcurrentIndex::len(&sequential),
            "{} seed {seed}: concurrent and sequential lengths diverged",
            kind.label()
        );
        assert_eq!(
            dump(&concurrent),
            dump(&sequential),
            "{} seed {seed}: concurrent and sequential contents diverged",
            kind.label()
        );
    }
}

#[test]
fn append_background_oracle_checked_and_inline_equivalent() {
    sweep(ShiftKind::Append);
}

#[test]
fn rolling_window_background_oracle_checked_and_inline_equivalent() {
    sweep(ShiftKind::RollingWindow);
}

#[test]
fn sudden_shift_background_oracle_checked_and_inline_equivalent() {
    sweep(ShiftKind::SuddenShift);
}

/// ROADMAP item 4(d), the space half: monotone append makes the tail
/// model overflow again and again, and every rebuild must come out at
/// the bulk-load density (its span's own slot budget, spent as bulk load
/// spends its) however many generations the span has been through.
#[test]
fn append_retrains_at_the_bulk_load_density() {
    const THREADS: usize = 2;
    let mut plan = ShiftPlan::new(ShiftKind::Append, 1_000);
    plan.preload = 15_000;
    let idx = AltIndex::bulk_load_default(&plan.initial_pairs());
    let streams: Vec<_> = (0..THREADS)
        .map(|t| plan.stream(t, THREADS, 150_000))
        .collect();
    let r = workloads::run(&idx, streams, &DriverConfig::default());
    assert_eq!(r.failed_inserts, 0, "append streams are disjoint");
    assert!(idx.retrain_count() > 0, "append run never retrained");
    let per_key = idx.memory_usage() / idx.len();
    assert!(
        per_key <= 64,
        "{per_key} B/key after {} retrains over {} keys",
        idx.retrain_count(),
        idx.len()
    );
}

/// A retrain is the bulk load of its span: same ε (the index's own, not
/// one re-fitted to the span), same slot budget, same builder. After one
/// model is overflowed into a retrain, the models now covering its old
/// span must be exactly the models a fresh bulk load of the span's
/// pairs builds.
#[test]
fn a_retrain_rebuilds_its_span_as_bulk_load_would() {
    let cfg = || AltConfig {
        epsilon: Some(64.0),
        ..AltConfig::default()
    };
    // Runs of 500 keys at one of four densities, with jitter: the bulk
    // load cuts models of a few hundred keys, and GPL's cuts depend on ε.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut key = 0u64;
    let pairs: Vec<(u64, u64)> = (0..20_000u64)
        .map(|i| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            key += [50, 200, 120, 400][(i / 500 % 4) as usize] + (state >> 60);
            (key, i)
        })
        .collect();
    let idx = AltIndex::bulk_load_with(&pairs, cfg());
    let before = idx.directory_spans();
    assert!(
        before.len() > 4,
        "{} models: too few to pick one",
        before.len()
    );
    let mi = before.len() / 2;
    let (lo, hi) = (before[mi].0, before[mi + 1].0);

    // Insert each resident's successor: it predicts to the resident's
    // slot and spills into ART, so the model's overflow count climbs
    // until it retrains.
    let mut span_keys = Vec::new();
    idx.range(lo, hi - 1, &mut span_keys);
    'fill: for step in 1..50 {
        for &(k, _) in &span_keys {
            if idx.get(k + step).is_none() {
                idx.insert(k + step, k).unwrap();
                if idx.retrain_count() > 0 {
                    break 'fill;
                }
            }
        }
    }
    assert_eq!(idx.retrain_count(), 1, "the span never retrained");

    let mut span = Vec::new();
    idx.range(lo, hi - 1, &mut span);
    let fresh = AltIndex::bulk_load_with(&span, cfg());
    let rebuilt: Vec<_> = idx
        .directory_spans()
        .into_iter()
        .filter(|&(first, _, _)| (lo..hi).contains(&first))
        .collect();
    assert_eq!(
        rebuilt,
        fresh.directory_spans(),
        "span [{lo}, {hi}) of {} keys",
        span.len()
    );
}
