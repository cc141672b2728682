//! Distribution-shift workloads under the oracle, worker pool vs caller-run.
//!
//! Two guarantees per (shift kind × seed):
//!
//! 1. **Oracle correctness under background retraining** — the shift
//!    streams are thread-disjoint by construction (reads included), so
//!    a concurrent run recorded through the testkit is checked by exact
//!    per-thread sequential replay (`check_disjoint`), while the worker
//!    pool's two-phase rebuilds race every operation.
//! 2. **Caller-run equivalence** — after quiescing the scheduler,
//!    replaying the *identical* deterministic streams against a
//!    `retrain_workers: 0` index yields the same length and the same
//!    full key/value dump: moving retraining off the hot path must not
//!    change what the index stores, only when the work happens.
//!
//! 8 seeds per kind (the ISSUE acceptance bar), alternating thread
//! counts, exercises all three generators: monotonic append, rolling
//! window, sudden mid-run shift.

use alt_index::{AltConfig, AltIndex};
use index_api::ConcurrentIndex;
use std::sync::Barrier;
use testkit::oracle::{check_disjoint, History, Recorder};
use workloads::{Op, ShiftKind, ShiftPlan};

const SEEDS: u64 = 8;
const OPS_PER_THREAD: usize = 12_000;

/// Tight ε + a worker pool: overflow (and therefore queued rebuilds)
/// happen many times within one run.
fn bg_config() -> AltConfig {
    AltConfig {
        epsilon: Some(16.0),
        ..AltConfig::background()
    }
}

fn inline_config() -> AltConfig {
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

/// Replay the same streams sequentially against a `retrain_workers: 0`
/// index.
fn run_inline(plan: &ShiftPlan, threads: usize) -> AltIndex {
    let idx = AltIndex::bulk_load_with(&plan.initial_pairs(), inline_config());
    // Round-robin across threads' streams so caller-run retrains see an
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

        let bg = AltIndex::bulk_load_with(&initial, bg_config());
        let histories = run_recorded(&bg, &plan, threads);
        bg.retrain_quiesce();
        if let Err(report) = check_disjoint(&bg, &initial, &histories) {
            panic!("{} seed {seed} ({threads} threads): {report}", kind.label());
        }
        assert!(
            bg.retrain_count() > 0,
            "{} seed {seed}: run never retrained — the sweep is vacuous",
            kind.label()
        );

        let inline = run_inline(&plan, threads);
        assert_eq!(
            ConcurrentIndex::len(&bg),
            ConcurrentIndex::len(&inline),
            "{} seed {seed}: background and inline lengths diverged",
            kind.label()
        );
        assert_eq!(
            dump(&bg),
            dump(&inline),
            "{} seed {seed}: background and inline contents diverged",
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
