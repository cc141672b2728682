//! Stall-visibility regression test: the reason the worker pool exists,
//! asserted from the outside.
//!
//! A monotonic-append workload (the worst case: every insert overflows
//! the tail model, and §III-F rebuilds grow with the span) runs through
//! the bucketed driver twice with identical streams:
//!
//! * **`retrain_workers: 0`** — an inserting thread pays for each
//!   rebuild, so at least one time bucket's throughput must dip below
//!   the run median (if that stall ever stopped being visible here, the
//!   scheduler's premise — and the bench's curves — would be stale);
//! * **`retrain_workers: 1`** — the dip must shrink: a smaller fraction
//!   of stalled buckets and higher end-to-end throughput on the very
//!   same op sequence.
//!
//! A caller-run rebuild releases the span's write lock while it builds,
//! so it stalls only the thread that runs it, not its sibling; the run
//! is sized so the rebuilds it pays for are long enough (the last one
//! re-lays ~150k keys) to show at bucket resolution in debug and release
//! builds alike.
//!
//! Wall-clock throughput tests are inherently noisy, so each assertion
//! set gets a few attempts and the margins are wide: on the recording
//! host (2 vCPUs, release) the caller-run pass ran at 0.15–0.35 Mops/s
//! with more than half its buckets empty and the worker-pool pass at
//! 1.3–2.1 Mops/s.

use alt_index::{AltConfig, AltIndex};
use workloads::{DriverConfig, RunResult, ShiftKind, ShiftPlan};

const THREADS: usize = 2;
const OPS_PER_THREAD: usize = 150_000;
const PRELOAD: u64 = 15_000;
const BUCKET_MS: u64 = 10;
const ATTEMPTS: usize = 4;

fn run(plan: &ShiftPlan, background: bool) -> RunResult {
    let cfg = if background {
        AltConfig::background()
    } else {
        AltConfig::default()
    };
    let idx = AltIndex::bulk_load_with(&plan.initial_pairs(), cfg);
    let streams: Vec<_> = (0..THREADS)
        .map(|t| plan.stream(t, THREADS, OPS_PER_THREAD))
        .collect();
    let cfg = DriverConfig {
        bucket_ms: BUCKET_MS,
        ..DriverConfig::default()
    };
    let r = workloads::run(&idx, streams, &cfg);
    idx.retrain_quiesce();
    assert!(
        idx.retrain_count() > 0,
        "append run never retrained — the stall measurement is vacuous"
    );
    r
}

/// Interior buckets (the final, partially-filled bucket would read as a
/// fake stall).
fn interior(r: &RunResult) -> Vec<f64> {
    let mut m = r.bucket_mops();
    m.pop();
    m
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Fraction of buckets below half the median bucket throughput. A
/// zero median means stalls dominate the whole run: every bucket
/// counts as stalled.
fn stalled_fraction(buckets: &[f64]) -> f64 {
    if buckets.is_empty() {
        return 0.0;
    }
    let med = median(buckets);
    if med <= 0.0 {
        return 1.0;
    }
    buckets.iter().filter(|&&m| m < 0.5 * med).count() as f64 / buckets.len() as f64
}

/// Does at least one bucket dip below 0.75 × the run median? (A zero
/// median is the degenerate all-stall case — trivially a dip.)
fn has_dip(buckets: &[f64]) -> bool {
    if buckets.is_empty() {
        return false;
    }
    let med = median(buckets);
    med <= 0.0 || buckets.iter().any(|&m| m < 0.75 * med)
}

#[test]
fn caller_run_retrain_stalls_are_visible_and_a_worker_pool_shrinks_them() {
    let mut last = String::new();
    for attempt in 0..ATTEMPTS {
        let plan = {
            let mut p = ShiftPlan::new(ShiftKind::Append, 1_000 + attempt as u64);
            p.preload = PRELOAD;
            p
        };
        let caller = run(&plan, false);
        let bg = run(&plan, true);
        let cb = interior(&caller);
        let bb = interior(&bg);
        let (cfrac, bfrac) = (stalled_fraction(&cb), stalled_fraction(&bb));
        last = format!(
            "attempt {attempt}: caller-run {:.3} Mops/s, {} buckets, stalled {cfrac:.2}, dip {}; \
             worker pool {:.3} Mops/s, {} buckets, stalled {bfrac:.2}",
            caller.mops,
            cb.len(),
            has_dip(&cb),
            bg.mops,
            bb.len(),
        );
        eprintln!("{last}");
        // 1. The caller-run stall is visible: some bucket dips below the
        //    median.
        // 2. The dip shrinks under the scheduler: strictly fewer stalled
        //    buckets *and* higher end-to-end throughput on identical
        //    streams.
        if has_dip(&cb) && bfrac < cfrac && bg.mops > caller.mops {
            return;
        }
    }
    panic!("stall visibility assertions failed on all {ATTEMPTS} attempts; last: {last}");
}
