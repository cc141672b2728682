//! The measurements that are not driver-shaped — structure counts,
//! build times, memory, single-thread loops, throughput-over-time
//! curves — as ordinary functions the registry lists by name.

use crate::report::{best, REPS};
use crate::sweep::{run_sweep, Build, Col, Load, Sweep};
use crate::{Args, IndexKind, Row, Setup};
use alt_index::{AltConfig, AltIndex};
use baselines::{AlexLike, FinedexLike, LippLike, XIndexLike};
use datasets::Dataset;
use learned::{gpl_segment, lpa_segment, optimal_segment_count, shrinking_cone_segment};
use std::hint::black_box;
use std::time::Instant;
use workloads::{DriverConfig, RunResult, ShiftKind, ShiftPlan};

/// A row holding one named value.
fn value(id: &str, index: &str, ds: Dataset, metric: &str, v: f64) -> Row {
    Row::new(id)
        .index(index)
        .dataset(ds.name())
        .value(metric, v)
}

/// Seconds `f` takes.
fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// **Fig 3(a)**: model counts of XIndex (RMI groups) and FINEdex (LPA
/// segments) versus ALT-index's GPL model count over the whole dataset —
/// the paper reports millions vs thousands.
pub fn fig3a(args: &Args) {
    for &ds in &args.datasets {
        let all = Setup::new(ds, args.keys, 1.0, args.seed).bulk;
        let models = [
            ("FINEdex", FinedexLike::build(&all).num_models()),
            ("XIndex", XIndexLike::build(&all).num_groups()),
            (
                "ALT-index",
                AltIndex::bulk_load_default(&all).stats().num_models,
            ),
        ];
        for (index, n) in models {
            value("fig3a", index, ds, "models", n as f64).emit();
        }
    }
}

/// **Fig 4**: segmentation algorithm comparison — GPL (ALT-index) versus
/// ShrinkingCone (FITing-tree) versus LPA (FINEdex) at ε = 64. The figure
/// is a schematic; the measurable claims behind it are that GPL segments
/// in a single O(n) pass, that all three respect the error bound
/// (asserted), and that they trade segment count against segmentation
/// work: segment counts, build times and the verified max error per
/// algorithm, plus the ε-optimal segment count up to 500k keys.
pub fn fig4(args: &Args) {
    const EPS: f64 = 64.0;
    type Segmenter = fn(&[u64]) -> Vec<learned::Segment>;
    let algos: [(&str, Segmenter); 3] = [
        ("GPL", |k| gpl_segment(k, EPS)),
        ("ShrinkingCone", |k| shrinking_cone_segment(k, EPS)),
        ("LPA", |k| lpa_segment(k, EPS, 32)),
    ];
    for &ds in &args.datasets {
        let setup = Setup::new(ds, args.keys, 1.0, args.seed);
        let keys = setup.loaded_keys();
        for (name, segment) in algos {
            let (build_s, segs) = secs(|| segment(&keys));
            let max_err = segs
                .iter()
                .map(|s| s.max_error(&keys))
                .fold(0.0f64, f64::max);
            assert!(
                max_err <= EPS + 1e-6,
                "{name} violated its bound: {max_err}"
            );
            value("fig4", name, ds, "segments", segs.len() as f64).emit();
            value("fig4", name, ds, "build_ms", build_s * 1e3).emit();
            value("fig4", name, ds, "max_err", max_err).emit();
        }
        // The ε-optimal lower bound (reference segmenter, not a
        // production path): how close do the O(n) algorithms come?
        if keys.len() <= 500_000 {
            let opt = optimal_segment_count(&keys, EPS);
            value("fig4", "optimal", ds, "segments", opt as f64).emit();
        }
    }
}

/// **Fig 6(a)**: ε versus the number of GPL models — the paper's inverse
/// proportionality `N_total = δ_h · ε · N_model` (Eq. 1). Part (b), ε
/// versus read-only throughput, is the `fig6b` sweep over [`FIG6_EPS`].
pub fn fig6a(args: &Args) {
    for &ds in &args.datasets {
        let setup = Setup::half(ds, args.keys, args.seed);
        for &eps in FIG6_EPS {
            let config = AltConfig {
                epsilon: Some(eps),
                ..Default::default()
            };
            let models = AltIndex::bulk_load_with(&setup.bulk, config)
                .stats()
                .num_models;
            value("fig6a", "ALT-index", ds, "models", models as f64)
                .x(eps)
                .emit();
        }
    }
}

/// The error bounds Fig 6 sweeps.
pub const FIG6_EPS: &[f64] = &[16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0];

/// **Fig 8(a)**: memory overhead — bulk-load 50 %, insert the rest,
/// measure bytes. Paper shape: LIPP+ uses the most memory, ALEX+ the
/// least, ALT-index beats the delta-buffer designs.
pub fn fig8a(args: &Args) {
    for &ds in &args.datasets {
        let setup = Setup::half(ds, args.keys, args.seed);
        for kind in IndexKind::selected(args) {
            let idx = kind.build_threaded(&setup.bulk, args.construction_threads());
            for &k in &setup.reserve {
                let _ = idx.insert(k, k ^ 0x5555);
            }
            let mb = idx.memory_usage() as f64 / (1 << 20) as f64;
            value("fig8a", kind.name(), ds, "mb", mb).emit();
        }
    }
}

/// **Fig 10(c)**: data share of the learned layer vs ART per dataset
/// (>50 % learned on real-world-like data, >80 % on libio), over the bulk
/// half with the reserve inserted, so ART carries runtime conflict data
/// too.
pub fn fig10c(args: &Args) {
    for &ds in &args.datasets {
        let setup = Setup::half(ds, args.keys, args.seed);
        let idx = AltIndex::bulk_load_default(&setup.bulk);
        for &k in &setup.reserve {
            let _ = idx.insert(k, k ^ 0x5555);
        }
        let stats = idx.stats();
        for (metric, v) in [
            ("learned_share", stats.learned_share()),
            ("keys_in_art", stats.keys_in_art as f64),
        ] {
            value("fig10c", "ALT-index", ds, metric, v).emit();
        }
    }
}

/// **Fig 10(d)**: bulk-load time of ALT-index vs ALEX+ vs LIPP+ (ALT
/// fastest).
pub fn fig10d(args: &Args) {
    for &ds in &args.datasets {
        let bulk = Setup::half(ds, args.keys, args.seed).bulk;
        let times = [
            (
                "ALT-index",
                secs(|| drop(AltIndex::bulk_load_default(&bulk))).0,
            ),
            ("ALEX+", secs(|| drop(AlexLike::build(&bulk))).0),
            ("LIPP+", secs(|| drop(LippLike::build(&bulk))).0),
        ];
        for (index, s) in times {
            value("fig10d", index, ds, "bulkload_s", s).emit();
        }
    }
}

/// **ycsb**: the free-form companion to the fixed figures — any of the
/// seven index kinds under `--mix r,i,s` (default balanced) or, with
/// `--ycsb d|e`, the YCSB D (latest-read) / E (scan-heavy) generators
/// (rows labelled `ycsb-d`/`ycsb-e`), as a [`Sweep`] built from the flags.
pub fn ycsb(args: &Args) {
    const KINDS: &[Build] = &[
        Build::Kind(IndexKind::Alt),
        Build::Kind(IndexKind::AltNoRetrain),
        Build::Kind(IndexKind::Art),
        Build::Kind(IndexKind::Alex),
        Build::Kind(IndexKind::Lipp),
        Build::Kind(IndexKind::XIndex),
        Build::Kind(IndexKind::Finedex),
    ];
    let (load, workload) = match args.ycsb {
        Some(kind) => (Load::Ycsb(kind), kind.label()),
        None => (Load::Mix(args.mix), args.mix.label()),
    };
    let sweep = Sweep {
        builds: KINDS,
        load,
        workload,
        cols: &[Col::P999, Col::ReadHitRate],
        ..Sweep::BASE
    };
    run_sweep(args, "ycsb", &sweep);
}

/// **bulk_build**: construction time and throughput across build thread
/// counts — the build-cost axis ("Benchmarking Learned Indexes" treats
/// build time as first-class; the paper's 200M-key runs are dominated by
/// it). Sweeps `--build-threads` (default: serial plus the host's
/// available parallelism) over every selected index and dataset, timing
/// `IndexKind::build_threaded` on the full key array, best of [`REPS`],
/// after one untimed build per (index, dataset): whichever point ran
/// first used to pay for the cold allocator (fresh pages, empty ART
/// arena), and that was always the serial one, which flattered every
/// `speedup_vs_serial`.
///
/// Rows report `build_ms` with `Mops/s` as build throughput (keys/s);
/// when the sweep includes the serial baseline, a `speedup_vs_serial`
/// row follows each wider point. Parallel builds are observably identical
/// to serial ones by construction (see
/// `crates/alt-index/tests/build_equivalence.rs`); a spot-check of
/// lookups after each timed build guards the claim here.
pub fn bulk_build(args: &Args) {
    for &ds in &args.datasets {
        let pairs = Setup::new(ds, args.keys, 1.0, args.seed).bulk;
        for kind in IndexKind::selected(args) {
            let mut serial_mops = None;
            let sweep = args.build_threads_sweep();
            drop(kind.build_threaded(&pairs, sweep[0]));
            for t in sweep {
                let mops = best((0..REPS).map(|_| {
                    let (s, idx) = secs(|| kind.build_threaded(&pairs, t));
                    // Keep the build honest: a broken parallel path must
                    // fail loudly, not clock a great time.
                    for &(k, v) in pairs.iter().step_by((pairs.len() / 64).max(1)) {
                        assert_eq!(idx.get(k), Some(v), "{} lost key {k}", kind.name());
                    }
                    assert_eq!(idx.len(), pairs.len(), "{} len", kind.name());
                    pairs.len() as f64 / s / 1e6
                }));
                let row = || {
                    Row::new("bulk_build")
                        .index(kind.name())
                        .dataset(ds.name())
                        .workload("bulk-load")
                        .x(t as f64)
                };
                row()
                    .mops(mops)
                    .value("build_ms", pairs.len() as f64 / mops / 1e3)
                    .emit();
                if t == 1 {
                    serial_mops = Some(mops);
                } else if let Some(serial) = serial_mops {
                    row().value("speedup_vs_serial", mops / serial).emit();
                }
            }
        }
    }
}

/// Deterministic lookup stream: a splitmix-shuffled mix of loaded keys
/// (90%) and reserved — i.e. absent — keys (10%), `ops` entries long.
fn lookup_stream(setup: &Setup, ops: usize, seed: u64) -> Vec<u64> {
    let loaded = setup.loaded_keys();
    let mut rng = datasets::rng::SplitMix64::new(seed);
    (0..ops)
        .map(|_| {
            let r = rng.next_u64();
            if r.is_multiple_of(10) && !setup.reserve.is_empty() {
                setup.reserve[(r / 10) as usize % setup.reserve.len()]
            } else {
                loaded[(r / 10) as usize % loaded.len()]
            }
        })
        .collect()
}

/// **batch_lookup**: single-thread read throughput of `get_batch` across
/// batch widths — the memory-level-parallelism axis. Point lookups on a
/// learned index are dominated by cache misses (directory line, slot
/// line, ART nodes); the AMAC engines overlap those misses across a ring
/// of in-flight keys, so throughput should climb with width until the
/// ring covers the load-to-use latency and then flatten.
///
/// Sweeps `--batch-width` (default {1, 8, 16, 32, 64}; width 1 is the
/// scalar `get` loop, the baseline) over every selected index and
/// dataset, best of [`REPS`] passes over one deterministic 90/10
/// loaded/absent stream, the same for every width. When the sweep
/// includes width 1, a `speedup_vs_width1` row follows
/// each wider point.
pub fn batch_lookup(args: &Args) {
    for &ds in &args.datasets {
        let setup = Setup::half(ds, args.keys, args.seed);
        let stream = lookup_stream(&setup, args.ops, args.seed ^ 0xBA7C);
        for kind in IndexKind::selected(args) {
            let idx = kind.build_threaded(&setup.bulk, args.construction_threads());
            // Reference results from the scalar path, used both to keep
            // the batched runs honest and to avoid dead-code elimination.
            let expect_hits = stream.iter().filter(|&&k| idx.get(k).is_some()).count();
            let mut width1_mops = None;
            for w in args.batch_width_sweep() {
                let mut out = vec![None; w];
                let mops = best((0..REPS).map(|_| {
                    let (s, hits) = secs(|| match w {
                        1 => stream
                            .iter()
                            .filter(|&&k| black_box(idx.get(k)).is_some())
                            .count(),
                        _ => stream
                            .chunks(w)
                            .map(|chunk| {
                                let out = &mut out[..chunk.len()];
                                idx.get_batch(chunk, out);
                                black_box(&*out).iter().filter(|o| o.is_some()).count()
                            })
                            .sum(),
                    });
                    assert_eq!(
                        hits,
                        expect_hits,
                        "{} width {w}: batched hit count diverged from scalar",
                        kind.name()
                    );
                    stream.len() as f64 / s / 1e6
                }));
                let row = || {
                    Row::new("batch_lookup")
                        .index(kind.name())
                        .dataset(ds.name())
                        .workload("read-only")
                        .x(w as f64)
                };
                row()
                    .mops(mops)
                    .value("elapsed_ms", stream.len() as f64 / mops / 1e3)
                    .emit();
                if w == 1 {
                    width1_mops = Some(mops);
                } else if let Some(base) = width1_mops {
                    row().value("speedup_vs_width1", mops / base).emit();
                }
            }
        }
    }
}

/// Min/median bucket-throughput ratio over the interior buckets (the
/// final bucket is partially filled by construction and would read as a
/// fake stall): 1.0 = perfectly flat, lower = deeper stall.
fn stall_ratio(r: &RunResult) -> f64 {
    let mut m = r.bucket_mops();
    m.pop();
    if m.is_empty() {
        return 1.0;
    }
    m.sort_by(f64::total_cmp);
    let median = m[m.len() / 2];
    if median <= 0.0 {
        // More than half the buckets produced nothing: the run is
        // dominated by stalls, the worst possible ratio.
        return 0.0;
    }
    m[0] / median
}

/// **retrain_shift**: throughput-over-time under distribution shift.
/// Each of the three shift workloads (monotonic append, rolling window,
/// sudden mid-run shift) runs over an ALT-index built from the same
/// preload, the paper's §III-F retrain run by the inserting thread. The
/// driver records operations completed per `--bucket-ms` bucket (default
/// 50), so a retrain stall would show up as a dip in the curve.
///
/// Rows: per workload a `summary` row with overall `mops` and
/// `stall_ratio`, `summary` rows for total `retrains` and
/// `retrain_rollbacks` (nonzero only when the `fault` feature injects
/// failures), and one `timeline` row per bucket (`x` = bucket start in
/// ms, `mops` = that bucket's throughput).
pub fn retrain_shift(args: &Args) {
    // The preload must sit well below the per-run insert volume or the
    // tail model never overflows its own build size and nothing retrains
    // (see crates/workloads/src/shift.rs). /8 keeps it below even the
    // rolling window's insert share (half its mutate half), so all three
    // workloads retrain.
    let preload = ((args.ops * args.threads / 8) as u64).max(1_000);
    let cfg = DriverConfig {
        bucket_ms: args.bucket_ms,
        ..DriverConfig::default()
    };
    for kind in ShiftKind::ALL {
        let mut plan = ShiftPlan::new(kind, args.seed);
        plan.preload = preload;
        let idx = AltIndex::bulk_load_default(&plan.initial_pairs());
        let streams = (0..args.threads).map(|t| plan.stream(t, args.threads, args.ops));
        let r = workloads::run(&idx, streams.collect(), &cfg);
        assert_eq!(r.failed_inserts, 0, "shift streams are disjoint");
        let row = |workload| {
            Row::new("retrain_shift")
                .index("alt")
                .dataset(kind.label())
                .workload(workload)
        };
        row("summary")
            .mops(r.mops)
            .value("stall_ratio", stall_ratio(&r))
            .emit();
        for (metric, v) in [
            ("retrains", idx.retrain_count()),
            ("retrain_rollbacks", idx.retrain_rollback_count()),
        ] {
            row("summary").value(metric, v as f64).emit();
        }
        for (i, m) in r.bucket_mops().into_iter().enumerate() {
            row("timeline")
                .x((i as u64 * r.bucket_ms) as f64)
                .mops(m)
                .emit();
        }
    }
}
