//! **batch_lookup**: single-thread read throughput of `get_batch` across
//! batch widths — the memory-level-parallelism axis. Point lookups on a
//! learned index are dominated by cache misses (directory line, slot
//! line, ART nodes); the AMAC engines overlap those misses across a ring
//! of in-flight keys, so throughput should climb with width until the
//! ring covers the load-to-use latency and then flatten.
//!
//! Sweeps `--batch-width` (default {1, 8, 16, 32, 64}; width 1 is the
//! scalar `get` loop, the baseline) over every selected index and
//! dataset. Every row carries a `simd` tag naming the child-search
//! kernel the build compiled (`off` = `--features simd/force-scalar`), so
//! the vector search is compared against the per-byte kernel by running
//! two builds on the same stream. The lookup
//! stream is a deterministic shuffle of loaded and absent keys (90/10),
//! the same stream for every width, so rows are directly comparable.
//! When the sweep includes width 1, a `speedup_vs_width1` row is
//! emitted per wider point — `scripts/run_all_experiments.sh` collects
//! the `#json` lines into `results/BENCH_batch_lookup.json`.

use bench::report::{banner, Row};
use bench::Args;
use bench::IndexKind;
use bench::Setup;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes per (index, dataset, width) point; best time
/// wins (5, up from 2, after a recorded run where two consecutive
/// points caught host interference in both passes — construction
/// dominates the run, so extra passes are nearly free).
const REPS: usize = 5;

/// Deterministic lookup stream: a splitmix-shuffled mix of loaded keys
/// (90%) and reserved — i.e. absent — keys (10%), `ops` entries long.
fn lookup_stream(setup: &Setup, ops: usize, seed: u64) -> Vec<u64> {
    let loaded = setup.loaded_keys();
    let mut state = seed | 1;
    let mut rng = move || {
        // splitmix64: deterministic, no RNG dependency.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..ops)
        .map(|_| {
            let r = rng();
            if r % 10 == 0 && !setup.reserve.is_empty() {
                setup.reserve[(r / 10) as usize % setup.reserve.len()]
            } else {
                loaded[(r / 10) as usize % loaded.len()]
            }
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let sweep = args.batch_width_sweep();
    let vector = !simd::SCALAR_BUILD;
    banner(
        "batch_lookup",
        &format!(
            "keys={}, ops={}, batch-width sweep {:?}, simd {}, seed={}",
            args.keys,
            args.ops,
            sweep,
            if vector { "on" } else { "off (scalar build)" },
            args.seed
        ),
    );
    for ds in &args.datasets {
        let setup = Setup::half(*ds, args.keys, args.seed);
        let stream = lookup_stream(&setup, args.ops, args.seed ^ 0xBA7C);
        for kind in IndexKind::COMPETITORS {
            if !args.wants_index(kind.name()) {
                continue;
            }
            let idx = kind.build_threaded(&setup.bulk, args.construction_threads());
            // Reference results from the scalar path, used both to keep
            // the batched runs honest and to avoid dead-code elimination.
            let expect_hits: usize = stream.iter().filter(|&&k| idx.get(k).is_some()).count();
            // Width-1 baseline for the speedup_vs_width1 rows.
            let mut width1_mops = None::<f64>;
            for &w in &sweep {
                let mut best = f64::INFINITY;
                for _ in 0..REPS {
                    let mut hits = 0usize;
                    let mut out = vec![None; w];
                    let start = Instant::now();
                    if w == 1 {
                        for &k in &stream {
                            hits += usize::from(black_box(idx.get(k)).is_some());
                        }
                    } else {
                        for chunk in stream.chunks(w) {
                            idx.get_batch(chunk, &mut out[..chunk.len()]);
                            hits += black_box(&out[..chunk.len()])
                                .iter()
                                .filter(|o| o.is_some())
                                .count();
                        }
                    }
                    let elapsed = start.elapsed().as_secs_f64();
                    assert_eq!(
                        hits,
                        expect_hits,
                        "{} width {w}: batched hit count diverged from scalar",
                        kind.name()
                    );
                    best = best.min(elapsed);
                }
                let mops = stream.len() as f64 / best / 1e6;
                if w == 1 {
                    width1_mops = Some(mops);
                }
                let row = || {
                    Row::new("batch_lookup")
                        .index(kind.name())
                        .dataset(ds.name())
                        .workload("read-only")
                        .x(w as f64)
                        .simd(vector)
                };
                row().mops(mops).value("elapsed_ms", best * 1e3).emit();
                if let (Some(base), true) = (width1_mops, w != 1) {
                    row().value("speedup_vs_width1", mops / base).emit();
                }
            }
            drop(idx);
        }
    }
    bench::metrics::emit_if_requested(&args, "batch_lookup");
}
