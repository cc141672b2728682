//! **service_throughput**: the region router + async batched front-end
//! under an open-ended fan of simulated connections (DESIGN.md §17).
//!
//! Each *connection* is an async task on the shimmed tokio runtime that
//! issues zipfian point lookups back-to-back. Three serving modes are
//! measured at every `--connections` count:
//!
//! * `direct`  — each connection calls `ConcurrentIndex::get` in a loop
//!   (no front-end; the zero-overhead reference),
//! * `perkey`  — every request goes through a [`region::BatchServer`]
//!   with `ring_width = 1`, i.e. classic request-at-a-time serving with
//!   the front-end's queue/completion machinery,
//! * `batched` — the same front-end with the `--ring` width, so
//!   concurrent in-flight requests accumulate into AMAC `get_batch`
//!   rings (one submission queue per worker thread's stripe; the router
//!   over `--shards` shards splits each ring into one `get_batch` per
//!   shard that owns keys in it).
//!
//! `batched` vs `perkey` therefore isolates what batching buys on the
//! serving path; `direct` shows the front-end's intrinsic overhead.
//! Rows record throughput of *served* requests, sampled P99.9 latency,
//! and the shed rate (admission control rejects rather than queueing
//! unboundedly once `--max-depth` requests are in flight; `--burst N`
//! makes demand open-loop so it engages). A final `saturation_mops` row
//! per mode reports the best throughput over the connection sweep, plus
//! a `batched_vs_perkey` speedup row.

use crate::report::best;
use crate::{Args, Row, Setup};
use alt_index::AltIndex;
use datasets::rng::SplitMix64;
use index_api::ConcurrentIndex;
use region::{BatchServer, RegionConfig, RegionIndex, ServeConfig, ServeError};
use std::sync::Arc;
use std::time::Instant;
use workloads::{LatencyHistogram, Zipf};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Direct,
    PerKey,
    Batched,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::PerKey => "perkey",
            Mode::Batched => "batched",
        }
    }
}

/// Outcome of one mode × connection-count measurement.
struct Measured {
    mops: f64,
    p999_us: f64,
    shed_rate: f64,
    /// Mean `get_batch` ring occupancy (1.0 in per-key/direct modes).
    avg_batch: f64,
    /// Which path flushed: what explains a change in `avg_batch`.
    ring_flushes: u64,
    leader_flushes: u64,
}

/// Serve `conns` connections of `args.ops` requests each in `mode`.
fn run_mode(
    args: &Args,
    index: &Arc<dyn ConcurrentIndex>,
    loaded: &Arc<Vec<u64>>,
    mode: Mode,
    conns: usize,
) -> Measured {
    let server = (mode != Mode::Direct).then(|| {
        let config = ServeConfig {
            ring_width: if mode == Mode::Batched { args.ring } else { 1 },
            max_depth: args.max_depth,
        };
        Arc::new(BatchServer::new(Arc::clone(index), config))
    });
    // Open-loop bursts only make sense through the front-end.
    let burst = if mode == Mode::Direct { 1 } else { args.burst };
    let (reqs_per_conn, seed) = (args.ops, args.seed);
    let rt = Arc::new(
        tokio::runtime::Builder::new_multi_thread()
            .worker_threads(args.threads)
            .build()
            .expect("runtime"),
    );
    // One shared sampler: `Zipf::new` precomputes a zeta sum over the
    // whole key count, far too expensive to redo per connection.
    let zipf = Arc::new(Zipf::new(loaded.len().max(1) as u64, args.theta));
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|c| {
            let index = Arc::clone(index);
            let server = server.clone();
            let loaded = Arc::clone(loaded);
            let zipf = Arc::clone(&zipf);
            let rt2 = Arc::clone(&rt);
            rt.spawn(async move {
                let mut rng =
                    SplitMix64::new(seed ^ (c as u64).wrapping_mul(0x5851_F42D_4C95_7F2D));
                let key_at = |rng: &mut SplitMix64| {
                    let rank = zipf.sample(rng) as usize;
                    loaded[rank.wrapping_mul(0x9E37_79B9) % loaded.len()]
                };
                let mut hist = LatencyHistogram::new();
                let (mut served, mut shed) = (0u64, 0u64);
                if burst > 1 {
                    // Open-loop bursts: fire a window of requests as
                    // concurrent tasks, then collect — demand is not
                    // throttled by individual completions, so admission
                    // control genuinely engages under overload.
                    let srv = server.expect("burst mode requires the serving front-end");
                    for _ in 0..reqs_per_conn.div_ceil(burst) {
                        let reqs: Vec<_> = (0..burst)
                            .map(|_| {
                                let srv = Arc::clone(&srv);
                                let key = key_at(&mut rng);
                                rt2.spawn(async move {
                                    let t0 = Instant::now();
                                    (srv.get(key).await, t0.elapsed())
                                })
                            })
                            .collect();
                        for h in reqs {
                            let (res, lat) = h.await.expect("request task");
                            match res {
                                Ok(_) => {
                                    served += 1;
                                    hist.record(lat.as_nanos() as u64);
                                }
                                Err(ServeError::Overloaded) => shed += 1,
                                Err(ServeError::Shutdown) => panic!("server shut down mid-run"),
                            }
                        }
                    }
                } else {
                    // Closed loop: one request at a time per connection.
                    for i in 0..reqs_per_conn {
                        let key = key_at(&mut rng);
                        let t0 = (i % 8 == 0).then(Instant::now);
                        let ok = match &server {
                            None => {
                                let _ = index.get(key);
                                true
                            }
                            Some(srv) => match srv.get(key).await {
                                Ok(_) => true,
                                Err(ServeError::Overloaded) => false,
                                Err(ServeError::Shutdown) => panic!("server shut down mid-run"),
                            },
                        };
                        if ok {
                            served += 1;
                            if let Some(t0) = t0 {
                                hist.record(t0.elapsed().as_nanos() as u64);
                            }
                        } else {
                            shed += 1;
                        }
                    }
                }
                (hist, served, shed)
            })
        })
        .collect();
    let (mut all, mut served, mut shed) = (LatencyHistogram::new(), 0u64, 0u64);
    rt.block_on(async {
        for h in handles {
            let (hist, s, d) = h.await.expect("connection task");
            all.merge(&hist);
            served += s;
            shed += d;
        }
    });
    let secs = start.elapsed().as_secs_f64();
    drop(rt);
    let st = server.map(|srv| srv.stats()).unwrap_or_default();
    Measured {
        mops: served as f64 / secs / 1e6,
        p999_us: all.quantile(0.999) as f64 / 1_000.0,
        shed_rate: shed as f64 / (served + shed).max(1) as f64,
        avg_batch: match st.flushes {
            0 => 1.0,
            flushes => st.batched_keys as f64 / flushes as f64,
        },
        ring_flushes: st.ring_flushes,
        leader_flushes: st.leader_flushes,
    }
}

/// The experiment: every mode over the connection sweep, per dataset.
pub fn run(args: &Args) {
    let shards = args.shards;
    for &ds in &args.datasets {
        let setup = Setup::half(ds, args.keys, args.seed);
        let region = RegionIndex::<AltIndex>::bulk_load_with(
            &setup.bulk,
            RegionConfig {
                initial_shards: shards,
                construction_threads: args.construction_threads(),
            },
        );
        assert_eq!(region.shard_count(), shards.max(1));
        let index: Arc<dyn ConcurrentIndex> = Arc::new(region);
        let loaded = Arc::new(setup.loaded_keys());

        let row = |mode: Mode| {
            Row::new("service_throughput")
                .index("ALT-region")
                .dataset(ds.name())
                .workload(&format!("{}+shards{shards}", mode.label()))
        };
        let [_, perkey, batched] = [Mode::Direct, Mode::PerKey, Mode::Batched].map(|mode| {
            // Saturation: best served throughput over the sweep.
            let saturation = best(args.connections.iter().map(|&conns| {
                let m = run_mode(args, &index, &loaded, mode, conns);
                let at = || row(mode).x(conns as f64);
                at().mops(m.mops)
                    .p999(m.p999_us)
                    .value("shed_rate", m.shed_rate)
                    .emit();
                if mode == Mode::Batched {
                    at().value("avg_batch", m.avg_batch).emit();
                    at().value("ring_flushes", m.ring_flushes as f64).emit();
                    at().value("leader_flushes", m.leader_flushes as f64).emit();
                }
                m.mops
            }));
            row(mode)
                .mops(saturation)
                .value("saturation_mops", saturation)
                .emit();
            saturation
        });
        row(Mode::Batched)
            .value("batched_vs_perkey", batched / perkey.max(f64::MIN_POSITIVE))
            .emit();
    }
}
