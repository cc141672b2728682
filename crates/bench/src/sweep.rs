//! The driver-shaped experiment: dataset × index × mix (× one swept
//! axis) → Mops/s and P99.9. A [`Sweep`] is plain data — the rows of
//! [`crate::registry::EXPERIMENTS`] — and [`run_sweep`] is its one
//! interpreter, the only caller of `workloads::run` for the paper's
//! tables and figures.

use crate::{Args, IndexKind, Row, Setup};
use alt_index::{AltConfig, AltIndex};
use datasets::Dataset;
use index_api::ConcurrentIndex;
use std::sync::Arc;
use workloads::{DriverConfig, Mix, YcsbKind, YcsbPlan};

/// Latency is sampled on every eighth timed unit in every sweep.
const SAMPLE_EVERY: usize = 8;

/// Which datasets a sweep covers.
pub enum Data {
    /// Every `--datasets` entry.
    Args,
    /// The first `--datasets` entry only (single-dataset parameter
    /// sweeps).
    First,
    /// A fixed list the figure names, whatever `--datasets` says.
    Fixed(&'static [Dataset]),
}

/// How the generated keys split into bulk load and insert reserve.
#[derive(Clone, Copy)]
pub enum Split {
    /// §IV-A2: bulk-load an interleaved 50 %.
    Half,
    /// Fig 8(b): reserve one consecutive 10 % run ([`Setup::hot_write`]).
    HotWrite,
}

/// One index under measurement.
pub enum Build {
    /// A registry competitor under its paper label.
    Kind(IndexKind),
    /// A labelled ALT-index: the default configuration as edited by the
    /// function, which also sees the [`Axis::Build`] point (0 when the
    /// sweep has none).
    Alt(&'static str, fn(&mut AltConfig, f64)),
    /// Any other labelled build over the bulk pairs and the
    /// [`Axis::Build`] point (Fig 3(b)'s baselines per error budget).
    Other(&'static str, fn(&[(u64, u64)], f64) -> DynIndex),
}

/// An index behind the trait every experiment drives.
pub type DynIndex = Arc<dyn ConcurrentIndex>;

/// The one swept axis: where each row's `x` goes.
#[derive(Clone, Copy)]
pub enum Axis {
    /// No sweep; rows carry no `x`.
    None,
    /// Driver thread count 1, 2, 4 … up to `min(32, 8 × --threads)`.
    Threads,
    /// Zipfian skew of the reads.
    Theta(&'static [f64]),
    /// Bulk-loaded share of the keys, overriding [`Sweep::split`].
    InitRatio(&'static [f64]),
    /// A build parameter (ε) handed to every [`Build`].
    Build(&'static [f64]),
}

/// An extra row field beside `mops`.
pub enum Col {
    /// Sampled P99.9 latency.
    P999,
    /// `learned_share` of an [`Build::Alt`] index after the run.
    LearnedShare,
    /// `read_hit_rate` of the run's reads.
    ReadHitRate,
}

/// The operation streams of a sweep.
#[derive(Clone, Copy)]
pub enum Load {
    /// A percentage mix over zipfian reads and reserved inserts.
    Mix(Mix),
    /// A YCSB D/E scenario generator.
    Ycsb(YcsbKind),
}

/// One driver-shaped experiment.
pub struct Sweep {
    /// Dataset rule.
    pub data: Data,
    /// Bulk/reserve split.
    pub split: Split,
    /// The indexes, in row order.
    pub builds: &'static [Build],
    /// Operation streams.
    pub load: Load,
    /// The rows' `workload` label (`+batchN` is appended under
    /// `--batch N`).
    pub workload: &'static str,
    /// Operations per thread as a function of `--ops` and the thread
    /// count: Fig 8(c) runs a twentieth (a scan touches 100 keys), Fig 9
    /// keeps total work roughly constant across its thread sweep.
    pub ops: fn(usize, usize) -> usize,
    /// The swept axis.
    pub axis: Axis,
    /// Row fields beside `mops`.
    pub cols: &'static [Col],
}

/// The paper's competitor set (Figs 7-9, Table I), in its row order.
pub const COMPETITORS: &[Build] = &[
    Build::Kind(IndexKind::Alt),
    Build::Kind(IndexKind::Alex),
    Build::Kind(IndexKind::Lipp),
    Build::Kind(IndexKind::XIndex),
    Build::Kind(IndexKind::Finedex),
    Build::Kind(IndexKind::Art),
];

impl Sweep {
    /// The common case every table row overrides from: all
    /// `--datasets`, 50 % bulk load, the six competitors, the balanced
    /// mix, `--ops` per thread, no axis, `mops` only.
    pub const BASE: Sweep = Sweep {
        data: Data::Args,
        split: Split::Half,
        builds: COMPETITORS,
        load: Load::Mix(Mix::BALANCED),
        workload: "balanced",
        ops: |ops, _threads| ops,
        axis: Axis::None,
        cols: &[],
    };
}

impl Build {
    /// The row's `index` label.
    pub fn label(&self) -> &'static str {
        match self {
            Build::Kind(kind) => kind.name(),
            Build::Alt(label, _) | Build::Other(label, _) => label,
        }
    }

    /// Bulk-load the index; the second handle is the concrete ALT-index
    /// when there is one (for [`Col::LearnedShare`]).
    fn build(
        &self,
        pairs: &[(u64, u64)],
        x: f64,
        threads: usize,
    ) -> (DynIndex, Option<Arc<AltIndex>>) {
        match self {
            Build::Kind(kind) => (kind.build_threaded(pairs, threads), None),
            Build::Alt(_, edit) => {
                let mut config = AltConfig {
                    build_threads: threads,
                    ..Default::default()
                };
                edit(&mut config, x);
                let alt = Arc::new(AltIndex::bulk_load_with(pairs, config));
                (alt.clone(), Some(alt))
            }
            Build::Other(_, build) => (build(pairs, x), None),
        }
    }
}

/// Run `sweep`, emitting one row per (dataset, axis point, index) under
/// experiment id `id`.
pub fn run_sweep(args: &Args, id: &str, sweep: &Sweep) {
    let datasets = match sweep.data {
        Data::Args => args.datasets.clone(),
        Data::First => vec![args.datasets.first().copied().unwrap_or(Dataset::Osm)],
        Data::Fixed(list) => list.to_vec(),
    };
    let points: Vec<Option<f64>> = match sweep.axis {
        Axis::None => vec![None],
        Axis::Threads => [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
            .into_iter()
            .filter(|&t| t <= (args.threads.max(1) * 8) as f64)
            .map(Some)
            .collect(),
        Axis::Theta(p) | Axis::InitRatio(p) | Axis::Build(p) => {
            p.iter().copied().map(Some).collect()
        }
    };
    let workload = match args.batch {
        0 | 1 => sweep.workload.to_string(),
        n => format!("{}+batch{n}", sweep.workload),
    };
    let cfg = DriverConfig {
        latency_sample_every: SAMPLE_EVERY,
        batch: args.batch,
        bucket_ms: 0,
    };
    for ds in datasets {
        let split = |x: Option<f64>| match (sweep.axis, sweep.split) {
            (Axis::InitRatio(_), _) => Setup::new(ds, args.keys, x.unwrap(), args.seed),
            (_, Split::Half) => Setup::half(ds, args.keys, args.seed),
            (_, Split::HotWrite) => Setup::hot_write(ds, args.keys, args.seed),
        };
        let mut setup = None;
        for &x in &points {
            // One key generation per dataset unless the split is swept.
            if matches!(sweep.axis, Axis::InitRatio(_)) {
                setup = None;
            }
            let setup = setup.get_or_insert_with(|| split(x));
            let theta = match sweep.axis {
                Axis::Theta(_) => x.unwrap(),
                _ => args.theta,
            };
            let threads = match sweep.axis {
                Axis::Threads => x.unwrap() as usize,
                _ => args.threads,
            };
            let ops = (sweep.ops)(args.ops, threads);
            for build in sweep.builds {
                if !args.wants_index(build.label()) {
                    continue;
                }
                let (idx, alt) =
                    build.build(&setup.bulk, x.unwrap_or(0.0), args.construction_threads());
                let r = match sweep.load {
                    Load::Mix(mix) => {
                        let plan = setup.plan(mix, theta, args.seed);
                        let streams = (0..threads).map(|t| plan.stream(t, threads, ops));
                        workloads::run(&*idx, streams.collect(), &cfg)
                    }
                    Load::Ycsb(kind) => {
                        let (loaded, reserve) = (setup.loaded_keys(), setup.reserve.clone());
                        let plan = YcsbPlan::new(loaded, reserve, kind, theta, args.seed);
                        let streams = (0..threads).map(|t| plan.stream(t, threads, ops));
                        workloads::run(&*idx, streams.collect(), &cfg)
                    }
                };
                let mut row = Row::new(id)
                    .index(build.label())
                    .dataset(ds.name())
                    .workload(&workload)
                    .mops(r.mops);
                if let Some(x) = x {
                    row = row.x(x);
                }
                for col in sweep.cols {
                    row = match col {
                        Col::P999 => row.p999(r.p999_us),
                        Col::LearnedShare => {
                            let alt = alt.as_ref().expect("learned_share needs Build::Alt");
                            row.value("learned_share", alt.stats().learned_share())
                        }
                        Col::ReadHitRate => row.value(
                            "read_hit_rate",
                            match r.reads {
                                0 => 1.0,
                                reads => r.read_hits as f64 / reads as f64,
                            },
                        ),
                    };
                }
                row.emit();
            }
        }
    }
}
