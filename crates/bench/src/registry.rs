//! The experiment table: every table and figure of the evaluation under
//! one id, either a [`Sweep`] row (interpreted by
//! [`crate::sweep::run_sweep`]) or a plain function of
//! [`crate::studies`] / [`crate::service`], and the one dispatcher that
//! runs a selection of them.

use crate::report::banner;
use crate::sweep::{run_sweep, Axis, Build, Col, Data, Load, Split, Sweep};
use crate::{service, studies, Args};
use baselines::{FinedexLike, XIndexLike};
use datasets::Dataset;
use std::sync::Arc;
use workloads::Mix;

/// How an experiment is measured.
pub enum Run {
    /// Driver-shaped: a row of data for the one interpreter.
    Sweep(Sweep),
    /// Anything else: an ordinary function.
    Func(fn(&Args)),
}

/// One registered experiment.
pub struct Experiment {
    /// The `experiment` field of its `#json` rows, and its selector.
    pub id: &'static str,
    /// The figure it is a part of (`fig7` for `fig7c`; the id itself
    /// when the figure has no parts): selects all parts at once,
    /// narrowed by `--part`.
    pub group: &'static str,
    /// The measurement.
    pub run: Run,
}

impl Experiment {
    /// The sub-figure letter `--part` filters on (`""` when unparted).
    pub fn part(&self) -> &'static str {
        if self.id == self.group {
            ""
        } else {
            &self.id[self.id.len() - 1..]
        }
    }
}

const fn sweep(id: &'static str, group: &'static str, sweep: Sweep) -> Experiment {
    let run = Run::Sweep(sweep);
    Experiment { id, group, run }
}

const fn func(id: &'static str, group: &'static str, f: fn(&Args)) -> Experiment {
    let run = Run::Func(f);
    Experiment { id, group, run }
}

/// A Fig 7 panel: throughput + P99.9 of all six indexes on every dataset
/// under one point-op mix. Paper shape: ALT-index leads or ties, the gap
/// widens with the write share, ALEX+'s P99.9 degrades on hard datasets,
/// LIPP+ trails under writes.
const fn fig7(id: &'static str, mix: Mix, workload: &'static str) -> Experiment {
    let panel = Sweep {
        load: Load::Mix(mix),
        workload,
        cols: &[Col::P999],
        ..Sweep::BASE
    };
    sweep(id, "fig7", panel)
}

/// Every experiment, in the order `scripts/run_all_experiments.sh` runs
/// them.
pub const EXPERIMENTS: &[Experiment] = &[
    // Table I: balanced 50/50 on libio and osm; ALEX+ fastest on libio
    // with a P99.9 blow-up on osm (data shifting), LIPP+ slowest
    // (statistics counters), ART high on both
    sweep(
        "table1",
        "table1",
        Sweep {
            data: Data::Fixed(&[Dataset::Libio, Dataset::Osm]),
            cols: &[Col::P999],
            ..Sweep::BASE
        },
    ),
    // model counts: XIndex groups and FINEdex segments (millions) vs
    // ALT-index GPL models (thousands)
    func("fig3a", "fig3", studies::fig3a),
    // read-only throughput of FINEdex (LPA ε) and XIndex (group size ≈
    // 24ε) as the error budget grows: peak near 32-64, then the
    // secondary search dominates
    sweep(
        "fig3b",
        "fig3",
        Sweep {
            data: Data::First,
            builds: &[
                Build::Other("FINEdex", |pairs, eps| {
                    Arc::new(FinedexLike::build_with_eps(pairs, eps))
                }),
                Build::Other("XIndex", |pairs, eps| {
                    Arc::new(XIndexLike::build_with_group(pairs, (eps * 24.0) as usize))
                }),
            ],
            load: Load::Mix(Mix::READ_ONLY),
            workload: "read-only",
            axis: Axis::Build(&[8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]),
            ..Sweep::BASE
        },
    ),
    // segmentation: GPL vs ShrinkingCone vs LPA segment counts, build
    // times, verified max error (ε = 64)
    func("fig4", "fig4", studies::fig4),
    // ε vs GPL model count: inverse proportionality (Eq. 1)
    func("fig6a", "fig6", studies::fig6a),
    // ε vs read-only throughput: rises, peaks, then declines slowly
    // through the stable area as conflict data shifts into ART (Eq. 4)
    sweep(
        "fig6b",
        "fig6",
        Sweep {
            builds: &[Build::Alt("ALT-index", |c, eps| c.epsilon = Some(eps))],
            load: Load::Mix(Mix::READ_ONLY),
            workload: "read-only",
            axis: Axis::Build(studies::FIG6_EPS),
            ..Sweep::BASE
        },
    ),
    fig7("fig7a", Mix::READ_ONLY, "read-only"),
    fig7("fig7b", Mix::READ_HEAVY, "read-heavy"),
    fig7("fig7c", Mix::BALANCED, "balanced"),
    fig7("fig7d", Mix::WRITE_HEAVY, "write-heavy"),
    fig7("fig7e", Mix::WRITE_ONLY, "write-only"),
    // memory after loading 50 % and inserting the rest: LIPP+ most,
    // ALEX+ least, ALT-index below the delta-buffer designs
    func("fig8a", "fig8", studies::fig8a),
    // hot write (a consecutive reserved run hammers one region):
    // ALT-index wins by retraining, XIndex stays stable via background
    // merges
    sweep(
        "fig8b",
        "fig8",
        Sweep {
            split: Split::HotWrite,
            workload: "hot-write",
            cols: &[Col::P999],
            ..Sweep::BASE
        },
    ),
    // 100-key scans from zipfian start keys: ALEX+ fastest, ALT-index
    // competitive
    sweep(
        "fig8c",
        "fig8",
        Sweep {
            load: Load::Mix(Mix::SCAN),
            workload: "scan100",
            ops: |ops, _threads| (ops / 20).max(1_000),
            ..Sweep::BASE
        },
    ),
    // read throughput after bulk-loading 25/50/75/100 % of osm:
    // ALT-index degrades least
    sweep(
        "fig8d",
        "fig8",
        Sweep {
            data: Data::Fixed(&[Dataset::Osm]),
            load: Load::Mix(Mix::READ_ONLY),
            workload: "read-only",
            axis: Axis::InitRatio(&[0.25, 0.5, 0.75, 1.0]),
            ..Sweep::BASE
        },
    ),
    // balanced on osm across zipf θ: everyone speeds up with skew,
    // ALT-index stays on top
    sweep(
        "fig8e",
        "fig8",
        Sweep {
            data: Data::Fixed(&[Dataset::Osm]),
            axis: Axis::Theta(&[0.0, 0.5, 0.8, 0.9, 0.99]),
            ..Sweep::BASE
        },
    ),
    // scalability, balanced, threads 1→32 (points past the host's cores
    // measure oversubscription; the ordering still reflects structural
    // contention): ALT-index scales best, LIPP+ plateaus early, ALEX+
    // flattens at 16→32
    sweep(
        "fig9",
        "fig9",
        Sweep {
            ops: |ops, threads| (ops * 4 / threads).max(10_000),
            axis: Axis::Threads,
            ..Sweep::BASE
        },
    ),
    // data share of the learned layer vs ART (>50 % learned, >80 % on
    // libio)
    func("fig10c", "fig10", studies::fig10c),
    // bulk-load time of ALT-index vs ALEX+ vs LIPP+ (ALT fastest)
    func("fig10d", "fig10", studies::fig10d),
    // dynamic retraining (§III-F) on/off, hot write; learned share after
    // the run
    sweep(
        "abl-b",
        "ablation",
        Sweep {
            split: Split::HotWrite,
            builds: &[
                Build::Alt("retrain-on", |c, _| c.retrain = true),
                Build::Alt("retrain-off", |c, _| c.retrain = false),
            ],
            workload: "hot-write",
            cols: &[Col::LearnedShare],
            ..Sweep::BASE
        },
    ),
    // free-form: seven index kinds under --mix r,i,s or --ycsb d|e
    func("ycsb", "ycsb", studies::ycsb),
    // construction time across --build-threads, speedup vs serial
    func("bulk_build", "bulk_build", studies::bulk_build),
    // single-thread get_batch throughput across --batch-width, speedup
    // vs width 1
    func("batch_lookup", "batch_lookup", studies::batch_lookup),
    // throughput over time under distribution shift (append, rolling
    // window, sudden shift), retrained by the inserting thread
    func("retrain_shift", "retrain_shift", studies::retrain_shift),
    // served throughput of direct / per-key / batched modes across
    // --connections
    func("service_throughput", "service_throughput", service::run),
];

/// The experiments `args` names (ids or groups, narrowed by `--part`),
/// in table order; an error listing the known names otherwise.
pub fn select(args: &Args) -> Result<Vec<&'static Experiment>, String> {
    let known = || {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        format!("known experiments: {}", ids.join(" "))
    };
    if args.experiments.is_empty() {
        return Err(format!("no experiment named; {}", known()));
    }
    for name in &args.experiments {
        if !EXPERIMENTS.iter().any(|e| e.id == name || e.group == name) {
            return Err(format!("unknown experiment {name}; {}", known()));
        }
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|e| {
            args.experiments
                .iter()
                .any(|n| e.id == n || (e.group == n && args.wants_part(e.part())))
        })
        .collect())
}

/// Run the selected experiments: the chaos schedule (`--chaos-seed`) is
/// installed once around all of them and the metrics rows (`--metrics`)
/// are emitted once after, tagged with the selection as typed — so both
/// flags reach every experiment.
pub fn run(args: &Args) -> Result<(), String> {
    let selected = select(args)?;
    let _chaos = crate::chaos::install_if_requested(args);
    for e in selected {
        banner(
            e.id,
            &format!(
                "keys={} threads={} ops/thread={} theta={} seed={}",
                args.keys, args.threads, args.ops, args.theta, args.seed
            ),
        );
        match &e.run {
            Run::Sweep(sweep) => run_sweep(args, e.id, sweep),
            Run::Func(f) => f(args),
        }
    }
    crate::metrics::emit_if_requested(args, &args.experiments.join(","));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(|s| s.to_string()))
    }

    fn ids(v: &[&str]) -> Vec<&'static str> {
        select(&args(v)).unwrap().iter().map(|e| e.id).collect()
    }

    #[test]
    fn the_id_list_is_exactly_the_evaluation() {
        let mut expect = vec!["table1", "fig3a", "fig3b", "fig4", "fig6a", "fig6b"];
        expect.extend(["fig7a", "fig7b", "fig7c", "fig7d", "fig7e"]);
        expect.extend(["fig8a", "fig8b", "fig8c", "fig8d", "fig8e", "fig9"]);
        expect.extend(["fig10c", "fig10d"]);
        expect.extend(["abl-b", "ycsb"]);
        expect.extend(["bulk_build", "batch_lookup", "retrain_shift"]);
        expect.push("service_throughput");
        let got: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(got, expect);
        let unique: std::collections::HashSet<&str> = got.iter().copied().collect();
        assert_eq!(unique.len(), got.len(), "ids are unique");
    }

    #[test]
    fn figure_names_and_parts_select_their_ids() {
        assert_eq!(ids(&["table1"]), ["table1"]);
        assert_eq!(ids(&["table1", "--part", "c"]), ["table1"], "unparted");
        assert_eq!(
            ids(&["fig7"]),
            ["fig7a", "fig7b", "fig7c", "fig7d", "fig7e"]
        );
        assert_eq!(ids(&["fig7", "--part", "C"]), ["fig7c"]);
        assert_eq!(ids(&["fig10", "--part", "e"]), [] as [&str; 0]);
        assert_eq!(ids(&["ablation"]), ["abl-b"]);
        assert_eq!(ids(&["ablation", "--part", "b"]), ["abl-b"]);
        assert_eq!(ids(&["ablation", "--part", "c"]), [] as [&str; 0]);
        // An id names its part itself; table order, not argument order.
        assert_eq!(ids(&["fig8e,fig3"]), ["fig3a", "fig3b", "fig8e"]);
        for e in EXPERIMENTS {
            let parted = e.id != e.group;
            assert_eq!(parted, !e.part().is_empty(), "{}", e.id);
            assert!(args(&[]).wants_part(e.part()), "no --part runs all");
        }
    }

    #[test]
    fn indexes_filter_a_sweeps_builds_by_label() {
        let a = args(&["fig7c", "--indexes", "alt-index,art"]);
        let Run::Sweep(sweep) = &select(&a).unwrap()[0].run else {
            panic!("fig7c is a sweep");
        };
        let kept: Vec<&str> = sweep
            .builds
            .iter()
            .map(Build::label)
            .filter(|l| a.wants_index(l))
            .collect();
        assert_eq!(kept, ["ALT-index", "ART"]);
    }

    #[test]
    fn unknown_or_missing_names_list_the_known_ones() {
        for v in [&["fig11"][..], &["table1,nope"], &[]] {
            let err = select(&args(v)).err().expect("must not select");
            assert!(err.contains("known experiments: table1 fig3a"), "{err}");
            assert!(err.contains("service_throughput"), "{err}");
            assert!(run(&args(v)).is_err());
        }
        let err = select(&args(&["fig11"])).err().unwrap();
        assert!(err.starts_with("unknown experiment fig11"), "{err}");
    }
}
