//! Optional hot-path metrics surfacing for the experiment binaries.
//!
//! Pass `--metrics` to any binary built with `--features metrics` and the
//! run's `probe::metrics` counters are appended to the report: one
//! `#json` row per nonzero counter (experiment-tagged, so
//! `scripts/summarize_results.py` picks them up alongside the throughput
//! rows) plus the human-readable dump. Without the feature the flag
//! still parses but only prints a pointer at the rebuild incantation —
//! the recording is compiled out, so there is nothing to report.

use crate::cli::Args;
use crate::report::Row;

/// Emit the counters accumulated since process start (process-wide:
/// run one experiment part per invocation when attributing numbers).
pub fn emit_if_requested(args: &Args, experiment: &str) {
    if !args.metrics {
        return;
    }
    if !probe::metrics::ENABLED {
        eprintln!(
            "--metrics requested but the `metrics` feature is compiled \
             out; rebuild with `--features metrics`"
        );
        return;
    }
    let snap = probe::metrics::snapshot();
    for (counter, count) in snap.counters() {
        if count == 0 {
            continue;
        }
        Row::new(experiment)
            .workload("metrics")
            .value(counter.name(), count as f64)
            .emit();
    }
    println!("{}", snap.render());
}
