//! Optional chaos-schedule installation for the experiment binaries.
//!
//! Pass `--chaos-seed N` to a binary built with `--features chaos` and a
//! deterministic schedule-perturbing run (see `probe::chaos` and
//! TESTING.md) is installed for the whole experiment. The perturbation
//! widens contention windows on every instrumented optimistic path, and
//! a chaos build's retry ladder is five retries wide
//! (`crates/resilience`), which is how CI drives the escalation counters
//! to nonzero values in a plain bench run (combine with `--metrics`).
//! Without the feature the flag still parses but only prints the rebuild
//! incantation — the points are compiled out, so the schedule would
//! perturb nothing.

use crate::cli::Args;
use probe::chaos::ScheduleGuard;

/// Perturbation probability (out of 1024). Three points in four perturb:
/// a reader spends its retry budget only after six failed validations in
/// a row, and at 256 a `table1 --ops 20k` run recorded 0–2 escalations
/// (none at all in one run of three); at 768 it records 34–46 under
/// `baseline.escalation` every time, which is what CI greps for.
const INTENSITY: u32 = 768;

/// Install the schedule if `--chaos-seed` was passed. Hold the returned
/// guard for the duration of the experiment: dropping it disables the
/// perturbation again.
#[must_use = "the chaos schedule is uninstalled when the guard drops"]
pub fn install_if_requested(args: &Args) -> Option<ScheduleGuard> {
    let seed = args.chaos_seed?;
    if !probe::chaos::ENABLED {
        eprintln!(
            "--chaos-seed requested but the `chaos` feature is compiled \
             out; rebuild with `--features chaos`"
        );
        return None;
    }
    eprintln!("# chaos schedule installed: seed={seed} intensity={INTENSITY}/1024");
    Some(probe::chaos::install_schedule(seed, INTENSITY))
}
