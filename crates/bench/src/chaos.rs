//! Optional chaos-schedule installation for the experiment binaries.
//!
//! Pass `--chaos-seed N` to a binary built with `--features chaos` and a
//! deterministic schedule-perturbing run (see `probe::chaos` and
//! TESTING.md) is installed for the whole experiment. The perturbation
//! widens contention windows on every instrumented optimistic path,
//! which is how CI drives the resilience escalation counters to nonzero
//! values in a plain bench run (combine with `--metrics` and the
//! `ALT_RESILIENCE_*` budget variables). Without the feature the flag
//! still parses but only prints the rebuild incantation — the points are
//! compiled out, so the schedule would perturb nothing.

use crate::cli::Args;
use probe::chaos::ScheduleGuard;

/// Moderate perturbation probability (out of 1024): enough to widen
/// contention windows without drowning the run in sleeps.
const INTENSITY: u32 = 256;

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
