//! Forwarders to the `failpoint` fault-injection registry, compiled away
//! entirely unless the `fault` feature is enabled — the same pattern as
//! [`crate::chaos_hook`] for the chaos testkit.
//!
//! Sites instrumented in this crate (all structural paths; see
//! DESIGN.md §14 for the per-site rollback argument):
//!
//! | site                | where                         | channel |
//! |---------------------|-------------------------------|---------|
//! | `retrain.collect`   | phase-1 span snapshot         | panic/delay |
//! | `retrain.build`     | GPL re-segmentation           | panic/error/alloc-fail (clean abort) |
//! | `retrain.reconcile` | phase-2 delta                 | panic/error/alloc-fail (clean abort) |
//! | `retrain.swap`      | post-RCU-swap, pre-retire     | panic/delay (publish guard covers it) |
//! | `retrain.absorb`    | post-swap ART absorption      | panic/delay |
//! | `sched.enqueue`     | scheduler admission           | panic/error (request shed) |
//! | `sched.drain`       | worker drain, pre-retrain     | panic/error (request dropped) |
//! | `dir.replace`       | private directory rebuild     | panic/delay |
//! | `fastptr.install`   | fast-pointer registration     | panic/error (de-optimize to `NO_FAST`) |

/// Fault-injection point with no error channel: an injected Panic unwinds
/// from here, Delay sleeps; Error/AllocFail injections are ignored.
#[cfg(feature = "fault")]
#[inline]
pub(crate) fn point(site: &'static str) {
    failpoint::point(site);
}

/// Fault-injection point (disabled build): compiles to nothing.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub(crate) fn point(_site: &'static str) {}

/// Fault-injection check for sites with a graceful failure channel:
/// returns true when an Error or AllocFail was injected (the caller
/// aborts cleanly); an injected Panic unwinds from here.
#[cfg(feature = "fault")]
#[inline]
pub(crate) fn should_fail(site: &'static str) -> bool {
    failpoint::eval(site).is_err()
}

/// Fault-injection check (disabled build): always false, folds away.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub(crate) fn should_fail(_site: &'static str) -> bool {
    false
}
