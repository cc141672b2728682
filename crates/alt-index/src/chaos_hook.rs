//! Forwarders to `testkit`'s chaos engine, compiled away entirely unless
//! the `chaos` (or `chaos-mutate`) feature is enabled.
//!
//! Sites instrumented in this crate: slot-array lock/install/read/remove
//! (`slots.rs`) and the slot-locked update and remove decisions
//! (`index.rs`), the fast-pointer append spin lock (`spin.rs`), the
//! retrain directory swap (`retrain.rs`), fast-pointer registration
//! merging (`fast_ptr.rs`), and the AMAC batch engine's per-step
//! `batch.stage` point (`batch.rs` — perturbs the interleaving of
//! in-flight batched lookups relative to concurrent writers).

/// Schedule-perturbation point. No-op (inlined empty fn) without the
/// `chaos` feature.
#[cfg(feature = "chaos")]
#[inline]
pub(crate) fn point(site: &'static str) {
    testkit::chaos::point(site);
}

/// Schedule-perturbation point (disabled build): compiles to nothing.
#[cfg(not(feature = "chaos"))]
#[inline(always)]
pub(crate) fn point(_site: &'static str) {}

/// Whether the deliberately-broken slot read (skipped version
/// re-validation) is active. Only ever true when built with
/// `chaos-mutate` *and* `testkit::mutation::enable()` was called — the
/// mutation self-test proves the chaos harness flags this bug.
#[cfg(feature = "chaos-mutate")]
#[inline]
pub(crate) fn mutate_skip_slot_revalidation() -> bool {
    testkit::mutation::is_enabled()
}

/// Mutation flag (disabled build): always false, folds away.
#[cfg(not(feature = "chaos-mutate"))]
#[inline(always)]
pub(crate) fn mutate_skip_slot_revalidation() -> bool {
    false
}
