//! Forwarders to the `obs` metrics sink, compiled away entirely unless
//! the `metrics` feature is enabled — the same pattern as
//! [`crate::chaos_hook`] for the chaos testkit.
//!
//! Sites instrumented in this crate: slot-version read/lock retries
//! (`slots.rs`), fast-pointer jump hits vs de-optimized root fallbacks
//! and registration retries (`index.rs`, `fast_ptr.rs`), scan directory-
//! epoch retries, chunks and ART entries read (`scan.rs`), write-back
//! attempts, the retrain phases (`retrain.rs`), and the AMAC
//! batch-lookup engine (`batch.rs`: calls/keys, per-stage prefetches,
//! learned-hit vs ART-handoff split, per-key restarts).

#[cfg(feature = "metrics")]
mod real {
    use obs::{Counter, Phase};

    #[inline]
    pub(crate) fn slot_read_retry() {
        obs::incr(Counter::SlotReadRetry);
    }
    #[inline]
    pub(crate) fn slot_lock_retry() {
        obs::incr(Counter::SlotLockRetry);
    }
    #[inline]
    pub(crate) fn fastptr_jump_hit() {
        obs::incr(Counter::FastPtrJumpHit);
    }
    #[inline]
    pub(crate) fn fastptr_deopt() {
        obs::incr(Counter::FastPtrDeopt);
    }
    #[inline]
    pub(crate) fn fastptr_register_retry() {
        obs::incr(Counter::FastPtrRegisterRetry);
    }
    #[inline]
    pub(crate) fn scan_epoch_retry() {
        obs::incr(Counter::ScanEpochRetry);
    }
    /// One scan chunk ran; its ART read returned `art_keys` entries.
    #[inline]
    pub(crate) fn scan_chunk(art_keys: usize) {
        obs::incr(Counter::ScanChunk);
        obs::add(Counter::ScanArtKey, art_keys as u64);
    }
    #[inline]
    pub(crate) fn write_back_attempt() {
        obs::incr(Counter::WriteBackAttempt);
    }
    #[inline]
    pub(crate) fn write_back_moved() {
        obs::incr(Counter::WriteBackMoved);
    }
    #[inline]
    pub(crate) fn retrain_attempt() {
        obs::incr(Counter::RetrainAttempt);
    }
    #[inline]
    pub(crate) fn retrain_completed() {
        obs::incr(Counter::RetrainCompleted);
    }
    #[inline]
    pub(crate) fn retrain_empty_span() {
        obs::incr(Counter::RetrainEmptySpan);
    }
    #[inline]
    pub(crate) fn retrain_skipped_busy() {
        obs::incr(Counter::RetrainSkippedBusy);
    }
    #[inline]
    pub(crate) fn retrain_bg_enqueued() {
        obs::incr(Counter::RetrainBgEnqueued);
    }
    #[inline]
    pub(crate) fn retrain_bg_dropped() {
        obs::incr(Counter::RetrainBgDropped);
    }
    #[inline]
    pub(crate) fn retrain_bg_drained() {
        obs::incr(Counter::RetrainBgDrained);
    }
    #[inline]
    pub(crate) fn retrain_bg_panic() {
        obs::incr(Counter::RetrainBgPanic);
    }
    #[inline]
    pub(crate) fn worker_respawn() {
        obs::incr(Counter::RetrainWorkerRespawn);
    }
    #[inline]
    pub(crate) fn degraded_entry() {
        obs::incr(Counter::RetrainDegradedEntry);
    }
    #[inline]
    pub(crate) fn retrain_rollback() {
        obs::incr(Counter::RetrainRollback);
    }
    /// Process-wide escalation pressure feeding the background retrain
    /// queue's priorities: spans congested enough to force pessimistic
    /// fallbacks drain first.
    #[inline]
    pub(crate) fn escalation_pressure() -> u64 {
        obs::total(Counter::AltEscalation)
    }
    #[inline]
    pub(crate) fn escalation() {
        obs::incr(Counter::AltEscalation);
    }
    #[inline]
    pub(crate) fn backoff_transition(tier: resilience::Tier) {
        match tier {
            resilience::Tier::Spin => {}
            resilience::Tier::Yield => obs::incr(Counter::AltBackoffYield),
            resilience::Tier::Park => obs::incr(Counter::AltBackoffPark),
        }
    }
    #[inline]
    pub(crate) fn batch_lookups() {
        obs::incr(Counter::AltBatchLookups);
    }
    #[inline]
    pub(crate) fn batch_keys(n: usize) {
        obs::add(Counter::AltBatchKeys, n as u64);
    }
    #[inline]
    pub(crate) fn batch_learned_hit() {
        obs::incr(Counter::AltBatchLearnedHit);
    }
    #[inline]
    pub(crate) fn batch_art_handoff() {
        obs::incr(Counter::AltBatchArtHandoff);
    }
    #[inline]
    pub(crate) fn batch_prefetch() {
        obs::incr(Counter::AltBatchPrefetch);
    }
    #[inline]
    pub(crate) fn batch_restart() {
        obs::incr(Counter::AltBatchRestart);
    }

    /// Monotonic timestamp for phase timing; pair with the `retrain_*_done`
    /// recorders below.
    #[inline]
    pub(crate) fn now_ns() -> u64 {
        obs::clock::now_ns()
    }
    #[inline]
    pub(crate) fn retrain_collect_done(t0: u64) {
        obs::record_phase_ns(
            Phase::RetrainCollect,
            obs::clock::now_ns().saturating_sub(t0),
        );
    }
    #[inline]
    pub(crate) fn retrain_build_done(t0: u64) {
        obs::record_phase_ns(Phase::RetrainBuild, obs::clock::now_ns().saturating_sub(t0));
    }
    #[inline]
    pub(crate) fn retrain_swap_done(t0: u64) {
        obs::record_phase_ns(Phase::RetrainSwap, obs::clock::now_ns().saturating_sub(t0));
    }
    #[inline]
    pub(crate) fn retrain_cleanup_done(t0: u64) {
        obs::record_phase_ns(
            Phase::RetrainCleanup,
            obs::clock::now_ns().saturating_sub(t0),
        );
    }
    #[inline]
    pub(crate) fn retrain_reconcile_done(t0: u64) {
        obs::record_phase_ns(
            Phase::RetrainReconcile,
            obs::clock::now_ns().saturating_sub(t0),
        );
    }
}

#[cfg(not(feature = "metrics"))]
mod real {
    // Disabled build: every hook is an empty inlined function (and the
    // timestamp is a constant), so call sites fold away to nothing.
    #[inline(always)]
    pub(crate) fn slot_read_retry() {}
    #[inline(always)]
    pub(crate) fn slot_lock_retry() {}
    #[inline(always)]
    pub(crate) fn fastptr_jump_hit() {}
    #[inline(always)]
    pub(crate) fn fastptr_deopt() {}
    #[inline(always)]
    pub(crate) fn fastptr_register_retry() {}
    #[inline(always)]
    pub(crate) fn scan_epoch_retry() {}
    #[inline(always)]
    pub(crate) fn scan_chunk(_art_keys: usize) {}
    #[inline(always)]
    pub(crate) fn write_back_attempt() {}
    #[inline(always)]
    pub(crate) fn write_back_moved() {}
    #[inline(always)]
    pub(crate) fn retrain_attempt() {}
    #[inline(always)]
    pub(crate) fn retrain_completed() {}
    #[inline(always)]
    pub(crate) fn retrain_empty_span() {}
    #[inline(always)]
    pub(crate) fn retrain_skipped_busy() {}
    #[inline(always)]
    pub(crate) fn retrain_bg_enqueued() {}
    #[inline(always)]
    pub(crate) fn retrain_bg_dropped() {}
    #[inline(always)]
    pub(crate) fn retrain_bg_drained() {}
    #[inline(always)]
    pub(crate) fn retrain_bg_panic() {}
    #[inline(always)]
    pub(crate) fn worker_respawn() {}
    #[inline(always)]
    pub(crate) fn degraded_entry() {}
    #[inline(always)]
    pub(crate) fn retrain_rollback() {}
    #[inline(always)]
    pub(crate) fn escalation_pressure() -> u64 {
        0
    }
    #[inline(always)]
    pub(crate) fn escalation() {}
    #[inline(always)]
    pub(crate) fn backoff_transition(_tier: resilience::Tier) {}
    #[inline(always)]
    pub(crate) fn batch_lookups() {}
    #[inline(always)]
    pub(crate) fn batch_keys(_n: usize) {}
    #[inline(always)]
    pub(crate) fn batch_learned_hit() {}
    #[inline(always)]
    pub(crate) fn batch_art_handoff() {}
    #[inline(always)]
    pub(crate) fn batch_prefetch() {}
    #[inline(always)]
    pub(crate) fn batch_restart() {}
    #[inline(always)]
    pub(crate) fn now_ns() -> u64 {
        0
    }
    #[inline(always)]
    pub(crate) fn retrain_collect_done(_t0: u64) {}
    #[inline(always)]
    pub(crate) fn retrain_build_done(_t0: u64) {}
    #[inline(always)]
    pub(crate) fn retrain_swap_done(_t0: u64) {}
    #[inline(always)]
    pub(crate) fn retrain_cleanup_done(_t0: u64) {}
    #[inline(always)]
    pub(crate) fn retrain_reconcile_done(_t0: u64) {}
}

pub(crate) use real::*;
