//! Hot-path metrics: striped event counters and phase timers.
//!
//! The concurrent hot paths of this workspace are optimistic protocols:
//! slot-version reads that retry, OLC descents that restart, scans that
//! re-collect when the directory is republished. None of that work is
//! visible in the O(slots) `alt-index` stats snapshot, and the
//! "Benchmarking Learned Indexes" methodology (and the paper's
//! §III-C/§III-F analysis) says to measure exactly it. This module is the
//! shared sink:
//!
//! * [`Counter`] — every countable hot-path event, recorded through
//!   [`incr`]/[`add`] into one [`Striped`] each: every thread bumps a
//!   cache-line-padded stripe of its own, so a bump is one thread-local
//!   read plus one uncontended relaxed `fetch_add`. Reading a counter
//!   sums its stripes — reads are rare (snapshots), writes are the hot
//!   path;
//! * [`Phase`] — timed phases (retrain collect/build/swap/cleanup, the
//!   three bulk-load stages),
//!   timed as `let t0 = now_ns(); …; record_phase_ns(p, now_ns() - t0)`
//!   into atomic histograms that share
//!   [`LatencyHistogram`]'s bucket
//!   layout. Phases are rare relative to point operations (a retrain
//!   collect runs once per thousands of inserts), so one unsharded
//!   relaxed `fetch_add` per sample is plenty;
//! * [`snapshot`] / [`MetricsSnapshot::delta`] — consistent-enough
//!   (per-counter monotone) point-in-time readings for reports and
//!   before/after assertions.
//!
//! Without the `metrics` feature the recording verbs compile to nothing,
//! [`total`] and [`now_ns`] are constant `0`, and a snapshot is all
//! zeros.

mod snapshot;

pub use snapshot::{snapshot, MetricsSnapshot};

use crate::histogram::LatencyHistogram;
use crate::striped::Striped;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether the verbs do anything in this build (the `metrics` feature).
pub const ENABLED: bool = cfg!(feature = "metrics");

/// Declares a field-less enum once: its variants in rendering order, the
/// `ALL` array (whose stated length pins the count) and the stable
/// dotted name of each variant.
macro_rules! named_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident[$len:literal] {
            $($(#[$doc:meta])* $variant:ident => $dotted:literal,)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $($(#[$doc])* $variant,)*
        }

        impl $name {
            /// Every variant, in rendering order (which is also
            /// discriminant order).
            pub const ALL: [$name; $len] = [$($name::$variant,)*];

            /// Stable dotted name used in reports and bench JSON.
            pub const fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $dotted,)*
                }
            }
        }
    };
}

named_enum! {
    /// Every countable hot-path event in the workspace, across all layers.
    ///
    /// The `alt.*` counters cover the ALT-index proper (§III of the paper),
    /// `art.*` the ART-OPT substrate, `baseline.*` the seqlock/RCU
    /// primitives every baseline index is built on, and `region.*` the
    /// batched serving front-end. See `DESIGN.md`
    /// ("Observability") for what each one means and which paper figure it
    /// supports.
    pub enum Counter[33] {
        /// Slot-version read retries: an optimistic slot read observed an
        /// odd (writer-in-progress) version or failed re-validation
        /// (§III-E).
        SlotReadRetry => "alt.slot_read_retry",
        /// Slot write-lock acquisition retries (even→odd CAS lost).
        SlotLockRetry => "alt.slot_lock_retry",
        /// Scans that re-collected because the directory was republished
        /// mid-walk (a retrain published; §III-F redirection for scans).
        ScanEpochRetry => "alt.scan_epoch_retry",
        /// Key-interval chunks executed by scans (one ART read plus one slot
        /// window walk each); per scan, it says whether chunks are sized
        /// right — 1 is the aim.
        ScanChunk => "alt.scan_chunk",
        /// ART entries read by scan chunks; per scan, against the scan
        /// length, it says how much of the ART side was read for nothing.
        ScanArtKey => "alt.scan_art_key",
        /// Retrain attempts that acquired the directory lock and collected
        /// the span.
        RetrainAttempt => "alt.retrain_attempt",
        /// Retrains that published a new directory.
        RetrainCompleted => "alt.retrain_completed",
        /// Retrain attempts that found the span empty (everything removed)
        /// and only reset the overflow accounting.
        RetrainEmptySpan => "alt.retrain_empty_span",
        /// OLC restarts: a version validation failed, sending the reader
        /// back to a stable ancestor (Leis et al., DaMoN 2016).
        OlcRestart => "art.olc_restart",
        /// Baseline seqlock read retries (spin on a writer or failed
        /// validation).
        SeqlockReadRetry => "baseline.seqlock_read_retry",
        /// Baseline RCU snapshot replacements published.
        RcuReplace => "baseline.rcu_replace",
        /// ALT-index retry budgets exhausted: an optimistic get, slot read
        /// or scan escalated to its pessimistic fallback (the writer
        /// protocol's read, a locked slot read, the `dir_lock` scan pass).
        /// Writers have no budget: a closed or retired model sends them
        /// once through `dir_lock`, uncounted.
        AltEscalation => "alt.escalation",
        /// ALT-index backoff entering the Yield tier (first yield of a
        /// contended retry loop).
        AltBackoffYield => "alt.backoff_yield",
        /// ALT-index backoff entering the Park tier (retry loop began
        /// sleeping instead of burning CPU).
        AltBackoffPark => "alt.backoff_park",
        /// ART retry budgets exhausted: a lookup switched to the pessimistic
        /// lock-coupled descent, or a structural writer passed its budget
        /// and kept (parked) retrying.
        ArtEscalation => "art.escalation",
        /// ART backoff entering the Yield tier.
        ArtBackoffYield => "art.backoff_yield",
        /// ART backoff entering the Park tier.
        ArtBackoffPark => "art.backoff_park",
        /// Baseline retry budgets exhausted: a seqlock reader took the node
        /// write lock for a guaranteed read.
        BaselineEscalation => "baseline.escalation",
        /// Baseline backoff entering the Yield tier.
        BaselineBackoffYield => "baseline.backoff_yield",
        /// Baseline backoff entering the Park tier.
        BaselineBackoffPark => "baseline.backoff_park",
        /// `get_batch` calls entering the ALT-index AMAC ring.
        AltBatchLookups => "alt.batch_lookups",
        /// Keys processed by the ALT-index batch engine.
        AltBatchKeys => "alt.batch_keys",
        /// Batched keys answered entirely by the learned layer (slot probe
        /// resolved the key without touching ART).
        AltBatchLearnedHit => "alt.batch_learned_hit",
        /// Batched keys handed off to the interleaved ART descent (slot held
        /// a tombstone or a colliding key).
        AltBatchArtHandoff => "alt.batch_art_handoff",
        /// Software prefetches issued by the ALT-index batch stages
        /// (predicted slot lines + the ART root at each handoff).
        AltBatchPrefetch => "alt.batch_prefetch",
        /// Per-key restarts inside the ALT-index batch engine (retired model
        /// or slot-version conflict sent one key back to the predict stage).
        AltBatchRestart => "alt.batch_restart",
        /// Keys processed by the ART batch engine (direct `get_batch` calls
        /// plus ALT-index handoffs).
        ArtBatchKeys => "art.batch_keys",
        /// Software prefetches issued for child nodes by interleaved ART
        /// descents.
        ArtBatchPrefetch => "art.batch_prefetch",
        /// Per-key root restarts inside the ART batch engine (OLC version
        /// conflict on an interleaved descent).
        ArtBatchRestart => "art.batch_restart",
        /// Group prefetches issued by the baselines' batched lookups (first
        /// -level node/group/model lines fetched ahead of sequential probes).
        BaselineBatchPrefetch => "baseline.batch_prefetch",
        /// Retrains whose panic (injected or real) the inserting thread
        /// contained: every lock released, and the directory either the
        /// old one or the new one, complete.
        RetrainRollback => "alt.retrain_rollbacks",
        /// Arena chunk-growth or slot allocations that failed (injected or
        /// real) and were served by the single-slot fallback path instead.
        ArenaAllocFail => "art.arena_alloc_fails",
        /// Batches the serving front-end flushed into `get_batch` rings.
        RegionBatchFlush => "region.batch_flushes",
    }
}

named_enum! {
    /// Every timed hot-path phase.
    pub enum Phase[7] {
        /// Retrain: collecting live slots + the span's ART range and merging
        /// them (the first part of the writer stall of §III-F: the whole
        /// retrain runs under the model's write lock).
        RetrainCollect => "retrain.collect_ns",
        /// Retrain: GPL re-segmentation, model construction and conflict
        /// demotion.
        RetrainBuild => "retrain.build_ns",
        /// Retrain: directory publication (RCU swap + retire).
        RetrainSwap => "retrain.swap_ns",
        /// Retrain: removing the ART keys the new slots absorbed (§III-F).
        RetrainCleanup => "retrain.cleanup_ns",
        /// Bulk load: the serial GPL pass over the input (one sample per
        /// build, like the two below).
        BulkSegment => "bulk.segment_ns",
        /// Bulk load: populating the gapped models, on `build_threads`
        /// workers.
        BulkModels => "bulk.models_ns",
        /// Bulk load: inserting the conflict data into ART, on
        /// `build_threads` workers.
        BulkArt => "bulk.art_ns",
    }
}

// Const-item initializers so the whole registry is a zero-init static.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNTER: Striped = Striped::new();
static COUNTERS: [Striped; Counter::ALL.len()] = [ZERO_COUNTER; Counter::ALL.len()];

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_HIST: [AtomicU64; LatencyHistogram::NUM_BUCKETS] =
    [ZERO_BUCKET; LatencyHistogram::NUM_BUCKETS];
static PHASES: [[AtomicU64; LatencyHistogram::NUM_BUCKETS]; Phase::ALL.len()] =
    [ZERO_HIST; Phase::ALL.len()];

/// Add `n` to a counter (relaxed; this is the hot path).
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    if ENABLED {
        COUNTERS[counter as usize].add(n);
    }
}

/// Increment a counter by one.
#[inline(always)]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Current total of a counter (sums the stripes; snapshot-time only —
/// this walks every stripe, so it is not a hot-path read).
#[inline(always)]
pub fn total(counter: Counter) -> u64 {
    if !ENABLED {
        return 0;
    }
    COUNTERS[counter as usize].sum()
}

/// Nanoseconds since a process-wide epoch (the first call). Monotonic;
/// only differences are meaningful. (`Instant` cannot be stored in a
/// `u64` directly, hence the epoch.)
#[inline(always)]
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    if !ENABLED {
        return 0;
    }
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Record one duration sample (nanoseconds) for `phase`.
#[inline(always)]
pub fn record_phase_ns(phase: Phase, ns: u64) {
    if ENABLED {
        PHASES[phase as usize][LatencyHistogram::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Raw bucket counts for a phase (snapshot-time only).
fn phase_counts(phase: Phase) -> Vec<u64> {
    if !ENABLED {
        return vec![0; LatencyHistogram::NUM_BUCKETS];
    }
    PHASES[phase as usize]
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants match ALL order");
        }
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn verbs_are_nothing_when_the_feature_is_off() {
        incr(Counter::RcuReplace);
        add(Counter::RcuReplace, 41);
        record_phase_ns(Phase::RetrainSwap, 1_000);
        assert_eq!(total(Counter::RcuReplace), 0);
        assert_eq!(now_ns(), 0);
        let snap = snapshot();
        assert_eq!(snap.total_events(), 0);
        assert_eq!(snap.phase_histogram(Phase::RetrainSwap).count(), 0);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn concurrent_increments_are_all_counted() {
        let before = total(Counter::RcuReplace);
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..per {
                        incr(Counter::RcuReplace);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total(Counter::RcuReplace) - before, threads * per);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn add_batches() {
        let before = total(Counter::SeqlockReadRetry);
        add(Counter::SeqlockReadRetry, 41);
        incr(Counter::SeqlockReadRetry);
        assert_eq!(total(Counter::SeqlockReadRetry) - before, 42);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn clock_is_monotone_and_advancing() {
        let a = now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = now_ns();
        assert!(b - a >= 1_000_000, "slept 2ms, measured {} ns", b - a);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn recorded_samples_round_trip_through_latency_histogram() {
        let before = phase_counts(Phase::RetrainSwap);
        for v in [100u64, 1_000, 1_000, 50_000] {
            record_phase_ns(Phase::RetrainSwap, v);
        }
        let after = phase_counts(Phase::RetrainSwap);
        let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        let h = LatencyHistogram::from_bucket_counts(&delta);
        assert_eq!(h.count(), 4);
        assert!(h.quantile(0.5) <= 1_000 && h.quantile(0.5) >= 900);
        assert!(h.quantile(1.0) >= 48_000);
    }
}
