//! Sharded per-event counters.
//!
//! Each [`Counter`] owns a small array of cache-line-padded atomics;
//! every thread is pinned (round-robin, at first use) to one shard, so
//! concurrent increments from different threads land on different cache
//! lines and the hot-path cost is a single uncontended relaxed
//! `fetch_add`. Reading a counter sums its shards — reads are rare
//! (snapshots), writes are the hot path.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Shards per counter. Enough that a typical thread count maps ~1:1;
/// threads beyond this wrap around and share (correctness is unaffected,
/// only padding efficiency).
const SHARDS: usize = 16;

/// One shard, padded to 128 bytes: two cache lines, so adjacent-line
/// hardware prefetchers cannot re-introduce false sharing either.
#[repr(align(128))]
struct Shard(AtomicU64);

/// Every countable hot-path event in the workspace, across all layers.
///
/// The `alt.*` counters cover the ALT-index proper (§III of the paper),
/// `art.*` the ART-OPT substrate, `baseline.*` the seqlock/RCU
/// primitives every baseline index is built on, and `region.*` the
/// range-sharded router + batched serving front-end. See `DESIGN.md`
/// ("Observability") for what each one means and which paper figure it
/// supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Slot-version read retries: an optimistic slot read observed an
    /// odd (writer-in-progress) version or failed re-validation
    /// (§III-E).
    SlotReadRetry,
    /// Slot write-lock acquisition retries (even→odd CAS lost).
    SlotLockRetry,
    /// ART operations that entered through a live fast pointer and
    /// completed from the jump node (§III-C working as designed).
    FastPtrJumpHit,
    /// ART operations that fell back to a root search although fast
    /// pointers are enabled: no shortcut registered, a de-optimized
    /// (zeroed) entry, or an obsolete jump node.
    FastPtrDeopt,
    /// Fast-pointer registrations that retried because the resolved LCA
    /// node was replaced before the slot installed (`SetSlotResult::
    /// Obsolete`).
    FastPtrRegisterRetry,
    /// Scans that re-collected because the directory epoch moved
    /// mid-walk (a retrain published; §III-F redirection for scans).
    ScanEpochRetry,
    /// Key-interval chunks executed by scans (one ART read plus one slot
    /// window walk each); per scan, it says whether chunks are sized
    /// right — 1 is the aim.
    ScanChunk,
    /// ART entries read by scan chunks; per scan, against the scan
    /// length, it says how much of the ART side was read for nothing.
    ScanArtKey,
    /// Opportunistic write-back attempts (Algorithm 2 lines 10-13).
    WriteBackAttempt,
    /// Write-backs that actually moved an ART entry into its predicted
    /// slot.
    WriteBackMoved,
    /// Retrain attempts that acquired the directory lock and collected
    /// the span.
    RetrainAttempt,
    /// Retrains that published a new directory.
    RetrainCompleted,
    /// Retrain attempts that found the span empty (everything removed)
    /// and only reset the overflow accounting.
    RetrainEmptySpan,
    /// Retrain triggers skipped because another structural change held
    /// the directory lock.
    RetrainSkippedBusy,
    /// Background-mode retrain requests accepted into the scheduler
    /// queue by an inserting thread.
    RetrainBgEnqueued,
    /// Background-mode retrain requests shed (queue full or duplicate
    /// span) — the next overflow insert re-enqueues.
    RetrainBgDropped,
    /// Retrain requests popped by a background worker.
    RetrainBgDrained,
    /// OLC restarts: a version validation failed, sending the reader
    /// back to a stable ancestor (Leis et al., DaMoN 2016).
    OlcRestart,
    /// Jump-path entries that resumed from the fast-pointer node and
    /// completed there.
    ArtJumpResume,
    /// Jump-path entries that reported `Fallback` (obsolete node, prefix
    /// mismatch, or a structural change needing the parent).
    ArtJumpFallback,
    /// Baseline seqlock read retries (spin on a writer or failed
    /// validation).
    SeqlockReadRetry,
    /// Baseline RCU snapshot replacements published.
    RcuReplace,
    /// ALT-index retry budgets exhausted: an optimistic point op, scan,
    /// or fast-pointer registration escalated to its pessimistic
    /// fallback (locked read, `dir_lock` scan pass, or `NO_FAST`
    /// de-optimization).
    AltEscalation,
    /// ALT-index backoff entering the Yield tier (first yield of a
    /// contended retry loop).
    AltBackoffYield,
    /// ALT-index backoff entering the Park tier (retry loop began
    /// sleeping instead of burning CPU).
    AltBackoffPark,
    /// ART retry budgets exhausted: a lookup switched to the pessimistic
    /// lock-coupled descent, a jump-path entry de-optimized to the root,
    /// or a structural writer passed its budget and kept (parked)
    /// retrying.
    ArtEscalation,
    /// ART backoff entering the Yield tier.
    ArtBackoffYield,
    /// ART backoff entering the Park tier.
    ArtBackoffPark,
    /// Baseline retry budgets exhausted: a seqlock reader took the node
    /// write lock for a guaranteed read.
    BaselineEscalation,
    /// Baseline backoff entering the Yield tier.
    BaselineBackoffYield,
    /// Baseline backoff entering the Park tier.
    BaselineBackoffPark,
    /// `get_batch` calls entering the ALT-index AMAC ring.
    AltBatchLookups,
    /// Keys processed by the ALT-index batch engine.
    AltBatchKeys,
    /// Batched keys answered entirely by the learned layer (slot probe
    /// resolved the key without touching ART).
    AltBatchLearnedHit,
    /// Batched keys handed off to the interleaved ART descent (slot held
    /// a tombstone or a colliding key).
    AltBatchArtHandoff,
    /// Software prefetches issued by the ALT-index batch stages
    /// (directory slot lines + fast-pointer target nodes).
    AltBatchPrefetch,
    /// Per-key restarts inside the ALT-index batch engine (retired model
    /// or slot-version conflict sent one key back to the predict stage).
    AltBatchRestart,
    /// Keys processed by the ART batch engine (direct `get_batch` calls
    /// plus ALT-index handoffs).
    ArtBatchKeys,
    /// Software prefetches issued for child nodes by interleaved ART
    /// descents.
    ArtBatchPrefetch,
    /// Per-key root restarts inside the ART batch engine (OLC version
    /// conflict on an interleaved descent).
    ArtBatchRestart,
    /// Group prefetches issued by the baselines' batched lookups (first
    /// -level node/group/model lines fetched ahead of sequential probes).
    BaselineBatchPrefetch,
    /// Background retrain executions that panicked and were contained by
    /// the worker pool's `catch_unwind` (injected or real).
    RetrainBgPanic,
    /// Worker-loop restarts after a contained panic — the pool's
    /// "respawn" events (workers are contained in place, not re-spawned
    /// as OS threads; see DESIGN.md §16).
    RetrainWorkerRespawn,
    /// Transitions into degraded mode: repeated background-retrain
    /// failures tripped the fail-streak limit and retrains fell back to
    /// contained inline execution.
    RetrainDegradedEntry,
    /// Retrains rolled back cleanly before publishing: an injected (or
    /// real) failure mid-collect/build/reconcile discarded the private
    /// build and released every lock, leaving the old directory serving.
    RetrainRollback,
    /// Arena chunk-growth or slot allocations that failed (injected or
    /// real) and were served by the single-slot fallback path instead.
    ArenaAllocFail,
    /// Region-router shard splits published (two-phase copy + route-table
    /// swap; see DESIGN.md §17).
    RegionSplit,
    /// Region-router shard merges published (adjacent cold shards
    /// coalesced back into one).
    RegionMerge,
    /// Keys copied between shard indexes by splits and merges.
    RegionMigratedKeys,
    /// Operations that re-routed because the shard they resolved turned
    /// out to be retired (a split/merge published mid-flight).
    RegionRouteRetry,
    /// Batches the serving front-end flushed into `get_batch` rings.
    RegionBatchFlush,
}

impl Counter {
    /// All counters, in rendering order.
    pub const ALL: [Counter; 51] = [
        Counter::SlotReadRetry,
        Counter::SlotLockRetry,
        Counter::FastPtrJumpHit,
        Counter::FastPtrDeopt,
        Counter::FastPtrRegisterRetry,
        Counter::ScanEpochRetry,
        Counter::ScanChunk,
        Counter::ScanArtKey,
        Counter::WriteBackAttempt,
        Counter::WriteBackMoved,
        Counter::RetrainAttempt,
        Counter::RetrainCompleted,
        Counter::RetrainEmptySpan,
        Counter::RetrainSkippedBusy,
        Counter::RetrainBgEnqueued,
        Counter::RetrainBgDropped,
        Counter::RetrainBgDrained,
        Counter::OlcRestart,
        Counter::ArtJumpResume,
        Counter::ArtJumpFallback,
        Counter::SeqlockReadRetry,
        Counter::RcuReplace,
        Counter::AltEscalation,
        Counter::AltBackoffYield,
        Counter::AltBackoffPark,
        Counter::ArtEscalation,
        Counter::ArtBackoffYield,
        Counter::ArtBackoffPark,
        Counter::BaselineEscalation,
        Counter::BaselineBackoffYield,
        Counter::BaselineBackoffPark,
        Counter::AltBatchLookups,
        Counter::AltBatchKeys,
        Counter::AltBatchLearnedHit,
        Counter::AltBatchArtHandoff,
        Counter::AltBatchPrefetch,
        Counter::AltBatchRestart,
        Counter::ArtBatchKeys,
        Counter::ArtBatchPrefetch,
        Counter::ArtBatchRestart,
        Counter::BaselineBatchPrefetch,
        Counter::RetrainBgPanic,
        Counter::RetrainWorkerRespawn,
        Counter::RetrainDegradedEntry,
        Counter::RetrainRollback,
        Counter::ArenaAllocFail,
        Counter::RegionSplit,
        Counter::RegionMerge,
        Counter::RegionMigratedKeys,
        Counter::RegionRouteRetry,
        Counter::RegionBatchFlush,
    ];

    /// Stable dotted `layer.event` name used in reports and bench JSON.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::SlotReadRetry => "alt.slot_read_retry",
            Counter::SlotLockRetry => "alt.slot_lock_retry",
            Counter::FastPtrJumpHit => "alt.fastptr_jump_hit",
            Counter::FastPtrDeopt => "alt.fastptr_deopt",
            Counter::FastPtrRegisterRetry => "alt.fastptr_register_retry",
            Counter::ScanEpochRetry => "alt.scan_epoch_retry",
            Counter::ScanChunk => "alt.scan_chunk",
            Counter::ScanArtKey => "alt.scan_art_key",
            Counter::WriteBackAttempt => "alt.write_back_attempt",
            Counter::WriteBackMoved => "alt.write_back_moved",
            Counter::RetrainAttempt => "alt.retrain_attempt",
            Counter::RetrainCompleted => "alt.retrain_completed",
            Counter::RetrainEmptySpan => "alt.retrain_empty_span",
            Counter::RetrainSkippedBusy => "alt.retrain_skipped_busy",
            Counter::RetrainBgEnqueued => "alt.retrain_bg_enqueued",
            Counter::RetrainBgDropped => "alt.retrain_bg_dropped",
            Counter::RetrainBgDrained => "alt.retrain_bg_drained",
            Counter::OlcRestart => "art.olc_restart",
            Counter::ArtJumpResume => "art.jump_resume",
            Counter::ArtJumpFallback => "art.jump_fallback",
            Counter::SeqlockReadRetry => "baseline.seqlock_read_retry",
            Counter::RcuReplace => "baseline.rcu_replace",
            Counter::AltEscalation => "alt.escalation",
            Counter::AltBackoffYield => "alt.backoff_yield",
            Counter::AltBackoffPark => "alt.backoff_park",
            Counter::ArtEscalation => "art.escalation",
            Counter::ArtBackoffYield => "art.backoff_yield",
            Counter::ArtBackoffPark => "art.backoff_park",
            Counter::BaselineEscalation => "baseline.escalation",
            Counter::BaselineBackoffYield => "baseline.backoff_yield",
            Counter::BaselineBackoffPark => "baseline.backoff_park",
            Counter::AltBatchLookups => "alt.batch_lookups",
            Counter::AltBatchKeys => "alt.batch_keys",
            Counter::AltBatchLearnedHit => "alt.batch_learned_hit",
            Counter::AltBatchArtHandoff => "alt.batch_art_handoff",
            Counter::AltBatchPrefetch => "alt.batch_prefetch",
            Counter::AltBatchRestart => "alt.batch_restart",
            Counter::ArtBatchKeys => "art.batch_keys",
            Counter::ArtBatchPrefetch => "art.batch_prefetch",
            Counter::ArtBatchRestart => "art.batch_restart",
            Counter::BaselineBatchPrefetch => "baseline.batch_prefetch",
            Counter::RetrainBgPanic => "alt.retrain_bg_panics",
            Counter::RetrainWorkerRespawn => "alt.worker_respawns",
            Counter::RetrainDegradedEntry => "alt.degraded_mode_entries",
            Counter::RetrainRollback => "alt.retrain_rollbacks",
            Counter::ArenaAllocFail => "art.arena_alloc_fails",
            Counter::RegionSplit => "region.split",
            Counter::RegionMerge => "region.merge",
            Counter::RegionMigratedKeys => "region.migrated_keys",
            Counter::RegionRouteRetry => "region.route_retries",
            Counter::RegionBatchFlush => "region.batch_flushes",
        }
    }
}

/// Number of distinct counters.
pub(crate) const NUM_COUNTERS: usize = Counter::ALL.len();

struct ShardedCounter {
    shards: [Shard; SHARDS],
}

// Const-item initializers so the whole registry is a zero-init static.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SHARD: Shard = Shard(AtomicU64::new(0));
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_COUNTER: ShardedCounter = ShardedCounter {
    shards: [ZERO_SHARD; SHARDS],
};
static COUNTERS: [ShardedCounter; NUM_COUNTERS] = [ZERO_COUNTER; NUM_COUNTERS];

/// Round-robin shard assignment: the first recording on each thread
/// claims the next shard index, and the thread keeps it for life.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn shard_id() -> usize {
    MY_SHARD.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        c.set(s);
        s
    })
}

/// Add `n` to a counter (relaxed; this is the hot path).
#[inline]
pub fn add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].shards[shard_id()]
        .0
        .fetch_add(n, Ordering::Relaxed);
}

/// Increment a counter by one.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Current total of a counter (sums the shards; snapshot-time only —
/// this walks every shard, so it is not a hot-path read).
pub fn total(counter: Counter) -> u64 {
    COUNTERS[counter as usize]
        .shards
        .iter()
        .map(|s| s.0.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_ordered_like_all() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminants match ALL order");
        }
    }

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

    #[test]
    fn add_batches() {
        let before = total(Counter::SeqlockReadRetry);
        add(Counter::SeqlockReadRetry, 41);
        incr(Counter::SeqlockReadRetry);
        assert_eq!(total(Counter::SeqlockReadRetry) - before, 42);
    }
}
