//! The background retrain scheduler: a worker pool draining a bounded
//! priority queue of retrain requests.
//!
//! With [`retrain_workers`](crate::config::AltConfig::retrain_workers)
//! above zero the inserting thread no longer pays the §III-F rebuild on
//! the hot path — it enqueues a request prioritized by the span's
//! observed overflow pressure (`256 × art_inserts / build_size`, the
//! same in every build) and returns. Workers pop the highest-pressure
//! span first, FIFO among ties, and run
//! [`AltCore::retrain_span`](crate::index::AltCore) — the
//! same function an inserting thread runs when there is no pool.
//!
//! The queue is bounded (excess requests are shed — the next overflow
//! insert re-enqueues) and duplicate requests for a span already queued
//! are coalesced.

use crate::index::AltCore;
use probe::metrics::{self, Counter};
use std::collections::{BinaryHeap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::JoinHandle;

/// Queued requests beyond this are shed (and counted as
/// `alt.retrain_bg_dropped`); the next overflow insert re-enqueues.
const MAX_QUEUE: usize = 64;
/// Consecutive contained worker panics that trip **degraded mode**:
/// requests stop being enqueued and overflowing inserts run the rebuild
/// themselves, contained — a throughput floor while whatever is killing
/// the workers persists (DESIGN.md §16).
const FAIL_STREAK_LIMIT: u32 = 3;
/// Consecutive clean caller-run retrains that end a degraded episode.
const RECOVER_AFTER: u32 = 2;

/// One queued retrain request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Request {
    /// The span's overflow pressure at enqueue time; higher drains first.
    priority: u64,
    /// Enqueue sequence number; lower (older) drains first among equal
    /// priorities.
    seq: u64,
    /// A key inside the span — the worker re-locates the model from it.
    key_hint: u64,
    /// The span's `first_key`, the dedup identity.
    span_key: u64,
}

impl Ord for Request {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by priority, then min-heap by seq (FIFO tie-break).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Request {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Queue state guarded by one mutex.
#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Request>,
    /// Spans currently queued (not yet popped) — duplicate enqueues for
    /// a span are coalesced instead of retraining it twice.
    pending_spans: HashSet<u64>,
    /// Requests popped but not yet finished (for `quiesce`).
    in_flight: usize,
    seq: u64,
    shutdown: bool,
}

impl Queue {
    fn drained(&self) -> bool {
        self.heap.is_empty() && self.in_flight == 0
    }
}

/// State shared between enqueuers (inserting threads), the worker pool,
/// and `quiesce` waiters.
#[derive(Default)]
pub(crate) struct SchedShared {
    q: Mutex<Queue>,
    /// Workers wait here for work (or shutdown).
    work: Condvar,
    /// `quiesce` callers wait here for the queue to drain.
    idle: Condvar,
    /// Requests shed at admission or dropped mid-drain. Always-on (the
    /// `metrics` feature additionally mirrors it into `probe::metrics`)
    /// so fault tests and benches can observe it in any build.
    dropped: AtomicU64,
    /// Background retrain executions contained by `catch_unwind`.
    bg_panics: AtomicU64,
    /// Worker-loop restarts after a contained panic. Workers are
    /// contained in place, not re-spawned as OS threads (DESIGN.md §16),
    /// but each restart is a "respawn" event in the fault model.
    respawns: AtomicU64,
    /// Transitions into degraded mode.
    degraded_entries: AtomicU64,
    /// Degraded mode flag: background scheduling suspended, overflows
    /// are rebuilt by the inserting thread, contained.
    degraded: AtomicBool,
    /// Consecutive contained worker panics (reset by a clean drain).
    fail_streak: AtomicU32,
    /// Consecutive clean caller-run retrains while degraded (recovery).
    clean_streak: AtomicU32,
}

/// Runs [`SchedShared::done`] when dropped, so an in-flight request is
/// marked finished **even if the retrain it guards panics** — otherwise
/// a contained (or uncontained) panic would leave `in_flight` forever
/// nonzero and every `quiesce()` caller parked on the `idle` condvar.
struct InFlightGuard<'a>(&'a SchedShared);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.done();
    }
}

impl SchedShared {
    /// Lock the queue, recovering from poison: the shim `parking_lot`
    /// build never poisons, and under std mutexes a worker that panicked
    /// while holding the queue lock has left it in a consistent state
    /// (every critical section below is a few field updates with no
    /// intermediate invariant-breaking point — see DESIGN.md §16).
    fn lock_q(&self) -> MutexGuard<'_, Queue> {
        self.q.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue a retrain request for the span starting at `span_key`.
    /// Returns false if the request was shed (queue full, span already
    /// queued, or shutdown in progress).
    pub(crate) fn enqueue(&self, span_key: u64, key_hint: u64, priority: u64) -> bool {
        // Failpoint before the lock (an injected Delay must not sleep
        // holding it; an injected Panic unwinds into the caller's
        // containment in `trigger_retrain`). Error/AllocFail shed the
        // request — the next overflow insert simply re-enqueues.
        if probe::fail::eval("sched.enqueue").is_err() {
            self.count_dropped();
            return false;
        }
        self.enqueue_unchecked(span_key, key_hint, priority)
    }

    /// [`Self::enqueue`] minus the fault-injection point — used by the
    /// worker pool to re-enqueue a span whose retrain panicked, so a
    /// persistent injection at `sched.enqueue` can't turn one contained
    /// panic into an infinite inject→re-enqueue loop.
    pub(crate) fn enqueue_unchecked(&self, span_key: u64, key_hint: u64, priority: u64) -> bool {
        probe::chaos::point("retrain.bg.enqueue");
        let mut q = self.lock_q();
        if q.shutdown || q.heap.len() >= MAX_QUEUE {
            drop(q);
            self.count_dropped();
            return false;
        }
        if !q.pending_spans.insert(span_key) {
            // Already queued: the pending request will observe the
            // accumulated overflow when it runs; no second pass needed.
            return false;
        }
        q.seq += 1;
        let seq = q.seq;
        q.heap.push(Request {
            priority,
            seq,
            key_hint,
            span_key,
        });
        metrics::incr(Counter::RetrainBgEnqueued);
        drop(q);
        self.work.notify_one();
        true
    }

    /// Block until a request is available (returns it) or shutdown
    /// (returns `None`).
    fn pop(&self) -> Option<Request> {
        let mut q = self.lock_q();
        loop {
            if q.shutdown {
                return None;
            }
            if let Some(r) = q.heap.pop() {
                q.pending_spans.remove(&r.span_key);
                q.in_flight += 1;
                return Some(r);
            }
            q = self.work.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark one popped request finished.
    fn done(&self) {
        let mut q = self.lock_q();
        q.in_flight -= 1;
        if q.drained() {
            self.idle.notify_all();
        }
    }

    /// Block until every queued and in-flight request has finished (or
    /// shutdown began, after which no further draining is guaranteed).
    pub(crate) fn quiesce(&self) {
        let mut q = self.lock_q();
        while !q.drained() && !q.shutdown {
            q = self.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Queued (not yet popped) request count.
    #[cfg(test)]
    fn depth(&self) -> usize {
        self.lock_q().heap.len()
    }

    fn shutdown(&self) {
        self.lock_q().shutdown = true;
        self.work.notify_all();
        self.idle.notify_all();
    }

    /// Count one shed background request — the only place either
    /// `dropped` tally moves, so they cannot disagree.
    pub(crate) fn count_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::RetrainBgDropped);
    }

    /// Whether the pool is in degraded mode (background scheduling
    /// suspended; overflows retrain on the inserting thread, contained).
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Record one contained background-retrain panic. Returns true when
    /// this panic tripped the fail-streak limit and *entered* degraded
    /// mode (at most once per degraded episode).
    fn note_panic(&self) -> bool {
        self.bg_panics.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::RetrainBgPanic);
        let streak = self.fail_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= FAIL_STREAK_LIMIT && !self.degraded.swap(true, Ordering::Relaxed) {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
            metrics::incr(Counter::RetrainDegradedEntry);
            return true;
        }
        false
    }

    /// Record one clean background drain: resets the fail streak.
    fn note_bg_clean(&self) {
        self.fail_streak.store(0, Ordering::Relaxed);
    }

    /// Record the outcome of a contained caller-run retrain run
    /// *because* the pool is degraded. [`RECOVER_AFTER`] consecutive
    /// clean runs end the degraded episode and resume background
    /// scheduling.
    pub(crate) fn note_caller_result(&self, ok: bool) {
        if !self.degraded.load(Ordering::Relaxed) {
            return;
        }
        if !ok {
            self.clean_streak.store(0, Ordering::Relaxed);
            return;
        }
        let streak = self.clean_streak.fetch_add(1, Ordering::Relaxed) + 1;
        if streak >= RECOVER_AFTER {
            self.clean_streak.store(0, Ordering::Relaxed);
            self.fail_streak.store(0, Ordering::Relaxed);
            self.degraded.store(false, Ordering::Relaxed);
        }
    }

    /// Always-on fault counters, in declaration order: requests
    /// shed/dropped, contained background panics, worker respawns,
    /// degraded-mode entries.
    pub(crate) fn fault_counts(&self) -> (u64, u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.bg_panics.load(Ordering::Relaxed),
            self.respawns.load(Ordering::Relaxed),
            self.degraded_entries.load(Ordering::Relaxed),
        )
    }
}

/// Owner of the worker pool: dropping it signals shutdown and joins
/// every worker, so no thread can outlive the [`crate::AltIndex`] that
/// spawned it.
pub(crate) struct SchedHandle {
    shared: Arc<SchedShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for SchedHandle {
    fn drop(&mut self) {
        self.shared.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn the worker pool over a weak reference to the core. Workers
/// upgrade per request; a failed upgrade (the index is being dropped)
/// ends the worker.
///
/// Every drained retrain runs inside `catch_unwind`: a panic (injected
/// or real) is contained, counted, and the worker "respawns" — the loop
/// continues in place, so the OS thread survives and the queue keeps
/// draining. Repeated consecutive panics trip degraded mode (see
/// [`SchedShared::note_panic`] and DESIGN.md §16).
pub(crate) fn spawn_workers(
    shared: Arc<SchedShared>,
    core: Weak<AltCore>,
    n: usize,
) -> SchedHandle {
    let workers = (0..n)
        .map(|i| {
            let shared = Arc::clone(&shared);
            let core = core.clone();
            std::thread::Builder::new()
                .name(format!("alt-retrain-{i}"))
                .spawn(move || {
                    while let Some(req) = shared.pop() {
                        // The guard marks the request finished even if
                        // the retrain panics — without it, quiesce()
                        // waiters would hang forever on `in_flight`
                        // (satellite: shutdown ordering under panic).
                        let outcome = {
                            let _in_flight = InFlightGuard(&shared);
                            catch_unwind(AssertUnwindSafe(|| {
                                probe::chaos::point("retrain.bg.drain");
                                if probe::fail::eval("sched.drain").is_err() {
                                    // Injected Error: drop this request
                                    // on the floor; the next overflow
                                    // insert for the span re-enqueues.
                                    shared.count_dropped();
                                    return true;
                                }
                                metrics::incr(Counter::RetrainBgDrained);
                                match core.upgrade() {
                                    Some(core) => {
                                        core.retrain_span(req.key_hint, true);
                                        true
                                    }
                                    None => false,
                                }
                            }))
                        };
                        match outcome {
                            Ok(alive) => {
                                shared.note_bg_clean();
                                if !alive {
                                    break;
                                }
                            }
                            Err(_) => {
                                // Contained panic. `retrain_span`'s
                                // drop-guards have already rolled partial
                                // state back (locks released, publish
                                // completed or never started).
                                shared.note_panic();
                                shared.respawns.fetch_add(1, Ordering::Relaxed);
                                metrics::incr(Counter::RetrainWorkerRespawn);
                                if !shared.is_degraded() {
                                    // Give the span another chance — but
                                    // never from inside a degraded
                                    // episode, and via the unchecked path
                                    // so a persistent enqueue injection
                                    // can't loop.
                                    shared.enqueue_unchecked(
                                        req.span_key,
                                        req.key_hint,
                                        req.priority,
                                    );
                                }
                            }
                        }
                    }
                })
                .expect("spawn background retrain worker")
        })
        .collect();
    SchedHandle { shared, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_highest_priority_first_fifo_among_ties() {
        let s = SchedShared::default();
        assert!(s.enqueue(10, 11, 1));
        assert!(s.enqueue(20, 21, 5));
        assert!(s.enqueue(30, 31, 5));
        assert!(s.enqueue(40, 41, 3));
        let order: Vec<u64> = (0..4).map(|_| s.pop().unwrap().span_key).collect();
        assert_eq!(order, vec![20, 30, 40, 10]);
    }

    /// Regression: the priority used to add the process-wide, cumulative
    /// `alt.escalation` total, so in a `metrics` build a later request
    /// outranked an earlier one whatever its span's overflow (and one
    /// index's escalations reordered another's queue). Only a `metrics`
    /// build moves the counter, so only there can this fail.
    #[test]
    fn a_request_ranks_by_its_spans_overflow_alone() {
        use crate::config::AltConfig;
        use std::sync::atomic::Ordering::Relaxed;

        // Two far-apart dense runs: at least one model each.
        let pairs: Vec<(u64, u64)> = (1..=2_000u64)
            .chain(1 << 40..(1 << 40) + 2_000)
            .map(|k| (k, k))
            .collect();
        let queue = Arc::new(SchedShared::default());
        let core = AltCore::build(&pairs, AltConfig::default(), Some(Arc::clone(&queue)));
        let guard = crossbeam_epoch::pin();
        let dir = core.dir_ref(&guard);
        let (hot, warm) = (dir.model_for(1), dir.model_for(1 << 40));
        assert_ne!(hot.first_key, warm.first_key);
        hot.art_inserts.store(8 * hot.build_size.max(16), Relaxed);
        warm.art_inserts.store(2 * warm.build_size.max(16), Relaxed);

        core.trigger_retrain(1);
        probe::metrics::add(Counter::AltEscalation, 1_000_000);
        core.trigger_retrain(1 << 40);

        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.pop().unwrap().span_key, hot.first_key);
        assert_eq!(queue.pop().unwrap().span_key, warm.first_key);
    }

    #[test]
    fn duplicate_spans_coalesce_and_full_queue_sheds() {
        let s = SchedShared::default();
        assert!(s.enqueue(10, 11, 1));
        assert!(!s.enqueue(10, 12, 9), "same span coalesces");
        for span in 1..MAX_QUEUE as u64 {
            assert!(s.enqueue(span * 100, span * 100 + 1, 1));
        }
        assert!(!s.enqueue(5, 6, 1), "queue full sheds");
        assert_eq!(s.depth(), MAX_QUEUE);
        // Popping a span frees its dedup slot for re-enqueueing.
        let r = s.pop().unwrap();
        assert!(s.enqueue(r.span_key, r.key_hint, 1));
    }

    #[test]
    fn quiesce_waits_for_in_flight_work() {
        let s = Arc::new(SchedShared::default());
        assert!(s.enqueue(10, 11, 1));
        let r = s.pop().unwrap();
        assert_eq!(r.span_key, 10);
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.quiesce());
        // The request is in flight, so quiesce must not return yet.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "quiesce returned with work in flight"
        );
        s.done();
        waiter.join().unwrap();
    }

    #[test]
    fn shutdown_unblocks_pop_and_quiesce() {
        let s = Arc::new(SchedShared::default());
        let s2 = Arc::clone(&s);
        let popper = std::thread::spawn(move || s2.pop());
        std::thread::sleep(Duration::from_millis(10));
        s.shutdown();
        assert_eq!(popper.join().unwrap(), None);
        s.quiesce(); // must not hang after shutdown
        assert!(!s.enqueue(1, 1, 1), "post-shutdown enqueues are shed");
    }

    #[test]
    fn quiesce_survives_a_panicking_drain() {
        // Regression: a worker panicking mid-retrain used to skip
        // `done()`, leaving `in_flight` nonzero and every quiesce()
        // caller parked forever. The InFlightGuard must run `done()`
        // during unwind.
        let s = Arc::new(SchedShared::default());
        assert!(s.enqueue(10, 11, 1));
        let r = s.pop().unwrap();
        assert_eq!(r.span_key, 10);
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _g = InFlightGuard(&s);
            panic!("injected worker death");
        }));
        assert!(res.is_err());
        s.quiesce(); // must return: the guard marked the request done
        assert!(s.lock_q().drained());
    }

    #[test]
    fn degraded_mode_trips_after_streak_and_recovers() {
        // FAIL_STREAK_LIMIT = 3, RECOVER_AFTER = 2.
        let s = SchedShared::default();
        assert!(!s.is_degraded());
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        assert!(s.note_panic(), "third consecutive panic trips degraded");
        assert!(s.is_degraded());
        assert!(!s.note_panic(), "re-entry is not counted twice");
        assert_eq!(s.fault_counts().3, 1, "one degraded-mode entry");
        assert_eq!(s.fault_counts().1, 4, "every contained panic counted");

        // Recovery needs RECOVER_AFTER *consecutive* clean caller runs.
        s.note_caller_result(true);
        assert!(s.is_degraded(), "one clean run is not enough");
        s.note_caller_result(false);
        s.note_caller_result(true);
        assert!(s.is_degraded(), "failed run reset the recovery streak");
        s.note_caller_result(true);
        assert!(!s.is_degraded(), "two consecutive clean runs recover");

        // The fail streak was reset on recovery: it takes a full new
        // streak to re-enter.
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        assert!(s.note_panic());
        assert_eq!(s.fault_counts().3, 2);
    }

    #[test]
    fn clean_drain_resets_the_fail_streak() {
        let s = SchedShared::default();
        assert!(!s.note_panic());
        assert!(!s.note_panic());
        s.note_bg_clean();
        assert!(!s.note_panic(), "streak restarted after a clean drain");
        assert!(!s.note_panic());
        assert!(s.note_panic());
    }
}
