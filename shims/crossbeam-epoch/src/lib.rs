//! Epoch-based reclamation for this workspace, in the shape of
//! `crossbeam-epoch`: [`pin`] returns a [`Guard`], [`Guard::defer_unchecked`]
//! retires a closure (ART's node retirement), and [`RcuCell`] is the one
//! epoch-protected snapshot cell (ALT-index's model directory, the ALEX+
//! and XIndex directories). `RcuCell` has no upstream twin; the rest
//! mirrors crossbeam's signatures.
//!
//! The scheme is the classic three-epoch design:
//!
//! * A global epoch counter advances only when every currently-pinned
//!   participant has observed the current epoch.
//! * Garbage is tagged with the epoch at retirement and freed once the
//!   global epoch is at least two ahead — at that point every guard that
//!   could have loaded the retired pointer has been dropped.
//!
//! Pinning is a SeqCst load, store and re-check load; unpinning is one
//! store. Only a thread that retires something collects: a retirement
//! that leaves `COLLECT_EVERY` objects queued tries to advance the
//! epoch and runs the destructors that are ready, so a thread that only
//! reads never touches the garbage queue or the participant registry
//! (DESIGN.md "Who reclaims"). Both are mutexes, which is fine because
//! retirement only happens on structural changes (directory replacements,
//! node replacements), never on point-op fast paths.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel epoch meaning "not pinned".
const IDLE: usize = usize::MAX;
/// A retirement that leaves this many objects queued collects.
const COLLECT_EVERY: usize = 64;

static GLOBAL_EPOCH: AtomicUsize = AtomicUsize::new(0);
/// Every live thread's participant.
static REGISTRY: Mutex<Vec<Arc<Participant>>> = Mutex::new(Vec::new());
/// Retired objects, oldest first.
static GARBAGE: Mutex<VecDeque<Deferred>> = Mutex::new(VecDeque::new());

struct Participant {
    epoch: AtomicUsize,
}

/// A retired object awaiting reclamation. The closure captures raw
/// pointers; `Send` is asserted by the `defer_unchecked` safety contract
/// and by `RcuCell::replace`'s `T: Send` bound.
struct Deferred {
    epoch: usize,
    call: Box<dyn FnOnce()>,
}

// SAFETY: `call` is built either by `defer_unchecked`, whose caller
// guarantees the closure is sound to run from any thread, or by
// `RcuCell::replace`, whose closure only drops a boxed `T: Send`;
// `epoch` is a plain integer.
unsafe impl Send for Deferred {}

struct LocalHandle {
    participant: Arc<Participant>,
    pin_depth: Cell<usize>,
}

impl LocalHandle {
    fn new() -> Self {
        let participant = Arc::new(Participant {
            epoch: AtomicUsize::new(IDLE),
        });
        REGISTRY
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&participant));
        Self {
            participant,
            pin_depth: Cell::new(0),
        }
    }
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        reg.retain(|p| !Arc::ptr_eq(p, &self.participant));
    }
}

thread_local! {
    static LOCAL: LocalHandle = LocalHandle::new();
}

/// Try to advance the global epoch and run every deferred destructor that
/// is at least two epochs old. `try_lock`: a retirer that finds another
/// collecting leaves the work to it.
fn try_collect() {
    let Ok(mut bin) = GARBAGE.try_lock() else {
        return;
    };
    {
        let reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let current = GLOBAL_EPOCH.load(Ordering::SeqCst);
        let all_current = reg.iter().all(|p| {
            let e = p.epoch.load(Ordering::SeqCst);
            e == IDLE || e == current
        });
        if all_current {
            GLOBAL_EPOCH.store(current + 1, Ordering::SeqCst);
        }
    }
    probe::chaos::point("epoch.collect.advanced");
    let current = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let mut ready = Vec::new();
    while let Some(front) = bin.front() {
        if front.epoch + 2 <= current {
            ready.push(bin.pop_front().unwrap());
        } else {
            break;
        }
    }
    drop(bin);
    for d in ready {
        (d.call)();
    }
}

/// Queue `call`, and collect if that leaves [`COLLECT_EVERY`] objects
/// queued: only a thread that retires ever collects.
fn retire(call: Box<dyn FnOnce()>) {
    let epoch = GLOBAL_EPOCH.load(Ordering::SeqCst);
    let queued = {
        let mut bin = GARBAGE.lock().unwrap_or_else(|e| e.into_inner());
        bin.push_back(Deferred { epoch, call });
        bin.len()
    };
    probe::chaos::point("epoch.retire.queued");
    if queued >= COLLECT_EVERY {
        try_collect();
    }
}

/// A handle that keeps the current epoch pinned: a value borrowed through
/// [`RcuCell::load`] or retired through [`Guard::defer_unchecked`] stays
/// allocated until it drops. `!Send` and `!Sync`: the pin belongs to the
/// thread that took it.
pub struct Guard {
    _not_send: PhantomData<*mut ()>,
}

/// Pin the current epoch. Pins nest; the thread is unpinned when the last
/// guard drops.
pub fn pin() -> Guard {
    LOCAL.with(|l| {
        if l.pin_depth.get() == 0 {
            loop {
                let g = GLOBAL_EPOCH.load(Ordering::SeqCst);
                l.participant.epoch.store(g, Ordering::SeqCst);
                probe::chaos::point("epoch.pin.published");
                // Re-check: if the collector advanced concurrently it may
                // not have seen our store; retry with the fresh epoch so
                // the published value is never stale.
                if GLOBAL_EPOCH.load(Ordering::SeqCst) == g {
                    break;
                }
            }
        }
        l.pin_depth.set(l.pin_depth.get() + 1);
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Guard {
    /// Defer an arbitrary closure until two epochs from now. The calling
    /// thread may run ready destructors, its own or other threads', before
    /// this returns.
    ///
    /// # Safety
    ///
    /// The closure must remain sound to call from any thread after every
    /// current guard drops (same contract as crossbeam's).
    pub unsafe fn defer_unchecked<F: FnOnce() + 'static>(&self, f: F) {
        retire(Box::new(f));
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown (after TLS
        // destruction) simply skips unpin bookkeeping — its participant
        // entry is already gone from the registry.
        let _ = LOCAL.try_with(|l| {
            let depth = l.pin_depth.get();
            debug_assert!(depth > 0);
            l.pin_depth.set(depth - 1);
            if depth == 1 {
                l.participant.epoch.store(IDLE, Ordering::SeqCst);
            }
        });
    }
}

/// An epoch-protected snapshot: readers borrow the current value under a
/// pin with one `Acquire` load, and [`replace`](RcuCell::replace)
/// publishes a successor and retires the old value until every guard
/// that could still hold it has dropped. Dropping the cell frees the
/// current value.
///
/// Concurrent replacements are memory-safe (each swap unlinks a value of
/// its own); a caller that builds the successor from the current value
/// serializes that read-modify-write itself.
///
/// ```
/// let cell = crossbeam_epoch::RcuCell::new(vec![1, 2, 3]);
/// let guard = crossbeam_epoch::pin();
/// let before = cell.load(&guard);
/// cell.replace(vec![4], &guard);
/// assert_eq!(before, &[1, 2, 3]); // retired, not freed: `guard` is held
/// assert_eq!(cell.load(&guard), &[4]);
/// ```
pub struct RcuCell<T> {
    ptr: AtomicPtr<T>,
    /// The cell owns a `T`: it is `Send`/`Sync` exactly when `T` is, and
    /// drop check knows that dropping it drops a `T`. (`replace`, which
    /// hands values to other threads, asks for `T: Send` itself.)
    _owns: PhantomData<Box<T>>,
}

impl<T> RcuCell<T> {
    /// A cell holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
            _owns: PhantomData,
        }
    }

    /// Borrow the current value. The borrow lives no longer than the pin
    /// or the cell, so neither a collection nor dropping the cell can free
    /// the value under it:
    ///
    /// ```compile_fail,E0505
    /// let cell = crossbeam_epoch::RcuCell::new(vec![1u8]);
    /// let guard = crossbeam_epoch::pin();
    /// let r = cell.load(&guard);
    /// drop(cell); // frees the value `r` points at
    /// r.len();
    /// ```
    #[inline]
    pub fn load<'g>(&'g self, _guard: &'g Guard) -> &'g T {
        // SAFETY: the pointer always comes from `Box::into_raw`. A value
        // replaced after this load is retired, not freed, while `_guard`
        // (pinned on this thread: `Guard` is `!Send`) lives, and `'g`
        // also borrows the cell, whose `Drop` frees the current value.
        unsafe { &*self.ptr.load(Ordering::Acquire) }
    }

    /// Publish `value` and retire the value it replaces.
    pub fn replace(&self, value: T, _guard: &Guard)
    where
        T: Send + 'static,
    {
        let old = self
            .ptr
            .swap(Box::into_raw(Box::new(value)), Ordering::AcqRel);
        // Widen the window between unlink and retire: readers still
        // holding the old value must be protected by their pins.
        probe::chaos::point("rcu.replace.unlinked");
        // SAFETY: only this swap unlinked `old`, so it is retired once and
        // the cell's `Drop` never sees it; every reader that loaded it is
        // pinned, and `retire` frees it only after those pins drop. `T:
        // Send` lets the collecting thread drop it.
        retire(Box::new(move || drop(unsafe { Box::from_raw(old) })));
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no borrow from `load` is alive, and
        // the current value was never retired: `replace` retires only
        // what its swap took out.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The participant registry is process-global, and a collection
    /// advances the epoch only once every pinned participant has caught
    /// up: a sibling test that holds a pin can stall another's storm. The
    /// tests that pin run one at a time.
    static PINNING: Mutex<()> = Mutex::new(());

    fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
        PINNING.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Retire `COLLECT_EVERY` no-op closures under one pin: the last of
    /// them leaves a full queue, so this thread collects.
    fn collect_by_retiring() {
        let guard = pin();
        for _ in 0..COLLECT_EVERY {
            // SAFETY: the closure does nothing.
            unsafe { guard.defer_unchecked(|| ()) };
        }
    }

    #[test]
    fn pin_unpin_tracks_depth() {
        let _serial = one_at_a_time();
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
        LOCAL.with(|l| assert_eq!(l.pin_depth.get(), 0));
    }

    #[test]
    fn load_and_replace() {
        let _serial = one_at_a_time();
        let cell = RcuCell::new(vec![1, 2, 3]);
        let guard = pin();
        let old = cell.load(&guard);
        assert_eq!(old, &vec![1, 2, 3]);
        cell.replace(vec![4], &guard);
        // Retired, not freed, while `guard` is held.
        assert_eq!(old, &vec![1, 2, 3]);
        assert_eq!(cell.load(&guard), &vec![4]);
    }

    #[test]
    fn deferred_drop_eventually_runs() {
        let _serial = one_at_a_time();
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let cell = RcuCell::new(Flag(Arc::clone(&dropped)));
        cell.replace(Flag(Arc::new(AtomicBool::new(false))), &pin());
        // Drive epoch advancement: only a retiring thread collects.
        // Sibling tests pin concurrently and can hold the epoch back, so
        // wait on a deadline rather than an iteration count.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !dropped.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            collect_by_retiring();
        }
        assert!(dropped.load(Ordering::SeqCst), "deferred destructor ran");
    }

    #[test]
    fn dropping_the_cell_frees_its_current_value() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(Canary::new(0, &drops));
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_swap_and_read_is_safe() {
        let _serial = one_at_a_time();
        let cell = Arc::new(RcuCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = pin();
                        let v = *cell.load(&guard);
                        assert!(v >= last, "snapshots move forward");
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=2_000u64 {
            cell.replace(i, &pin());
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    /// A value whose `Drop` poisons it before the memory goes back to the
    /// allocator: a reader that still holds it sees the poison (or, once
    /// the block is reused, a different `id`) instead of reading on
    /// through a dangling reference unnoticed.
    struct Canary {
        id: u64,
        word: std::sync::atomic::AtomicU64,
        drops: Arc<AtomicUsize>,
    }
    const LIVE: u64 = 0x11FE_11FE_11FE_11FE;
    const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

    impl Canary {
        fn new(id: u64, drops: &Arc<AtomicUsize>) -> Self {
            Canary {
                id,
                word: std::sync::atomic::AtomicU64::new(LIVE),
                drops: Arc::clone(drops),
            }
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.word.store(POISON, Ordering::SeqCst);
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn readers_pinned_across_a_retirement_storm_never_see_a_reclaimed_value() {
        let _serial = one_at_a_time();
        const SWAPS: u64 = 20_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(Canary::new(0, &drops));
        let swaps = std::sync::atomic::AtomicU64::new(0);
        // Stretches the pin, retire and collect windows in a build with
        // `probe/chaos` on (CI's chaos job); does nothing otherwise.
        let _chaos = probe::chaos::install_schedule(0xE90C, 256);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    while swaps.load(Ordering::Relaxed) < SWAPS {
                        let guard = pin();
                        let pinned_at = swaps.load(Ordering::Relaxed);
                        let held = cell.load(&guard);
                        let id = held.id;
                        // Hold the guard while a few hundred successors
                        // are published and retired around it.
                        while swaps.load(Ordering::Relaxed) < (pinned_at + 300).min(SWAPS) {
                            assert_eq!(held.word.load(Ordering::SeqCst), LIVE, "value {id}");
                            assert_eq!(held.id, id, "value {id}'s memory was reused");
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for i in 1..=SWAPS {
                cell.replace(Canary::new(i, &drops), &pin());
                swaps.store(i, Ordering::Relaxed);
            }
        });
        // The storm must have reclaimed along the way, or the readers
        // checked nothing: each of the writer's retirements that leaves
        // `COLLECT_EVERY` values queued collects.
        let reclaimed = drops.load(Ordering::SeqCst);
        assert!(reclaimed > 0, "nothing was reclaimed during the storm");
        if probe::chaos::ENABLED {
            for site in [
                "epoch.pin.published",
                "epoch.retire.queued",
                "epoch.collect.advanced",
                "rcu.replace.unlinked",
            ] {
                let hits = probe::chaos::site_hits(site);
                assert!(hits > 0, "chaos point {site} was never reached");
            }
        }
        assert!(reclaimed as u64 <= SWAPS, "a value was dropped twice");
    }

    #[test]
    fn dropping_the_outer_guard_first_keeps_the_thread_pinned() {
        let _serial = one_at_a_time();
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = RcuCell::new(Canary::new(0, &drops));
        let outer = pin();
        let inner = pin();
        let held = cell.load(&inner);
        drop(outer);
        LOCAL.with(|l| {
            assert_eq!(l.pin_depth.get(), 1);
            assert_ne!(l.participant.epoch.load(Ordering::SeqCst), IDLE);
        });
        // Another thread retires the value and then collects as hard as
        // it can: with this thread still pinned the epoch can move on by
        // one at most, which is one short of freeing it.
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.replace(Canary::new(1, &drops), &pin());
                for _ in 0..100 {
                    collect_by_retiring();
                }
            });
        });
        assert_eq!(drops.load(Ordering::SeqCst), 0, "freed under a live guard");
        assert_eq!(held.word.load(Ordering::SeqCst), LIVE);
        drop(inner);
        LOCAL.with(|l| assert_eq!(l.participant.epoch.load(Ordering::SeqCst), IDLE));
        // Unpinned, the same collection loop frees it (a sibling test's
        // pin can hold the epoch back, so wait on a deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while drops.load(Ordering::SeqCst) == 0 && std::time::Instant::now() < deadline {
            collect_by_retiring();
        }
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "retired value was never freed"
        );
    }

    #[test]
    fn a_read_only_thread_never_runs_a_deferred_destructor() {
        let _serial = one_at_a_time();
        /// Records the thread its drop runs on.
        struct Noted(Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl Drop for Noted {
            fn drop(&mut self) {
                let mut ran_on = self.0.lock().unwrap_or_else(|e| e.into_inner());
                ran_on.push(std::thread::current().id());
            }
        }
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let cell = RcuCell::new(Noted(Arc::clone(&ran_on)));
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..4 {
                    cell.replace(Noted(Arc::clone(&ran_on)), &pin());
                }
            });
        });
        let reader = std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..10_000 {
                    drop(pin());
                }
                std::thread::current().id()
            })
            .join()
            .unwrap()
        });
        let ran_on = ran_on.lock().unwrap_or_else(|e| e.into_inner());
        assert!(
            !ran_on.contains(&reader),
            "a read-only thread ran a destructor"
        );
    }
}
