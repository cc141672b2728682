//! Hermetic shim for `crossbeam-epoch`: a small, self-contained
//! epoch-based reclamation scheme exposing exactly the API surface this
//! workspace uses (`pin`, `unprotected`, `Guard::{defer_destroy,
//! defer_unchecked}`, `Atomic::{new, load, swap}`, `Owned::new`,
//! `Shared::{is_null, deref, into_owned}`).
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
//! retirement only happens on structural changes (directory swaps, node
//! replacements), never on point-op fast paths.

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
/// pointers; `Send` is asserted by the `defer_unchecked` safety contract.
struct Deferred {
    epoch: usize,
    call: Box<dyn FnOnce()>,
}

// SAFETY: `call` is only ever built by `defer_unchecked`, whose caller
// guarantees the closure is sound to run from any thread; `epoch` is a
// plain integer.
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

/// A handle that keeps the current epoch pinned; loaded [`Shared`]
/// pointers stay valid until it drops.
pub struct Guard {
    pinned: bool,
    _not_send: PhantomData<*mut ()>,
}

// SAFETY: `&Guard` escapes through `unprotected()`'s `'static`
// reference; sharing a reference across threads is harmless because
// every `&self` method only touches global synchronized state. The type
// stays `!Send` so the thread-local pin bookkeeping in `Drop` runs on
// the pinning thread.
unsafe impl Sync for Guard {}

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
        pinned: true,
        _not_send: PhantomData,
    }
}

/// A guard that performs no pinning: deferred functions run immediately.
///
/// # Safety
///
/// The caller must guarantee no other thread can concurrently access the
/// data structures touched through this guard (e.g. inside `Drop` with
/// `&mut self`).
pub unsafe fn unprotected() -> &'static Guard {
    static UNPROTECTED: Guard = Guard {
        pinned: false,
        _not_send: PhantomData,
    };
    &UNPROTECTED
}

impl Guard {
    /// Defer dropping the boxed object behind `ptr` until no pinned guard
    /// can still reference it.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Owned::new`/`Atomic::new`, be unlinked from
    /// every shared location, and never be retired twice.
    pub unsafe fn defer_destroy<T>(&self, ptr: Shared<'_, T>) {
        // Erase `T` behind `*mut u8` + a monomorphized drop-glue pointer,
        // so the deferred closure captures only `'static` data even when
        // `T` itself is not `'static` (matches upstream's contract).
        unsafe fn drop_glue<T>(raw: *mut u8) {
            drop(Box::from_raw(raw.cast::<T>()));
        }
        let raw = ptr.raw.cast::<u8>();
        let glue: unsafe fn(*mut u8) = drop_glue::<T>;
        self.defer_unchecked(move || {
            if !raw.is_null() {
                glue(raw);
            }
        });
    }

    /// Defer an arbitrary closure until two epochs from now. The calling
    /// thread may run ready destructors, its own or other threads', before
    /// this returns.
    ///
    /// # Safety
    ///
    /// The closure must remain sound to call from any thread after every
    /// current guard drops (same contract as crossbeam's).
    pub unsafe fn defer_unchecked<F: FnOnce() + 'static>(&self, f: F) {
        if self.pinned {
            retire(Box::new(f));
        } else {
            f();
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.pinned {
            return;
        }
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

/// An owned heap allocation that can be published into an [`Atomic`].
pub struct Owned<T> {
    inner: Box<T>,
}

impl<T> Owned<T> {
    /// Allocate `value` on the heap.
    pub fn new(value: T) -> Self {
        Self {
            inner: Box::new(value),
        }
    }
}

/// A pointer loaded from an [`Atomic`], valid while its guard is pinned.
pub struct Shared<'g, T> {
    raw: *mut T,
    _marker: PhantomData<&'g T>,
}

impl<'g, T> Shared<'g, T> {
    /// Whether the pointer is null.
    pub fn is_null(&self) -> bool {
        self.raw.is_null()
    }

    /// Dereference under the guard's protection.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and loaded under the same pin that
    /// `'g` borrows.
    pub unsafe fn deref(&self) -> &'g T {
        &*self.raw
    }

    /// Take back ownership of the allocation.
    ///
    /// # Safety
    ///
    /// The caller must be the only remaining owner (e.g. inside `Drop`).
    pub unsafe fn into_owned(self) -> Owned<T> {
        Owned {
            inner: Box::from_raw(self.raw),
        }
    }
}

/// An atomic pointer to an epoch-managed heap allocation. As in
/// crossbeam, dropping it does NOT free the pointee: owners reclaim
/// through `unprotected()` + `into_owned` in their own `Drop` impls.
pub struct Atomic<T> {
    ptr: AtomicPtr<T>,
}

// SAFETY: the only field is an `AtomicPtr`; moving the handle moves
// ownership of the pointee, so another thread may read and drop the `T`
// (`T: Send + Sync`).
unsafe impl<T: Send + Sync> Send for Atomic<T> {}
// SAFETY: `&Atomic<T>` hands out `&T` to any thread (`T: Sync`) and lets
// any thread swap the pointee out and later drop it (`T: Send`); the
// pointer itself is only touched through atomic operations.
unsafe impl<T: Send + Sync> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Allocate `value` and point at it.
    pub fn new(value: T) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(value))),
        }
    }

    /// Load the current pointer under `_guard`'s pin.
    pub fn load<'g>(&self, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.load(ord),
            _marker: PhantomData,
        }
    }

    /// Swap in a new pointer, returning the previous one for retirement.
    pub fn swap<'g>(&self, new: Owned<T>, ord: Ordering, _guard: &'g Guard) -> Shared<'g, T> {
        Shared {
            raw: self.ptr.swap(Box::into_raw(new.inner), ord),
            _marker: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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
        let g1 = pin();
        let g2 = pin();
        drop(g1);
        drop(g2);
        LOCAL.with(|l| assert_eq!(l.pin_depth.get(), 0));
    }

    #[test]
    fn atomic_load_swap_roundtrip() {
        let a = Atomic::new(7u64);
        let guard = pin();
        // SAFETY: `a` always holds a live allocation, and `guard` is held.
        assert_eq!(unsafe { *a.load(Ordering::Acquire, &guard).deref() }, 7);
        let old = a.swap(Owned::new(8), Ordering::AcqRel, &guard);
        // SAFETY: `old` was just unlinked and is not destroyed before
        // `guard` drops.
        assert_eq!(unsafe { *old.deref() }, 7);
        // SAFETY: `old` is unlinked, so no new reader can reach it.
        unsafe { guard.defer_destroy(old) };
        // SAFETY: as for the first load.
        assert_eq!(unsafe { *a.load(Ordering::Acquire, &guard).deref() }, 8);
        drop(guard);
        // Clean up the final snapshot.
        // SAFETY: no other thread can reach `a`, and its current pointee
        // was never handed to `defer_destroy`.
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
        }
    }

    #[test]
    fn unprotected_defers_run_immediately() {
        let ran = Arc::new(AtomicBool::new(false));
        let r = Arc::clone(&ran);
        // SAFETY: the closure only stores to an `Arc<AtomicBool>` it owns.
        unsafe {
            unprotected().defer_unchecked(move || r.store(true, Ordering::SeqCst));
        }
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn deferred_drop_eventually_runs() {
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let a = Atomic::new(Flag(Arc::clone(&dropped)));
        {
            let guard = pin();
            let old = a.swap(
                Owned::new(Flag(Arc::new(AtomicBool::new(false)))),
                Ordering::AcqRel,
                &guard,
            );
            // SAFETY: `old` is unlinked, so no new reader can reach it.
            unsafe { guard.defer_destroy(old) };
        }
        // Drive epoch advancement: only a retiring thread collects.
        // Sibling tests pin concurrently and can hold the epoch back, so
        // wait on a deadline rather than an iteration count.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !dropped.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            collect_by_retiring();
        }
        assert!(dropped.load(Ordering::SeqCst), "deferred destructor ran");
        // SAFETY: no other thread can reach `a`, and its current pointee
        // was never handed to `defer_destroy`.
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
        }
    }

    #[test]
    fn concurrent_swap_and_read_is_safe() {
        let a = Arc::new(Atomic::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let guard = pin();
                        // SAFETY: `a` always holds a live allocation;
                        // a swapped-out one outlives this guard.
                        let v = unsafe { *a.load(Ordering::Acquire, &guard).deref() };
                        assert!(v >= last);
                        last = v;
                    }
                })
            })
            .collect();
        for i in 1..=2_000u64 {
            let guard = pin();
            let old = a.swap(Owned::new(i), Ordering::AcqRel, &guard);
            // SAFETY: `old` is unlinked, so no new reader can reach it.
            unsafe { guard.defer_destroy(old) };
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        // SAFETY: the readers are joined, so no other thread can reach
        // `a`, and its current pointee was never handed to `defer_destroy`.
        unsafe {
            let g = unprotected();
            let p = a.load(Ordering::Relaxed, g);
            drop(p.into_owned());
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

    /// Swap `next` in and retire what it replaced.
    fn replace(a: &Atomic<Canary>, next: Canary) {
        let guard = pin();
        let old = a.swap(Owned::new(next), Ordering::AcqRel, &guard);
        // SAFETY: `old` is unlinked, so no new reader can reach it, and
        // only the one swap that unlinked it retires it.
        unsafe { guard.defer_destroy(old) };
    }

    /// Free `a`'s last value once no other thread can reach it.
    fn finish(a: &Atomic<Canary>) {
        // SAFETY: the caller has joined every other thread, and the
        // current pointee was never handed to `defer_destroy`.
        unsafe { drop(a.load(Ordering::Relaxed, unprotected()).into_owned()) };
    }

    #[test]
    fn readers_pinned_across_a_retirement_storm_never_see_a_reclaimed_value() {
        const SWAPS: u64 = 20_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let a = Atomic::new(Canary::new(0, &drops));
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
                        // SAFETY: `a` always holds a live allocation, and
                        // one swapped out after this load is retired, not
                        // freed, until `guard` drops.
                        let held = unsafe { a.load(Ordering::Acquire, &guard).deref() };
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
                replace(&a, Canary::new(i, &drops));
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
            ] {
                let hits = probe::chaos::site_hits(site);
                assert!(hits > 0, "chaos point {site} was never reached");
            }
        }
        assert!(reclaimed as u64 <= SWAPS, "a value was dropped twice");
        finish(&a);
    }

    #[test]
    fn dropping_the_outer_guard_first_keeps_the_thread_pinned() {
        let drops = Arc::new(AtomicUsize::new(0));
        let a = Atomic::new(Canary::new(0, &drops));
        let outer = pin();
        let inner = pin();
        // SAFETY: `a` holds a live allocation; `inner` outlives `held`.
        let held = unsafe { a.load(Ordering::Acquire, &inner).deref() };
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
                replace(&a, Canary::new(1, &drops));
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
        finish(&a);
    }

    #[test]
    fn a_read_only_thread_never_runs_a_deferred_destructor() {
        /// Records the thread its drop runs on.
        struct Noted(Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl Drop for Noted {
            fn drop(&mut self) {
                let mut ran_on = self.0.lock().unwrap_or_else(|e| e.into_inner());
                ran_on.push(std::thread::current().id());
            }
        }
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let a = Atomic::new(Noted(Arc::clone(&ran_on)));
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..4 {
                    let guard = pin();
                    let old = a.swap(
                        Owned::new(Noted(Arc::clone(&ran_on))),
                        Ordering::AcqRel,
                        &guard,
                    );
                    // SAFETY: `old` is unlinked, so no new reader can reach
                    // it, and only the swap that unlinked it retires it.
                    unsafe { guard.defer_destroy(old) };
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
        drop(ran_on);
        // SAFETY: both threads are joined, and the current pointee was
        // never handed to `defer_destroy`.
        unsafe { drop(a.load(Ordering::Relaxed, unprotected()).into_owned()) };
    }
}
