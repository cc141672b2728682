//! The workspace's one striped counter and its one thread→stripe
//! assignment. Always compiled (no probe feature gates it): the metrics
//! bank is built from it, and so are the counts an index keeps about
//! itself on its write path — `Art`'s key count and node bytes, `AltIndex`'s
//! live keys — which every insert and remove bumps from every writer
//! thread at once.
//!
//! A single `AtomicUsize` there is one cache line all writers take turns
//! owning, and whatever shares the line (the tree root every reader
//! loads) goes with it. A [`Striped`] gives each thread a 128-byte cell
//! of its own instead, so a bump is one thread-local read and one
//! `fetch_add` on a line no other thread writes; reading sums the cells,
//! which only snapshots, stats and `len()` do.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stripes per counter. Enough that a typical thread count maps ~1:1;
/// threads beyond this wrap around and share a stripe (totals are
/// unaffected, only the isolation).
pub const STRIPES: usize = 16;

/// One stripe, padded to 128 bytes: two cache lines, so the adjacent-line
/// prefetcher cannot re-introduce the sharing either.
#[repr(align(128))]
struct Stripe(AtomicU64);

/// A counter spread over [`STRIPES`] cells, one per thread (modulo
/// [`STRIPES`]). The arithmetic wraps: a [`Striped::sub`] may land on a
/// different stripe than the [`Striped::add`] it undoes and take that
/// stripe below zero, and [`Striped::sum`] still comes out exact. Racy
/// while writers run (like any relaxed counter), exact at rest.
pub struct Striped([Stripe; STRIPES]);

const _: () = assert!(std::mem::align_of::<Striped>() >= 128);
const _: () = assert!(std::mem::size_of::<Striped>() == STRIPES * 128);

impl Striped {
    /// A counter at zero (`const`, so banks of them can be `static`).
    pub const fn new() -> Self {
        // A fresh atomic per array element is the point of the const.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Stripe = Stripe(AtomicU64::new(0));
        Self([ZERO; STRIPES])
    }

    /// Add `n` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0[stripe_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` on the calling thread's stripe.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0[stripe_id()].0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The counter's value: every stripe, summed (wrapping).
    pub fn sum(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |acc, s| acc.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

impl Default for Striped {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    // `const` and destructor-free on purpose: ART's deferred node frees
    // pick an arena shard by this id, and they run during thread teardown
    // too, when a thread-local with a destructor may already be gone.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's stripe, in `0..STRIPES`: claimed round-robin at
/// the thread's first use and kept for its life. Anything else sharded by
/// thread (ART's arena) takes its shard from this too.
#[inline]
pub fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    STRIPE.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            return s;
        }
        let s = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
        c.set(s);
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_adds_sum_exactly() {
        let c = Striped::new();
        let (threads, per) = (8u64, 10_000u64);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| (0..per).for_each(|_| c.add(1)));
            }
        });
        assert_eq!(c.sum(), threads * per);
    }

    #[test]
    fn sub_on_another_stripe_wraps_that_stripe_and_keeps_the_sum() {
        let c = Striped::new();
        c.add(5);
        let mine = stripe_id();
        // Spawn until a thread lands on another stripe (round-robin: the
        // first one, unless 16 other threads claimed in between).
        let theirs = loop {
            let id = std::thread::scope(|s| {
                s.spawn(|| {
                    let id = stripe_id();
                    if id != mine {
                        c.sub(3);
                    }
                    id
                })
                .join()
                .unwrap()
            });
            if id != mine {
                break id;
            }
        };
        assert_eq!(c.0[theirs].0.load(Ordering::Relaxed), 3u64.wrapping_neg());
        assert_eq!(c.0[mine].0.load(Ordering::Relaxed), 5);
        assert_eq!(c.sum(), 2);
    }

    #[test]
    fn a_thread_keeps_its_stripe() {
        assert_eq!(stripe_id(), stripe_id());
        assert!(stripe_id() < STRIPES);
    }
}
