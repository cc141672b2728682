//! Size-class slab arena for ART nodes and leaves.
//!
//! `node::alloc` / `node::make_leaf` used to go through `Box::into_raw`,
//! i.e. one `malloc` per node. That scatters sibling nodes across the
//! heap, which defeats exactly the locality the AMAC ring prefetches
//! (DESIGN.md §13) try to exploit: a prefetch buys nothing when every
//! pointer chase lands on a different page. This arena hands out nodes
//! from large size-class chunks instead, so nodes allocated together
//! (bulk build, subtree growth) sit densely on the same few pages, and a
//! freed node's slot is recycled for the next node of the same class.
//!
//! Design constraints (full argument: DESIGN.md §15):
//!
//! * **Process-global, never torn down.** Node frees are deferred through
//!   epoch reclamation (`Guard::defer_unchecked` in `tree.rs`), and those
//!   closures may run after the `Art` that allocated the node has been
//!   dropped. A per-tree arena would therefore be a use-after-free; a
//!   `static` arena whose chunks are intentionally never unmapped makes
//!   every deferred `dealloc` sound by construction. The memory is not
//!   leaked in the practical sense — freed slots go on free lists and are
//!   reused by later allocations, process-wide.
//! * **Chunks double, up to one huge page.** A (class, shard)'s first
//!   chunk is 64 slots and each refill doubles the last, up to
//!   [`HUGE_PAGE`]; those 2 MiB chunks are `Region::mapped` (huge-page
//!   aligned, `MADV_HUGEPAGE`), so a descent through a large tree takes
//!   one TLB entry per 2 MiB of nodes instead of one per 4 KiB. A small
//!   tree never gets that far (a shard's leaves reach it after ~131k).
//! * **Free slots are recycled only through the free list.** A doomed
//!   optimistic reader can hold a pointer to a node that a writer just
//!   retired. Epoch reclamation delays the `dealloc` (and hence the
//!   free-list push) until no such reader can still be pinned, so a slot
//!   is never handed out while a pre-retirement reader could still
//!   dereference it. After reuse the memory is a *different live node of
//!   the same class* — reachable-pointer readers racing a recycle are
//!   already impossible by the epoch argument, same as with `Box`.
//! * **Leaf tag bit.** Tagged pointers use bit 0 to mark leaves, so every
//!   slot must be at least 2-aligned. Slots are 8-or-64-byte aligned
//!   (below), which also keeps the atomics inside nodes naturally
//!   aligned.
//! * **Cache-line alignment.** Internal-node slots are rounded up to
//!   64-byte multiples and chunks are 64-aligned, so a node never
//!   straddles a cache line boundary it doesn't have to: the header +
//!   Node4/Node16 key bytes (the part the child search and the descent
//!   touch first) land in the first line(s) of the slot. Leaves are
//!   16-byte slots (a 4 KiB page holds 256) — padding them to 64 would
//!   quadruple leaf memory for no locality gain, since a leaf is touched
//!   exactly once per lookup.
//!
//! Concurrency: each size class is a handful of shards, each a plain
//! `Mutex` over a bump region + free list. Allocation only happens on
//! structural writes (node growth, leaf creation) which already take
//! OLC write locks, so a short uncontended mutex is noise there — and it
//! sidesteps the ABA problem a lock-free Treiber free list would have to
//! solve. Threads pick a shard by their stripe id
//! (`probe::striped::stripe_id`, the workspace's one thread→stripe
//! assignment), so disjoint writer threads don't contend — neither for a
//! lock nor for a cache line: a `Shard` is 128-aligned, so no two shard
//! mutexes (or their free lists) share a line. 128 rather than 64
//! because the adjacent-line prefetcher pairs 64-byte lines, the same
//! reason the stripes themselves are 128. Unpadded, the 48-byte
//! `Mutex<Shard>`s sat three to a pair of lines, and thread *n*'s every
//! leaf allocation took thread *n+1*'s mutex line with it: with the
//! tree's own counters, the reason a two-thread bulk load ran slower
//! than a one-thread one (DESIGN.md §12).

use prefetch::pages::{Region, HUGE_PAGE};
use probe::metrics::{self, Counter};
use probe::striped::stripe_id;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Slot size classes, in bytes. Values fixed by the node layouts:
/// `Leaf` is 16 bytes; the internal nodes are rounded up to 64-byte
/// multiples (see `class_of_size`).
const CLASS_SIZES: [usize; 5] = [16, 64, 256, 832, 2112];

/// A shard's first chunk of a class, in slots: small enough that a tiny
/// tree doesn't balloon (largest class: 2112 B × 64 ≈ 132 KiB). Each
/// refill doubles the last one, up to [`HUGE_PAGE`].
const FIRST_CHUNK_SLOTS: usize = 64;

/// Shards per class. Divides `probe::striped::STRIPES`, so threads on
/// distinct stripes (mod 8) get distinct shards; the 1-core CI host sees
/// one shard, larger hosts spread structural writers out.
const SHARDS: usize = 8;
const _: () = assert!(probe::striped::STRIPES.is_multiple_of(SHARDS));

#[repr(align(128))]
struct Shard {
    /// Recycled slots, LIFO (a just-freed slot is cache-hot).
    free: Vec<usize>,
    /// Current bump chunk: next unissued slot and the chunk's end.
    bump: usize,
    end: usize,
    /// Bytes of the current chunk (0 before the first).
    chunk: usize,
}

// Lock word and shard, line-isolated from the next element's.
const _: () = assert!(std::mem::size_of::<Mutex<Shard>>().is_multiple_of(128));

struct Class {
    slot: usize,
    shards: [Mutex<Shard>; SHARDS],
}

impl Class {
    const fn new(slot: usize) -> Self {
        // An interior-mutable const is exactly what we want here: each
        // array element below gets its own fresh Mutex from this
        // initializer (`Mutex::new` and `Vec::new` are const on this
        // toolchain).
        #[allow(clippy::declare_interior_mutable_const)]
        const EMPTY: Mutex<Shard> = Mutex::new(Shard {
            free: Vec::new(),
            bump: 0,
            end: 0,
            chunk: 0,
        });
        Self {
            slot,
            shards: [EMPTY; SHARDS],
        }
    }

    fn alloc(&self, shard_id: usize) -> *mut u8 {
        // Failpoint checked before taking the shard lock (an injected
        // Delay must not sleep while holding it). `fire(..).is_some()`,
        // here and at `art.arena.grow`: *every* injected action, Panic
        // included, is a failed allocation — node allocation runs inside
        // OLC write sections, and unwinding out of one would strand
        // version locks that have no RAII release (DESIGN.md §16).
        if probe::fail::fire("art.arena.alloc").is_some() {
            return self.alloc_fallback();
        }
        let mut sh = self.shards[shard_id % SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(p) = sh.free.pop() {
            return p as *mut u8;
        }
        if sh.bump >= sh.end {
            // Refill: a 64-aligned chunk twice the last one, intentionally
            // never freed — the arena is process-global (see module docs).
            let bytes = (sh.chunk * 2)
                .max(self.slot * FIRST_CHUNK_SLOTS)
                .min(HUGE_PAGE);
            let grow_failed = probe::fail::fire("art.arena.grow").is_some();
            let chunk = if grow_failed {
                std::ptr::null_mut()
            } else if bytes == HUGE_PAGE {
                // A whole huge page: one TLB entry for ~2 MiB of nodes.
                Region::mapped(bytes).map_or(std::ptr::null_mut(), |r| {
                    let p = r.as_ptr();
                    std::mem::forget(r);
                    p
                })
            } else {
                let layout = std::alloc::Layout::from_size_align(bytes, 64).unwrap();
                // SAFETY: `layout` has nonzero size.
                unsafe { std::alloc::alloc(layout) }
            };
            if chunk.is_null() {
                // Chunk growth failed (injected or a real OOM). Don't
                // take the whole insert down: serve this one request
                // from a direct single-slot allocation and leave the
                // shard's bump region unchanged, so the next alloc
                // retries growth. The slot is class-sized, so a later
                // `dealloc` recycles it through the free list normally.
                drop(sh);
                return self.alloc_fallback();
            }
            sh.bump = chunk as usize;
            sh.end = chunk as usize + bytes / self.slot * self.slot;
            sh.chunk = bytes;
            ALLOCATED_BYTES.fetch_add(bytes, Ordering::Relaxed);
        }
        let p = sh.bump;
        sh.bump += self.slot;
        p as *mut u8
    }

    /// Degraded-path allocation: one class-sized slot straight from the
    /// system allocator, used when chunk growth fails or a fault is
    /// injected at a handout site. Panics only if even the single-slot
    /// allocation fails — at that point the process is genuinely out of
    /// memory and an ART write cannot be completed soundly.
    #[cold]
    fn alloc_fallback(&self) -> *mut u8 {
        ALLOC_FAILS.fetch_add(1, Ordering::Relaxed);
        metrics::incr(Counter::ArenaAllocFail);
        let layout = std::alloc::Layout::from_size_align(self.slot, 64).unwrap();
        // SAFETY: `layout` has nonzero size.
        let p = unsafe { std::alloc::alloc(layout) };
        assert!(!p.is_null(), "arena single-slot fallback allocation failed");
        ALLOCATED_BYTES.fetch_add(self.slot, Ordering::Relaxed);
        p
    }

    fn dealloc(&self, p: *mut u8, shard_id: usize) {
        let mut sh = self.shards[shard_id % SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        sh.free.push(p as usize);
    }
}

static CLASSES: [Class; 5] = [
    Class::new(CLASS_SIZES[0]),
    Class::new(CLASS_SIZES[1]),
    Class::new(CLASS_SIZES[2]),
    Class::new(CLASS_SIZES[3]),
    Class::new(CLASS_SIZES[4]),
];

/// Total bytes of chunk memory ever requested from the system allocator
/// (monotonic; chunks are never returned). Exposed for tests/stats.
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Allocations served by the single-slot fallback after a chunk-growth
/// failure or an injected fault. Always-on (plain relaxed atomic) so
/// tests and benches can read it without the `metrics` feature.
static ALLOC_FAILS: AtomicUsize = AtomicUsize::new(0);

#[inline]
fn class_of_size(size: usize) -> &'static Class {
    let idx = match size {
        0..=16 => 0,
        17..=64 => 1,
        65..=256 => 2,
        257..=832 => 3,
        833..=2112 => 4,
        _ => panic!("arena: no size class for {size}-byte allocation"),
    };
    &CLASSES[idx]
}

/// Allocate a `size`-byte slot, 64-byte aligned for internal-node sizes
/// (> 16 B) and 16-byte aligned for leaves. The returned memory is
/// uninitialized.
///
/// Panics if `size` exceeds the largest class (the Node256 layout fits
/// with room to spare; a layout change that outgrows the table fails
/// loudly here rather than corrupting).
pub(crate) fn arena_alloc(size: usize) -> *mut u8 {
    class_of_size(size).alloc(stripe_id())
}

/// Return a slot previously obtained from [`arena_alloc`] with the same
/// `size` to its class free list.
///
/// # Safety
/// `p` must have come from `arena_alloc(size)` (same size-class bucket),
/// must not be freed twice, and no other thread may still dereference it
/// — in tree code that means the free goes through epoch reclamation.
pub(crate) unsafe fn arena_dealloc(p: *mut u8, size: usize) {
    class_of_size(size).dealloc(p, stripe_id());
}

/// Monotonic total of chunk bytes requested from the system allocator.
pub fn arena_allocated_bytes() -> usize {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Monotonic count of allocations that failed (injected or real chunk
/// exhaustion) and were served by the single-slot fallback instead.
pub fn arena_alloc_fail_count() -> usize {
    ALLOC_FAILS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_node_layouts() {
        use crate::node::{Leaf, Node16, Node256, Node4, Node48};
        assert!(std::mem::size_of::<Leaf>() <= CLASS_SIZES[0]);
        assert!(std::mem::size_of::<Node4>() <= CLASS_SIZES[1]);
        assert!(std::mem::size_of::<Node16>() <= CLASS_SIZES[2]);
        assert!(std::mem::size_of::<Node48>() <= CLASS_SIZES[3]);
        assert!(std::mem::size_of::<Node256>() <= CLASS_SIZES[4]);
        // Alignment of every node type divides the 64-byte chunk/slot
        // alignment (leaf slots: 16).
        assert!(64usize.is_multiple_of(std::mem::align_of::<Node256>()));
        assert!(CLASS_SIZES[0].is_multiple_of(std::mem::align_of::<Leaf>()));
    }

    #[test]
    fn alloc_is_aligned_and_recycles() {
        let a = arena_alloc(100);
        assert_eq!(a as usize % 64, 0, "internal slots are 64-aligned");
        // SAFETY: just allocated, never shared.
        unsafe { arena_dealloc(a, 100) };
        let b = arena_alloc(200); // same class (65..=256)
        assert_eq!(a, b, "freed slot is recycled LIFO within its class");
        // SAFETY: as above.
        unsafe { arena_dealloc(b, 200) };
        let leaf = arena_alloc(16);
        assert_eq!(leaf as usize % 2, 0, "leaf slots keep the tag bit free");
        // SAFETY: as above.
        unsafe { arena_dealloc(leaf, 16) };
    }

    #[test]
    fn consecutive_allocs_are_dense() {
        // Two fresh bump allocations from one shard are adjacent slots —
        // the locality property the arena exists for. A class of its own,
        // so no other test's thread shares the shard.
        let cls = Class::new(64);
        let a = cls.alloc(0) as usize;
        let b = cls.alloc(0) as usize;
        assert_eq!(b, a + 64, "bump slots are adjacent");
    }

    #[test]
    fn refills_double_up_to_huge_page_chunks() {
        let cls = Class::new(CLASS_SIZES[3]);
        let mut chunks = Vec::new();
        let mut allocated = 0;
        while allocated <= 2 * HUGE_PAGE {
            cls.alloc(0);
            allocated += cls.slot;
            let sh = cls.shards[0].lock().unwrap_or_else(|e| e.into_inner());
            if chunks.last() != Some(&sh.chunk) {
                chunks.push(sh.chunk);
            }
        }
        assert_eq!(chunks[0], cls.slot * FIRST_CHUNK_SLOTS);
        for w in chunks.windows(2) {
            assert_eq!(w[1], (2 * w[0]).min(HUGE_PAGE), "chunk sizes {chunks:?}");
        }
        assert_eq!(*chunks.last().unwrap(), HUGE_PAGE, "chunk sizes {chunks:?}");
        let sh = cls.shards[0].lock().unwrap_or_else(|e| e.into_inner());
        let start = sh.end - sh.chunk / cls.slot * cls.slot;
        assert_eq!(start % HUGE_PAGE, 0, "the newest chunk is one huge page");
    }

    #[test]
    fn a_failed_huge_page_refill_falls_back_to_one_slot() {
        // Runs under `cargo test -p art --features fault --lib`.
        if !probe::fail::ENABLED {
            return;
        }
        use probe::fail::{FailAction, Trigger};
        let cls = Class::new(CLASS_SIZES[0]);
        let shard = || cls.shards[0].lock().unwrap_or_else(|e| e.into_inner());
        // Up the ladder to a 2 MiB chunk, and use it up.
        loop {
            cls.alloc(0);
            let sh = shard();
            if sh.chunk == HUGE_PAGE && sh.bump == sh.end {
                break;
            }
        }
        let fails = arena_alloc_fail_count();
        let g = probe::fail::install("art.arena.grow", FailAction::AllocFail, Trigger::Always);
        let p = cls.alloc(0);
        drop(g);
        assert!(!p.is_null());
        assert!(arena_alloc_fail_count() > fails, "served by the fallback");
        let sh = shard();
        assert_eq!(
            (sh.chunk, sh.bump),
            (HUGE_PAGE, sh.end),
            "the failed refill left the shard as it was"
        );
    }
}
