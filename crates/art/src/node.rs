//! ART node layouts: Node4 / Node16 / Node48 / Node256, leaves, and the
//! tagged-pointer representation.
//!
//! All mutable fields are atomics so that optimistic readers (who read
//! concurrently with locked writers and validate versions afterwards)
//! never perform a data race in the Rust memory model; a torn logical
//! state is discarded by version validation.
//!
//! Layout notes:
//! * Keys are fixed 8-byte big-endian `u64`s, so an internal node's
//!   compressed prefix is at most 7 bytes. The prefix bytes and prefix
//!   length are packed into one `AtomicU64` so a reader decodes them in
//!   one load: a writer changes a live node's prefix in place under the
//!   node's lock (prefix extraction and merge), and a racing reader sees
//!   the whole old prefix or the whole new one, then fails validation. A
//!   node does not record its depth: every descent starts at the root
//!   at depth 0 and counts the bytes it consumes.
//! * Only a change of type (grow, shrink) copies a node into a fresh one.
//! * Child pointers are `usize` with bit 0 tagging leaves. Null is 0.

use crate::olc::VersionLock;
use std::mem::needs_drop;
use std::sync::atomic::{AtomicU16, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// Maximum stored prefix bytes (8-byte keys → at most 7 shared bytes
/// before a discriminating byte).
pub const MAX_PREFIX: usize = 7;

/// Tagged node pointer: 0 = null, bit 0 set = leaf.
pub type NodePtr = usize;

/// Node kinds, in growth order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeType {
    /// Up to 4 children, sorted key array.
    N4 = 0,
    /// Up to 16 children, sorted key array.
    N16 = 1,
    /// Up to 48 children, 256-byte indirection index.
    N48 = 2,
    /// Direct 256-pointer array.
    N256 = 3,
}

/// Shared header at the start of every internal node (`repr(C)` first
/// field, so a `NodePtr` to any node type can be read as `NodeHeader`).
#[repr(C)]
pub struct NodeHeader {
    /// Optimistic version lock.
    pub version: VersionLock,
    /// Packed prefix: bytes 0..=6 = prefix bytes, byte 7 = prefix
    /// length.
    prefix_word: AtomicU64,
    /// Which concrete layout follows this header.
    pub node_type: NodeType,
    /// Number of live children.
    num_children: AtomicU16,
}

impl NodeHeader {
    fn new(node_type: NodeType) -> Self {
        Self {
            version: VersionLock::new(),
            prefix_word: AtomicU64::new(0),
            node_type,
            num_children: AtomicU16::new(0),
        }
    }

    /// Decode (prefix bytes, prefix length).
    #[inline]
    pub fn prefix(&self) -> ([u8; MAX_PREFIX], usize) {
        let w = self.prefix_word.load(Ordering::Acquire);
        let mut bytes = [0u8; MAX_PREFIX];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (w >> (8 * i)) as u8;
        }
        (bytes, (w >> 56) as usize)
    }

    /// Atomically set prefix bytes and length.
    #[inline]
    pub fn set_prefix(&self, bytes: &[u8]) {
        debug_assert!(bytes.len() <= MAX_PREFIX);
        let mut w: u64 = 0;
        for (i, &b) in bytes.iter().enumerate() {
            w |= (b as u64) << (8 * i);
        }
        w |= (bytes.len() as u64) << 56;
        self.prefix_word.store(w, Ordering::Release);
    }

    /// Current child count.
    #[inline]
    pub fn count(&self) -> usize {
        self.num_children.load(Ordering::Acquire) as usize
    }

    #[inline]
    fn set_count(&self, n: usize) {
        self.num_children.store(n as u16, Ordering::Release);
    }

    #[inline]
    fn kind(&self) -> &'static Kind {
        &KINDS[self.node_type as usize]
    }
}

/// A leaf holding one key-value pair. The value is atomic so updates are
/// in-place and lock-free.
#[repr(C)]
pub struct Leaf {
    /// The full 8-byte key.
    pub key: u64,
    /// The value, updatable in place.
    pub value: AtomicU64,
}

/// Node4 and Node16: `N` sorted key bytes + their children, one layout
/// generic over the fan-out.
#[repr(C)]
pub struct SortedNode<const N: usize> {
    /// Common header.
    pub hdr: NodeHeader,
    keys: [AtomicU8; N],
    children: [AtomicUsize; N],
}

/// Up to 4 children.
pub type Node4 = SortedNode<4>;
/// Up to 16 children.
pub type Node16 = SortedNode<16>;

/// Node48: 256-entry byte index into a 48-pointer array.
#[repr(C)]
pub struct Node48 {
    /// Common header.
    pub hdr: NodeHeader,
    index: [AtomicU8; 256],
    children: [AtomicUsize; 48],
}

/// Node256: one pointer per byte value.
#[repr(C)]
pub struct Node256 {
    /// Common header.
    pub hdr: NodeHeader,
    children: [AtomicUsize; 256],
}

const EMPTY48: u8 = 0xFF;

/// What differs between the node kinds besides the layout itself,
/// indexed by `NodeType as usize`.
struct Kind {
    size: usize,
    capacity: usize,
    larger: Option<NodeType>,
    smaller: Option<NodeType>,
    /// A removal from a node with at most this many children shrinks it
    /// to `smaller`.
    shrink_at: usize,
}

#[rustfmt::skip]
const KINDS: [Kind; 4] = [
    Kind { size: size_of::<Node4>(), capacity: 4, larger: Some(NodeType::N16), smaller: None, shrink_at: 0 },
    Kind { size: size_of::<Node16>(), capacity: 16, larger: Some(NodeType::N48), smaller: Some(NodeType::N4), shrink_at: 4 },
    Kind { size: size_of::<Node48>(), capacity: 48, larger: Some(NodeType::N256), smaller: Some(NodeType::N16), shrink_at: 13 },
    Kind { size: size_of::<Node256>(), capacity: 256, larger: None, smaller: Some(NodeType::N48), shrink_at: 38 },
];

// What the unsafe code below takes from the layouts.
const _: () = {
    // `dealloc` returns a slot without running a destructor.
    assert!(!needs_drop::<Leaf>() && !needs_drop::<Node4>() && !needs_drop::<Node16>());
    assert!(!needs_drop::<Node48>() && !needs_drop::<Node256>());
};

// ---------------------------------------------------------------------
// Tagged pointer helpers
// ---------------------------------------------------------------------

/// Is this pointer a leaf?
#[inline]
pub fn is_leaf(p: NodePtr) -> bool {
    p & 1 == 1
}

/// Allocate a leaf and return its tagged pointer.
///
/// Leaves (and internal nodes, see [`alloc`]) come from the size-class
/// slab arena (`crate::arena`), not the global allocator: nodes created
/// together sit densely on the same pages, which is what makes the AMAC
/// ring prefetches pay off. Arena slots are
/// ≥16-aligned, so bit 0 is always free for the leaf tag.
pub fn make_leaf(key: u64, value: u64) -> NodePtr {
    arena_new(Leaf {
        key,
        value: AtomicU64::new(value),
    }) | 1
}

/// Dereference a tagged leaf pointer.
///
/// # Safety
/// `p` must be a live leaf pointer (tag bit set) protected by an epoch
/// guard for the duration of `'g`.
#[inline]
pub unsafe fn leaf_ref<'g>(p: NodePtr) -> &'g Leaf {
    debug_assert!(is_leaf(p));
    &*((p & !1) as *const Leaf)
}

/// Dereference an internal node pointer as its shared header.
///
/// # Safety
/// `p` must be a live internal node pointer (tag bit clear, non-null)
/// protected by an epoch guard for the duration of `'g`.
#[inline]
pub unsafe fn header<'g>(p: NodePtr) -> &'g NodeHeader {
    debug_assert!(p != 0 && !is_leaf(p));
    &*(p as *const NodeHeader)
}

/// A live internal node, borrowed as the layout its header names. The two
/// sorted kinds are one variant: what is done to them differs only in the
/// length of the arrays.
enum Node<'g> {
    Sorted {
        keys: &'g [AtomicU8],
        children: &'g [AtomicUsize],
    },
    N48(&'g Node48),
    N256(&'g Node256),
}

/// Borrow the node behind `p`: the one place a `NodePtr` is cast to a
/// node layout.
///
/// # Safety
/// As for [`header`].
#[inline(always)]
unsafe fn view<'g>(p: NodePtr) -> Node<'g> {
    fn sorted<const N: usize>(n: &SortedNode<N>) -> Node<'_> {
        Node::Sorted {
            keys: &n.keys,
            children: &n.children,
        }
    }
    match header(p).node_type {
        NodeType::N4 => sorted(&*(p as *const Node4)),
        NodeType::N16 => sorted(&*(p as *const Node16)),
        NodeType::N48 => Node::N48(&*(p as *const Node48)),
        NodeType::N256 => Node::N256(&*(p as *const Node256)),
    }
}

// ---------------------------------------------------------------------
// Allocation / deallocation
// ---------------------------------------------------------------------

fn atomic_u8_array<const N: usize>(fill: u8) -> [AtomicU8; N] {
    std::array::from_fn(|_| AtomicU8::new(fill))
}

fn atomic_usize_array<const N: usize>() -> [AtomicUsize; N] {
    std::array::from_fn(|_| AtomicUsize::new(0))
}

/// Write `val` into a fresh arena slot sized/aligned for `T` and return
/// the untagged pointer value.
fn arena_new<T>(val: T) -> usize {
    let p = crate::arena::arena_alloc(size_of::<T>()) as *mut T;
    // SAFETY: fresh, exclusively owned slot; leaf slots are 16-aligned and
    // internal-node slots 64-aligned (≥ align_of::<T>() for every layout).
    unsafe { p.write(val) };
    p as usize
}

fn new_sorted<const N: usize>(hdr: NodeHeader) -> NodePtr {
    arena_new(SortedNode::<N> {
        hdr,
        keys: atomic_u8_array(0),
        children: atomic_usize_array(),
    })
}

/// Allocate an empty internal node of the given type from the slab arena
/// (see [`make_leaf`] for why nodes don't come from `Box`).
pub fn alloc(node_type: NodeType) -> NodePtr {
    let hdr = NodeHeader::new(node_type);
    match node_type {
        NodeType::N4 => new_sorted::<4>(hdr),
        NodeType::N16 => new_sorted::<16>(hdr),
        NodeType::N48 => arena_new(Node48 {
            hdr,
            index: atomic_u8_array(EMPTY48),
            children: atomic_usize_array(),
        }),
        NodeType::N256 => arena_new(Node256 {
            hdr,
            children: atomic_usize_array(),
        }),
    }
}

/// Size in bytes of the allocation behind a tagged pointer.
///
/// # Safety
/// `p` must be a live pointer produced by [`alloc`] or [`make_leaf`]: an
/// internal node's size is read from its header.
pub unsafe fn alloc_size(p: NodePtr) -> usize {
    if is_leaf(p) {
        size_of::<Leaf>()
    } else {
        header(p).kind().size
    }
}

/// Immediately return the slot behind a tagged pointer to the arena.
///
/// In tree code this runs through epoch reclamation
/// (`Guard::defer_unchecked`), which is what makes arena slot reuse safe
/// against doomed optimistic readers: the slot re-enters the free list
/// only after every reader that could have seen the old node has
/// unpinned (see `crate::arena` docs / DESIGN.md §15).
///
/// # Safety
/// `p` must be null or a live pointer produced by [`alloc`] or
/// [`make_leaf`], not reachable by any other thread.
pub unsafe fn dealloc(p: NodePtr) {
    if p != 0 {
        crate::arena::arena_dealloc((p & !1) as *mut u8, alloc_size(p));
    }
}

/// Recursively free a whole subtree (used by `Drop`, single-threaded).
///
/// # Safety
/// No other thread may access the subtree.
pub unsafe fn dealloc_subtree(p: NodePtr) {
    if p == 0 {
        return;
    }
    if !is_leaf(p) {
        for_each_child(p, |_, child| {
            dealloc_subtree(child);
        });
    }
    dealloc(p);
}

// ---------------------------------------------------------------------
// Child access (all functions take live pointers; the caller is
// responsible for epoch protection and, for mutations, the write lock).
// ---------------------------------------------------------------------

impl Node48 {
    /// The two dependent loads of a Node48 lookup: `index[byte]` →
    /// `children[idx]`.
    ///
    /// The only values ever stored into `index[byte]` are [`EMPTY48`] (the
    /// initial fill and `remove_child`) and `slot as u8` for a slot found
    /// by scanning the 48-entry children array (`insert_child`), so at
    /// rest every entry is in `0..=47` or `EMPTY48`. A racing optimistic
    /// reader still cannot see anything else — `AtomicU8` rules out torn
    /// bytes. The bound check is therefore defense in depth: if a corrupt
    /// value ever did appear, clamping it (as this code once did with
    /// `.min(47)`) would silently return `children[47]` — a live pointer
    /// to the *wrong* child, which version validation cannot catch because
    /// the node itself was never locked. Treating `idx >= 48` as "absent"
    /// instead keeps the failure mode a miss, never a wrong descent.
    #[inline(always)]
    fn child(&self, byte: u8) -> NodePtr {
        match self
            .children
            .get(self.index[byte as usize].load(Ordering::Acquire) as usize)
        {
            Some(c) => c.load(Ordering::Acquire),
            None => 0,
        }
    }
}

/// Find the child pointer for `byte`, or 0 if absent. The sorted kinds
/// search their keys one `AtomicU8` at a time (`sorted_pos`); Node48
/// and Node256 are O(1) pointer chases.
///
/// # Safety
/// `p` must be a live internal node pointer, **and** the result is
/// untrusted until the node's version validates: nothing derived from it
/// may be dereferenced before that validation succeeds (DESIGN.md §15).
/// A caller that holds the node's write lock meets this trivially — no
/// writer races its load, and the version it would validate is its own.
pub unsafe fn find_child(p: NodePtr, byte: u8) -> NodePtr {
    match view(p) {
        Node::Sorted { keys, children } => match sorted_pos(keys, header(p).count(), byte) {
            Some(i) => children[i].load(Ordering::Acquire),
            None => 0,
        },
        Node::N48(n) => n.child(byte),
        Node::N256(n) => n.children[byte as usize].load(Ordering::Acquire),
    }
}

/// Whether the node has no room for another child.
///
/// # Safety
/// `p` must be a live internal node pointer.
pub unsafe fn is_full(p: NodePtr) -> bool {
    let hdr = header(p);
    hdr.count() >= hdr.kind().capacity
}

/// Insert a child under `byte`. The node must be write-locked (or not yet
/// published) and not full, and `byte` must not already be present.
///
/// # Safety
/// `p` live internal node, write lock held by the caller.
pub unsafe fn insert_child(p: NodePtr, byte: u8, child: NodePtr) {
    let hdr = header(p);
    let cnt = hdr.count();
    match view(p) {
        Node::Sorted { keys, children } => insert_sorted(keys, children, cnt, byte, child),
        Node::N48(n) => {
            let free = |c: &AtomicUsize| c.load(Ordering::Relaxed) == 0;
            let slot = n.children.iter().position(free).expect("Node48 has room");
            n.children[slot].store(child, Ordering::Release);
            n.index[byte as usize].store(slot as u8, Ordering::Release);
        }
        Node::N256(n) => n.children[byte as usize].store(child, Ordering::Release),
    }
    hdr.set_count(cnt + 1);
}

// Audit note (optimistic readers vs the shift loops below, incl. the
// child search in `find_child` — DESIGN.md §15): the writer holds the
// node's version lock for the whole shift, so every concurrent reader of
// this node is an *optimistic* one that snapshotted the version
// beforehand and will fail `validate` afterwards — any conclusion drawn
// from a mid-shift view is discarded before it is acted on. What must
// hold even for a doomed reader is memory safety of the read itself:
//
// * Every load/store is a single aligned `AtomicU8`/`AtomicUsize`, so no
//   torn *bytes* — a mid-shift view is some interleaving of old and new
//   array states.
// * Every child slot a reader can index (bounded by `count().min(N)`)
//   holds, at every intermediate step, either 0 or a pointer that was
//   live at some point during the shift: the shifts only copy existing
//   entries (transiently duplicating a neighbor, never inventing a
//   pointer), `insert_sorted` moves right-to-left before storing the new
//   child, and `remove_child` moves left-to-right before clearing the
//   vacated tail slot. Epoch reclamation keeps "live at some point while
//   the reader was pinned" dereferenceable, so a doomed reader may
//   descend into the *wrong* (duplicated/stale) child but never into
//   freed memory — and the caller's validate rejects the result before
//   it escapes.
// * `count` is updated after the arrays (insert) or before them (remove,
//   via the caller storing count last); either way readers clamp with
//   `.min(N)` so a stale count cannot index out of bounds.
//
// The `node.shift` chaos point widens the mid-shift windows under the
// `chaos` feature so the seeded schedule sweeps actually exercise these
// interleavings (see tests/chaos_schedules.rs).
fn insert_sorted(
    keys: &[AtomicU8],
    children: &[AtomicUsize],
    cnt: usize,
    byte: u8,
    child: NodePtr,
) {
    let above = |k: &AtomicU8| k.load(Ordering::Relaxed) > byte;
    let pos = keys[..cnt].iter().position(above).unwrap_or(cnt);
    // Shift right from the end so concurrent optimistic readers (who will
    // fail validation anyway) never observe an out-of-bounds index.
    for i in (pos..cnt).rev() {
        probe::chaos::point("node.shift");
        keys[i + 1].store(keys[i].load(Ordering::Relaxed), Ordering::Release);
        children[i + 1].store(children[i].load(Ordering::Relaxed), Ordering::Release);
    }
    probe::chaos::point("node.shift");
    keys[pos].store(byte, Ordering::Release);
    children[pos].store(child, Ordering::Release);
}

/// Where `byte` sits among the first `cnt` keys of a Node4/Node16, or
/// `None` if it is not there: the one child search of the sorted kinds,
/// shared by the optimistic reader ([`find_child`]) and the locked
/// writers. A stale `cnt` is clamped to the array, and every key is one
/// atomic load, so a reader racing a shift sees some interleaving of old
/// and new bytes and its caller's validation discards the answer.
#[inline(always)]
fn sorted_pos(keys: &[AtomicU8], cnt: usize, byte: u8) -> Option<usize> {
    let found = |k: &AtomicU8| k.load(Ordering::Relaxed) == byte;
    keys[..cnt.min(keys.len())].iter().position(found)
}

/// Replace the child pointer stored under `byte` (which must exist).
/// Node must be write-locked.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn replace_child(p: NodePtr, byte: u8, child: NodePtr) {
    let slot = match view(p) {
        Node::Sorted { keys, children } => {
            &children[sorted_pos(keys, header(p).count(), byte).expect("byte present")]
        }
        Node::N48(n) => &n.children[n.index[byte as usize].load(Ordering::Relaxed) as usize],
        Node::N256(n) => &n.children[byte as usize],
    };
    slot.store(child, Ordering::Release);
}

/// Remove the child under `byte` (which must exist). Node must be
/// write-locked.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn remove_child(p: NodePtr, byte: u8) {
    let hdr = header(p);
    let cnt = hdr.count();
    match view(p) {
        Node::Sorted { keys, children } => {
            // Left-to-right copy, then clear the vacated tail slot last —
            // see the audit note above `insert_sorted` for why every
            // mid-shift view a doomed optimistic reader can take is
            // memory-safe.
            for i in sorted_pos(keys, cnt, byte).expect("byte present")..cnt - 1 {
                probe::chaos::point("node.shift");
                keys[i].store(keys[i + 1].load(Ordering::Relaxed), Ordering::Release);
                children[i].store(children[i + 1].load(Ordering::Relaxed), Ordering::Release);
            }
            probe::chaos::point("node.shift");
            children[cnt - 1].store(0, Ordering::Release);
        }
        Node::N48(n) => {
            let idx = n.index[byte as usize].load(Ordering::Relaxed);
            debug_assert!(idx != EMPTY48);
            // Order matters for doomed optimistic readers: retract the
            // index entry *before* clearing the child slot. A reader that
            // loads `index[byte]` in this window either sees EMPTY48
            // (miss — correct once validation is factored in) or the old
            // slot index, whose child entry still holds the live-until-
            // epoch-drain pointer or 0 — never a slot already recycled
            // for a different byte, because reuse requires a later
            // `insert_child` under this same write lock, and that bumps
            // the version the reader is about to validate against. The
            // reverse order (children first) would leave a window where
            // `index[byte]` points at a slot that a subsequent unlocked
            // state could repopulate for another byte while the reader's
            // snapshot was still "valid-looking"; keeping index-first
            // means a stale positive always resolves through the stale
            // slot, and validation kills it.
            n.index[byte as usize].store(EMPTY48, Ordering::Release);
            probe::chaos::point("node.shift");
            n.children[idx as usize].store(0, Ordering::Release);
        }
        Node::N256(n) => n.children[byte as usize].store(0, Ordering::Release),
    }
    hdr.set_count(cnt - 1);
}

/// Visit every (byte, child) pair in ascending byte order.
///
/// # Safety
/// `p` must be a live internal node pointer. Under concurrency the caller
/// must validate the node's version afterwards.
pub unsafe fn for_each_child(p: NodePtr, mut f: impl FnMut(u8, NodePtr)) {
    let mut pos = 0;
    while let Some((next, byte, child)) = next_child(p, pos, 0, u8::MAX) {
        f(byte, child);
        pos = next;
    }
}

/// The first child at walk position `pos` or later whose key byte lies
/// in `lo..=hi`, as `(position to resume from, byte, child)`; `None` once
/// no such child is left. A walk starts at position 0 and yields children
/// in ascending byte order.
///
/// A position is an array index in the sorted node types and a key byte
/// in Node48/Node256, so a bounded walk touches the entries between the
/// two bytes and nothing else of the node.
///
/// # Safety
/// `p` must be a live internal node pointer. Under concurrency the result
/// is untrusted until the node's version validates (as for
/// [`find_child`]): a mid-shift view may pair a byte with its neighbour's
/// child.
pub unsafe fn next_child(p: NodePtr, pos: usize, lo: u8, hi: u8) -> Option<(usize, u8, NodePtr)> {
    /// Node48/Node256: a position is a key byte.
    fn by_byte(
        mut bytes: std::ops::RangeInclusive<usize>,
        child: impl Fn(u8) -> NodePtr,
    ) -> Option<(usize, u8, NodePtr)> {
        bytes.find_map(|byte| {
            let c = child(byte as u8);
            (c != 0).then_some((byte + 1, byte as u8, c))
        })
    }
    let bytes = pos.max(lo as usize)..=hi as usize;
    match view(p) {
        Node::Sorted { keys, children } => {
            for i in pos..header(p).count().min(keys.len()) {
                let b = keys[i].load(Ordering::Acquire);
                if b < lo {
                    continue;
                }
                if b > hi {
                    break;
                }
                let c = children[i].load(Ordering::Acquire);
                if c != 0 {
                    return Some((i + 1, b, c));
                }
            }
            None
        }
        Node::N48(n) => by_byte(bytes, |byte| n.child(byte)),
        Node::N256(n) => by_byte(bytes, |byte| {
            n.children[byte as usize].load(Ordering::Acquire)
        }),
    }
}

/// A fresh, unshared `node_type` node with `p`'s children and prefix.
unsafe fn copy_as(p: NodePtr, node_type: NodeType) -> NodePtr {
    let (src, newp) = (header(p), alloc(node_type));
    let dst = header(newp);
    let (bytes, len) = src.prefix();
    dst.set_prefix(&bytes[..len]);
    for_each_child(p, |b, c| insert_child(newp, b, c));
    newp
}

/// Grow a full node into the next larger type, copying children and
/// prefix. The original node must be write-locked; the returned
/// node is fresh and unshared.
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn grow(p: NodePtr) -> NodePtr {
    copy_as(p, header(p).kind().larger.expect("Node256 cannot grow"))
}

/// Shrink an underfull node into the next smaller type (see
/// [`shrink_candidate`]). Same contract as [`grow`].
///
/// # Safety
/// `p` live internal node, write lock held.
pub unsafe fn shrink(p: NodePtr) -> NodePtr {
    let smaller = header(p).kind().smaller;
    copy_as(p, smaller.expect("Node4 shrinks by merging, not by type"))
}

/// Whether removing one child would leave the node small enough to shrink
/// to the next type down.
///
/// # Safety
/// `p` live internal node.
pub unsafe fn shrink_candidate(p: NodePtr) -> bool {
    let hdr = header(p);
    hdr.kind().smaller.is_some() && hdr.count() <= hdr.kind().shrink_at
}

/// Extract the byte of `key` at byte position `depth` (0 = most
/// significant, big-endian).
#[inline]
pub fn key_byte(key: u64, depth: usize) -> u8 {
    debug_assert!(depth < 8);
    (key >> (56 - 8 * depth)) as u8
}

/// The big-endian byte array of a key.
#[inline]
pub fn key_bytes(key: u64) -> [u8; 8] {
    key.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::offset_of;

    #[test]
    fn prefix_word_roundtrips() {
        let hdr = NodeHeader::new(NodeType::N4);
        hdr.set_prefix(&[0xAA, 0xBB, 0xCC]);
        let (bytes, len) = hdr.prefix();
        assert_eq!(len, 3);
        assert_eq!(&bytes[..3], &[0xAA, 0xBB, 0xCC]);
        hdr.set_prefix(&[0xFF; MAX_PREFIX]);
        assert_eq!(hdr.prefix(), ([0xFF; MAX_PREFIX], MAX_PREFIX));
        hdr.set_prefix(&[]);
        assert_eq!(hdr.prefix().1, 0);
    }

    #[test]
    fn key_byte_is_big_endian() {
        let k = 0x0102030405060708u64;
        for (i, expected) in (1..=8).enumerate() {
            assert_eq!(key_byte(k, i), expected as u8);
        }
    }

    /// The arena's five size classes and `art.arena_bytes_per_key` depend
    /// on these; the child search on the key offsets (see the `const`
    /// assertions).
    #[test]
    fn layouts_are_pinned() {
        assert_eq!(size_of::<Leaf>(), 16);
        assert_eq!(size_of::<NodeHeader>(), 24);
        let sizes = [
            size_of::<Node4>(),
            size_of::<Node16>(),
            size_of::<Node48>(),
            size_of::<Node256>(),
        ];
        assert_eq!(sizes, [64, 168, 664, 2072]);
        assert_eq!(sizes, KINDS.each_ref().map(|k| k.size));
        assert_eq!(
            (offset_of!(Node4, keys), offset_of!(Node4, children)),
            (24, 32)
        );
        assert_eq!(
            (offset_of!(Node16, keys), offset_of!(Node16, children)),
            (24, 40)
        );
    }

    #[test]
    fn node4_insert_find_remove() {
        // SAFETY: every pointer used below was returned by `alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let p = alloc(NodeType::N4);
            header(p).version.lock();
            insert_child(p, 30, make_leaf(30, 1));
            insert_child(p, 10, make_leaf(10, 2));
            insert_child(p, 20, make_leaf(20, 3));
            assert_eq!(header(p).count(), 3);
            // Sorted order check via iteration.
            let mut seen = Vec::new();
            for_each_child(p, |b, _| seen.push(b));
            assert_eq!(seen, vec![10, 20, 30]);
            let c = find_child(p, 20);
            assert!(is_leaf(c));
            assert_eq!(leaf_ref(c).key, 20);
            assert_eq!(find_child(p, 99), 0);
            let c10 = find_child(p, 10);
            remove_child(p, 10);
            dealloc(c10);
            assert_eq!(find_child(p, 10), 0);
            assert_eq!(header(p).count(), 2);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    /// `grow` and `shrink` both copy through `insert_child`: whatever the
    /// source and destination kinds, the copy has the expected type and
    /// the source's children (in byte order), count and prefix, and
    /// answers every search alike.
    #[test]
    fn grow_preserves_children_and_metadata() {
        use NodeType::*;
        type Copy = unsafe fn(NodePtr) -> NodePtr;
        let cases: [(NodeType, usize, Copy, NodeType); 6] = [
            (N4, 4, grow, N16),
            (N16, 16, grow, N48),
            (N48, 48, grow, N256),
            (N16, 4, shrink, N4),
            (N48, 13, shrink, N16),
            (N256, 38, shrink, N48),
        ];
        for (from, n, copy, to) in cases {
            // SAFETY: every pointer used below was returned by `alloc`,
            // `make_leaf`, `grow` or `shrink` in this test and is not yet
            // freed; the nodes are private to this thread, mutated only
            // under their version lock, and each is freed exactly once.
            unsafe {
                let p = alloc(from);
                header(p).set_prefix(&[7, 8]);
                header(p).version.lock();
                // 37 is odd, so the bytes are distinct — and out of order.
                let mut bytes: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
                for &b in &bytes {
                    insert_child(p, b, make_leaf(b as u64, b as u64));
                }
                assert_eq!(is_full(p), n == header(p).kind().capacity);
                let new = copy(p);
                assert_eq!(header(new).node_type, to, "{from:?} x{n}");
                assert_eq!(header(new).count(), n, "{from:?} -> {to:?}");
                let (prefix, len) = header(new).prefix();
                assert_eq!(&prefix[..len], &[7u8, 8][..]);
                let mut seen = Vec::new();
                for_each_child(new, |b, c| {
                    assert_eq!(leaf_ref(c).key, b as u64);
                    seen.push(b);
                });
                bytes.sort_unstable();
                assert_eq!(seen, bytes, "{from:?} -> {to:?}");
                for b in 0..=255u8 {
                    assert_eq!(find_child(new, b), find_child(p, b), "{from:?} -> {to:?}");
                }
                header(p).version.unlock();
                dealloc(p); // children now owned by `new`
                dealloc_subtree(new);
            }
        }
    }

    #[test]
    fn full_growth_chain_4_to_256() {
        // SAFETY: every pointer used below was returned by `alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let mut p = alloc(NodeType::N4);
            header(p).version.lock();
            let mut inserted = Vec::new();
            for b in 0..=255u8 {
                if is_full(p) {
                    let bigger = grow(p);
                    header(bigger).version.lock();
                    header(p).version.unlock_obsolete();
                    dealloc(p);
                    p = bigger;
                }
                insert_child(p, b, make_leaf(b as u64, 0));
                inserted.push(b);
            }
            assert_eq!(header(p).node_type, NodeType::N256);
            assert_eq!(header(p).count(), 256);
            for b in inserted {
                let c = find_child(p, b);
                assert!(c != 0, "byte {b} lost during growth");
                assert_eq!(leaf_ref(c).key, b as u64);
            }
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn node48_index_paths() {
        // SAFETY: every pointer used below was returned by `alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let p = alloc(NodeType::N48);
            header(p).version.lock();
            for b in (0..96u16).step_by(2) {
                insert_child(p, b as u8, make_leaf(b as u64, 0));
            }
            assert_eq!(header(p).count(), 48);
            assert!(is_full(p));
            assert_eq!(find_child(p, 95), 0);
            assert!(find_child(p, 94) != 0);
            let gone = find_child(p, 40);
            remove_child(p, 40);
            dealloc(gone);
            assert_eq!(find_child(p, 40), 0);
            // Slot is reusable.
            insert_child(p, 41, make_leaf(41, 0));
            assert!(find_child(p, 41) != 0);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn node48_out_of_range_index_treated_as_absent() {
        // Regression: the old code clamped a Node48 slot index with
        // `.min(47)`, so a corrupt out-of-range index entry silently
        // resolved to `children[47]` — a live pointer to the WRONG
        // child — instead of "absent". Poke such a value directly (only
        // possible from this in-crate test; real stores are provably
        // 0..=47 or EMPTY48, see `Node48::child`) and check every lookup
        // path reports a miss.
        // SAFETY: every pointer used below was returned by `alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let p = alloc(NodeType::N48);
            header(p).version.lock();
            // Fill all 48 slots so children[47] is non-null (the old
            // clamp would have returned it).
            for b in (0..96u16).step_by(2) {
                insert_child(p, b as u8, make_leaf(b as u64, 0));
            }
            assert!(is_full(p));
            let Node::N48(n) = view(p) else {
                unreachable!("allocated as a Node48")
            };
            assert!(n.children[47].load(Ordering::Relaxed) != 0);
            // Byte 255 was never inserted; plant a corrupt index entry.
            n.index[255].store(200, Ordering::Release);
            assert_eq!(find_child(p, 255), 0, "find_child must report a miss");
            let mut seen_255 = false;
            for_each_child(p, |b, _| seen_255 |= b == 255);
            assert!(!seen_255, "for_each_child must skip the corrupt entry");
            // Restore sanity so dealloc_subtree doesn't double-visit.
            n.index[255].store(EMPTY48, Ordering::Release);
            header(p).version.unlock();
            dealloc_subtree(p);
        }
    }

    #[test]
    fn replace_child_swaps_pointer() {
        // SAFETY: every pointer used below was returned by `alloc`,
        // `make_leaf`, `grow` or `shrink` in this test and is not yet
        // freed; the nodes are private to this thread, mutated only under
        // their version lock, and each is freed exactly once.
        unsafe {
            let p = alloc(NodeType::N4);
            header(p).version.lock();
            let old = make_leaf(5, 1);
            insert_child(p, 5, old);
            let newc = make_leaf(5, 2);
            replace_child(p, 5, newc);
            let got = find_child(p, 5);
            assert_eq!(leaf_ref(got).value.load(Ordering::Relaxed), 2);
            header(p).version.unlock();
            dealloc(old);
            dealloc_subtree(p);
        }
    }
}
