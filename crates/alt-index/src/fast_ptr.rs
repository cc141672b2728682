//! The fast pointer buffer (§III-C): shortcuts from GPL models into
//! intermediate ART nodes.
//!
//! Entries are `AtomicUsize` node pointers (0 = de-optimized: search from
//! the ART root). Appends happen under a spin lock (the paper: "new fast
//! pointers are appended to the fast pointer buffer using spin locks");
//! reads are lock-free through a pre-sized segment table so entries never
//! move. Entry *updates* come from the ART replace hook and are plain
//! atomic stores.
//!
//! The merge scheme is cooperative with ART: registration first reserves
//! an entry, then tries to install the entry index on the target node; if
//! the node already carries an index ([`art::SetSlotResult::Merged`]),
//! the reservation is rolled back and the existing entry is shared by
//! both models — keeping #pointers <= #models and entries 1:1 with nodes.

use crate::model::NO_FAST;
use art::{Art, ReplaceHook, SetSlotResult};
use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicUsize, Ordering};

/// log2 of the first segment's capacity.
const FIRST_SEG_BITS: u32 = 10; // 1024 entries
/// Number of doubling segments (total capacity ~= 2^(10+31), plenty).
const SEGMENTS: usize = 32;

/// A lock-free-readable, spin-lock-appendable buffer of ART node
/// pointers.
pub struct FastPointerBuffer {
    segments: [AtomicPtr<AtomicUsize>; SEGMENTS],
    len: AtomicU32,
    append_lock: crate::spin::SpinLock,
    /// Total registrations attempted (i.e. pointer count *without* the
    /// merge scheme) — the Fig 10(b) comparison metric.
    unmerged_registrations: AtomicUsize,
}

/// Capacity of segment `s` and the global index of its first entry.
fn seg_shape(s: usize) -> (usize, usize) {
    if s == 0 {
        (1 << FIRST_SEG_BITS, 0)
    } else {
        let cap = 1usize << (FIRST_SEG_BITS + s as u32 - 1);
        (cap, cap)
    }
}

/// Map a global entry index to (segment, offset).
fn locate(idx: usize) -> (usize, usize) {
    if idx < (1 << FIRST_SEG_BITS) {
        (0, idx)
    } else {
        let seg = (usize::BITS - 1 - idx.leading_zeros()) as usize - (FIRST_SEG_BITS as usize - 1);
        let (_, base) = seg_shape(seg);
        (seg, idx - base)
    }
}

impl Default for FastPointerBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl FastPointerBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicU32::new(0),
            append_lock: crate::spin::SpinLock::new(),
            unmerged_registrations: AtomicUsize::new(0),
        }
    }

    /// Number of live entries (pointers after merging).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }

    /// Whether no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many registrations were attempted — the pointer count the
    /// buffer would have *without* the merge scheme (Fig 10(b)).
    pub fn unmerged_len(&self) -> usize {
        self.unmerged_registrations.load(Ordering::Relaxed)
    }

    /// Read entry `slot` (0 = fall back to the root).
    #[inline]
    pub fn get(&self, slot: u32) -> usize {
        debug_assert!((slot as usize) < self.len());
        let (seg, off) = locate(slot as usize);
        let base = self.segments[seg].load(Ordering::Acquire);
        debug_assert!(!base.is_null());
        // SAFETY: segments are allocated before `len` covers them and are
        // never freed while the buffer lives; `off` is within the
        // segment's capacity by construction.
        unsafe { (*base.add(off)).load(Ordering::Acquire) }
    }

    /// Store a new pointer into entry `slot` (hook updates; 0
    /// de-optimizes).
    #[inline]
    pub fn set(&self, slot: u32, node: usize) {
        if slot == NO_FAST {
            return;
        }
        let (seg, off) = locate(slot as usize);
        let base = self.segments[seg].load(Ordering::Acquire);
        if base.is_null() {
            return;
        }
        // SAFETY: as in `get`.
        unsafe { (*base.add(off)).store(node, Ordering::Release) };
    }

    fn ensure_segment(&self, seg: usize) {
        if !self.segments[seg].load(Ordering::Acquire).is_null() {
            return;
        }
        let (cap, _) = seg_shape(seg);
        let mut v: Vec<AtomicUsize> = Vec::with_capacity(cap);
        v.resize_with(cap, || AtomicUsize::new(0));
        let boxed = v.into_boxed_slice();
        let ptr = Box::into_raw(boxed) as *mut AtomicUsize;
        // Only called under the append lock, so a plain store is race-free
        // with other writers; readers see it via Acquire loads.
        self.segments[seg].store(ptr, Ordering::Release);
    }

    /// Register a fast pointer for the key interval `[k1, k2]`: resolve
    /// the LCA node in `art`, reserve an entry, and install it on the
    /// node. Returns the entry index to store in the GPL model, or
    /// [`NO_FAST`] when no shortcut exists (empty/shallow tree).
    ///
    /// Implements the merge scheme: if the LCA already carries an entry,
    /// that entry index is returned and the reservation is rolled back.
    ///
    /// The Obsolete retry loop is budget-bounded: registration is an
    /// optimization, so when ART churn keeps replacing the resolved LCA
    /// the escalation is simply [`NO_FAST`] — the model searches from
    /// the root (correct, just slower) instead of retrying forever.
    pub fn register(&self, art: &Art, k1: u64, k2: u64) -> u32 {
        // Fault injection: a fast pointer is an optimization, so the
        // graceful failure mode is *de-optimization* — hand back
        // `NO_FAST` (the model walks from the ART root) and count it.
        // Checked before the append lock so a Delay can't hold it.
        if probe::fail::eval("fastptr.install").is_err() {
            metrics::incr(Counter::FastPtrDeopt);
            return NO_FAST;
        }
        // One logical registration, however many times the install loop
        // below retries: counting inside the loop inflated this metric by
        // one per `Obsolete` (node-replaced-under-us) retry, overstating
        // the merge scheme's savings in the Fig 10(b) comparison.
        self.unmerged_registrations.fetch_add(1, Ordering::Relaxed);
        let mut retry = resilience::Retry::new();
        loop {
            let Some((node, _depth)) = art.lca_node(k1, k2) else {
                return NO_FAST;
            };
            let _g = self.append_lock.lock();
            // Widen the gap between LCA resolution and slot installation:
            // a node replacement landing here must drive the Obsolete
            // retry path, never a stale pointer.
            probe::chaos::point("fastptr.register.locked");
            let idx = self.len.load(Ordering::Acquire);
            let (seg, off) = locate(idx as usize);
            self.ensure_segment(seg);
            // Publish the pointer value before exposing the slot.
            let base = self.segments[seg].load(Ordering::Acquire);
            // SAFETY: segment just ensured; off < capacity.
            unsafe { (*base.add(off)).store(node, Ordering::Release) };
            self.len.store(idx + 1, Ordering::Release);
            probe::chaos::point("fastptr.merge.pre_install");
            // SAFETY: `node` came from `lca_node` above; the epoch pin
            // inside try_set_buffer_slot's caller contract is satisfied
            // because lca_node and this call happen back-to-back — if the
            // node was replaced in between, the version lock inside
            // reports Obsolete and we retry.
            match unsafe { art.try_set_buffer_slot(node, idx) } {
                SetSlotResult::Installed => return idx,
                SetSlotResult::Merged(existing) => {
                    // Roll the reservation back (we still hold the lock,
                    // so idx is the last entry).
                    self.len.store(idx, Ordering::Release);
                    return existing;
                }
                SetSlotResult::Obsolete => {
                    self.len.store(idx, Ordering::Release);
                    // Node replaced under us: retry from lca resolution,
                    // de-optimizing once the retry budget runs out. Drop
                    // the append lock first — backing off may park, and
                    // other registrations must not wait behind our nap.
                    drop(_g);
                    metrics::incr(Counter::FastPtrRegisterRetry);
                    if retry.wait_or_escalate(&crate::LAYER) {
                        metrics::incr(Counter::FastPtrDeopt);
                        return NO_FAST;
                    }
                    continue;
                }
            }
        }
    }

    /// Approximate heap bytes.
    pub fn memory_usage(&self) -> usize {
        let mut total = std::mem::size_of::<Self>();
        for s in 0..SEGMENTS {
            if !self.segments[s].load(Ordering::Acquire).is_null() {
                total += seg_shape(s).0 * 8;
            }
        }
        total
    }
}

impl Drop for FastPointerBuffer {
    fn drop(&mut self) {
        for s in 0..SEGMENTS {
            let ptr = self.segments[s].load(Ordering::Relaxed);
            if !ptr.is_null() {
                let (cap, _) = seg_shape(s);
                // SAFETY: ptr was produced by Box::into_raw of a boxed
                // slice of exactly `cap` entries; &mut self guarantees
                // exclusivity.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, cap)));
                }
            }
        }
    }
}

/// The hook ART fires when a slotted node is replaced: repoint the buffer
/// entry (§III-C scenarios ① and ②).
pub struct BufferHook(pub std::sync::Arc<FastPointerBuffer>);

impl ReplaceHook for BufferHook {
    fn node_replaced(&self, slot: u32, new_node: usize) {
        self.0.set(slot, new_node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_maps_segments_correctly() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(2047), (1, 1023));
        assert_eq!(locate(2048), (2, 0));
        assert_eq!(locate(4095), (2, 2047));
        assert_eq!(locate(4096), (3, 0));
    }

    #[test]
    fn register_returns_shared_slot_for_same_lca() {
        let art = Art::new();
        let base = 0xAA00_0000_0000_0000u64;
        art.insert(base + 1, 1);
        art.insert(base + 2, 2);
        art.insert(base + 3, 3);
        art.insert(0x1100_0000_0000_0000, 9);
        let buf = FastPointerBuffer::new();
        let s1 = buf.register(&art, base + 1, base + 2);
        let s2 = buf.register(&art, base + 2, base + 3);
        assert_ne!(s1, NO_FAST);
        assert_eq!(s1, s2, "same LCA merges onto one entry");
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.unmerged_len(), 2, "two registrations attempted");
        assert!(buf.get(s1) != 0);
    }

    #[test]
    fn register_on_empty_tree_deoptimizes() {
        let art = Art::new();
        let buf = FastPointerBuffer::new();
        assert_eq!(buf.register(&art, 1, 2), NO_FAST);
        assert_eq!(buf.len(), 0);
    }

    #[test]
    fn hook_updates_entry_on_expansion() {
        let buf = Arc::new(FastPointerBuffer::new());
        let art = Art::with_hook(Arc::new(BufferHook(Arc::clone(&buf))));
        let base = 0xBB00_0000_0000_0000u64;
        for i in 1..=4u64 {
            art.insert(base + i, i);
        }
        let slot = buf.register(&art, base + 1, base + 4);
        assert_ne!(slot, NO_FAST);
        let before = buf.get(slot);
        art.insert(base + 5, 5); // Node4 -> Node16
        let after = buf.get(slot);
        assert_ne!(before, after, "hook repointed the entry");
        assert_ne!(after, 0);
        // The updated pointer jumps correctly.
        // SAFETY: pointer maintained by the hook per the buffer contract.
        unsafe {
            match art.get_from(after, base + 3) {
                art::FromResult::Done(Some(v), _) => assert_eq!(v, 3),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn many_appends_cross_segment_boundaries() {
        // Exercise segment growth by registering distinct LCAs.
        let buf = FastPointerBuffer::new();
        let art = Art::new();
        // Distinct top bytes give distinct subtrees under the root.
        for hi in 0..200u64 {
            let base = (hi + 1) << 48;
            art.insert(base + 1, 1);
            art.insert(base + 2, 2);
        }
        let mut slots = Vec::new();
        for hi in 0..200u64 {
            let base = (hi + 1) << 48;
            let s = buf.register(&art, base + 1, base + 2);
            assert_ne!(s, NO_FAST);
            slots.push(s);
        }
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 200, "distinct subtrees get distinct entries");
        for &s in &slots {
            assert!(buf.get(s) != 0);
        }
    }
}
