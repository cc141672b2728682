//! The concurrent ART structure: construction, point lookups, inserts,
//! updates, and removals with optimistic lock coupling.

use crate::node::{self, NodePtr, NodeType};
use crate::olc::Version;
use crossbeam_epoch::{self as epoch, Guard};
use probe::striped::Striped;
use std::sync::atomic::Ordering;

/// A concurrent adaptive radix tree mapping `u64` keys to `u64` values.
///
/// The root is a Node256 with an empty prefix that lives as long as the
/// tree: [`Art::new`] allocates it, `Drop` frees it, and nothing replaces
/// it or changes its prefix. Every other node therefore has a parent, and
/// a writer changes a node's prefix in place under the node's lock and
/// its parent's (DESIGN.md §15, "Prefixes change in place").
pub struct Art {
    pub(crate) root: NodePtr,
    /// Keys in the tree, and bytes of live nodes and leaves. Every insert
    /// and remove writes both, from every writer thread, so each thread
    /// writes a stripe of its own: as two plain atomics beside `root` they
    /// were the one line all writers (and every reader's root load)
    /// contended for. `Striped` is 128-aligned and a whole number of
    /// lines, which leaves `root` on a line nothing writes.
    count: Striped,
    mem: Striped,
}

// SAFETY: all shared state is managed through atomics, version locks, and
// epoch-based reclamation.
unsafe impl Send for Art {}
// SAFETY: as for `Send` — `&Art` only exposes the atomics and the
// version-locked, epoch-protected node graph behind `root`.
unsafe impl Sync for Art {}

impl Default for Art {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Art {
    fn drop(&mut self) {
        // SAFETY: &mut self guarantees exclusive access.
        unsafe { node::dealloc_subtree(self.root) };
    }
}

impl Art {
    /// An empty tree: a root Node256 with no children.
    pub fn new() -> Self {
        let t = Self {
            root: node::alloc(NodeType::N256),
            count: Striped::new(),
            mem: Striped::new(),
        };
        t.track_alloc(t.root);
        t
    }

    /// Number of keys in the tree (racy under concurrency, exact at rest).
    pub fn len(&self) -> usize {
        self.count.sum() as usize
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate bytes allocated for nodes and leaves.
    pub fn memory_usage(&self) -> usize {
        self.mem.sum() as usize + std::mem::size_of::<Self>()
    }

    pub(crate) fn track_alloc(&self, p: NodePtr) {
        // SAFETY: every caller passes a node or leaf it has just allocated
        // and not yet freed.
        let size = unsafe { node::alloc_size(p) };
        self.mem.add(size as u64);
    }

    /// Retire a replaced/unlinked allocation: memory is reclaimed after
    /// the current epoch's readers drain.
    pub(crate) fn retire(&self, guard: &Guard, p: NodePtr) {
        if p == 0 {
            return;
        }
        // SAFETY: `p` was live in the tree until the caller unlinked it
        // (under the appropriate locks), so no new readers can find it;
        // existing readers are protected by their epoch pins, which `defer`
        // waits out before running the destructor.
        unsafe {
            self.mem.sub(node::alloc_size(p) as u64);
            guard.defer_unchecked(move || node::dealloc(p));
        }
    }

    pub(crate) fn bump_count(&self) {
        self.count.add(1);
    }

    fn drop_count(&self) {
        self.count.sub(1);
    }

    // -----------------------------------------------------------------
    // Lookup
    // -----------------------------------------------------------------

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        let guard = epoch::pin();
        let leaf = self.leaf(key, &guard).0?;
        // SAFETY: found under `guard`, still held.
        Some(unsafe { leaf_value(leaf) })
    }

    /// Point lookup, also reporting the number of nodes traversed (the
    /// "average lookup length" metric).
    pub fn get_with_depth(&self, key: u64) -> (Option<u64>, u32) {
        let guard = epoch::pin();
        let (leaf, hops) = self.leaf(key, &guard);
        // SAFETY: found under `guard`, still held.
        (leaf.map(|l| unsafe { leaf_value(l) }), hops)
    }

    /// `key`'s leaf and the number of nodes visited on the way (every
    /// node, the root and the leaf included, a null child not): optimistic
    /// descents from the root until one validates, then — retry budget
    /// spent — the pessimistic one. Every root-based read and `update` is
    /// this plus a load or a store on the leaf's value.
    pub(crate) fn leaf(&self, key: u64, guard: &Guard) -> (Option<NodePtr>, u32) {
        let mut retry = resilience::Retry::new();
        loop {
            // SAFETY: the root is an internal node of this tree, and
            // `guard` pins the epoch.
            if let Ok(found) = unsafe { descend_leaf(self.root, key) } {
                return found;
            }
            if retry.wait_or_escalate(&crate::LAYER) {
                return self.pessimistic_leaf(key, guard);
            }
        }
    }

    /// Pessimistic lock-coupled descent to `key`'s leaf: every internal
    /// node's *write* lock is taken top-down, from the root, with the
    /// parent's lock held until the child's is acquired. No version
    /// validation (and hence no restart) happens on the path: the root is
    /// never replaced, and a child read under its locked parent cannot be
    /// replaced or have its prefix changed, because every `replace_child`
    /// and every prefix change in this crate runs under the parent's write
    /// lock. Nor can that child be obsolete: a node is marked obsolete
    /// only after its replacement is published in the parent, under the
    /// same lock.
    ///
    /// Deadlock freedom: every *blocking* `lock()` in the tree (the
    /// couplings here and the sibling lock in `remove_leaf`) targets a
    /// node strictly below everything its caller already holds, and
    /// writers take ancestors only through the non-blocking `upgrade`
    /// CAS (whose failure restarts them, releasing nothing they don't
    /// own) — so wait-for edges always point down the tree and cannot
    /// form a cycle.
    ///
    /// Returns what [`Art::leaf`] does, counted the same way. Kept out of
    /// line: it runs once per exhausted retry budget, and inlined it
    /// doubles the code on every lookup's path.
    #[cold]
    #[inline(never)]
    fn pessimistic_leaf(&self, key: u64, _guard: &Guard) -> (Option<NodePtr>, u32) {
        let mut cur = self.root;
        // SAFETY: the root is live as long as the tree.
        let mut hdr = unsafe { node::header(cur) };
        let locked = hdr.version.lock();
        assert!(locked, "the root is never obsolete");
        let mut depth = 0;
        let mut hops = 1u32;
        loop {
            let (prefix, plen) = hdr.prefix();
            let matched = prefix_mismatch(&prefix[..plen], key, depth) == plen;
            depth += plen;
            let child = if matched && depth < 8 {
                // SAFETY: `cur` is live and write-locked, so nothing races
                // the search and its result needs no validation.
                unsafe { node::find_child(cur, node::key_byte(key, depth)) }
            } else {
                0
            };
            if child == 0 {
                hdr.version.unlock();
                return (None, hops);
            }
            if node::is_leaf(child) {
                // SAFETY: read under the parent's write lock.
                let leaf = unsafe { node::leaf_ref(child) };
                let found = leaf.key == key;
                hdr.version.unlock();
                return (found.then_some(child), hops + 1);
            }
            // Couple: lock the child before releasing the parent.
            // SAFETY: pinned epoch; child is live under its locked parent.
            let chdr = unsafe { node::header(child) };
            let got = chdr.version.lock();
            hdr.version.unlock();
            assert!(got, "a child under a locked parent cannot be obsolete");
            cur = child;
            hdr = chdr;
            depth += 1;
            hops += 1;
        }
    }

    // -----------------------------------------------------------------
    // Insert / update
    // -----------------------------------------------------------------

    /// Insert a new key. Returns `false` if the key already exists
    /// (the value is left untouched) or is the reserved key 0, which no
    /// index stores ([`index_api::RESERVED_KEY`]).
    pub fn insert(&self, key: u64, value: u64) -> bool {
        self.insert_inner(key, value, false)
    }

    /// Insert or overwrite. Returns whether the key was new; the reserved
    /// key 0 is refused like [`Art::insert`] refuses it.
    pub fn upsert(&self, key: u64, value: u64) -> bool {
        self.insert_inner(key, value, true)
    }

    /// Update an existing key in place. Returns `false` if absent. The
    /// store after the leaf lookup linearizes like a read at the same
    /// point would, on the optimistic and the pessimistic path alike.
    pub fn update(&self, key: u64, value: u64) -> bool {
        let guard = epoch::pin();
        let Some(leafp) = self.leaf(key, &guard).0 else {
            return false;
        };
        // SAFETY: leaf read under the pinned epoch.
        unsafe { node::leaf_ref(leafp) }
            .value
            .store(value, Ordering::Release);
        true
    }

    fn insert_inner(&self, key: u64, value: u64, overwrite: bool) -> bool {
        if key == index_api::RESERVED_KEY {
            return false;
        }
        let guard = epoch::pin();
        // Structural writers have no pessimistic fallback: every restart
        // implies a *committed* conflicting write, so the retry loop
        // terminates with probability 1 under any finite write rate. Past
        // the budget the escalation is recorded once and further waits
        // park instead of burning CPU.
        let mut retry = resilience::Retry::new();
        loop {
            match self.descend_insert(key, value, overwrite, &guard) {
                Ok(inserted) => return inserted,
                Err(_) => {
                    let _ = retry.wait_or_escalate(&crate::LAYER);
                }
            }
        }
    }

    /// One optimistic insert attempt: descend from the root by [`hop`]s
    /// and perform the insert where the key's path ends: in a prefix it
    /// diverges from, in an empty child slot, or at a leaf.
    fn descend_insert(
        &self,
        key: u64,
        value: u64,
        overwrite: bool,
        guard: &Guard,
    ) -> Result<bool, Abort> {
        let mut at = At::top(self.root);
        let mut depth = 0;
        loop {
            // SAFETY: pinned epoch; `at` walks nodes read from this tree.
            let (child, b, below) = match unsafe { hop(at.p, key, depth, at.parent, at.parent_v) } {
                Hop::Restart => return Err(Abort::Restart),
                // Cannot happen with unique 8-byte keys: an internal node
                // always discriminates at a byte < 8. Treat as restart.
                Hop::Miss { mismatch, .. } if depth + mismatch >= 8 => return Err(Abort::Restart),
                Hop::Miss { v, mismatch } => {
                    // 1) Prefix extraction: insert a new parent
                    // discriminating at depth + mismatch. The root has no
                    // prefix, so `at.p` has a parent.
                    at.v = v;
                    self.split_prefix(at, mismatch, depth, key, value)?;
                    self.bump_count();
                    return Ok(true);
                }
                Hop::Child {
                    child,
                    byte,
                    v,
                    depth: below,
                } => {
                    at.v = v;
                    (child, byte, below)
                }
            };
            // SAFETY: pinned epoch.
            let hdr = unsafe { node::header(at.p) };

            if child == 0 {
                // 2) Empty slot here: add a leaf (growing if full; the
                // root, a Node256, is never full at an empty slot).
                // SAFETY: pinned epoch; validated snapshot.
                if unsafe { node::is_full(at.p) } {
                    self.grow_and_insert(at, b, key, value, guard)?;
                } else {
                    // Upgrade succeeding means the version is unchanged
                    // since the validated read, so the snapshot (slot
                    // empty, node not full) still holds under the lock.
                    if !hdr.version.upgrade(at.v) {
                        return Err(Abort::Restart);
                    }
                    let leaf = node::make_leaf(key, value);
                    self.track_alloc(leaf);
                    // SAFETY: write lock held, node not full, byte absent.
                    unsafe { node::insert_child(at.p, b, leaf) };
                    hdr.version.unlock();
                }
                self.bump_count();
                return Ok(true);
            }

            if node::is_leaf(child) {
                // SAFETY: pinned epoch.
                let leaf = unsafe { node::leaf_ref(child) };
                if leaf.key == key {
                    if overwrite {
                        leaf.value.store(value, Ordering::Release);
                    }
                    // Re-validate: the leaf we touched must still be the
                    // one reachable under this version.
                    if !hdr.version.validate(at.v) {
                        return Err(Abort::Restart);
                    }
                    return Ok(false);
                }
                // 3) Leaf split: replace the leaf with a Node4 holding
                // both leaves.
                if !hdr.version.upgrade(at.v) {
                    return Err(Abort::Restart);
                }
                let new4 = self.make_split_node(leaf.key, child, key, value, below);
                // SAFETY: write lock held; byte `b` maps to `child`.
                unsafe { node::replace_child(at.p, b, new4) };
                hdr.version.unlock();
                self.bump_count();
                return Ok(true);
            }

            at = at.below(child, b);
            depth = below;
        }
    }

    /// Build a Node4 containing `old_leaf` (key `old_key`) and a fresh
    /// leaf for `key`, with the keys' common prefix starting at `depth`.
    fn make_split_node(
        &self,
        old_key: u64,
        old_leaf: NodePtr,
        key: u64,
        value: u64,
        depth: usize,
    ) -> NodePtr {
        let sd = split_depth(old_key, key, depth);
        let new4 = node::alloc(NodeType::N4);
        self.track_alloc(new4);
        let kb = node::key_bytes(key);
        // SAFETY: new4 is fresh and unshared.
        unsafe {
            let hdr = node::header(new4);
            hdr.set_prefix(&kb[depth..sd]);
            let leaf = node::make_leaf(key, value);
            self.track_alloc(leaf);
            hdr.version.lock();
            node::insert_child(new4, node::key_byte(old_key, sd), old_leaf);
            node::insert_child(new4, node::key_byte(key, sd), leaf);
            hdr.version.unlock();
        }
        new4
    }

    /// Prefix extraction: the key diverges inside `p`'s compressed prefix
    /// at `mismatch`. A new parent Node4 takes the shared part of the
    /// prefix and hangs between `p`'s parent and `p`, beside a new leaf;
    /// `p` keeps the rest of its prefix, shortened in place, and its
    /// children.
    ///
    /// `p`'s depth below its discriminating byte is unchanged, and its
    /// prefix changes under its own lock and its parent's: a reader that
    /// reached `p` through the old parent fails that parent's
    /// re-validation in [`hop`], and one that reaches it through the new
    /// Node4 waits for `p`'s lock (DESIGN.md §15).
    fn split_prefix(
        &self,
        at: At,
        mismatch: usize,
        depth: usize,
        key: u64,
        value: u64,
    ) -> Result<(), Abort> {
        at.lock_with_parent()?;
        let p = at.p;
        // The upgrade proved `p` unchanged since the hop compared its
        // prefix, so this is that prefix and `mismatch` still holds.
        // SAFETY: p write-locked.
        let hdr = unsafe { node::header(p) };
        let (prefix, plen) = hdr.prefix();
        let leaf = node::make_leaf(key, value);
        self.track_alloc(leaf);
        let newp = node::alloc(NodeType::N4);
        self.track_alloc(newp);
        // SAFETY: newp is fresh and unshared.
        unsafe {
            let nhdr = node::header(newp);
            nhdr.set_prefix(&prefix[..mismatch]);
            nhdr.version.lock();
            node::insert_child(newp, prefix[mismatch], p);
            node::insert_child(newp, node::key_byte(key, depth + mismatch), leaf);
            nhdr.version.unlock();
        }
        hdr.set_prefix(&prefix[mismatch + 1..plen]);
        at.publish(newp);
        hdr.version.unlock();
        Ok(())
    }

    /// Node expansion: `p` is full; replace it with the next larger node
    /// type, then insert.
    fn grow_and_insert(
        &self,
        at: At,
        byte: u8,
        key: u64,
        value: u64,
        guard: &Guard,
    ) -> Result<(), Abort> {
        at.lock_with_parent()?;
        // SAFETY: p write-locked.
        let big = unsafe { node::grow(at.p) };
        self.track_alloc(big);
        let leaf = node::make_leaf(key, value);
        self.track_alloc(leaf);
        // SAFETY: big fresh and unshared.
        unsafe { node::insert_child(big, byte, leaf) };
        at.publish(big);
        self.retire_replaced(at.p, guard);
        Ok(())
    }

    /// Finish replacing the write-locked `p`, whose replacement is
    /// published: mark `p` obsolete, retire it.
    fn retire_replaced(&self, p: NodePtr, guard: &Guard) {
        // SAFETY: `p` is still write-locked by the caller.
        unsafe { node::header(p) }.version.unlock_obsolete();
        self.retire(guard, p);
    }

    // -----------------------------------------------------------------
    // Remove
    // -----------------------------------------------------------------

    /// Remove a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<u64> {
        let guard = epoch::pin();
        // Structural writer: same no-fallback discipline as
        // `insert_inner` — escalation is recorded once, then parked
        // retries (each restart implies a committed conflicting write).
        let mut retry = resilience::Retry::new();
        loop {
            match self.remove_attempt(key, &guard) {
                Ok(r) => return r,
                Err(_) => {
                    let _ = retry.wait_or_escalate(&crate::LAYER);
                }
            }
        }
    }

    fn remove_attempt(&self, key: u64, guard: &Guard) -> Result<Option<u64>, Abort> {
        let mut at = At::top(self.root);
        let mut depth = 0usize;
        loop {
            // SAFETY: pinned epoch; `at` walks nodes read from this tree.
            match unsafe { hop(at.p, key, depth, at.parent, at.parent_v) } {
                Hop::Restart => return Err(Abort::Restart),
                Hop::Miss { .. } => return Ok(None),
                Hop::Child {
                    child,
                    byte,
                    v,
                    depth: below,
                } => {
                    at.v = v;
                    if child == 0 {
                        return Ok(None);
                    }
                    if node::is_leaf(child) {
                        // SAFETY: pinned epoch.
                        let leaf = unsafe { node::leaf_ref(child) };
                        if leaf.key != key {
                            return Ok(None);
                        }
                        let val = leaf.value.load(Ordering::Acquire);
                        self.remove_leaf(at, byte, child, guard)?;
                        self.drop_count();
                        return Ok(Some(val));
                    }
                    at = at.below(child, byte);
                    depth = below;
                }
            }
        }
    }

    /// Remove leaf `child` (under byte `b`) from `at.p`, merging/shrinking
    /// as needed. The root only ever loses the child, in place: it keeps
    /// its type and may hold one child or none.
    fn remove_leaf(&self, at: At, b: u8, child: NodePtr, guard: &Guard) -> Result<(), Abort> {
        let p = at.p;
        // SAFETY: pinned epoch.
        let hdr = unsafe { node::header(p) };
        let cnt = hdr.count();

        // Case A: the root, or a node that keeps >= 2 children and needs
        // no shrink: in place.
        // SAFETY: pinned epoch (type/count reads validated by upgrade).
        let needs_shrink = unsafe { node::shrink_candidate(p) };
        if p == self.root || (cnt > 2 && !needs_shrink) {
            if !hdr.version.upgrade(at.v) {
                return Err(Abort::Restart);
            }
            // SAFETY: write lock held; byte b present.
            unsafe { node::remove_child(p, b) };
            hdr.version.unlock();
            self.retire(guard, child);
            return Ok(());
        }

        // Structural cases replace `p` in its parent's slot.
        at.lock_with_parent()?;

        if cnt > 2 {
            // Case C: shrink to the next smaller type after removing.
            // SAFETY: write lock held.
            unsafe { node::remove_child(p, b) };
            // SAFETY: write lock held.
            let small = unsafe { node::shrink(p) };
            self.track_alloc(small);
            at.publish(small);
            self.retire_replaced(p, guard);
            self.retire(guard, child);
            return Ok(());
        }

        // Case B: merge — pull the surviving sibling up into p's slot.
        let mut sibling: NodePtr = 0;
        let mut sib_byte: u8 = 0;
        // SAFETY: write lock held.
        unsafe {
            node::for_each_child(p, |kb, c| {
                if kb != b {
                    sibling = c;
                    sib_byte = kb;
                }
            });
        }
        debug_assert!(sibling != 0);
        if node::is_leaf(sibling) {
            at.publish(sibling);
        } else {
            // An internal sibling absorbs p's prefix plus the
            // discriminating byte, in place under its lock: its depth
            // below its own prefix is unchanged (DESIGN.md §15).
            // SAFETY: pinned epoch; sibling is only reachable through
            // the locked p, so locking it cannot deadlock.
            let shdr = unsafe { node::header(sibling) };
            let locked = shdr.version.lock();
            assert!(locked, "a child under a locked parent cannot be obsolete");
            let (pprefix, pplen) = hdr.prefix();
            let (sprefix, splen) = shdr.prefix();
            let mut combined = [0u8; node::MAX_PREFIX];
            combined[..pplen].copy_from_slice(&pprefix[..pplen]);
            combined[pplen] = sib_byte;
            combined[pplen + 1..pplen + 1 + splen].copy_from_slice(&sprefix[..splen]);
            shdr.set_prefix(&combined[..pplen + 1 + splen]);
            at.publish(sibling);
            shdr.version.unlock();
        }
        self.retire_replaced(p, guard);
        self.retire(guard, child);
        Ok(())
    }
}

/// Prefetch the allocation behind a (possibly leaf-tagged) node pointer:
/// its first line, which holds an internal node's header or a leaf's key
/// and value.
#[inline(always)]
pub(crate) fn prefetch_node(p: NodePtr) {
    if p != 0 {
        prefetch::prefetch_read((p & !1) as *const u8);
    }
}

/// Why an optimistic attempt gave up.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Abort {
    /// A version check or lock upgrade failed: retry from the attempt's
    /// entry point.
    Restart,
}

/// Where a writer's descent stands: node `p` snapshotted at version `v`,
/// hanging under byte `parent_byte` of `parent` snapshotted at `parent_v`.
/// `parent == 0` at the top of the descent: the root.
#[derive(Clone, Copy)]
struct At {
    p: NodePtr,
    v: Version,
    parent: NodePtr,
    parent_v: Version,
    parent_byte: u8,
}

impl At {
    fn top(p: NodePtr) -> Self {
        Self {
            p,
            v: 0,
            parent: 0,
            parent_v: 0,
            parent_byte: 0,
        }
    }

    /// One level down, through `byte` to `child` (version not yet read).
    fn below(self, child: NodePtr, byte: u8) -> Self {
        Self {
            p: child,
            v: 0,
            parent: self.p,
            parent_v: self.v,
            parent_byte: byte,
        }
    }

    /// Write-lock `p` together with its parent — taken first (lock order:
    /// parent, then node) — by upgrading the descent's snapshots. A failed
    /// upgrade releases what was taken and restarts. `p` is not the root:
    /// the root's prefix and slot never change.
    fn lock_with_parent(self) -> Result<(), Abort> {
        // SAFETY: pinned epoch.
        let (phdr, hdr) = unsafe { (node::header(self.parent), node::header(self.p)) };
        if !phdr.version.upgrade(self.parent_v) {
            return Err(Abort::Restart);
        }
        if !hdr.version.upgrade(self.v) {
            phdr.version.unlock();
            return Err(Abort::Restart);
        }
        Ok(())
    }

    /// Publish `new` in the parent's slot for `p` and release the parent.
    /// The caller holds the locks of [`At::lock_with_parent`] and goes on
    /// to release `p` — marking it obsolete and retiring it if `new`
    /// replaces it.
    fn publish(self, new: NodePtr) {
        // SAFETY: pinned epoch; parent write-locked, and `parent_byte`
        // maps to `p`.
        unsafe {
            node::replace_child(self.parent, self.parent_byte, new);
            node::header(self.parent).version.unlock();
        }
    }
}

/// What one optimistic [`hop`] over an internal node found.
pub(crate) enum Hop {
    /// The key is not under the node: its compressed prefix, or the key's
    /// length, rules it out. `mismatch` is [`prefix_mismatch`]'s offset
    /// for the prefix read under the node's version `v`, which still
    /// validated afterwards: where an insert splits the prefix.
    Miss { v: Version, mismatch: usize },
    /// The node's child for the key's next byte `byte` — null, a leaf or
    /// an internal node — read under the node's version `v`, which still
    /// validated afterwards. `depth` is the key depth below `byte`.
    Child {
        child: NodePtr,
        byte: u8,
        v: Version,
        depth: usize,
    },
    /// A version moved under the hop: restart the descent.
    Restart,
}

/// One hop of the optimistic-lock-coupled descent, the step every
/// key-directed walk of the tree shares (point reads, `update`, `insert`,
/// `remove`, the batch engine): snapshot `p`'s version, re-validate the
/// coupled parent, match `p`'s compressed prefix against `key` at
/// `depth`, find the child for the next key byte, validate.
///
/// The parent is re-validated only once the child's version is in hand,
/// so a child that was replaced, or whose prefix changed in place, between
/// the parent's validation and this read (a racing prefix extraction, say)
/// restarts the descent instead of letting it compare the new prefix at
/// the old depth: every prefix change holds the parent's lock.
///
/// # Safety
/// `p` is an internal node and `parent` null or an internal node, both
/// read from one tree under an epoch pin the caller still holds.
#[inline(always)]
pub(crate) unsafe fn hop(
    p: NodePtr,
    key: u64,
    depth: usize,
    parent: NodePtr,
    parent_v: Version,
) -> Hop {
    let hdr = node::header(p);
    let Some(v) = hdr.version.read_lock_spin() else {
        return Hop::Restart;
    };
    if !coupled_ok(parent, parent_v) {
        return Hop::Restart;
    }
    let (prefix, plen) = hdr.prefix();
    let below = depth + plen;
    let mismatch = prefix_mismatch(&prefix[..plen], key, depth);
    if mismatch < plen || below >= 8 {
        return if hdr.version.validate(v) {
            Hop::Miss { v, mismatch }
        } else {
            Hop::Restart
        };
    }
    let byte = node::key_byte(key, below);
    // Optimistic read section — the racing search result is discarded
    // unless the validate just below succeeds (DESIGN.md §15).
    let child = node::find_child(p, byte);
    if !hdr.version.validate(v) {
        return Hop::Restart;
    }
    Hop::Child {
        child,
        byte,
        v,
        depth: below + 1,
    }
}

/// Whether the coupled parent snapshot still holds (`parent == 0`: the
/// root, which has none).
///
/// # Safety
/// As for [`hop`]'s `parent`.
#[inline(always)]
pub(crate) unsafe fn coupled_ok(parent: NodePtr, parent_v: Version) -> bool {
    parent == 0 || node::header(parent).version.validate(parent_v)
}

/// Index of the first byte of a node's compressed `prefix` that `key` does
/// not continue with at `depth` (`prefix.len()` if it matches throughout).
#[inline(always)]
pub(crate) fn prefix_mismatch(prefix: &[u8], key: u64, depth: usize) -> usize {
    for i in 0..prefix.len() {
        if depth + i >= 8 || prefix[i] != node::key_byte(key, depth + i) {
            return i;
        }
    }
    prefix.len()
}

/// One optimistic descent from `root` to `key`'s leaf. Returns the leaf,
/// if the key is there, and the number of nodes visited — every node, the
/// root and the leaf included, a null child not (the lookup length).
/// `Err` = restart.
///
/// # Safety
/// `root` is a tree's root, and the caller holds an epoch pin.
#[inline]
unsafe fn descend_leaf(root: NodePtr, key: u64) -> Result<(Option<NodePtr>, u32), Abort> {
    let (mut p, mut depth) = (root, 0);
    let (mut parent, mut parent_v) = (0, 0);
    let mut hops = 0u32;
    loop {
        if p == 0 {
            return Ok((None, hops));
        }
        hops += 1;
        if node::is_leaf(p) {
            let found = node::leaf_ref(p).key == key;
            if !coupled_ok(parent, parent_v) {
                return Err(Abort::Restart);
            }
            return Ok((found.then_some(p), hops));
        }
        match hop(p, key, depth, parent, parent_v) {
            Hop::Restart => return Err(Abort::Restart),
            Hop::Miss { .. } => return Ok((None, hops)),
            Hop::Child {
                child,
                v,
                depth: below,
                ..
            } => {
                (parent, parent_v) = (p, v);
                (p, depth) = (child, below);
            }
        }
    }
}

/// The value of a leaf a descent returned.
///
/// # Safety
/// `leaf` came from [`descend_leaf`] or [`Art::leaf`] under an epoch pin
/// the caller still holds (it keeps the leaf alive past a racing removal).
#[inline(always)]
pub(crate) unsafe fn leaf_value(leaf: NodePtr) -> u64 {
    node::leaf_ref(leaf).value.load(Ordering::Acquire)
}

/// First byte position >= `depth` where the two keys differ.
pub(crate) fn split_depth(a: u64, b: u64, depth: usize) -> usize {
    debug_assert_ne!(a, b);
    let xor = a ^ b;
    let byte = (xor.leading_zeros() / 8) as usize;
    debug_assert!(byte >= depth, "keys diverge above the split depth");
    byte
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_small() {
        let t = Art::new();
        assert!(t.insert(1, 10));
        assert!(t.insert(2, 20));
        assert!(!t.insert(1, 99), "duplicate rejected");
        assert_eq!(t.get(1), Some(10));
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.get(3), None);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn upsert_overwrites() {
        let t = Art::new();
        t.insert(7, 70);
        assert!(!t.upsert(7, 71));
        assert_eq!(t.get(7), Some(71));
        assert!(t.upsert(8, 80));
        assert_eq!(t.get(8), Some(80));
    }

    #[test]
    fn the_reserved_key_is_refused_and_reads_none() {
        let t = Art::new();
        t.insert(1, 10);
        assert!(!t.insert(0, 5));
        assert!(!t.upsert(0, 6));
        assert!(!t.update(0, 7));
        assert_eq!((t.get(0), t.remove(0), t.len()), (None, None, 1));
        let mut out = [Some(9); 3];
        t.get_batch_amac(&[0, 1, 0], &mut out);
        assert_eq!(out, [None, Some(10), None]);
    }

    #[test]
    fn update_in_place() {
        let t = Art::new();
        assert!(!t.update(5, 1), "absent key");
        t.insert(5, 1);
        assert!(t.update(5, 2));
        assert_eq!(t.get(5), Some(2));
    }

    #[test]
    fn dense_and_sparse_keys() {
        let t = Art::new();
        let mut model = BTreeMap::new();
        // Dense low keys exercise deep shared prefixes; sparse high keys
        // exercise prefix extraction.
        for i in 1..=2000u64 {
            t.insert(i, i * 2);
            model.insert(i, i * 2);
        }
        for i in 0..500u64 {
            let k = i * 0x0123_4567_89ABu64 + 3;
            if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                e.insert(k ^ 1);
                t.insert(k, k ^ 1);
            }
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v), "key {k:#x}");
        }
        assert_eq!(t.len(), model.len());
    }

    #[test]
    fn remove_roundtrip() {
        let t = Art::new();
        for i in 1..=300u64 {
            t.insert(i * 7, i);
        }
        for i in 1..=300u64 {
            assert_eq!(t.remove(i * 7), Some(i), "remove {}", i * 7);
            assert_eq!(t.get(i * 7), None);
        }
        assert_eq!(t.len(), 0);
        assert_eq!(t.remove(7), None);
    }

    #[test]
    fn remove_single_root_leaf() {
        let t = Art::new();
        t.insert(42, 1);
        assert_eq!(t.remove(42), Some(1));
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        // Tree is reusable afterwards.
        t.insert(43, 2);
        assert_eq!(t.get(43), Some(2));
    }

    #[test]
    fn interleaved_insert_remove_matches_model() {
        let t = Art::new();
        let mut model = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 16) % 5000 + 1;
            match state % 3 {
                0 => {
                    let inserted = t.insert(k, k);
                    assert_eq!(inserted, !model.contains_key(&k));
                    model.entry(k).or_insert(k);
                }
                1 => {
                    assert_eq!(t.remove(k), model.remove(&k));
                }
                _ => {
                    assert_eq!(t.get(k), model.get(&k).copied());
                }
            }
        }
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
    }

    #[test]
    fn memory_usage_grows_and_shrinks() {
        let t = Art::new();
        let empty = t.memory_usage();
        for i in 1..=1000u64 {
            t.insert(i * 1000, i);
        }
        let full = t.memory_usage();
        assert!(full > empty);
        // Removal retires memory accounting immediately even though the
        // allocations are reclaimed later.
        for i in 1..=1000u64 {
            t.remove(i * 1000);
        }
        assert!(t.memory_usage() < full);
    }

    #[test]
    fn split_depth_finds_first_differing_byte() {
        assert_eq!(split_depth(0x0100, 0x0200, 0), 6);
        assert_eq!(split_depth(1, 2, 0), 7);
        assert_eq!(
            split_depth(0xFF00_0000_0000_0000, 0x0100_0000_0000_0000, 0),
            0
        );
    }

    #[test]
    fn concurrent_inserts_all_visible() {
        let t = std::sync::Arc::new(Art::new());
        let threads = 8;
        let per = 5_000u64;
        let mut handles = Vec::new();
        for id in 0..threads {
            let t = std::sync::Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = (id as u64) * per + i + 1;
                    assert!(t.insert(k, k * 10));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.len(), threads as usize * per as usize);
        for k in 1..=threads as u64 * per {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
    }

    #[test]
    fn concurrent_mixed_ops_quiesce_consistent() {
        use std::sync::Arc;
        let t = Arc::new(Art::new());
        // Pre-populate evens; threads insert odds in their shard, remove
        // evens in their shard, and read everywhere.
        let n = 16_000u64;
        for k in (2..=n).step_by(2) {
            t.insert(k, k);
        }
        let threads = 8u64;
        let mut handles = Vec::new();
        for id in 0..threads {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                let lo = id * (n / threads) + 1;
                let hi = (id + 1) * (n / threads);
                for k in lo..=hi {
                    if k % 2 == 1 {
                        assert!(t.insert(k, k * 3));
                    } else {
                        t.remove(k);
                    }
                    let probe = (k * 37) % n + 1;
                    let _ = t.get(probe);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for k in 1..=n {
            if k % 2 == 1 {
                assert_eq!(t.get(k), Some(k * 3), "odd {k}");
            } else {
                assert_eq!(t.get(k), None, "even {k}");
            }
        }
    }

    /// A cluster of three keys that share six bytes below the root's
    /// byte 0x01 (a Node4 with a six-byte prefix, beside a leaf under 0x02),
    /// and the node that holds them.
    fn prefixed_cluster() -> (Art, Vec<u64>, NodePtr) {
        let t = Art::new();
        let mut keys: Vec<u64> = (1..=3).map(|i| 0x0102_0304_0506_0000 + i).collect();
        keys.push(0x0200_0000_0000_0001);
        for &k in &keys {
            assert!(t.insert(k, !k));
        }
        let n = child(t.root, 0x01);
        assert_eq!(prefix_of(n), [2, 3, 4, 5, 6, 0]);
        (t, keys, n)
    }

    /// A key that leaves the cluster's prefix at its third byte.
    const DIVERGING: u64 = 0x0102_03FF_0000_0000;

    /// `p`'s child for `byte`. Only for a tree no other thread writes.
    fn child(p: NodePtr, byte: u8) -> NodePtr {
        // SAFETY: `p` is an internal node of a tree that only the calling
        // thread uses; a node it unlinked stays allocated while the
        // thread's epoch pin lasts, and every caller holds one.
        unsafe { node::find_child(p, byte) }
    }

    /// `p`'s compressed prefix. As for [`child`].
    fn prefix_of(p: NodePtr) -> Vec<u8> {
        // SAFETY: as for `child`.
        let (bytes, len) = unsafe { node::header(p) }.prefix();
        bytes[..len].to_vec()
    }

    /// Whether `p` is unlocked and not obsolete. As for [`child`].
    fn live(p: NodePtr) -> bool {
        // SAFETY: as for `child`.
        let lock = &unsafe { node::header(p) }.version;
        !lock.is_locked() && !lock.is_obsolete()
    }

    /// Prefix extraction hangs the node itself under the new Node4, its
    /// prefix shortened in place: the pointer stays the same, the node
    /// stays live.
    #[test]
    fn prefix_extraction_shortens_the_node_in_place() {
        let guard = epoch::pin();
        let (t, keys, n) = prefixed_cluster();
        assert!(t.insert(DIVERGING, 1));
        let split = child(t.root, 0x01);
        assert_ne!(split, n, "a Node4 above the cluster");
        assert_eq!(prefix_of(split), [2, 3]);
        assert_eq!(child(split, 0x04), n, "the node itself, not a copy");
        assert_eq!(child(split, 0xFF), t.leaf(DIVERGING, &guard).0.unwrap());
        assert_eq!(prefix_of(n), [5, 6, 0]);
        assert!(live(n));
        for &k in &keys {
            assert_eq!(t.get(k), Some(!k));
        }
    }

    /// Removing the diverging key merges the same node back into the
    /// root's slot, its full prefix restored in place.
    #[test]
    fn merge_restores_the_prefix_in_place() {
        let _guard = epoch::pin();
        let (t, keys, n) = prefixed_cluster();
        assert!(t.insert(DIVERGING, 1));
        assert_eq!(t.remove(DIVERGING), Some(1));
        assert_eq!(child(t.root, 0x01), n, "the node itself, not a copy");
        assert_eq!(prefix_of(n), [2, 3, 4, 5, 6, 0]);
        assert!(live(n));
        for &k in &keys {
            assert_eq!(t.get(k), Some(!k));
        }
        assert_eq!(t.get(DIVERGING), None);
    }

    /// Readers descending from the root keep finding the keys *below* a
    /// non-root node while writers replace it — the restart a racing
    /// `split_prefix` / `grow_and_insert` / shrink / merge must force.
    /// The stable cluster hangs off one depth-1 node with a five-byte
    /// compressed prefix. A writer's cycle inserts keys that diverge
    /// inside that prefix (the first extracts it; the fifth child grows
    /// the new parent) and keys beside the stable ones (their leaf parents
    /// grow N48 → N256), then removes them all again (shrinks, and a merge
    /// that re-concatenates the prefix).
    #[test]
    fn root_readers_find_keys_below_a_non_root_node_being_replaced() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let base = 0x0102_0304_0500_0000u64;
        let stable: Vec<u64> = (1..=2_000u64).map(|i| base + i * 7).collect();
        let t = Art::new();
        for &k in &stable {
            t.insert(k, k);
        }
        // Scatter keys so the root is internal and the cluster sits below.
        for i in 1..=32u64 {
            t.insert(i << 56 | 0xAB, i);
        }
        let (writers, readers, cycles) = (2u64, 2usize, 60);
        // Writer `w`'s keys: six that part from the cluster at byte 5, and
        // every offset of the first four byte-6 blocks in three residue
        // classes mod 7 that neither the stable keys (0) nor the other
        // writer use.
        let churn = |w: u64| -> Vec<u64> {
            let beside = (1..1_024u64).filter(move |off| off % 7 % 2 == 1 - w && off % 7 != 0);
            (1..=6)
                .map(move |b| base + ((w * 6 + b) << 16) + 1)
                .chain(beside.map(move |off| base + off))
                .collect()
        };
        // One cycle alone does what the test is for: a level appears above
        // the cluster and goes away again, the leaf parents reach N256.
        let shape = |t: &Art| (t.get_with_depth(stable[0]).1, t.structure_stats().n256);
        let before = shape(&t);
        churn(0).iter().for_each(|&k| assert!(t.insert(k, !k)));
        assert_eq!(shape(&t), (before.0 + 1, before.1 + 4));
        churn(0)
            .iter()
            .for_each(|&k| assert_eq!(t.remove(k), Some(!k)));
        assert_eq!(shape(&t), before);

        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(writers as usize + readers);
        std::thread::scope(|s| {
            let writing: Vec<_> = (0..writers)
                .map(|w| {
                    let (t, barrier) = (&t, &barrier);
                    s.spawn(move || {
                        let keys = churn(w);
                        barrier.wait();
                        for _ in 0..cycles {
                            keys.iter().for_each(|&k| assert!(t.insert(k, !k)));
                            keys.iter().for_each(|&k| assert_eq!(t.remove(k), Some(!k)));
                        }
                    })
                })
                .collect();
            let reading: Vec<_> = (0..readers)
                .map(|_| {
                    let (t, barrier, stop, stable) = (&t, &barrier, &stop, &stable);
                    s.spawn(move || {
                        barrier.wait();
                        let mut passes = 0u32;
                        while !stop.load(Ordering::Relaxed) || passes == 0 {
                            for &k in stable {
                                assert_eq!(t.get(k), Some(k), "stable key {k:#x} lost");
                            }
                            passes += 1;
                        }
                    })
                })
                .collect();
            // Stop the readers whatever the writers' outcome, or a failed
            // writer would leave them (and the scope) running.
            let written: Vec<_> = writing.into_iter().map(|h| h.join()).collect();
            stop.store(true, Ordering::Relaxed);
            written.into_iter().for_each(|r| r.unwrap());
            reading.into_iter().for_each(|h| h.join().unwrap());
        });
        assert_eq!(t.len(), stable.len() + 32);
        for &k in &stable {
            assert_eq!(t.get(k), Some(k));
        }
    }

    /// `len` and `memory_usage` are striped per thread: the removers'
    /// `sub`s land on other stripes than the inserters' `add`s (and wrap
    /// them below zero), and the sums must still be exact at rest. The
    /// reference goes through the same inserts and removes on one thread
    /// rather than holding just the survivors: node shrinking has
    /// hysteresis, so node bytes depend on what a tree once held.
    #[test]
    fn striped_counts_match_a_one_thread_tree_after_cross_thread_removes() {
        let (threads, per) = (4u64, 4_000u64);
        let key = |i: u64| 1 + i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 40);
        let keys = |id: u64| (id * per..(id + 1) * per).map(key);
        let doomed = |id: u64| keys(id).step_by(2);
        let tree = Art::new();
        std::thread::scope(|s| {
            for id in 0..threads {
                let tree = &tree;
                s.spawn(move || keys(id).for_each(|k| assert!(tree.insert(k, k))));
            }
        });
        // Four *other* threads: each scope spawns fresh ones.
        std::thread::scope(|s| {
            for id in 0..threads {
                let tree = &tree;
                s.spawn(move || doomed(id).for_each(|k| assert_eq!(tree.remove(k), Some(k))));
            }
        });
        let reference = Art::new();
        (0..threads)
            .flat_map(keys)
            .for_each(|k| assert!(reference.insert(k, k)));
        (0..threads)
            .flat_map(doomed)
            .for_each(|k| assert_eq!(reference.remove(k), Some(k)));
        assert_eq!(tree.len() as u64, threads * per / 2);
        assert_eq!(tree.len(), reference.len());
        assert_eq!(tree.memory_usage(), reference.memory_usage());
    }
}
