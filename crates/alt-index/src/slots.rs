//! Slot arrays for GPL models: the learned layer's storage, with the
//! paper's slot-granularity optimistic concurrency (§III-E).
//!
//! A slot's whole state is one atomic version word beside its key and
//! value: bit 0 is the writer's lock (odd = a writer is in progress), bit
//! 1 says the slot was ever *claimed*, and the bits above count writes.
//! Writers CAS the lock bit on, mutate, then store the word unlocked with
//! one more write counted; readers snapshot the word (retrying while
//! locked), read, and re-validate. An unclaimed word is "never used"; a
//! claimed slot whose key is 0 is a tombstone (the paper's remove "sets
//! the key to zero").
//!
//! Storage is a [`Region`] of zeroed memory, and nothing here ever writes
//! the zeros: all-zero memory *is* an array of `Empty` slots (version 0
//! is unlocked and unclaimed). A bulk-load group large enough carves all
//! its arrays out of one huge-page region ([`SlotArray::for_group`]);
//! anything smaller gets a heap region per array.

use prefetch::pages::Region;
use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Most cache lines one [`SlotArray::prefetch_window`] call asks for.
const PREFETCH_LINES: usize = 16;

/// Version bit 0: a writer holds the slot.
const LOCKED: u32 = 1;
/// Version bit 1: a key was installed once. The first install sets it
/// under the lock, the unlock's Release publishes it, nothing clears it.
const CLAIMED: u32 = 2;
/// What each unlock adds: one write, counted above the two flag bits.
const WRITE: u32 = 4;

/// Smallest group of arrays [`SlotArray::for_group`] maps as one shared
/// huge-page region: glibc's largest mmap threshold on 64-bit. A request
/// that big is a fresh `mmap` inside `malloc` anyway, so mapping it
/// ourselves gives up no reuse of freed heap memory. Below it, per-array
/// heap blocks reuse memory the process freed earlier: one shared region
/// for `serve_zipf`'s small groups raised its `rss_bytes_per_key` 22 → 30,
/// where glibc had been serving the arrays from memory set-up freed.
pub const SHARED_REGION_MIN: usize = 32 << 20;

/// One consistent snapshot of a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never claimed by any key.
    Empty,
    /// Claimed and holding a live entry.
    Occupied {
        /// The resident key.
        key: u64,
        /// Its value.
        value: u64,
    },
    /// Claimed once, but the key was removed (key == 0).
    Tombstone,
}

/// What a reader looking for one key concludes from the slot the model
/// predicts for it: the verdict of `get`, of the pessimistic fallback and
/// of the batch engine's probe stage alike.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// The slot holds the key: its value.
    Hit(u64),
    /// Never claimed, so the key is absent (Algorithm 2 lines 5-6) —
    /// unless the model has retired: its successor predicts otherwise.
    Absent,
    /// Conflict data: the key, if present, lives in ART.
    Art,
}

impl SlotState {
    /// The reader's verdict on this snapshot of `key`'s predicted slot.
    #[inline(always)]
    pub fn probe(self, key: u64) -> Probe {
        match self {
            SlotState::Occupied { key: k, value } if k == key => Probe::Hit(value),
            SlotState::Empty => Probe::Absent,
            SlotState::Tombstone | SlotState::Occupied { .. } => Probe::Art,
        }
    }
}

/// The addresses [`SlotArray::prefetch`] hints for slot `i` of an array
/// starting at `base`: the slot's first byte and its last. A 24-byte slot
/// straddles a line boundary at 2 of every 8 indices, and there the
/// second names the line with the key and value; elsewhere both name one
/// line and the second hint is free.
#[inline(always)]
fn slot_hint_addrs(base: usize, i: usize) -> [usize; 2] {
    let first = base + i * std::mem::size_of::<Slot>();
    [first, first + std::mem::size_of::<Slot>() - 1]
}

/// One slot record. Version, key, and value are interleaved so a lookup
/// touches one or two cache lines instead of three separate arrays (the
/// layout matters more than anything else on the slot-hit fast path).
struct Slot {
    version: AtomicU32,
    key: AtomicU64,
    value: AtomicU64,
}

/// A fixed-capacity array of versioned slots.
///
/// The slots live in `region` at `slots`: a raw pointer kept in the
/// struct itself, so a probe loads it from the model as it loaded a
/// `Box<[Slot]>`'s, with no hop through the `Arc`.
pub struct SlotArray {
    slots: *const Slot,
    capacity: usize,
    region: Arc<Region>,
}

// SAFETY: the pointer addresses memory owned by `region` (kept alive by
// the `Arc` beside it) and reserved for this array alone by `carve`; it
// holds only atomics, so sharing or sending the array is sharing or
// sending a `Box<[Slot]>`, which is both.
unsafe impl Send for SlotArray {}
// SAFETY: as above.
unsafe impl Sync for SlotArray {}

impl SlotArray {
    /// An array of `capacity` empty slots, in a heap region of its own.
    pub fn new(capacity: usize) -> Self {
        let region = Region::heap(Self::footprint(capacity));
        Self::carve(region, &[capacity]).pop().expect("one array")
    }

    /// Empty arrays of the given capacities, for one bulk-load group: all
    /// carved from one huge-page region when they take at least
    /// [`SHARED_REGION_MIN`] bytes together (and the kernel maps it),
    /// otherwise each in a heap region of its own ([`SlotArray::new`]).
    pub fn for_group(capacities: &[usize]) -> Vec<Self> {
        let bytes: usize = capacities.iter().map(|&c| Self::footprint(c)).sum();
        match (bytes >= SHARED_REGION_MIN)
            .then(|| Region::mapped(bytes))
            .flatten()
        {
            Some(region) => Self::carve(region, capacities),
            None => capacities.iter().map(|&c| Self::new(c)).collect(),
        }
    }

    /// Bytes an array of `capacity` slots takes in a region: its slots,
    /// rounded up to a cache line.
    pub fn footprint(capacity: usize) -> usize {
        (capacity * std::mem::size_of::<Slot>()).next_multiple_of(64)
    }

    /// Arrays of the given capacities laid back to back in `region`, each
    /// [`SlotArray::footprint`] bytes, starting at multiples of 64 bytes
    /// into it (cache lines, in a mapped region). The region is freed when
    /// the last of them drops. Taking it by value is what makes each
    /// array's bytes its own: no region is carved twice.
    ///
    /// Panics if a capacity is 0 or the arrays do not fit.
    pub fn carve(region: Region, capacities: &[usize]) -> Vec<Self> {
        let region = Arc::new(region);
        assert!(
            capacities.iter().all(|&c| c > 0),
            "slot array needs at least one slot"
        );
        // Every pointer below is in bounds, and each array's bytes are
        // disjoint from the next's, because of these two checks.
        let total: usize = capacities.iter().map(|&c| Self::footprint(c)).sum();
        assert!(total <= region.size(), "slot arrays overrun their region");
        assert_eq!(
            region.as_ptr() as usize % std::mem::align_of::<Slot>(),
            0,
            "a region holds slots at its start"
        );
        let mut offset = 0;
        capacities
            .iter()
            .map(|&capacity| {
                let base = region.as_ptr().wrapping_add(offset);
                offset += Self::footprint(capacity);
                Self {
                    slots: base as *const Slot,
                    capacity,
                    region: Arc::clone(&region),
                }
            })
            .collect()
    }

    #[inline(always)]
    fn slots(&self) -> &[Slot] {
        // SAFETY: `carve` placed `capacity` slots at `slots`, aligned and
        // inside the region this array keeps alive; the region started
        // zeroed, which is a valid `Slot` (three atomics).
        unsafe { std::slice::from_raw_parts(self.slots, self.capacity) }
    }

    #[inline(always)]
    fn slot(&self, i: usize) -> &Slot {
        &self.slots()[i]
    }

    /// Number of slots.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The region this array lives in, shared with the other arrays
    /// carved from it.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Approximate heap bytes.
    pub fn memory_usage(&self) -> usize {
        self.capacity * std::mem::size_of::<Slot>()
    }

    /// Hint the CPU to fetch slot `i` ahead of a [`SlotArray::read`]:
    /// every line of its (version, key, value) record. The batched
    /// lookup issues this one ring revolution before the probe; the
    /// scalar `get` issues it before it warms the key's ART path, so the
    /// two misses overlap.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        debug_assert!(i < self.capacity);
        for addr in slot_hint_addrs(self.slots as usize, i) {
            prefetch::prefetch_read(addr as *const u8);
        }
    }

    /// Hint the CPU to fetch the slots `from..=to` ahead of a walk over
    /// them, up to `PREFETCH_LINES` cache lines (a longer walk is a
    /// sequential stream the hardware picks up by itself).
    pub fn prefetch_window(&self, from: usize, to: usize) {
        let to = to.min(self.capacity() - 1);
        if from > to {
            return;
        }
        let start = self.slot(from) as *const Slot as *const u8;
        let bytes = (to - from + 1) * std::mem::size_of::<Slot>();
        for line in 0..bytes.div_ceil(64).min(PREFETCH_LINES) {
            prefetch::prefetch_read(start.wrapping_add(64 * line));
        }
    }

    /// The slots of `from..=to` whose version word is claimed or locked,
    /// ascending: every slot of the window a key was ever installed in,
    /// and any a writer holds. Each still has to go through
    /// [`SlotArray::read`]; the ones left out need not — a word read
    /// neither claimed nor locked means the slot was `Empty` at that load,
    /// which is what `read` would have returned then.
    pub fn occupied(&self, from: usize, to: usize) -> Occupied<'_> {
        let to = to.min(self.capacity() - 1);
        Occupied {
            arr: self,
            base: from,
            bits: self.held(from, to),
            to,
        }
    }

    /// Bit `j` set for each slot `from + j` of `from..=to`, at most 64 of
    /// them, whose version word is claimed or locked. One load per slot
    /// and no branch on it: a walk that branched per slot cost osm's
    /// 100-key scans about a quarter more per key.
    #[inline]
    fn held(&self, from: usize, to: usize) -> u64 {
        let window = self.slots().get(from..=to.min(from + 63)).unwrap_or(&[]);
        window.iter().enumerate().fold(0, |bits, (j, s)| {
            let v = s.version.load(Ordering::Acquire);
            bits | u64::from(v & (LOCKED | CLAIMED) != 0) << j
        })
    }

    /// Current version of a slot (for later re-validation via
    /// [`SlotArray::version_unchanged`]).
    #[inline]
    pub fn version(&self, i: usize) -> u32 {
        self.slot(i).version.load(Ordering::Acquire)
    }

    /// Whether a slot's version still equals `snapshot`.
    #[inline]
    pub fn version_unchanged(&self, i: usize, snapshot: u32) -> bool {
        self.slot(i).version.load(Ordering::Acquire) == snapshot
    }

    /// Read a consistent snapshot of slot `i`, together with the version
    /// it was taken at (always even). Backs off (spin → yield → park)
    /// while a writer is mid-flight; once the retry budget is exhausted
    /// it escalates to a locked read, so the snapshot completes even
    /// against a pathological writer schedule.
    pub fn read(&self, i: usize) -> (SlotState, u32) {
        let mut retry = resilience::Retry::new();
        loop {
            let v1 = self.slot(i).version.load(Ordering::Acquire);
            if v1 & LOCKED != 0 {
                metrics::incr(Counter::SlotReadRetry);
                if retry.wait_or_escalate(&crate::LAYER) {
                    return self.read_locked(i);
                }
                continue;
            }
            if v1 & CLAIMED == 0 {
                // Never claimed, and no writer: nothing here to validate.
                return (SlotState::Empty, v1);
            }
            let key = self.slot(i).key.load(Ordering::Acquire);
            probe::chaos::point("slots.read.between_loads");
            let value = self.slot(i).value.load(Ordering::Acquire);
            probe::chaos::point("slots.read.pre_validate");
            // The mutation self-test deliberately skips this re-validation
            // (chaos-mutate builds only) to prove the harness catches the
            // resulting torn reads.
            if !probe::chaos::mutate_skip_slot_revalidation()
                && self.slot(i).version.load(Ordering::Acquire) != v1
            {
                metrics::incr(Counter::SlotReadRetry);
                if retry.wait_or_escalate(&crate::LAYER) {
                    return self.read_locked(i);
                }
                continue;
            }
            let state = if key == 0 {
                SlotState::Tombstone
            } else {
                SlotState::Occupied { key, value }
            };
            return (state, v1);
        }
    }

    /// Pessimistic read fallback: take the slot write lock, snapshot the
    /// state, release. Guaranteed to terminate (lock waits have a holder
    /// that finishes) at the cost of one version bump, which may bounce
    /// concurrent optimistic readers — acceptable, since this only runs
    /// after a full retry budget of failed optimistic attempts. The
    /// returned version is the post-unlock (even) version, valid for
    /// [`SlotArray::version_unchanged`] checks like any optimistic
    /// snapshot.
    fn read_locked(&self, i: usize) -> (SlotState, u32) {
        self.lock(i);
        let state = SlotGuard { arr: self, i }.state();
        (state, self.unlock(i))
    }

    /// Lock slot `i` (even→odd CAS, backing off). The caller must follow
    /// with [`SlotArray::unlock`]. The
    /// wait never escalates — the current holder's progress is this
    /// path's progress guarantee — but it does park past the budget so a
    /// long queue stops burning CPU.
    fn lock(&self, i: usize) {
        let mut retry = resilience::Retry::new();
        loop {
            let v = self.slot(i).version.load(Ordering::Acquire);
            if v & LOCKED == 0
                && self
                    .slot(i)
                    .version
                    .compare_exchange_weak(v, v | LOCKED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                // Stretch the odd-version (writer-in-progress) window so
                // racing readers actually observe it.
                probe::chaos::point("slots.lock.held");
                return;
            }
            // Let the testkit perturb lock-acquisition interleavings
            // (who wins a contended CAS), not just the held window.
            probe::chaos::point("slots.lock.spin");
            metrics::incr(Counter::SlotLockRetry);
            retry.wait(&crate::LAYER);
        }
    }

    /// Release slot `i`: clear the lock bit and count one write, keeping
    /// the claimed bit (the count wraps above it). Returns the word
    /// stored. Only the holder writes a locked word, so its own load
    /// sees the latest one.
    #[inline]
    fn unlock(&self, i: usize) -> u32 {
        let version = &self.slot(i).version;
        let v = (version.load(Ordering::Relaxed) & !LOCKED).wrapping_add(WRITE);
        version.store(v, Ordering::Release);
        v
    }

    /// Run `f` with slot `i` write-locked (version odd). The guard gives
    /// exclusive read/write access to the slot; concurrent optimistic
    /// readers spin (or retry their validation) until `f` returns. The
    /// lock is released even if `f` panics.
    ///
    /// This is the per-slot serialization point: callers that must make a
    /// multi-step decision atomically against other slot writers (e.g.
    /// "claim unless the key already lives elsewhere") do the whole
    /// decision inside `f`.
    pub fn with_write<R>(&self, i: usize, f: impl FnOnce(&SlotGuard<'_>) -> R) -> R {
        struct Unlock<'a>(&'a SlotArray, usize);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                self.0.unlock(self.1);
            }
        }
        self.lock(i);
        let _unlock = Unlock(self, i);
        f(&SlotGuard { arr: self, i })
    }

    /// Bulk placement during (re)construction: the array is still private
    /// to one thread, so skip the version protocol.
    pub fn place_unsync(&self, i: usize, key: u64, value: u64) -> bool {
        let slot = self.slot(i);
        let v = slot.version.load(Ordering::Relaxed);
        if v & CLAIMED != 0 {
            return false;
        }
        slot.key.store(key, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.version.store(v | CLAIMED, Ordering::Relaxed);
        true
    }

    /// Iterate live entries in slot order, yielding `(slot, key, value)`.
    /// Snapshot-consistent per slot, not across slots.
    pub fn for_each_live(&self, mut f: impl FnMut(usize, u64, u64)) {
        for i in self.occupied(0, self.capacity() - 1) {
            if let (SlotState::Occupied { key, value }, _) = self.read(i) {
                f(i, key, value);
            }
        }
    }

    /// Count live entries (per-slot consistent).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.for_each_live(|_, _, _| n += 1);
        n
    }
}

impl Drop for SlotArray {
    /// Hand this array's pages of a shared region back to the kernel, so a
    /// retired model of a bulk-loaded group does not pin its memory until
    /// the whole group goes. (A model is dropped only after its epoch
    /// deferral, when no reader can still hold it.) The last array of a
    /// region has nothing to hand back: the region's own drop unmaps it.
    fn drop(&mut self) {
        if Arc::strong_count(&self.region) > 1 {
            let offset = self.slots as usize - self.region.as_ptr() as usize;
            // SAFETY: `carve` reserved `offset..offset + footprint` for
            // this array alone, `&mut self` means nothing refers into it,
            // and `release` leaves the partial pages shared with a
            // neighbour untouched.
            unsafe { self.region.release(offset, Self::footprint(self.capacity)) };
        }
    }
}

/// Iterator over the claimed or locked slots of a window (see
/// [`SlotArray::occupied`]), built 64 slots at a time.
pub struct Occupied<'a> {
    arr: &'a SlotArray,
    /// First slot of the block `bits` covers.
    base: usize,
    /// The block's held slots not yet yielded.
    bits: u64,
    /// Last slot of the window.
    to: usize,
}

impl Iterator for Occupied<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.base += 64;
            if self.base > self.to {
                return None;
            }
            self.bits = self.arr.held(self.base, self.to);
        }
        let slot = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(slot)
    }
}

/// Exclusive access to one write-locked slot, handed to
/// [`SlotArray::with_write`] closures. No version dance is needed inside:
/// the version is odd for the guard's whole lifetime, so optimistic
/// readers cannot validate against anything the closure does.
pub struct SlotGuard<'a> {
    arr: &'a SlotArray,
    i: usize,
}

impl SlotGuard<'_> {
    /// The holder's view of the version word: the lock's Acquire
    /// ordered it after the last unlock, and no one else writes it now.
    fn claimed(&self) -> bool {
        self.arr.slot(self.i).version.load(Ordering::Relaxed) & CLAIMED != 0
    }

    /// The slot's current state, read under the lock.
    pub fn state(&self) -> SlotState {
        if !self.claimed() {
            return SlotState::Empty;
        }
        let key = self.arr.slot(self.i).key.load(Ordering::Acquire);
        if key == 0 {
            SlotState::Tombstone
        } else {
            SlotState::Occupied {
                key,
                value: self.arr.slot(self.i).value.load(Ordering::Acquire),
            }
        }
    }

    /// Install `(key, value)`, claiming the slot. Callers branch on
    /// [`SlotGuard::state`] first; installing over a live *different* key
    /// would lose its entry.
    pub fn install(&self, key: u64, value: u64) {
        debug_assert_ne!(key, 0);
        let slot = self.arr.slot(self.i);
        if self.claimed() {
            slot.key.store(key, Ordering::Release);
            // Tombstone reclaim by a *different* key: the window between
            // the two stores is where skipped read-side re-validation
            // leaks the old resident's value.
            probe::chaos::point("slots.claim.tombstone_write");
            slot.value.store(value, Ordering::Release);
        } else {
            slot.key.store(key, Ordering::Release);
            probe::chaos::point("slots.claim.mid_write");
            slot.value.store(value, Ordering::Release);
            // Under the lock: the unlock's Release publishes it with the
            // key and value.
            slot.version.fetch_or(CLAIMED, Ordering::Relaxed);
        }
    }

    /// Overwrite the value, leaving the key in place.
    pub fn set_value(&self, value: u64) {
        self.arr.slot(self.i).value.store(value, Ordering::Release);
    }

    /// Tombstone the slot (key := 0).
    pub fn clear(&self) {
        self.arr.slot(self.i).key.store(0, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape of every slot write: decide under the slot's lock. This
    /// one installs unless a live key holds the slot.
    fn put(s: &SlotArray, i: usize, key: u64, value: u64) -> bool {
        s.with_write(i, |g| match g.state() {
            SlotState::Occupied { .. } => false,
            SlotState::Empty | SlotState::Tombstone => {
                g.install(key, value);
                true
            }
        })
    }

    /// Tombstone slot `i` if it holds `key`, as `remove` does; returns the
    /// removed value.
    fn take(s: &SlotArray, i: usize, key: u64) -> Option<u64> {
        s.with_write(i, |g| match g.state() {
            SlotState::Occupied { key: k, value } if k == key => {
                g.clear();
                Some(value)
            }
            _ => None,
        })
    }

    #[test]
    fn prefetch_hints_every_line_of_a_slot() {
        let line = |addr: usize| addr / 64;
        let base = 64 * 1_000;
        let size = std::mem::size_of::<Slot>();
        let mut straddling = 0;
        for i in 0..16 {
            let hinted = slot_hint_addrs(base, i).map(line);
            let start = base + i * size;
            for byte in start..start + size {
                assert!(hinted.contains(&line(byte)), "slot {i}, byte {byte}");
            }
            straddling += usize::from(hinted[0] != hinted[1]);
        }
        assert_eq!(straddling, 4, "24-byte slots cross a line at 2 of every 8");
    }

    #[test]
    fn empty_then_install_then_read() {
        let s = SlotArray::new(8);
        assert_eq!(s.read(3).0, SlotState::Empty);
        assert!(put(&s, 3, 42, 420));
        assert_eq!(
            s.read(3).0,
            SlotState::Occupied {
                key: 42,
                value: 420
            }
        );
    }

    #[test]
    fn a_decision_sees_the_resident_under_the_lock() {
        let s = SlotArray::new(4);
        put(&s, 0, 7, 70);
        assert!(!put(&s, 0, 7, 71), "same key");
        assert!(!put(&s, 0, 8, 80), "other key");
        assert_eq!(s.read(0).0, SlotState::Occupied { key: 7, value: 70 });
    }

    #[test]
    fn tombstone_lifecycle() {
        let s = SlotArray::new(4);
        put(&s, 1, 9, 90);
        assert_eq!(take(&s, 1, 8), None, "wrong key");
        assert_eq!(take(&s, 1, 9), Some(90));
        assert_eq!(s.read(1).0, SlotState::Tombstone);
        // A tombstone can be re-claimed by any key.
        assert!(put(&s, 1, 11, 110));
        assert_eq!(
            s.read(1).0,
            SlotState::Occupied {
                key: 11,
                value: 110
            }
        );
    }

    #[test]
    fn set_value_keeps_the_key() {
        let s = SlotArray::new(2);
        put(&s, 0, 5, 1);
        let (_, v0) = s.read(0);
        s.with_write(0, |g| g.set_value(2));
        assert_eq!(s.read(0).0, SlotState::Occupied { key: 5, value: 2 });
        assert!(
            !s.version_unchanged(0, v0),
            "a reader of the old value must notice"
        );
    }

    #[test]
    fn versions_move_on_writes_only() {
        let s = SlotArray::new(2);
        let (_, v0) = s.read(0);
        let (_, v0b) = s.read(0);
        assert_eq!(v0, v0b, "reads do not bump versions");
        put(&s, 0, 1, 1);
        assert!(!s.version_unchanged(0, v0));
        let (_, v1) = s.read(0);
        assert!(v1 > v0);
        assert_eq!(v1 % 2, 0, "published versions are even");
    }

    #[test]
    fn a_lock_only_round_trip_leaves_a_slot_empty() {
        // The round trip of the retrain's sweep and of `read_locked`.
        let s = SlotArray::new(8);
        let (_, v0) = s.read(3);
        s.with_write(3, |g| assert_eq!(g.state(), SlotState::Empty));
        let (state, v1) = s.read_locked(3);
        assert_eq!(state, SlotState::Empty);
        assert_eq!(v1, s.version(3), "read_locked returns the word it stored");
        assert_ne!(v1, v0, "each unlock counts a write");
        assert_eq!(v1 % 2, 0);
        assert_eq!(s.read(3), (SlotState::Empty, v1));
        assert!(all_empty(&s), "the walk skips an unclaimed slot");
    }

    #[test]
    fn a_walk_yields_a_slot_held_for_its_first_claim() {
        let s = SlotArray::new(100);
        s.with_write(70, |g| {
            assert_eq!(s.occupied(0, 99).collect::<Vec<_>>(), [70], "locked");
            g.install(7, 70);
            assert_eq!(s.occupied(0, 99).collect::<Vec<_>>(), [70]);
        });
        assert_eq!(s.occupied(0, 99).collect::<Vec<_>>(), [70], "claimed");
    }

    #[test]
    fn a_walk_covers_exactly_its_window() {
        let s = SlotArray::new(200);
        for i in [3, 64, 70, 130, 199] {
            put(&s, i, i as u64 + 1, 1);
        }
        let walk = |from, to| s.occupied(from, to).collect::<Vec<_>>();
        assert_eq!(walk(0, 199), [3, 64, 70, 130, 199]);
        assert_eq!(walk(4, 129), [64, 70]);
        assert_eq!(walk(70, 70), [70]);
        assert_eq!(walk(131, 500), [199], "clamped to the last slot");
        assert_eq!(walk(71, 70), [] as [usize; 0]);
    }

    #[test]
    fn an_unlock_keeps_the_claim_across_a_count_wrap() {
        let s = SlotArray::new(1);
        // Unclaimed, at the highest count: the first claim's unlock wraps.
        s.slot(0).version.store(u32::MAX - 3, Ordering::Relaxed);
        assert!(put(&s, 0, 5, 50));
        let (state, v) = s.read(0);
        assert_eq!(state, SlotState::Occupied { key: 5, value: 50 });
        assert_eq!(v % 2, 0);
        // Claimed, at the highest count: a lock-only round trip wraps.
        s.slot(0).version.store(u32::MAX - 1, Ordering::Relaxed);
        s.with_write(0, |_| ());
        assert_eq!(s.read(0).0, SlotState::Occupied { key: 5, value: 50 });
        assert_eq!(s.occupied(0, 0).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn slot_and_model_sizes_are_pinned() {
        // What the cache-line counts of a slot hit (DESIGN.md §3) and the
        // model header's layout are reasoned from.
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        assert_eq!(std::mem::size_of::<SlotArray>(), 24);
        assert_eq!(std::mem::size_of::<crate::model::GplModel>(), 72);
    }

    #[test]
    fn place_unsync_respects_occupancy() {
        let s = SlotArray::new(4);
        assert!(s.place_unsync(2, 5, 50));
        assert!(!s.place_unsync(2, 6, 60), "occupied slot rejects placement");
        assert_eq!(s.read(2).0, SlotState::Occupied { key: 5, value: 50 });
    }

    #[test]
    fn for_each_live_skips_empty_and_tombstones() {
        let s = SlotArray::new(8);
        put(&s, 1, 10, 100);
        put(&s, 4, 40, 400);
        put(&s, 6, 60, 600);
        take(&s, 4, 40);
        let mut seen = Vec::new();
        s.for_each_live(|i, k, v| seen.push((i, k, v)));
        assert_eq!(seen, vec![(1, 10, 100), (6, 60, 600)]);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn concurrent_claims_one_winner_per_slot() {
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(16));
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for i in 0..16 {
                    if put(&s, i, t * 100 + i as u64, t) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 16, "each slot claimed exactly once");
        assert_eq!(s.live_count(), 16);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_slots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(1));
        put(&s, 0, 1, 1);
        let stop = Arc::new(AtomicBool::new(false));
        // Writer cycles key/value pairs where key == value.
        let w = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut k = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    take(&s, 0, k - 1);
                    put(&s, 0, k, k);
                    k += 1;
                }
            })
        };
        for _ in 0..200_000 {
            if let (SlotState::Occupied { key, value }, _) = s.read(0) {
                assert_eq!(key, value, "torn read: {key} != {value}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }

    /// Arrays of `a` and `b` slots carved from one mapped region, A
    /// first, and a handle that says whether the region still exists.
    fn carved_pair(a: usize, b: usize) -> (SlotArray, SlotArray, std::sync::Weak<Region>) {
        let bytes = SlotArray::footprint(a) + SlotArray::footprint(b);
        let region = Region::mapped(bytes).expect("map a region");
        let mut arrays = SlotArray::carve(region, &[a, b]);
        let (b, a) = (arrays.pop().unwrap(), arrays.pop().unwrap());
        let weak = Arc::downgrade(a.region());
        (a, b, weak)
    }

    fn all_empty(s: &SlotArray) -> bool {
        (0..s.capacity()).all(|i| s.read(i).0 == SlotState::Empty)
            && s.occupied(0, s.capacity() - 1).next().is_none()
    }

    #[test]
    fn a_fresh_region_reads_empty_at_every_slot() {
        let (a, b, _) = carved_pair(1000, 333);
        assert!(all_empty(&a) && all_empty(&b));
        assert!(all_empty(&SlotArray::new(777)));
        assert!(SlotArray::for_group(&[5, 64, 65]).iter().all(all_empty));
    }

    #[test]
    fn adjacent_carved_arrays_are_isolated() {
        // A's 2,400 B end mid-line; B starts on the next line.
        let (a, b, _) = carved_pair(100, 100);
        for i in 64..100 {
            assert!(put(&a, i, i as u64 + 1, 1));
        }
        assert!(all_empty(&b), "A's last slots are A's alone");
        assert_eq!(a.live_count(), 36);
    }

    #[test]
    fn releasing_a_leaves_a_filled_b_intact() {
        // Many pages each, so A's drop has whole pages to release.
        let n = 3000;
        let (a, b, weak) = carved_pair(n, n);
        for i in 0..n {
            assert!(put(&a, i, i as u64 + 1, 1));
            assert!(put(&b, i, i as u64 + 1, i as u64));
        }
        drop(a);
        let region = weak.upgrade().expect("B keeps the region");
        // SAFETY: A's bytes, which no array refers to any more.
        let a_bytes = unsafe { std::slice::from_raw_parts(region.as_ptr(), 4096) };
        assert!(a_bytes.iter().all(|&x| x == 0), "A's first page went back");
        for i in 0..n {
            let (key, value) = (i as u64 + 1, i as u64);
            assert_eq!(b.read(i).0, SlotState::Occupied { key, value });
        }
    }

    #[test]
    fn the_region_goes_with_its_last_array() {
        let (a, b, weak) = carved_pair(10, 10);
        drop(b);
        assert!(weak.upgrade().is_some());
        drop(a);
        assert!(weak.upgrade().is_none(), "unmapped with the last array");
    }

    #[test]
    fn a_shared_region_places_keys_as_heap_arrays_do() {
        use crate::{AltConfig, AltIndex};
        // fb 400k, seed 7: 35.5 MiB of slot arrays. One build thread is
        // one group, carved from one shared region; two are two ~18 MiB
        // groups of heap arrays. Both give the same pinned layout. The
        // digests were re-pinned when each model's slope came to be
        // chosen under the build's slot budget instead of at GPL's cone
        // midpoint: that moves slopes and capacities, not where arrays
        // live.
        let pairs = datasets::generate_pairs(datasets::Dataset::Fb, 400_000, 7);
        for build_threads in [1, 2] {
            let idx = AltIndex::bulk_load_with(
                &pairs,
                AltConfig {
                    build_threads,
                    ..Default::default()
                },
            );
            let spans = idx.directory_spans();
            let bytes: usize = spans.iter().map(|s| SlotArray::footprint(s.1)).sum();
            assert!(bytes >= SHARED_REGION_MIN, "{bytes} B is one shared region");
            assert_eq!(idx.learned_layout_digest(), 0xbeab_f46b_ba6d_e608);
            assert_eq!(spans_digest(&spans), 0xf8e0_aa99_e002_9e61);
        }
    }

    /// FNV-1a over `directory_spans`.
    fn spans_digest(spans: &[(u64, usize, usize)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(first, cap, size) in spans {
            for x in [first, cap as u64, size as u64] {
                for b in x.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }
}
