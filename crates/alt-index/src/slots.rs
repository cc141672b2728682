//! Slot arrays for GPL models: the learned layer's storage, with the
//! paper's slot-granularity optimistic concurrency (§III-E) taken to the
//! bucket.
//!
//! An array is a run of 128-byte `Line`s, buckets of seven slots: slot
//! `i` is lane `i % 7` of bucket `i / 7`. A bucket is two cache lines,
//! its version word and seven keys in the first and its seven values in
//! the second. It is the unit a key is predicted into (DESIGN.md §3 "A
//! line is a bucket"): a key's *own lane* is the slot it predicts, and it
//! may also live in any other lane of that bucket. So the bucket is what
//! a reader snapshots and what a writer locks, and its whole state is one
//! atomic version word beside its keys and values: bit 0 is the writer's
//! lock (odd = a writer is in progress), bits 1–7 say each lane was ever
//! *claimed*, bit 8 is the bucket's *spill bit*, set before a key
//! predicted into the bucket goes to ART, and the bits from 9 up count
//! writes. A writer CASes the lock bit on, decides over the bucket, and
//! stores the word unlocked with one more write counted; a reader loads
//! the word (retrying while it is locked), reads the bucket, and re-loads
//! the word. An unclaimed lane is "never used"; a claimed lane whose key
//! is 0 is a tombstone (the paper's remove "sets the key to zero").
//!
//! A bucket has one view: its word and its seven keys. The optimistic
//! read ([`SlotArray::probe`]) and the lock holder ([`LineGuard::probe`])
//! give a key the same verdict from them through one function, `verdict`;
//! a writer's [`LineGuard::find`] and [`LineGuard::free_lane`] read the
//! same word and keys; and the scan's [`SlotArray::read_sorted`] and the
//! retrain's [`LineGuard::sorted`] sort the same seven entries.
//! [`SlotState`] is only how a test observes one lane.
//!
//! Storage is a [`Region`] of zeroed memory, and nothing here ever writes
//! the zeros: all-zero memory *is* an array of `Empty` slots (word 0 is
//! unlocked, unclaimed and unspilled). A bulk-load group large enough
//! carves all its arrays out of one huge-page region
//! ([`SlotArray::for_group`]); anything smaller gets a heap region per
//! array.

use prefetch::pages::Region;
use probe::chaos::Mutation;
use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most cache lines one [`SlotArray::prefetch_window`] call asks for.
const PREFETCH_LINES: usize = 16;

/// Slots per bucket: the lanes a key may live in.
pub const LANES: usize = 7;

/// Bytes of one [`Line`]: a bucket, two cache lines.
const LINE: usize = std::mem::size_of::<Line>();

/// Bytes of a cache line: the offset of a bucket's values.
const CACHE_LINE: usize = 64;

/// Version bit 0: a writer holds the bucket.
const LOCKED: u64 = 1;
/// Version bit 8: a key predicted into the bucket went to ART. Set under
/// the lock (or by the private build), never cleared.
const SPILL: u64 = 1 << 8;
/// What each unlock adds: one write, counted above the flag bits.
const WRITE: u64 = 1 << 9;

/// Version bits 1..=7, the claimed bit of `lane`: the lane had a key
/// installed once. The first install sets it under the lock, the unlock's
/// Release publishes it, nothing clears it.
#[inline(always)]
const fn claimed(lane: usize) -> u64 {
    2 << lane
}

/// Smallest group of arrays [`SlotArray::for_group`] maps as one shared
/// huge-page region: glibc's largest mmap threshold on 64-bit. A request
/// that big is a fresh `mmap` inside `malloc` anyway, so mapping it
/// ourselves gives up no reuse of freed heap memory. Below it, per-array
/// heap blocks reuse memory the process freed earlier: one shared region
/// for `serve_zipf`'s small groups raised its `rss_bytes_per_key` 22 → 30,
/// where glibc had been serving the arrays from memory set-up freed.
pub const SHARED_REGION_MIN: usize = 32 << 20;

/// One consistent snapshot of a slot: how a test observes a lane
/// ([`LineGuard::slot`]). The protocol itself decides from the version
/// word and the keys.
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

impl SlotState {
    /// The state a lane's claimed bit and the key and value in it spell.
    fn of(claimed: bool, key: u64, value: u64) -> Self {
        if !claimed {
            SlotState::Empty
        } else if key == 0 {
            SlotState::Tombstone
        } else {
            SlotState::Occupied { key, value }
        }
    }
}

/// What a reader looking for one key concludes from the line the model
/// predicts for it: the verdict of `get`, of the pessimistic fallback, of
/// the batch engine's probe stage and of a writer alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// A lane holds the key: its value.
    Hit(u64),
    /// The key is absent (Algorithm 2 lines 5-6) — unless the model has
    /// retired: its successor predicts otherwise.
    Absent,
    /// Conflict data: the key, if present, lives in ART.
    Art,
}

/// A bucket's seven entries from its keys and values, ascending by key,
/// ties in lane order. A lane with no live key is key 0 and sorts first:
/// an unclaimed lane's key is still the region's zero, and a tombstone's
/// is 0, so the key word alone says whether a lane is live. Each entry
/// goes to its rank, counted from the 21 compares of the pairs of lanes
/// with no branch on the keys. A 16-comparator network compiled to a
/// branch per compare-exchange on which way a bucket's dead lanes and
/// out-of-order keys fall, and cost a scan about twice as much per bucket
/// (EXPERIMENTS.md "A bucket is 128 B").
#[inline(always)]
fn sort7(key: [u64; LANES], value: [u64; LANES]) -> [(u64, u64); LANES] {
    let mut rank = [0; LANES];
    for i in 0..LANES {
        for j in i + 1..LANES {
            let after = usize::from(key[i] > key[j]);
            rank[i] += after;
            rank[j] += 1 - after;
        }
    }
    let mut out = [(0, 0); LANES];
    for lane in 0..LANES {
        out[rank[lane]] = (key[lane], value[lane]);
    }
    out
}

/// The claimed bit of each lane of word `v` whose key in `k` is `key`,
/// with no branch per lane: a debug build's get is this code as written,
/// and tests race it.
#[inline(always)]
fn hits(v: u64, k: [u64; LANES], key: u64) -> u64 {
    let hit = |l: usize| u64::from(k[l] == key) << (l + 1);
    (hit(0) | hit(1) | hit(2) | hit(3) | hit(4) | hit(5) | hit(6)) & v
}

/// The lane of the lowest claimed bit in a nonzero mask.
#[inline(always)]
fn lane_of(bits: u64) -> usize {
    bits.trailing_zeros() as usize - 1
}

/// The one verdict on `key`, whose own lane is `own`, over `line` as its
/// word `v` and keys `k` spell it (DESIGN.md §3 "A line is a bucket"):
/// the value if a lane holds the key; else absent if the own lane was
/// never claimed, for a key leaves it only when it is claimed, or if the
/// line never spilled; else ART. The optimistic read
/// ([`SlotArray::probe`]) and a read under the line lock
/// ([`LineGuard::probe`]) both give it, and it loads only the matching
/// lane's value.
#[inline(always)]
fn verdict(line: &Line, v: u64, k: [u64; LANES], own: usize, key: u64) -> Probe {
    let own = claimed(own);
    let mut hits = hits(v, k, key);
    if probe::chaos::mutated(Mutation::OwnLaneRead) {
        hits &= own;
    }
    match hits {
        0 if v & own == 0 || v & SPILL == 0 => Probe::Absent,
        0 => Probe::Art,
        _ => Probe::Hit(line.value[lane_of(hits)].load(Ordering::Acquire)),
    }
}

/// Seven slots in one bucket under one version word, each other field
/// indexed by lane: the word and the keys fill the first cache line, the
/// values the second (and 8 bytes of padding).
#[repr(C, align(128))]
struct Line {
    version: AtomicU64,
    key: [AtomicU64; LANES],
    value: [AtomicU64; LANES],
}

impl Line {
    /// The seven keys, or the seven values: one Acquire load each,
    /// written out. A reader validates across these loads, and in a debug
    /// build a closure per lane made its window wider than the gaps a
    /// writer in a tight loop leaves: every read ran out its retry budget
    /// (`concurrent_readers_never_observe_torn_slots` 0.2 s → 120 s).
    #[inline(always)]
    fn words(words: &[AtomicU64; LANES]) -> [u64; LANES] {
        let [a, b, c, d, e, f, g] = words;
        [
            a.load(Ordering::Acquire),
            b.load(Ordering::Acquire),
            c.load(Ordering::Acquire),
            d.load(Ordering::Acquire),
            e.load(Ordering::Acquire),
            f.load(Ordering::Acquire),
            g.load(Ordering::Acquire),
        ]
    }
}

/// A fixed-capacity array of versioned slots.
///
/// The lines live in `region` at `lines`: a raw pointer kept in the
/// struct itself, so a probe loads it from the model as it loaded a
/// `Box<[Line]>`'s, with no hop through the `Arc`.
pub struct SlotArray {
    lines: *const Line,
    capacity: usize,
    region: Arc<Region>,
}

// SAFETY: the pointer addresses memory owned by `region` (kept alive by
// the `Arc` beside it) and reserved for this array alone by `carve`; it
// holds only atomics, so sharing or sending the array is sharing or
// sending a `Box<[Line]>`, which is both.
unsafe impl Send for SlotArray {}
// SAFETY: as above.
unsafe impl Sync for SlotArray {}

impl SlotArray {
    /// An array of `capacity` empty slots, in a heap region of its own.
    /// The heap block is only word-aligned (`Region::heap`), so it is
    /// over-allocated by the most that aligning its start to a bucket can
    /// skip, and [`SlotArray::carve`] starts at the first 128-byte
    /// boundary.
    pub fn new(capacity: usize) -> Self {
        let slack = LINE - std::mem::align_of::<u64>();
        let region = Region::heap(Self::footprint(capacity) + slack);
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

    /// Bytes an array of `capacity` slots takes in a region: whole
    /// buckets of seven slots.
    pub fn footprint(capacity: usize) -> usize {
        capacity.div_ceil(LANES) * LINE
    }

    /// Arrays of the given capacities laid back to back in `region`, each
    /// [`SlotArray::footprint`] bytes, from its first 128-byte boundary on
    /// (its start, in a mapped region). The region is freed when the last
    /// of them drops. Taking it by value is what makes each array's bytes
    /// its own: no region is carved twice.
    ///
    /// Panics if a capacity is 0 or the arrays do not fit.
    pub fn carve(region: Region, capacities: &[usize]) -> Vec<Self> {
        let region = Arc::new(region);
        assert!(
            capacities.iter().all(|&c| c > 0),
            "slot array needs at least one slot"
        );
        // Every pointer below is in bounds, aligned, and each array's
        // bytes are disjoint from the next's, because of this check.
        let start = (region.as_ptr() as usize).wrapping_neg() % LINE;
        let total: usize = capacities.iter().map(|&c| Self::footprint(c)).sum();
        assert!(
            start + total <= region.size(),
            "slot arrays overrun their region"
        );
        let mut offset = start;
        capacities
            .iter()
            .map(|&capacity| {
                let base = region.as_ptr().wrapping_add(offset);
                offset += Self::footprint(capacity);
                Self {
                    lines: base as *const Line,
                    capacity,
                    region: Arc::clone(&region),
                }
            })
            .collect()
    }

    /// The array's buckets, the last one's spare lanes included.
    #[inline(always)]
    fn lines(&self) -> &[Line] {
        // SAFETY: `carve` placed `capacity.div_ceil(7)` buckets at `lines`,
        // aligned and inside the region this array keeps alive; the
        // region started zeroed, which is a valid `Line` (atomics only).
        unsafe { std::slice::from_raw_parts(self.lines, self.capacity.div_ceil(LANES)) }
    }

    /// The bucket slot `i` lies in. Panics unless `i < capacity`: the
    /// last bucket's spare lanes are never a slot.
    #[inline(always)]
    fn line(&self, i: usize) -> &Line {
        assert!(i < self.capacity, "slot index out of range");
        // SAFETY: `i < capacity` (just checked), so bucket `i / 7` is one
        // of the `capacity.div_ceil(7)` buckets `carve` placed, as in
        // `lines`.
        // (A second bounds check here once kept the slot read from being
        // inlined into `get` and the batch stage.)
        unsafe { &*self.lines.add(i / LANES) }
    }

    /// How many lanes of slot `i`'s bucket are slots: seven, except in
    /// the last bucket of a capacity that is not a multiple of seven.
    #[inline]
    fn lanes_of(&self, i: usize) -> usize {
        (self.capacity - i / LANES * LANES).min(LANES)
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

    /// Bytes the array takes in its region: [`SlotArray::footprint`].
    pub fn memory_usage(&self) -> usize {
        Self::footprint(self.capacity)
    }

    /// Hint the CPU to fetch slot `i`'s bucket ahead of a
    /// [`SlotArray::probe`] or a writer's lock: both its cache lines, the
    /// keys' and the values', issued together so their misses overlap
    /// (a value line asked for only once the verdict found its lane costs
    /// most of a second miss). The batched lookup issues this one ring
    /// revolution before the probe; the scalar `get` issues it before it
    /// warms the key's ART path, so all three misses overlap.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        debug_assert!(i < self.capacity);
        let bucket = self.lines.wrapping_add(i / LANES) as *const u8;
        prefetch::prefetch_read(bucket);
        prefetch::prefetch_read(bucket.wrapping_add(CACHE_LINE));
    }

    /// Hint the CPU to fetch the slots `from..=to` ahead of a walk over
    /// them, up to `PREFETCH_LINES` cache lines, both of each bucket's (a
    /// longer walk is a sequential stream the hardware picks up by
    /// itself).
    pub fn prefetch_window(&self, from: usize, to: usize) {
        let to = to.min(self.capacity() - 1);
        if from > to {
            return;
        }
        let (first, last) = (from / LANES, to / LANES);
        for bucket in first..=last.min(first + PREFETCH_LINES / 2 - 1) {
            self.prefetch(bucket * LANES);
        }
    }

    /// The buckets of `from..=to` whose version word is locked or has a
    /// claimed lane, ascending, each as its first slot: every bucket of
    /// the window a key was ever installed in, and any a writer holds. Each
    /// still has to go through a read; the ones left out need not — a
    /// word read neither locked nor claimed means every lane was `Empty`
    /// at that load, which is what a read would have returned then.
    pub fn walk(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        let to = to.min(self.capacity() - 1);
        let end = if from > to { 0 } else { to / LANES + 1 };
        let (mut base, mut bits) = (from / LANES, 0u64);
        std::iter::from_fn(move || {
            while bits == 0 {
                if base >= end {
                    return None;
                }
                bits = self.held(base, end);
                base += 64;
            }
            let line = base - 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(line * LANES)
        })
    }

    /// Bit `j` set for each bucket `first + j` below `end`, at most 64 of
    /// them, whose word is locked or has a claimed lane below the
    /// capacity (the last bucket's spare lanes never count): one load per
    /// bucket and no branch on it. A walk that branched per slot cost osm's
    /// 100-key scans about a quarter more per key.
    #[inline]
    fn held(&self, first: usize, end: usize) -> u64 {
        let lines = &self.lines()[first..end.min(first + 64)];
        lines.iter().enumerate().fold(0, |bits, (j, line)| {
            // The claimed bits of the lanes that are slots.
            let claims = claimed(self.lanes_of((first + j) * LANES)) - claimed(0);
            let mask = LOCKED | claims;
            bits | u64::from(line.version.load(Ordering::Acquire) & mask != 0) << j
        })
    }

    /// Current version of slot `i`'s line (for later re-validation via
    /// [`SlotArray::version_unchanged`]): it moves whenever the line was
    /// written, whichever lane changed.
    #[inline]
    pub fn version(&self, i: usize) -> u64 {
        self.line(i).version.load(Ordering::Acquire)
    }

    /// Whether slot `i`'s line's version still equals `snapshot`.
    #[inline]
    pub fn version_unchanged(&self, i: usize, snapshot: u64) -> bool {
        self.version(i) == snapshot
    }

    /// The one optimistic read of slot `i`'s line, with the version it was
    /// taken at for a later [`SlotArray::version_unchanged`]: load the
    /// word, and if `settled` answers from it alone, that is the answer;
    /// else, once the word is unlocked, load the seven keys, let `read`
    /// take what else it needs, and re-load the word. Backs off (spin →
    /// yield → park) while a writer is mid-flight; once the retry budget
    /// is exhausted it reads under the writers' own line lock, so the
    /// read completes even against a pathological writer schedule, and
    /// returns the word that lock's unlock stored, valid like any
    /// optimistic snapshot's.
    #[inline(always)]
    fn snapshot<R>(
        &self,
        i: usize,
        settled: impl Fn(u64) -> Option<R>,
        read: impl Fn(&Line, u64, [u64; LANES]) -> R,
    ) -> (R, u64) {
        let line = self.line(i);
        let mut retry = resilience::Retry::new();
        loop {
            let v = line.version.load(Ordering::Acquire);
            if let Some(r) = settled(v) {
                return (r, v);
            }
            if v & LOCKED == 0 {
                let key = Line::words(&line.key);
                probe::chaos::point("slots.read.between_loads");
                let r = read(line, v, key);
                probe::chaos::point("slots.read.pre_validate");
                // The mutation self-test can skip this re-validation
                // (chaos-mutate builds only) to prove the harness catches
                // the resulting torn reads.
                if probe::chaos::mutated(Mutation::SkipSlotRevalidation)
                    || line.version.load(Ordering::Acquire) == v
                {
                    return (r, v);
                }
            }
            metrics::incr(Counter::SlotReadRetry);
            if retry.wait_or_escalate(&crate::LAYER) {
                return self.escalate(i, read);
            }
        }
    }

    /// [`SlotArray::snapshot`]'s escalation: `read` under the writers' own
    /// line lock, with the word its unlock stored. Cold and out of line:
    /// the optimistic loop inlined into `get` carries only its call.
    #[cold]
    #[inline(never)]
    fn escalate<R>(&self, i: usize, read: impl Fn(&Line, u64, [u64; LANES]) -> R) -> (R, u64) {
        self.locked(i, |g| {
            let v = g.line.version.load(Ordering::Relaxed);
            read(g.line, v, Line::words(&g.line.key))
        })
    }

    /// The reader's verdict on `key`, predicted to slot `i`, from one
    /// snapshot of the slot's line, with the version it was taken at: the
    /// one `verdict`, with no more loads than it needs — the word, the
    /// seven keys, the matching lane's value, and the word again. An own
    /// lane neither claimed nor locked is the `Absent` rule with nothing
    /// to validate. Out of cache the get loop is bound by how many misses
    /// of consecutive gets overlap, so every instruction here counts:
    /// building a whole line view here instead cost `read_oc` about 5 % of
    /// its throughput (EXPERIMENTS.md "A line is a bucket").
    #[inline]
    pub fn probe(&self, i: usize, key: u64) -> (Probe, u64) {
        let own = i % LANES;
        self.snapshot(
            i,
            |v| (v & (LOCKED | claimed(own)) == 0).then_some(Probe::Absent),
            |line, v, k| verdict(line, v, k, own, key),
        )
    }

    /// Slot `i`'s bucket as a scan walks it: its seven entries ascending
    /// by key, a lane with no live key as key 0 (`sort7`). One snapshot
    /// of the keys and values, sorted once it validated, with no
    /// [`SlotState`]s: a whole-line view and a general sort of its live
    /// keys per line cost `scan_mix` about a tenth of its throughput
    /// (EXPERIMENTS.md "A line is a bucket").
    #[inline]
    pub fn read_sorted(&self, i: usize) -> [(u64, u64); LANES] {
        let (key, value) = self.entries(i);
        sort7(key, value)
    }

    /// Slot `i`'s bucket's keys and values, lane by lane, from one
    /// snapshot.
    #[inline(always)]
    fn entries(&self, i: usize) -> ([u64; LANES], [u64; LANES]) {
        self.snapshot(i, |_| None, |line, _, key| (key, Line::words(&line.value)))
            .0
    }

    /// Run `f` with slot `i`'s line write-locked (its version odd). The
    /// guard gives exclusive read/write access to the line; concurrent
    /// optimistic readers spin (or retry their validation) until `f`
    /// returns, and the unlock counts one write. The lock is released
    /// even if `f` panics.
    ///
    /// This is the per-key serialization point: every key that predicts
    /// a slot of the line decides here, so callers that must make a
    /// multi-step decision atomically against other writers (e.g. "claim
    /// a free lane unless the key already lives in ART") do the whole
    /// decision inside `f`.
    pub fn with_line<R>(&self, i: usize, f: impl FnOnce(&LineGuard<'_>) -> R) -> R {
        self.locked(i, f).0
    }

    /// [`SlotArray::with_line`], with the word its unlock stored.
    fn locked<R>(&self, i: usize, f: impl FnOnce(&LineGuard<'_>) -> R) -> (R, u64) {
        struct Unlock<'a>(&'a AtomicU64);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                unlock(self.0);
            }
        }
        let guard = LineGuard {
            line: self.line(i),
            own: i % LANES,
            lanes: self.lanes_of(i),
        };
        lock(&guard.line.version);
        let held = Unlock(&guard.line.version);
        let r = f(&guard);
        std::mem::forget(held);
        (r, unlock(&guard.line.version))
    }

    /// Bulk placement during (re)construction, first pass: the array is
    /// still private to one thread, so skip the version protocol. Installs
    /// in slot `i` itself unless it is claimed.
    pub fn place_unsync(&self, i: usize, key: u64, value: u64) -> bool {
        let line = self.line(i);
        let lane = i % LANES;
        let v = line.version.load(Ordering::Relaxed);
        if v & claimed(lane) != 0 {
            return false;
        }
        line.key[lane].store(key, Ordering::Relaxed);
        line.value[lane].store(value, Ordering::Relaxed);
        line.version.store(v | claimed(lane), Ordering::Relaxed);
        true
    }

    /// Bulk placement, second pass, for a key whose slot `i` the first
    /// pass gave another key: the first unclaimed lane of the line, or,
    /// if there is none, the line's spill bit set and `false` (the key
    /// goes to ART).
    pub fn place_in_line_unsync(&self, i: usize, key: u64, value: u64) -> bool {
        let first = i - i % LANES;
        let placed = (first..first + self.lanes_of(i)).any(|j| self.place_unsync(j, key, value));
        if !placed {
            let version = &self.line(i).version;
            version.store(version.load(Ordering::Relaxed) | SPILL, Ordering::Relaxed);
        }
        placed
    }

    /// Iterate live entries line by line, yielding `(slot, key, value)`
    /// in slot order. Snapshot-consistent per line, not across lines. A
    /// lane is live when its key is not 0, as in `sort7`.
    pub fn for_each_live(&self, mut f: impl FnMut(usize, u64, u64)) {
        for first in self.walk(0, usize::MAX) {
            let (key, value) = self.entries(first);
            for lane in (0..self.lanes_of(first)).filter(|&l| key[l] != 0) {
                f(first + lane, key[lane], value[lane]);
            }
        }
    }

    /// Count live entries (per-line consistent).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.for_each_live(|_, _, _| n += 1);
        n
    }
}

/// Lock a line by its version word (unlocked→locked CAS, backing off).
/// The caller must follow with [`unlock`]. The wait never escalates — the
/// current holder's progress is this path's progress guarantee — but it
/// does park past the budget so a long queue stops burning CPU. (Under
/// the mutation self-test's `SharedLineLock` the CAS skips the lock bit's
/// check, so a second writer takes a held line.)
fn lock(version: &AtomicU64) {
    let mut retry = resilience::Retry::new();
    loop {
        let v = version.load(Ordering::Acquire);
        if (v & LOCKED == 0 || probe::chaos::mutated(Mutation::SharedLineLock))
            && version
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

/// Release a line's lock: clear the lock bit and count one write, keeping
/// the claimed and spill bits (the count wraps above them). Returns the
/// word stored. Only the holder writes a locked word, so its own load
/// sees the latest one.
#[inline]
fn unlock(version: &AtomicU64) -> u64 {
    let v = (version.load(Ordering::Relaxed) & !LOCKED).wrapping_add(WRITE);
    version.store(v, Ordering::Release);
    v
}

impl Drop for SlotArray {
    /// Hand this array's pages of a shared region back to the kernel, so a
    /// retired model of a bulk-loaded group does not pin its memory until
    /// the whole group goes. (A model is dropped only after its epoch
    /// deferral, when no reader can still hold it.) The last array of a
    /// region has nothing to hand back: the region's own drop unmaps it.
    fn drop(&mut self) {
        if Arc::strong_count(&self.region) > 1 {
            let offset = self.lines as usize - self.region.as_ptr() as usize;
            // SAFETY: `carve` reserved `offset..offset + footprint` for
            // this array alone, `&mut self` means nothing refers into it,
            // and `release` leaves the partial pages shared with a
            // neighbour untouched.
            unsafe { self.region.release(offset, Self::footprint(self.capacity)) };
        }
    }
}

/// Exclusive access to one write-locked line, handed to
/// [`SlotArray::with_line`] closures. No version dance is needed inside:
/// the line's version is odd for the guard's whole lifetime, so
/// optimistic readers cannot validate against anything the closure does.
pub struct LineGuard<'a> {
    line: &'a Line,
    /// The lane of the slot the line was locked for.
    own: usize,
    /// Lanes of the line that are slots (below the array's capacity).
    lanes: usize,
}

impl LineGuard<'_> {
    /// The lane of the slot the line was locked for.
    pub fn own(&self) -> usize {
        self.own
    }

    /// The line's version word and keys, read under the lock: the word is
    /// the holder's to write now, and its lock's Acquire ordered it after
    /// the last unlock.
    fn view(&self) -> (u64, [u64; LANES]) {
        let v = self.line.version.load(Ordering::Relaxed);
        (v, Line::words(&self.line.key))
    }

    /// The lane holding `key`, and its value.
    pub fn find(&self, key: u64) -> Option<(usize, u64)> {
        let (v, k) = self.view();
        let hits = hits(v, k, key);
        (hits != 0).then(|| {
            let lane = lane_of(hits);
            (lane, self.line.value[lane].load(Ordering::Acquire))
        })
    }

    /// The reader's `verdict` on `key`, whose own lane this is, from the
    /// locked line: what [`SlotArray::probe`] says of it. Writers ask it
    /// for a key [`LineGuard::find`] did not find: `Art` is "it may be in
    /// ART".
    pub fn probe(&self, key: u64) -> Probe {
        let (v, k) = self.view();
        verdict(self.line, v, k, self.own, key)
    }

    /// The line's entries ascending by key, a lane with no live key as
    /// key 0: [`SlotArray::read_sorted`]'s view, under the lock.
    pub fn sorted(&self) -> [(u64, u64); LANES] {
        sort7(Line::words(&self.line.key), Line::words(&self.line.value))
    }

    /// The lane a key that is in no lane of this line should take: its
    /// own lane unless a live key holds it, else a tombstone, else an
    /// `Empty` lane (which some other key predicts, and would find
    /// claimed), else none.
    pub fn free_lane(&self) -> Option<usize> {
        let (v, k) = self.view();
        let is_claimed = |l: usize| v & claimed(l) != 0;
        if !is_claimed(self.own) || k[self.own] == 0 {
            return Some(self.own);
        }
        let lanes = 0..self.lanes;
        lanes
            .clone()
            .find(|&l| is_claimed(l) && k[l] == 0)
            .or_else(|| lanes.into_iter().find(|&l| !is_claimed(l)))
    }

    /// `lane` as a test observes it.
    pub fn slot(&self, lane: usize) -> SlotState {
        let (v, k) = self.view();
        let value = self.line.value[lane].load(Ordering::Acquire);
        SlotState::of(v & claimed(lane) != 0, k[lane], value)
    }

    /// Set `bits` in the line's version word. Only the holder writes a
    /// locked word, and the unlock's Release publishes the bits with the
    /// key and value writes before it.
    fn mark(&self, bits: u64) {
        let version = &self.line.version;
        version.store(version.load(Ordering::Relaxed) | bits, Ordering::Relaxed);
    }

    /// Install `(key, value)` in `lane`, claiming it. Callers decide from
    /// [`LineGuard::find`] and [`LineGuard::free_lane`] first; installing
    /// over a live *different* key would lose its entry.
    pub fn install(&self, lane: usize, key: u64, value: u64) {
        debug_assert_ne!(key, 0);
        debug_assert!(lane < self.lanes, "lane past the array's capacity");
        let (k, v) = (&self.line.key[lane], &self.line.value[lane]);
        if self.line.version.load(Ordering::Relaxed) & claimed(lane) != 0 {
            k.store(key, Ordering::Release);
            // Tombstone reclaim by a *different* key: the window between
            // the two stores is where skipped read-side re-validation
            // leaks the old resident's value.
            probe::chaos::point("slots.claim.tombstone_write");
            v.store(value, Ordering::Release);
        } else {
            k.store(key, Ordering::Release);
            probe::chaos::point("slots.claim.mid_write");
            v.store(value, Ordering::Release);
            self.mark(claimed(lane));
        }
    }

    /// Overwrite `lane`'s value, leaving its key in place.
    pub fn set_value(&self, lane: usize, value: u64) {
        self.line.value[lane].store(value, Ordering::Release);
    }

    /// Tombstone `lane` (key := 0).
    pub fn clear(&self, lane: usize) {
        self.line.key[lane].store(0, Ordering::Release);
    }

    /// Set the line's spill bit: a key predicted into it is about to go to
    /// ART. Under the lock, before the ART insert, so a reader whose
    /// snapshot validates after this holder's unlock sees it.
    pub fn spill(&self) {
        self.mark(SPILL);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slot `i`'s state and the version it was read at, through the one
    /// optimistic read of its line.
    fn read(s: &SlotArray, i: usize) -> (SlotState, u64) {
        let lane = i % LANES;
        s.snapshot(
            i,
            |_| None,
            |line, v, key| {
                let value = line.value[lane].load(Ordering::Acquire);
                SlotState::of(v & claimed(lane) != 0, key[lane], value)
            },
        )
    }

    /// Whether slot `i`'s line has spilled.
    fn spilled(s: &SlotArray, i: usize) -> bool {
        s.version(i) & SPILL != 0
    }

    /// The shape of every slot write: decide under the line's lock. This
    /// one installs in slot `i` itself unless a live key holds it.
    fn put(s: &SlotArray, i: usize, key: u64, value: u64) -> bool {
        s.with_line(i, |g| match g.slot(g.own()) {
            SlotState::Occupied { .. } => false,
            SlotState::Empty | SlotState::Tombstone => {
                g.install(g.own(), key, value);
                true
            }
        })
    }

    /// Tombstone slot `i` if it holds `key`, as `remove` does; returns the
    /// removed value.
    fn take(s: &SlotArray, i: usize, key: u64) -> Option<u64> {
        s.with_line(i, |g| match g.slot(g.own()) {
            SlotState::Occupied { key: k, value } if k == key => {
                g.clear(g.own());
                Some(value)
            }
            _ => None,
        })
    }

    #[test]
    fn seven_slots_share_each_bucket_and_nothing_past_the_capacity_is_a_slot() {
        for capacity in (1..=15).chain([6_998, 6_999, 7_000]) {
            let s = SlotArray::new(capacity);
            assert_eq!(SlotArray::footprint(capacity), capacity.div_ceil(7) * 128);
            for i in 0..capacity {
                let (line, lane) = (s.line(i), i % 7);
                let addr = |word: &AtomicU64| word as *const AtomicU64 as usize;
                let bucket = addr(&line.version) / 128;
                assert_eq!(
                    bucket - s.lines as usize / 128,
                    i / 7,
                    "slot {i} of {capacity}"
                );
                // The word and the keys in the first cache line, the values
                // in the second.
                for (word, half) in [
                    (&line.version, 0),
                    (&line.key[lane], 0),
                    (&line.value[lane], 1),
                ] {
                    assert_eq!(addr(word) / 64, bucket * 2 + half, "slot {i} of {capacity}");
                    assert_eq!(
                        (addr(word) + 7) / 64,
                        bucket * 2 + half,
                        "slot {i} of {capacity}"
                    );
                }
            }
            // Claim the last bucket's spare lanes behind the array's back,
            // with keys: alone they do not make the bucket held, and beside
            // claimed slots a walk still stops at the last slot.
            let last = s.lines().last().unwrap();
            for lane in (capacity - 1) % 7 + 1..LANES {
                last.key[lane].store(u64::MAX - lane as u64, Ordering::Relaxed);
                last.version.fetch_or(claimed(lane), Ordering::Relaxed);
            }
            assert_eq!(s.walk(0, usize::MAX).next(), None, "capacity {capacity}");
            for i in 0..capacity {
                assert!(s.place_unsync(i, i as u64 + 1, 0));
            }
            let walk: Vec<usize> = s.walk(0, usize::MAX).collect();
            assert_eq!(walk, (0..capacity).step_by(7).collect::<Vec<_>>());
            let mut live = Vec::new();
            s.for_each_live(|i, _, _| live.push(i));
            assert_eq!(
                live,
                (0..capacity).collect::<Vec<_>>(),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn a_walk_matches_a_slot_by_slot_filter_from_any_lane() {
        let s = SlotArray::new(200);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                assert!(put(&s, i, i as u64 + 1, 1));
            }
        }
        let empty: Vec<bool> = (0..200)
            .map(|i| read(&s, i).0 == SlotState::Empty)
            .collect();
        // Slot 101's bucket lock holds slots 98 to 104. The walk yields
        // the first slot of each bucket of the window with a held slot,
        // whichever lanes the window starts and ends at.
        s.with_line(101, |_| {
            for from in 0..200 {
                for to in from..(from + 250).min(260) {
                    let mut expect: Vec<usize> = (from / 7 * 7..(to.min(199) / 7 * 7 + 7).min(200))
                        .filter(|&i| (98..=104).contains(&i) || !empty[i])
                        .map(|i| i / 7 * 7)
                        .collect();
                    expect.dedup();
                    let walk: Vec<usize> = s.walk(from, to).collect();
                    assert_eq!(walk, expect, "{from}..={to}");
                }
            }
        });
    }

    #[test]
    fn every_array_starts_on_a_cache_line() {
        // On a bucket's boundary, which is a pair of cache lines'.
        let aligned = |s: &SlotArray| (s.lines as usize).is_multiple_of(128);
        for capacity in (1..=7).chain([64, 65, 777]) {
            assert!(aligned(&SlotArray::new(capacity)), "heap, {capacity}");
        }
        let heap = SlotArray::for_group(&[5, 64, 65]);
        assert!(heap.iter().all(aligned), "a heap group");
        assert!(!Arc::ptr_eq(heap[0].region(), heap[1].region()));
        // 34.7 MB together: one shared mapped region.
        let mapped = SlotArray::for_group(&[1_000_000, 900_000]);
        assert!(Arc::ptr_eq(mapped[0].region(), mapped[1].region()));
        assert!(mapped.iter().all(aligned), "a mapped group");
        let (a, b, _) = carved_pair(100, 7);
        assert!(aligned(&a) && aligned(&b), "carved from a mapped region");
    }

    #[test]
    fn empty_then_install_then_read() {
        let s = SlotArray::new(8);
        assert_eq!(read(&s, 3).0, SlotState::Empty);
        assert!(put(&s, 3, 42, 420));
        assert_eq!(
            read(&s, 3).0,
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
        assert_eq!(read(&s, 0).0, SlotState::Occupied { key: 7, value: 70 });
    }

    #[test]
    fn tombstone_lifecycle() {
        let s = SlotArray::new(4);
        put(&s, 1, 9, 90);
        assert_eq!(take(&s, 1, 8), None, "wrong key");
        assert_eq!(take(&s, 1, 9), Some(90));
        assert_eq!(read(&s, 1).0, SlotState::Tombstone);
        // A tombstone can be re-claimed by any key.
        assert!(put(&s, 1, 11, 110));
        assert_eq!(
            read(&s, 1).0,
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
        let (_, v0) = read(&s, 0);
        s.with_line(0, |g| g.set_value(0, 2));
        assert_eq!(read(&s, 0).0, SlotState::Occupied { key: 5, value: 2 });
        assert!(
            !s.version_unchanged(0, v0),
            "a reader of the old value must notice"
        );
    }

    #[test]
    fn versions_move_on_writes_only() {
        let s = SlotArray::new(2);
        let (_, v0) = read(&s, 0);
        let (_, v0b) = read(&s, 0);
        assert_eq!(v0, v0b, "reads do not bump versions");
        put(&s, 0, 1, 1);
        assert!(!s.version_unchanged(0, v0));
        let (_, v1) = read(&s, 0);
        assert!(v1 > v0);
        assert_eq!(v1 % 2, 0, "published versions are even");
    }

    #[test]
    fn a_lock_only_round_trip_leaves_a_slot_empty() {
        // The round trip of the retrain's sweep and of an escalated read.
        let s = SlotArray::new(8);
        let (_, v0) = read(&s, 3);
        s.with_line(3, |g| assert_eq!(g.slot(0), SlotState::Empty));
        let (state, v1) = s.locked(3, |g| g.slot(0));
        assert_eq!(state, SlotState::Empty);
        assert_eq!(v1, s.version(3), "the lock returns the word it stored");
        assert_ne!(v1, v0, "each unlock counts a write");
        assert_eq!(v1 % 2, 0);
        assert_eq!(read(&s, 3), (SlotState::Empty, v1));
        assert!(all_empty(&s), "the walk skips an unclaimed slot");
    }

    #[test]
    fn a_walk_yields_a_slot_held_for_its_first_claim() {
        let s = SlotArray::new(100);
        s.with_line(72, |g| {
            assert_eq!(s.walk(0, 99).collect::<Vec<_>>(), [70], "locked");
            g.install(1, 7, 70);
            assert_eq!(s.walk(0, 99).collect::<Vec<_>>(), [70]);
        });
        assert_eq!(s.walk(0, 99).collect::<Vec<_>>(), [70], "claimed");
        assert_eq!(read(&s, 71).0, SlotState::Occupied { key: 7, value: 70 });
    }

    #[test]
    fn a_walk_covers_exactly_its_window() {
        let s = SlotArray::new(200);
        for i in [3, 64, 70, 130, 199] {
            put(&s, i, i as u64 + 1, 1);
        }
        // Buckets 0, 9, 10, 18 and 28: a window's edge buckets count
        // whole.
        let walk = |from, to| s.walk(from, to).collect::<Vec<_>>();
        assert_eq!(walk(0, 199), [0, 63, 70, 126, 196]);
        assert_eq!(walk(7, 125), [63, 70]);
        assert_eq!(walk(6, 126), [0, 63, 70, 126]);
        assert_eq!(walk(70, 70), [70]);
        assert_eq!(walk(131, 500), [126, 196], "clamped to the last slot");
        assert_eq!(walk(71, 70), [] as [usize; 0]);
    }

    #[test]
    fn an_unlock_keeps_the_claim_across_a_count_wrap() {
        let s = SlotArray::new(1);
        // Unclaimed, at the highest count: the first claim's unlock wraps.
        let top = !(WRITE - 1);
        s.line(0).version.store(top, Ordering::Relaxed);
        assert!(put(&s, 0, 5, 50));
        let (state, v) = read(&s, 0);
        assert_eq!(state, SlotState::Occupied { key: 5, value: 50 });
        assert_eq!(v % 2, 0);
        // Claimed, at the highest count: a lock-only round trip wraps.
        s.line(0).version.store(top | claimed(0), Ordering::Relaxed);
        s.with_line(0, |_| ());
        assert_eq!(read(&s, 0).0, SlotState::Occupied { key: 5, value: 50 });
        assert_eq!(s.walk(0, 0).collect::<Vec<_>>(), [0]);
    }

    /// Install `key` in `lane` of slot `i`'s line under its lock.
    fn put_lane(s: &SlotArray, i: usize, lane: usize, key: u64) {
        s.with_line(i, |g| g.install(lane, key, key * 10));
    }

    #[test]
    fn the_verdict_reads_every_lane_then_the_own_lane_then_the_spill_bit() {
        // Bucket 1 is slots 7 to 13: keys 30 and 40 own slots 7 and 8, key
        // 50 sits in lane 2 (slot 9) though it predicts slot 8.
        let s = SlotArray::new(21);
        put_lane(&s, 7, 0, 30);
        put_lane(&s, 8, 1, 40);
        put_lane(&s, 8, 2, 50);
        let verdict = |i: usize, key: u64| match s.probe(i, key).0 {
            Probe::Hit(v) => Some(v),
            Probe::Absent => None,
            Probe::Art => Some(u64::MAX),
        };
        assert_eq!(verdict(8, 50), Some(500), "a hit in another lane");
        assert_eq!(verdict(7, 40), Some(400), "from any claimed own lane");
        assert_eq!(
            verdict(8, 41),
            None,
            "own lane claimed, bucket never spilled"
        );
        s.with_line(8, |g| g.spill());
        assert_eq!(verdict(8, 41), Some(u64::MAX), "past the spill bit: ART");
        assert_eq!(verdict(15, 41), None, "the spill bit is the bucket's own");
        assert_eq!(verdict(10, 41), None, "own lane never claimed");
        take(&s, 8, 40);
        assert_eq!(verdict(8, 41), Some(u64::MAX), "a tombstone is claimed");
        assert_eq!(verdict(8, 50), Some(500));
        assert!(spilled(&s, 13));
        s.with_line(9, |g| {
            assert_eq!(g.own(), 2);
            assert_eq!(g.find(50), Some((2, 500)));
            assert_eq!(
                g.sorted().map(|e| e.0),
                [0, 0, 0, 0, 0, 30, 50],
                "a tombstone reads key 0, as do unclaimed lanes"
            );
            assert_eq!(g.sorted()[5..], [(30, 300), (50, 500)]);
        });
    }

    #[test]
    fn the_reader_and_the_lock_holder_give_one_verdict() {
        // Every unlocked word of a bucket of one to seven lanes — each of
        // its claimed masks, spilled or not — every own lane, and every
        // placement of the looked-for key: in no lane or in one claimed
        // lane, each other claimed lane holding another key or a
        // tombstone (an unclaimed lane's key is 0). The optimistic probe
        // and the lock holder's agree, and `find` names the lane of every
        // hit. A key leaves its own lane only once that lane is claimed,
        // so a bucket with the key outside an unclaimed own lane is one
        // no write makes, and is skipped.
        const KEY: u64 = 7;
        let mut seen = [0usize; 3];
        for capacity in 1..=LANES {
            let s = SlotArray::new(capacity);
            let line = s.line(0);
            for mask in 0..1usize << capacity {
                let claims = (0..capacity)
                    .filter(|&l| mask >> l & 1 != 0)
                    .fold(0, |c, l| c | claimed(l));
                let places = (0..capacity).filter(|&l| mask >> l & 1 != 0);
                for at in std::iter::once(None).chain(places.map(Some)) {
                    // Which of the other claimed lanes are tombstones.
                    for dead in (0..1usize << capacity).filter(|d| d & !mask == 0) {
                        if at.is_some_and(|l| dead >> l & 1 != 0) {
                            continue;
                        }
                        for l in 0..capacity {
                            let key = match () {
                                _ if at == Some(l) => KEY,
                                _ if mask >> l & 1 == 0 || dead >> l & 1 != 0 => 0,
                                _ => 100 + l as u64,
                            };
                            line.key[l].store(key, Ordering::Relaxed);
                            line.value[l].store(1000 + l as u64, Ordering::Relaxed);
                        }
                        for spill in [0, SPILL] {
                            line.version
                                .store((5 * WRITE) | claims | spill, Ordering::Relaxed);
                            for own in 0..capacity {
                                if at.is_some_and(|l| l != own) && claims & claimed(own) == 0 {
                                    continue;
                                }
                                let want = match at {
                                    Some(l) => Probe::Hit(1000 + l as u64),
                                    None if claims & claimed(own) == 0 || spill == 0 => {
                                        Probe::Absent
                                    }
                                    None => Probe::Art,
                                };
                                let case = || {
                                    format!("mask {mask:b}, dead {dead:b}, key at {at:?}, spill {spill}, own {own}")
                                };
                                assert_eq!(s.probe(own, KEY).0, want, "reader, {}", case());
                                let (held, found) =
                                    s.with_line(own, |g| (g.probe(KEY), g.find(KEY)));
                                assert_eq!(held, want, "lock holder, {}", case());
                                let hit = found.map(|(lane, value)| (lane, Probe::Hit(value)));
                                assert_eq!(hit, at.map(|l| (l, want)), "find, {}", case());
                                // The holder's unlock counted a write.
                                line.version
                                    .store((5 * WRITE) | claims | spill, Ordering::Relaxed);
                                seen[match want {
                                    Probe::Hit(_) => 0,
                                    Probe::Absent => 1,
                                    Probe::Art => 2,
                                }] += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every verdict reached: {seen:?}"
        );
    }

    /// The `n`th of the 5,040 orders of `keys` (`n` in factorial base).
    fn nth_order(keys: [u64; LANES], mut n: usize) -> [u64; LANES] {
        let mut rest = keys.to_vec();
        std::array::from_fn(|i| {
            let pick = n % (LANES - i);
            n /= LANES - i;
            rest.remove(pick)
        })
    }

    #[test]
    fn sort7_orders_every_permutation_of_seven_keys() {
        const KEYS: [u64; LANES] = [10, 20, 30, 40, 50, 60, 70];
        let mut orders = std::collections::HashSet::new();
        for n in 0..5_040 {
            let lanes = nth_order(KEYS, n);
            orders.insert(lanes);
            let sorted = sort7(lanes, lanes.map(|k| k * 10));
            assert_eq!(sorted, KEYS.map(|k| (k, k * 10)), "{lanes:?}");
        }
        assert_eq!(orders.len(), 5_040, "every order once");
        // Dead lanes (key 0, a tombstone's value left behind) sort first,
        // in lane order, the live keys after them in order, whichever
        // lanes are dead.
        for dead in 0..1usize << LANES {
            for n in (0..5_040).step_by(97) {
                let lanes = nth_order(KEYS, n);
                let key: [u64; LANES] =
                    std::array::from_fn(|l| if dead >> l & 1 == 1 { 0 } else { lanes[l] });
                let value = std::array::from_fn(|l| 1_000 + l as u64);
                let mut want: Vec<(u64, u64)> = key.into_iter().zip(value).collect();
                want.sort_by_key(|e| e.0);
                assert_eq!(sort7(key, value)[..], want[..], "{key:?}");
            }
        }
    }

    #[test]
    fn a_line_lists_its_keys_ascending_whatever_their_lanes() {
        let s = SlotArray::new(7);
        assert_eq!(s.read_sorted(0), [(0, 0); LANES], "no live key reads 0");
        for (lane, key) in [(0, 30), (1, 10), (2, 20)] {
            put_lane(&s, 0, lane, key);
        }
        let mut walk = Vec::new();
        s.for_each_live(|i, k, _| walk.push((i, k)));
        assert_eq!(walk, [(0, 30), (1, 10), (2, 20)], "slot order");

        const KEYS: [u64; LANES] = [10, 20, 30, 40, 50, 60, 70];
        for n in (0..5_040).step_by(13) {
            let lanes = nth_order(KEYS, n);
            let s = SlotArray::new(7);
            for (lane, key) in lanes.into_iter().enumerate() {
                put_lane(&s, 0, lane, key);
            }
            assert_eq!(s.read_sorted(1), KEYS.map(|k| (k, k * 10)));
            assert_eq!(s.with_line(1, |g| g.sorted()), s.read_sorted(1));
            // A tombstone reads key 0, ahead of the live keys.
            assert_eq!(take(&s, 1, lanes[1]), Some(lanes[1] * 10));
            let mut rest = lanes;
            rest[1] = 0;
            rest.sort_unstable();
            assert_eq!(s.read_sorted(1).map(|e| e.0), rest);
            assert_eq!(
                s.with_line(1, |g| g.sorted()),
                s.read_sorted(1),
                "lanes {lanes:?}, lane 1 removed"
            );
        }
    }

    #[test]
    fn the_build_takes_a_free_lane_of_the_line_then_spills() {
        // Capacity 9: bucket 1 has two lanes, slots 7 and 8.
        let s = SlotArray::new(9);
        assert!(s.place_unsync(7, 1, 1));
        assert!(!s.place_unsync(7, 2, 2), "own lane taken");
        assert!(s.place_in_line_unsync(7, 2, 2), "lane 1 is free");
        assert!(!s.place_in_line_unsync(7, 3, 3), "no lane left");
        assert!(spilled(&s, 7));
        assert!(!spilled(&s, 0), "another bucket");
        assert_eq!(
            s.with_line(8, |g| g.slot(2)),
            SlotState::Empty,
            "the spare lane is never a slot"
        );
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn a_free_lane_is_the_own_one_then_a_tombstone_then_an_empty_one() {
        let s = SlotArray::new(9);
        let free = |i: usize| s.with_line(i, |g| g.free_lane());
        assert_eq!(free(1), Some(1), "own lane empty");
        put_lane(&s, 1, 1, 7);
        assert_eq!(free(1), Some(0), "an empty lane");
        put_lane(&s, 1, 2, 8);
        take(&s, 2, 8);
        assert_eq!(free(1), Some(2), "a tombstone before an empty lane");
        assert_eq!(free(2), Some(2), "own tombstone");
        put_lane(&s, 1, 0, 9);
        put_lane(&s, 1, 2, 10);
        assert_eq!(free(1), Some(3), "the first empty lane");
        for lane in 3..LANES {
            put_lane(&s, 1, lane, 10 + lane as u64);
        }
        assert_eq!(free(1), None, "full bucket");
        // Bucket 1 of capacity 9 has lanes 0 and 1 only.
        put_lane(&s, 7, 0, 21);
        put_lane(&s, 7, 1, 22);
        assert_eq!(free(8), None, "the spare lanes are not free");
    }

    #[test]
    fn a_write_to_one_lane_moves_every_lanes_version() {
        // A reader's ART miss re-checks the version of its own slot's
        // bucket, so a writer of any other lane of the bucket must move it.
        let s = SlotArray::new(7);
        let before: Vec<u64> = (0..7).map(|i| s.version(i)).collect();
        put_lane(&s, 6, 6, 5);
        for (i, v) in before.into_iter().enumerate() {
            assert!(!s.version_unchanged(i, v), "lane {i}");
        }
        assert_eq!(read(&s, 0).0, SlotState::Empty, "lanes 0 to 5 unclaimed");
    }

    #[test]
    fn a_sweep_at_lane_0_waits_for_a_writer_of_lane_2() {
        // A writer whose key predicts lane 2 holds the whole bucket, so a
        // sweep that locks the bucket for lane 0 waits for it and then
        // sees the writer's install (DESIGN.md §14).
        use std::sync::atomic::AtomicBool;
        let s = SlotArray::new(14);
        let done = AtomicBool::new(false);
        let (held_tx, held) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.with_line(9, |g| {
                    held_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    g.install(g.own(), 77, 770);
                    done.store(true, Ordering::Relaxed);
                })
            });
            held.recv().unwrap();
            assert_eq!(s.walk(7, 13).collect::<Vec<_>>(), [7], "locked");
            let swept = s.with_line(7, |g| {
                assert!(done.load(Ordering::Relaxed), "the sweep passed a held line");
                g.sorted()
            });
            assert_eq!(swept[..6], [(0, 0); 6]);
            assert_eq!(swept[6], (77, 770));
        });
    }

    #[test]
    fn a_read_past_its_retry_budget_takes_the_line_lock_and_its_version() {
        // A writer holds bucket 1 far past the reader's whole retry budget
        // (a few ms of spins, yields and parks), so the probe escalates to
        // the line lock and returns once the writer releases, with the
        // word its own unlock stored: the writer's unlock counted one
        // write, the reader's a second.
        let s = SlotArray::new(14);
        let (held_tx, held) = std::sync::mpsc::channel();
        let (verdict, v) = std::thread::scope(|scope| {
            scope.spawn(|| {
                s.with_line(8, |g| {
                    held_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(500));
                    g.install(g.own(), 44, 440);
                })
            });
            held.recv().unwrap();
            s.probe(8, 44)
        });
        assert!(matches!(verdict, Probe::Hit(440)), "{verdict:?}");
        assert_eq!(v, claimed(1) + 2 * WRITE, "the escalated read's unlock");
        assert!(s.version_unchanged(8, v), "no write since");
        assert!(s.version_unchanged(13, v), "one word for the bucket");
        assert_eq!(read(&s, 7).0, SlotState::Empty);
        assert!(
            s.version_unchanged(8, v),
            "an optimistic read writes nothing"
        );
        put_lane(&s, 9, 2, 55);
        assert!(!s.version_unchanged(8, v), "a write to another lane");
    }

    #[test]
    fn slot_and_model_sizes_are_pinned() {
        // What the cache-line counts of a slot hit (DESIGN.md §3) and the
        // model header's layout are reasoned from.
        assert_eq!(std::mem::size_of::<Line>(), 128);
        assert_eq!(std::mem::align_of::<Line>(), 128);
        assert_eq!(std::mem::size_of::<SlotArray>(), 24);
        assert_eq!(std::mem::size_of::<crate::model::GplModel>(), 72);
    }

    #[test]
    fn place_unsync_respects_occupancy() {
        let s = SlotArray::new(4);
        assert!(s.place_unsync(2, 5, 50));
        assert!(!s.place_unsync(2, 6, 60), "occupied slot rejects placement");
        assert_eq!(read(&s, 2).0, SlotState::Occupied { key: 5, value: 50 });
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
            if let (SlotState::Occupied { key, value }, _) = read(&s, 0) {
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
        (0..s.capacity()).all(|i| read(s, i).0 == SlotState::Empty)
            && s.walk(0, usize::MAX).next().is_none()
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
        // A's last slots are lanes 0 and 1 of its 15th bucket; B starts on
        // the next.
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
            assert_eq!(read(&b, i).0, SlotState::Occupied { key, value });
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
        // fb 500k, seed 7: 34.4 MiB of slot arrays. One build thread
        // is one group, carved from one shared region; two are two ~17 MiB
        // groups of heap arrays. Both give the same pinned layout. The key
        // count was 400k until slots came three to a line: its arrays
        // shrank to 31.5 MiB, below `SHARED_REGION_MIN`, so it grew to
        // 450k and kept one shared region, which moved both digests. The
        // second fill pass, which seats an evicted key in a free lane of
        // its line, moved the layout digest again and left the spans
        // alone. Seven lanes to a 128-byte bucket shrank 450k's arrays to
        // 30.8 MiB, so it grew to 500k, which moved both digests again.
        let pairs = datasets::generate_pairs(datasets::Dataset::Fb, 500_000, 7);
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
            assert_eq!(idx.learned_layout_digest(), 0x186b_e3f6_43e7_edcc);
            assert_eq!(spans_digest(&spans), 0xfdf5_9d51_63dd_50e8);
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
