//! Slot arrays for GPL models: the learned layer's storage, with the
//! paper's slot-granularity optimistic concurrency (§III-E) taken to the
//! bucket.
//!
//! An array is a run of 128-byte `Bucket`s of seven lanes each. A bucket
//! is two cache lines, its version word and seven keys in the first and
//! its seven values in the second. It is what a model predicts (DESIGN.md
//! §3 "A line is a bucket"): the placement function's position divided by
//! seven, clamped to the last bucket ([`SlotArray::bucket_at`]). A key
//! lives in some lane of its predicted bucket or, once that bucket
//! spilled, in ART. The lane count is this module's alone: the rest of the
//! crate counts buckets, and a build's plan counts positions, which the
//! array turns into buckets when it is made. A bucket keeps its
//! live keys sorted: they fill lanes `0..n` ascending, and every lane from
//! `n` up holds key 0. So the bucket is what a reader snapshots and what a
//! writer locks, and its whole state is one atomic version word beside
//! its keys and values: bit 0 is the writer's lock (odd = a writer is in
//! progress), bits 1–3 are the live count `n`, bit 4 is the bucket's
//! *spill bit*, set before a key predicted into the bucket goes to ART,
//! and the bits from 5 up count writes. A writer CASes the lock bit on,
//! decides over the bucket, shifts keys to keep them sorted, and stores
//! the word unlocked with one more write counted; a reader loads the word
//! (retrying while it is locked), reads the bucket, and re-loads the word.
//!
//! A bucket has one view: its word and its seven keys. The optimistic
//! read ([`SlotArray::probe`]) and the lock holder ([`BucketGuard::probe`])
//! give a key the same verdict from them through one function, `verdict`;
//! a writer's [`BucketGuard::find`] reads the same keys; and the scan's
//! [`SlotArray::read_bucket`] and the retrain's [`BucketGuard::entries`]
//! take lanes `0..n` as they are, already in key order.
//!
//! Storage is a [`Region`] of zeroed memory, and nothing here ever writes
//! the zeros: all-zero memory *is* an array of empty buckets (word 0 is
//! unlocked, empty and unspilled). A bulk-load group large enough carves
//! all its arrays out of one huge-page region ([`SlotArray::for_group`]);
//! anything smaller gets a heap region per array.

use prefetch::pages::Region;
use probe::chaos::Mutation;
use probe::metrics::{self, Counter};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most cache lines one [`SlotArray::prefetch_window`] call asks for.
const PREFETCH_LINES: usize = 16;

/// Lanes per bucket: the most keys it holds.
const LANES: usize = 7;

/// Bytes of one [`Bucket`]: two cache lines.
const BUCKET: usize = std::mem::size_of::<Bucket>();

/// Bytes of a cache line: the offset of a bucket's values.
const CACHE_LINE: usize = 64;

/// Version bit 0: a writer holds the bucket.
const LOCKED: u64 = 1;
/// Version bits 1–3: the live count, in units of `ONE`.
const COUNT: u64 = 0b1110;
/// One live key in the count bits.
const ONE: u64 = 1 << 1;
/// Version bit 4: a key predicted into the bucket went to ART. Set under
/// the lock (or by the private build), never cleared.
const SPILL: u64 = 1 << 4;
/// What each unlock adds: one write, counted above the flag bits.
const WRITE: u64 = 1 << 5;

/// The live count `n` of word `v`: lanes `0..n` hold the bucket's keys.
#[inline(always)]
fn count(v: u64) -> usize {
    ((v & COUNT) / ONE) as usize
}

/// Smallest group of arrays [`SlotArray::for_group`] maps as one shared
/// huge-page region: glibc's largest mmap threshold on 64-bit. A request
/// that big is a fresh `mmap` inside `malloc` anyway, so mapping it
/// ourselves gives up no reuse of freed heap memory. Below it, per-array
/// heap blocks reuse memory the process freed earlier: one shared region
/// for `serve_zipf`'s small groups raised its `rss_bytes_per_key` 22 → 30,
/// where glibc had been serving the arrays from memory set-up freed.
pub const SHARED_REGION_MIN: usize = 32 << 20;

/// What a reader looking for one key concludes from the bucket the model
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

/// Bit `l` set for each lane `l` of keys `k` that holds `key`, with no
/// branch per lane: a debug build's get is this code as written, and
/// tests race it. A lane at or past the live count holds key 0, which is
/// never a key, so every lane may be compared.
#[inline(always)]
fn hits(k: [u64; LANES], key: u64) -> u32 {
    let hit = |l: usize| u32::from(k[l] == key) << l;
    hit(0) | hit(1) | hit(2) | hit(3) | hit(4) | hit(5) | hit(6)
}

/// The verdict on a key no lane holds, from word `v`: ART past the spill
/// bit, else absent.
#[inline(always)]
fn miss(v: u64) -> Probe {
    if v & SPILL == 0 {
        Probe::Absent
    } else {
        Probe::Art
    }
}

/// The one verdict on `key` over `bucket` as its word `v` and keys `k`
/// spell it (DESIGN.md §3 "A line is a bucket"): the value if a lane holds
/// the key; else ART if the bucket spilled; else absent. The optimistic
/// read ([`SlotArray::probe`]) and a read under the bucket lock
/// ([`BucketGuard::probe`]) both give it, and it loads only the matching
/// lane's value.
#[inline(always)]
fn verdict(bucket: &Bucket, v: u64, k: [u64; LANES], key: u64) -> Probe {
    match hits(k, key) {
        0 => miss(v),
        hits => Probe::Hit(bucket.value[hits.trailing_zeros() as usize].load(Ordering::Acquire)),
    }
}

/// Seven slots in one bucket under one version word, each other field
/// indexed by lane: the word and the keys fill the first cache line, the
/// values the second (and 8 bytes of padding).
#[repr(C, align(128))]
struct Bucket {
    version: AtomicU64,
    key: [AtomicU64; LANES],
    value: [AtomicU64; LANES],
}

impl Bucket {
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

    /// The bucket's entries lane by lane, and its live count from word
    /// `v`: lanes `0..n` are its keys, ascending.
    #[inline(always)]
    fn entries(&self, v: u64, key: [u64; LANES]) -> ([(u64, u64); LANES], usize) {
        let value = Self::words(&self.value);
        (std::array::from_fn(|l| (key[l], value[l])), count(v))
    }
}

/// A fixed-length array of versioned buckets.
///
/// The `len` buckets live in `region` at `buckets`: a raw pointer kept in
/// the struct itself, so a probe loads it from the model as it loaded a
/// `Box<[Bucket]>`'s, with no hop through the `Arc`.
pub struct SlotArray {
    buckets: *const Bucket,
    len: usize,
    region: Arc<Region>,
}

// SAFETY: the pointer addresses memory owned by `region` (kept alive by
// the `Arc` beside it) and reserved for this array alone by `carve`; it
// holds only atomics, so sharing or sending the array is sharing or
// sending a `Box<[Bucket]>`, which is both.
unsafe impl Send for SlotArray {}
// SAFETY: as above.
unsafe impl Sync for SlotArray {}

impl SlotArray {
    /// An empty array for a plan of `positions` predicted positions, in
    /// a heap region of its own. The heap block is only word-aligned
    /// (`Region::heap`), so it is over-allocated by the most that aligning
    /// its start to a bucket can skip, and [`SlotArray::carve`] starts at
    /// the first 128-byte boundary.
    pub fn new(positions: usize) -> Self {
        let slack = BUCKET - std::mem::align_of::<u64>();
        let region = Region::heap(Self::footprint(positions) + slack);
        Self::carve(region, &[positions]).pop().expect("one array")
    }

    /// Empty arrays for the given plans, for one bulk-load group: all
    /// carved from one huge-page region when they take at least
    /// [`SHARED_REGION_MIN`] bytes together (and the kernel maps it),
    /// otherwise each in a heap region of its own ([`SlotArray::new`]).
    pub fn for_group(positions: &[usize]) -> Vec<Self> {
        let bytes: usize = positions.iter().map(|&p| Self::footprint(p)).sum();
        match (bytes >= SHARED_REGION_MIN)
            .then(|| Region::mapped(bytes))
            .flatten()
        {
            Some(region) => Self::carve(region, positions),
            None => positions.iter().map(|&p| Self::new(p)).collect(),
        }
    }

    /// Bytes an array planned for `positions` positions takes in a
    /// region: the positions in whole buckets of seven lanes.
    pub fn footprint(positions: usize) -> usize {
        positions.div_ceil(LANES) * BUCKET
    }

    /// Arrays for the given plans laid back to back in `region`, each
    /// [`SlotArray::footprint`] bytes, from its first 128-byte boundary on
    /// (its start, in a mapped region). The region is freed when the last
    /// of them drops. Taking it by value is what makes each array's bytes
    /// its own: no region is carved twice.
    ///
    /// Panics if a plan has no position or the arrays do not fit.
    pub fn carve(region: Region, positions: &[usize]) -> Vec<Self> {
        let region = Arc::new(region);
        assert!(
            positions.iter().all(|&p| p > 0),
            "slot array needs at least one bucket"
        );
        // Every pointer below is in bounds, aligned, and each array's
        // bytes are disjoint from the next's, because of this check.
        let start = (region.as_ptr() as usize).wrapping_neg() % BUCKET;
        let total: usize = positions.iter().map(|&p| Self::footprint(p)).sum();
        assert!(
            start + total <= region.size(),
            "slot arrays overrun their region"
        );
        let mut offset = start;
        positions
            .iter()
            .map(|&p| {
                let base = region.as_ptr().wrapping_add(offset);
                offset += Self::footprint(p);
                Self {
                    buckets: base as *const Bucket,
                    len: Self::footprint(p) / BUCKET,
                    region: Arc::clone(&region),
                }
            })
            .collect()
    }

    /// The array's buckets.
    #[inline(always)]
    fn all(&self) -> &[Bucket] {
        // SAFETY: `carve` placed `len` buckets at `buckets`, aligned and
        // inside the region this array keeps alive; the region started
        // zeroed, which is a valid `Bucket` (atomics only).
        unsafe { std::slice::from_raw_parts(self.buckets, self.len) }
    }

    /// Bucket `b`. Panics unless `b < len`.
    #[inline(always)]
    fn bucket(&self, b: usize) -> &Bucket {
        assert!(b < self.len, "bucket index out of range");
        // SAFETY: `b < len` (just checked), so bucket `b` is one of the
        // `len` buckets `carve` placed, as in `all`.
        // (A second bounds check here once kept the bucket read from being
        // inlined into `get` and the batch stage.)
        unsafe { &*self.buckets.add(b) }
    }

    /// Number of buckets.
    #[inline]
    pub fn buckets(&self) -> usize {
        self.len
    }

    /// The bucket a placement function's rounded `position` predicts: the
    /// bucket holding that position, or the last bucket past the end.
    #[inline(always)]
    pub fn bucket_at(&self, position: usize) -> usize {
        (position / LANES).min(self.len - 1)
    }

    /// The first position past bucket `b`: where a placement function
    /// stops predicting it.
    pub fn end_of(b: usize) -> usize {
        (b + 1) * LANES
    }

    /// The region this array lives in, shared with the other arrays
    /// carved from it.
    pub fn region(&self) -> &Arc<Region> {
        &self.region
    }

    /// Bytes the array takes in its region.
    pub fn memory_usage(&self) -> usize {
        self.len * BUCKET
    }

    /// Hint the CPU to fetch bucket `b` ahead of a
    /// [`SlotArray::probe`]: both its cache lines, the keys' and the
    /// values', issued together so their misses overlap
    /// (a value line asked for only once the verdict found its lane costs
    /// most of a second miss). The batched lookup issues this one ring
    /// revolution before the probe; the scalar `get` right before it.
    #[inline]
    pub fn prefetch(&self, b: usize) {
        debug_assert!(b < self.len);
        let bucket = self.buckets.wrapping_add(b) as *const u8;
        prefetch::prefetch_read(bucket);
        prefetch::prefetch_read(bucket.wrapping_add(CACHE_LINE));
    }

    /// Hint the CPU to fetch the buckets `from..=to` ahead of a walk over
    /// them, up to `PREFETCH_LINES` cache lines, both of each bucket's (a
    /// longer walk is a sequential stream the hardware picks up by
    /// itself).
    pub fn prefetch_window(&self, from: usize, to: usize) {
        let to = to
            .min(self.len - 1)
            .min(from.saturating_add(PREFETCH_LINES / 2 - 1));
        for b in from..=to {
            self.prefetch(b);
        }
    }

    /// The buckets of `from..=to` whose version word is locked or counts
    /// a live key, ascending. Each still has to go through a read; the
    /// ones left out need not — a word read neither locked nor counting a
    /// key means the bucket was empty at that load, which is what a read
    /// would have returned then.
    pub fn walk(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        let end = to.min(self.len - 1) + 1;
        let (mut base, mut bits) = (from, 0u64);
        std::iter::from_fn(move || {
            while bits == 0 {
                if base >= end {
                    return None;
                }
                bits = self.held(base, end);
                base += 64;
            }
            let bucket = base - 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(bucket)
        })
    }

    /// Bit `j` set for each bucket `first + j` below `end`, at most 64 of
    /// them, whose word is locked or counts a live key: one load per
    /// bucket and no branch on it. A walk that branched per slot cost osm's
    /// 100-key scans about a quarter more per key.
    #[inline]
    fn held(&self, first: usize, end: usize) -> u64 {
        let buckets = &self.all()[first..end.min(first + 64)];
        buckets.iter().enumerate().fold(0, |bits, (j, bucket)| {
            let v = bucket.version.load(Ordering::Acquire);
            bits | u64::from(v & (LOCKED | COUNT) != 0) << j
        })
    }

    /// Current version of bucket `b` (for later re-validation via
    /// [`SlotArray::version_unchanged`]): it moves whenever the bucket was
    /// written, whichever lane changed.
    #[inline]
    pub fn version(&self, b: usize) -> u64 {
        self.bucket(b).version.load(Ordering::Acquire)
    }

    /// Whether bucket `b`'s version still equals `snapshot`.
    #[inline]
    pub fn version_unchanged(&self, b: usize, snapshot: u64) -> bool {
        self.version(b) == snapshot
    }

    /// The one optimistic read of bucket `b`, with the version it
    /// was taken at for a later [`SlotArray::version_unchanged`]: load the
    /// word, and if `settled` answers from it alone, that is the answer;
    /// else, once the word is unlocked, load the seven keys, let `read`
    /// take what else it needs, and re-load the word. Backs off (spin →
    /// yield → park) while a writer is mid-flight; once the retry budget
    /// is exhausted it reads under the writers' own bucket lock, so the
    /// read completes even against a pathological writer schedule, and
    /// returns the word that lock's unlock stored, valid like any
    /// optimistic snapshot's.
    #[inline(always)]
    fn snapshot<R>(
        &self,
        b: usize,
        settled: impl Fn(u64) -> Option<R>,
        read: impl Fn(&Bucket, u64, [u64; LANES]) -> R,
    ) -> (R, u64) {
        let bucket = self.bucket(b);
        let mut retry = resilience::Retry::new();
        loop {
            let v = bucket.version.load(Ordering::Acquire);
            if let Some(r) = settled(v) {
                return (r, v);
            }
            if v & LOCKED == 0 {
                let key = Bucket::words(&bucket.key);
                probe::chaos::point("slots.read.between_loads");
                let r = read(bucket, v, key);
                probe::chaos::point("slots.read.pre_validate");
                // The mutation self-test can skip this re-validation
                // (chaos-mutate builds only) to prove the harness catches
                // the resulting torn reads.
                if probe::chaos::mutated(Mutation::SkipSlotRevalidation)
                    || bucket.version.load(Ordering::Acquire) == v
                {
                    return (r, v);
                }
            }
            metrics::incr(Counter::SlotReadRetry);
            if retry.wait_or_escalate(&crate::LAYER) {
                return self.escalate(b, read);
            }
        }
    }

    /// [`SlotArray::snapshot`]'s escalation: `read` under the writers' own
    /// bucket lock, with the word its unlock stored. Cold and out of line:
    /// the optimistic loop inlined into `get` carries only its call.
    #[cold]
    #[inline(never)]
    fn escalate<R>(&self, b: usize, read: impl Fn(&Bucket, u64, [u64; LANES]) -> R) -> (R, u64) {
        self.locked(b, |g| {
            let (v, key) = g.view();
            read(g.bucket, v, key)
        })
    }

    /// The reader's verdict on `key`, predicted to bucket `b`, from one
    /// snapshot of the bucket, with the version it was taken at:
    /// the one `verdict`, with no more loads than it needs — the word, the
    /// seven keys, the matching lane's value, and the word again. An
    /// empty bucket's unlocked word is the verdict with nothing to
    /// validate. Out of cache the get loop is bound by how many misses of
    /// consecutive gets overlap, so every instruction here counts:
    /// building a whole bucket view here instead cost `read_oc` about 5 %
    /// of its throughput (EXPERIMENTS.md "A line is a bucket").
    #[inline]
    pub fn probe(&self, b: usize, key: u64) -> (Probe, u64) {
        self.snapshot(
            b,
            |v| (v & (LOCKED | COUNT) == 0).then(|| miss(v)),
            |bucket, v, k| verdict(bucket, v, k, key),
        )
    }

    /// Bucket `b` as a scan walks it, from one snapshot: its seven lanes'
    /// entries and its live count `n`. Lanes `0..n` are its keys,
    /// ascending, so the walk takes them as they are.
    #[inline]
    pub fn read_bucket(&self, b: usize) -> ([(u64, u64); LANES], usize) {
        self.snapshot(b, |_| None, |bucket, v, key| bucket.entries(v, key))
            .0
    }

    /// Run `f` with bucket `b` write-locked (its version odd). The
    /// guard gives exclusive read/write access to the bucket; concurrent
    /// optimistic readers spin (or retry their validation) until `f`
    /// returns, and the unlock counts one write. The lock is released
    /// even if `f` panics.
    ///
    /// This is the per-key serialization point: every key that predicts
    /// the bucket decides here, so callers that must make a
    /// multi-step decision atomically against other writers (e.g. "insert
    /// unless the key already lives in ART") do the whole decision inside
    /// `f`.
    pub fn with_bucket<R>(&self, b: usize, f: impl FnOnce(&BucketGuard<'_>) -> R) -> R {
        self.locked(b, f).0
    }

    /// [`SlotArray::with_bucket`], with the word its unlock stored.
    fn locked<R>(&self, b: usize, f: impl FnOnce(&BucketGuard<'_>) -> R) -> (R, u64) {
        struct Unlock<'a>(&'a AtomicU64);
        impl Drop for Unlock<'_> {
            fn drop(&mut self) {
                unlock(self.0);
            }
        }
        let guard = BucketGuard {
            bucket: self.bucket(b),
        };
        lock(&guard.bucket.version);
        let held = Unlock(&guard.bucket.version);
        let r = f(&guard);
        std::mem::forget(held);
        (r, unlock(&guard.bucket.version))
    }

    /// Bulk placement during (re)construction, which pushes keys in
    /// ascending order: the array is still private to one thread, so skip
    /// the version protocol. Puts the key in the next lane of bucket `b`,
    /// or, if the bucket is full, sets its spill bit and returns `false`
    /// (the key goes to ART).
    pub fn place_unsync(&self, b: usize, key: u64, value: u64) -> bool {
        let bucket = self.bucket(b);
        let v = bucket.version.load(Ordering::Relaxed);
        let n = count(v);
        debug_assert!(n == 0 || bucket.key[n - 1].load(Ordering::Relaxed) < key);
        if n == LANES {
            bucket.version.store(v | SPILL, Ordering::Relaxed);
            return false;
        }
        bucket.key[n].store(key, Ordering::Relaxed);
        bucket.value[n].store(value, Ordering::Relaxed);
        bucket.version.store(v + ONE, Ordering::Relaxed);
        true
    }

    /// Iterate live entries bucket by bucket, yielding `(bucket, key,
    /// value)` in key order. Snapshot-consistent per bucket, not across
    /// buckets.
    pub fn for_each_live(&self, mut f: impl FnMut(usize, u64, u64)) {
        for b in self.walk(0, usize::MAX) {
            let (entries, n) = self.read_bucket(b);
            for &(key, value) in &entries[..n] {
                f(b, key, value);
            }
        }
    }

    /// Count live entries (per-bucket consistent).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.for_each_live(|_, _, _| n += 1);
        n
    }
}

/// Lock a bucket by its version word (unlocked→locked CAS, backing off).
/// The caller must follow with [`unlock`]. The wait never escalates — the
/// current holder's progress is this path's progress guarantee — but it
/// does park past the budget so a long queue stops burning CPU. (Under
/// the mutation self-test's `SharedLineLock` the CAS skips the lock bit's
/// check, so a second writer takes a held bucket.)
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

/// Release a bucket's lock: clear the lock bit and count one write,
/// keeping the count and spill bits (the write count wraps above them).
/// Returns the word stored. Only the holder writes a locked word, so its
/// own load sees the latest one.
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
            let offset = self.buckets as usize - self.region.as_ptr() as usize;
            // SAFETY: `carve` reserved `offset..offset + footprint` for
            // this array alone, `&mut self` means nothing refers into it,
            // and `release` leaves the partial pages shared with a
            // neighbour untouched.
            unsafe { self.region.release(offset, self.memory_usage()) };
        }
    }
}

/// Exclusive access to one write-locked bucket, handed to
/// [`SlotArray::with_bucket`] closures. No version dance is needed inside:
/// the bucket's version is odd for the guard's whole lifetime, so
/// optimistic readers cannot validate against anything the closure does.
pub struct BucketGuard<'a> {
    bucket: &'a Bucket,
}

impl BucketGuard<'_> {
    /// The bucket's version word and keys, read under the lock: the word
    /// is the holder's to write now, and its lock's Acquire ordered it
    /// after the last unlock.
    fn view(&self) -> (u64, [u64; LANES]) {
        let v = self.bucket.version.load(Ordering::Relaxed);
        (v, Bucket::words(&self.bucket.key))
    }

    /// The live lane (below the count) holding `key`, and its value: the
    /// lane a writer may overwrite or remove.
    pub fn find(&self, key: u64) -> Option<(usize, u64)> {
        let (v, k) = self.view();
        let lane = (hits(k, key) & ((1 << count(v)) - 1)).trailing_zeros() as usize;
        (lane < LANES).then(|| (lane, self.bucket.value[lane].load(Ordering::Acquire)))
    }

    /// The reader's `verdict` on `key` from the locked bucket: what
    /// [`SlotArray::probe`] says of it. Writers ask it for a key
    /// [`BucketGuard::find`] did not find: `Art` is "it may be in ART".
    pub fn probe(&self, key: u64) -> Probe {
        let (v, k) = self.view();
        verdict(self.bucket, v, k, key)
    }

    /// The bucket's entries and live count: [`SlotArray::read_bucket`]'s
    /// view, under the lock.
    pub fn entries(&self) -> ([(u64, u64); LANES], usize) {
        let (v, key) = self.view();
        self.bucket.entries(v, key)
    }

    /// Whether every lane holds a live key: a key that is in none of them
    /// goes to ART.
    pub fn is_full(&self) -> bool {
        count(self.view().0) == LANES
    }

    /// Move lane `from`'s entry to lane `to`.
    fn shift(&self, from: usize, to: usize) {
        let (k, v) = (&self.bucket.key, &self.bucket.value);
        k[to].store(k[from].load(Ordering::Relaxed), Ordering::Release);
        v[to].store(v[from].load(Ordering::Relaxed), Ordering::Release);
    }

    /// Store `n` live keys in the word. Only the holder writes a locked
    /// word, and the unlock's Release publishes it with the key and value
    /// writes before it.
    fn set_count(&self, v: u64, n: usize) {
        let v = (v & !COUNT) | (n as u64 * ONE);
        self.bucket.version.store(v, Ordering::Relaxed);
    }

    /// Insert `(key, value)` at its rank: the keys above it shift up one
    /// lane. Callers decide from [`BucketGuard::find`] and
    /// [`BucketGuard::is_full`] first.
    pub fn insert(&self, key: u64, value: u64) {
        let (v, k) = self.view();
        let n = count(v);
        debug_assert!(key != 0 && n < LANES);
        let at = k[..n].partition_point(|&x| x < key);
        for lane in (at..n).rev() {
            self.shift(lane, lane + 1);
        }
        // Between the shift and the new entry the key's lane holds its
        // upper neighbour: where a skipped read-side re-validation leaks
        // another key's value.
        probe::chaos::point("slots.insert.shifted");
        self.bucket.key[at].store(key, Ordering::Release);
        self.bucket.value[at].store(value, Ordering::Release);
        self.set_count(v, n + 1);
    }

    /// Overwrite `lane`'s value, leaving its key in place.
    pub fn set_value(&self, lane: usize, value: u64) {
        self.bucket.value[lane].store(value, Ordering::Release);
    }

    /// Remove `lane`'s entry: the keys above it shift down one lane, and
    /// the lane they vacate is zeroed. (The mutation self-test's
    /// `StaleVacatedLane` leaves it as it was, so the top key reads twice
    /// or a removed one stays.)
    pub fn remove(&self, lane: usize) {
        let v = self.view().0;
        let n = count(v);
        debug_assert!(lane < n);
        for lane in lane + 1..n {
            self.shift(lane, lane - 1);
        }
        probe::chaos::point("slots.remove.shifted");
        if !probe::chaos::mutated(Mutation::StaleVacatedLane) {
            self.bucket.key[n - 1].store(0, Ordering::Release);
            self.bucket.value[n - 1].store(0, Ordering::Release);
        }
        self.set_count(v, n - 1);
    }

    /// Set the bucket's spill bit: a key predicted into it is about to go
    /// to ART. Under the lock, before the ART insert, so a reader whose
    /// snapshot validates after this holder's unlock sees it.
    pub fn spill(&self) {
        let version = &self.bucket.version;
        version.store(version.load(Ordering::Relaxed) | SPILL, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestCaseError;
    use std::collections::BTreeMap;

    /// The shape of every slot write: decide under the bucket's lock. This
    /// one inserts into bucket `b` unless the key is there or the bucket
    /// is full.
    fn put(s: &SlotArray, b: usize, key: u64, value: u64) -> bool {
        s.with_bucket(b, |g| {
            let room = g.find(key).is_none() && !g.is_full();
            if room {
                g.insert(key, value);
            }
            room
        })
    }

    /// Remove `key` from bucket `b` if it is there, as `remove` does;
    /// returns the removed value.
    fn take(s: &SlotArray, b: usize, key: u64) -> Option<u64> {
        s.with_bucket(b, |g| {
            let (lane, value) = g.find(key)?;
            g.remove(lane);
            Some(value)
        })
    }

    /// Bucket `b`'s live entries, from one optimistic read.
    fn live(s: &SlotArray, b: usize) -> Vec<(u64, u64)> {
        let (entries, n) = s.read_bucket(b);
        entries[..n].to_vec()
    }

    /// Whether bucket `b` has spilled.
    fn spilled(s: &SlotArray, b: usize) -> bool {
        s.version(b) & SPILL != 0
    }

    /// The verdict on `key` in bucket `b`, a hit as its value and ART as
    /// `u64::MAX`.
    fn verdict_of(s: &SlotArray, b: usize, key: u64) -> Option<u64> {
        match s.probe(b, key).0 {
            Probe::Hit(v) => Some(v),
            Probe::Absent => None,
            Probe::Art => Some(u64::MAX),
        }
    }

    #[test]
    fn every_bucket_has_seven_lanes_in_two_cache_lines() {
        // A plan's positions in whole buckets, the last one's seven lanes
        // included, wherever the positions end.
        for positions in (1..=15).chain([6_998, 6_999, 7_000]) {
            let s = SlotArray::new(positions);
            let len = positions.div_ceil(7);
            assert_eq!(s.buckets(), len, "{positions} positions");
            assert_eq!(SlotArray::footprint(positions), len * 128);
            assert_eq!(s.memory_usage(), len * 128);
            for p in [0, positions - 1, positions, 7 * len, usize::MAX] {
                assert_eq!(s.bucket_at(p), (p / 7).min(len - 1), "position {p}");
            }
            for b in 0..len {
                let bucket = s.bucket(b);
                let addr = |word: &AtomicU64| word as *const AtomicU64 as usize;
                let first = addr(&bucket.version) / 128;
                assert_eq!(first - s.buckets as usize / 128, b, "bucket {b}");
                assert_eq!(SlotArray::end_of(b), 7 * (b + 1));
                // The word and the keys in the first cache line, the values
                // in the second.
                for lane in 0..LANES {
                    for (word, half) in [
                        (&bucket.version, 0),
                        (&bucket.key[lane], 0),
                        (&bucket.value[lane], 1),
                    ] {
                        assert_eq!(addr(word) / 64, first * 2 + half, "bucket {b}");
                        assert_eq!((addr(word) + 7) / 64, first * 2 + half, "bucket {b}");
                    }
                }
            }
            assert_eq!(s.walk(0, usize::MAX).next(), None, "{positions} positions");
            // Every bucket, the last one too, takes seven keys, and the
            // next key spills.
            for b in 0..len {
                for lane in 0..7 {
                    assert!(s.place_unsync(b, (7 * b + lane) as u64 + 1, 0));
                }
                assert!(!spilled(&s, b));
                assert!(!s.place_unsync(b, (7 * b) as u64 + 8, 0), "bucket {b}");
                assert!(spilled(&s, b));
                assert!(s.with_bucket(b, |g| g.is_full()));
            }
            let walk: Vec<usize> = s.walk(0, usize::MAX).collect();
            assert_eq!(walk, (0..len).collect::<Vec<_>>());
            let mut live = Vec::new();
            s.for_each_live(|b, key, _| live.push((b, key)));
            let want: Vec<(usize, u64)> = (0..7 * len).map(|i| (i / 7, i as u64 + 1)).collect();
            assert_eq!(live, want, "{positions} positions");
        }
    }

    #[test]
    fn a_walk_matches_a_bucket_by_bucket_filter_from_any_bucket() {
        let s = SlotArray::new(200);
        let len = s.buckets();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for b in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x.is_multiple_of(3) {
                assert!(put(&s, b, b as u64 + 1, 1));
            }
        }
        let empty: Vec<bool> = (0..len).map(|b| live(&s, b).is_empty()).collect();
        // Bucket 14 is held. The walk yields each bucket of the window
        // that is held or has a key, wherever the window starts and ends.
        s.with_bucket(14, |_| {
            for from in 0..len {
                for to in from..(from + 40).min(45) {
                    let expect: Vec<usize> = (from..=to.min(len - 1))
                        .filter(|&b| b == 14 || !empty[b])
                        .collect();
                    let walk: Vec<usize> = s.walk(from, to).collect();
                    assert_eq!(walk, expect, "{from}..={to}");
                }
            }
        });
    }

    #[test]
    fn every_array_starts_on_a_cache_line() {
        // On a bucket's boundary, which is a pair of cache lines'.
        let aligned = |s: &SlotArray| (s.buckets as usize).is_multiple_of(128);
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
        assert_eq!(live(&s, 1), []);
        assert!(put(&s, 1, 42, 420));
        assert_eq!(live(&s, 1), [(42, 420)], "in lane 0");
        assert_eq!(verdict_of(&s, 1, 42), Some(420));
    }

    #[test]
    fn a_decision_sees_the_resident_under_the_lock() {
        let s = SlotArray::new(4);
        put(&s, 0, 7, 70);
        assert!(!put(&s, 0, 7, 71), "same key");
        assert!(put(&s, 0, 8, 80), "another key takes the next lane");
        assert_eq!(live(&s, 0), [(7, 70), (8, 80)]);
    }

    #[test]
    fn remove_lifecycle() {
        let s = SlotArray::new(4);
        for key in [9, 5, 7] {
            put(&s, 0, key, key * 10);
        }
        assert_eq!(take(&s, 0, 8), None, "wrong key");
        assert_eq!(take(&s, 0, 5), Some(50));
        // The keys above it shift down, and the lane they vacate reads 0.
        assert_eq!(
            s.read_bucket(0),
            (
                [(7, 70), (9, 90), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)],
                2
            )
        );
        assert_eq!(verdict_of(&s, 0, 5), None);
        // Any key of the bucket takes its rank.
        assert!(put(&s, 0, 8, 80));
        assert_eq!(live(&s, 0), [(7, 70), (8, 80), (9, 90)]);
        assert_eq!(take(&s, 0, 9), Some(90), "the top key");
        assert_eq!(take(&s, 0, 7), Some(70), "the bottom key");
        assert_eq!(
            s.read_bucket(0),
            ([(8, 80), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0), (0, 0)], 1)
        );
        assert_eq!(take(&s, 0, 8), Some(80));
        assert!(all_empty(&s), "the walk skips an emptied bucket");
    }

    #[test]
    fn set_value_keeps_the_key() {
        let s = SlotArray::new(2);
        put(&s, 0, 5, 1);
        let v0 = s.version(0);
        s.with_bucket(0, |g| g.set_value(0, 2));
        assert_eq!(live(&s, 0), [(5, 2)]);
        assert!(
            !s.version_unchanged(0, v0),
            "a reader of the old value must notice"
        );
    }

    #[test]
    fn versions_move_on_writes_only() {
        let s = SlotArray::new(2);
        let v0 = s.version(0);
        live(&s, 0);
        assert_eq!(v0, s.version(0), "reads do not bump versions");
        put(&s, 0, 1, 1);
        assert!(!s.version_unchanged(0, v0));
        let v1 = s.version(0);
        assert!(v1 > v0);
        assert_eq!(v1 % 2, 0, "published versions are even");
    }

    #[test]
    fn a_lock_only_round_trip_leaves_a_slot_empty() {
        // The round trip of the retrain's sweep and of an escalated read.
        let s = SlotArray::new(8);
        let v0 = s.version(1);
        s.with_bucket(1, |g| assert_eq!(g.entries().1, 0));
        let (n, v1) = s.locked(1, |g| g.entries().1);
        assert_eq!(n, 0);
        assert_eq!(v1, s.version(1), "the lock returns the word it stored");
        assert_ne!(v1, v0, "each unlock counts a write");
        assert_eq!(v1 % 2, 0);
        assert_eq!(s.probe(1, 1), (Probe::Absent, v1));
        assert!(all_empty(&s), "the walk skips an empty bucket");
    }

    #[test]
    fn a_walk_yields_a_slot_held_for_its_first_claim() {
        let s = SlotArray::new(100);
        s.with_bucket(10, |g| {
            assert_eq!(s.walk(0, 14).collect::<Vec<_>>(), [10], "locked");
            g.insert(7, 70);
            assert_eq!(s.walk(0, 14).collect::<Vec<_>>(), [10]);
        });
        assert_eq!(s.walk(0, 14).collect::<Vec<_>>(), [10], "a live key");
        assert_eq!(live(&s, 10), [(7, 70)]);
    }

    #[test]
    fn a_walk_covers_exactly_its_window() {
        let s = SlotArray::new(200);
        for b in [0, 9, 10, 18, 28] {
            put(&s, b, b as u64 + 1, 1);
        }
        let walk = |from, to| s.walk(from, to).collect::<Vec<_>>();
        assert_eq!(walk(0, 28), [0, 9, 10, 18, 28]);
        assert_eq!(walk(1, 17), [9, 10]);
        assert_eq!(walk(0, 18), [0, 9, 10, 18]);
        assert_eq!(walk(10, 10), [10]);
        assert_eq!(walk(18, 500), [18, 28], "clamped to the last bucket");
        assert_eq!(walk(11, 10), [] as [usize; 0]);
    }

    #[test]
    fn an_unlock_keeps_the_claim_across_a_count_wrap() {
        let s = SlotArray::new(1);
        // Empty, at the highest write count: the first insert's unlock
        // wraps.
        let top = !(WRITE - 1);
        s.bucket(0).version.store(top, Ordering::Relaxed);
        assert!(put(&s, 0, 5, 50));
        assert_eq!(live(&s, 0), [(5, 50)]);
        assert_eq!(s.version(0) % 2, 0);
        // One live key, spilled, at the highest write count: a lock-only
        // round trip wraps and keeps both.
        s.bucket(0)
            .version
            .store(top | ONE | SPILL, Ordering::Relaxed);
        s.with_bucket(0, |_| ());
        assert_eq!(s.version(0), ONE | SPILL);
        assert_eq!(live(&s, 0), [(5, 50)]);
        assert_eq!(s.walk(0, 0).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn the_verdict_reads_every_lane_then_the_spill_bit() {
        // Keys 30, 40 and 50 take lanes 0 to 2 of bucket 1 in key order,
        // whatever order they arrive in.
        let s = SlotArray::new(21);
        put(&s, 1, 50, 500);
        put(&s, 1, 30, 300);
        put(&s, 1, 40, 400);
        assert_eq!(verdict_of(&s, 1, 50), Some(500), "a hit in any lane");
        assert_eq!(verdict_of(&s, 1, 30), Some(300));
        assert_eq!(verdict_of(&s, 1, 41), None, "bucket never spilled");
        s.with_bucket(1, |g| g.spill());
        assert_eq!(
            verdict_of(&s, 1, 41),
            Some(u64::MAX),
            "past the spill bit: ART"
        );
        assert_eq!(
            verdict_of(&s, 2, 41),
            None,
            "the spill bit is the bucket's own"
        );
        assert_eq!(verdict_of(&s, 0, 41), None, "an empty bucket");
        take(&s, 1, 40);
        assert_eq!(verdict_of(&s, 1, 40), Some(u64::MAX), "a removed key: ART");
        assert_eq!(verdict_of(&s, 1, 50), Some(500));
        assert!(spilled(&s, 1));
        s.with_bucket(1, |g| {
            assert_eq!(g.find(50), Some((1, 500)));
            assert_eq!(g.entries().0[..3], [(30, 300), (50, 500), (0, 0)]);
        });
    }

    #[test]
    fn the_reader_and_the_lock_holder_give_one_verdict() {
        // Every unlocked word a bucket can hold — each live count `n`,
        // spilled or not — and every placement of
        // the looked-for key: in none of the live lanes (below, between
        // or above them) or in each one, the other live lanes holding
        // other keys in order and every lane from `n` up key 0. The
        // optimistic probe and the lock holder's agree, and `find` names
        // the lane of every hit.
        const KEY: u64 = 100;
        let mut seen = [0usize; 3];
        let s = SlotArray::new(LANES);
        let bucket = s.bucket(0);
        for n in 0..=LANES {
            // `rank` is how many live keys sort below KEY; `at` is the
            // lane holding it, if any.
            for rank in 0..=n {
                for at in [None, Some(rank)]
                    .into_iter()
                    .filter(|a| a.is_none_or(|l| l < n))
                {
                    for l in 0..LANES {
                        let key = match () {
                            _ if l >= n => 0,
                            _ if at == Some(l) => KEY,
                            _ if l < rank => 10 + l as u64,
                            _ => 200 + l as u64,
                        };
                        bucket.key[l].store(key, Ordering::Relaxed);
                        let value = if key == 0 { 0 } else { 1000 + l as u64 };
                        bucket.value[l].store(value, Ordering::Relaxed);
                    }
                    for spill in [0, SPILL] {
                        let word = (5 * WRITE) | (n as u64 * ONE) | spill;
                        bucket.version.store(word, Ordering::Relaxed);
                        let want = match at {
                            Some(l) => Probe::Hit(1000 + l as u64),
                            None if spill == 0 => Probe::Absent,
                            None => Probe::Art,
                        };
                        let case = || format!("n {n}, rank {rank}, key at {at:?}, spill {spill}");
                        assert_eq!(s.probe(0, KEY).0, want, "reader, {}", case());
                        let (held, found, entries) =
                            s.with_bucket(0, |g| (g.probe(KEY), g.find(KEY), g.entries()));
                        assert_eq!(held, want, "lock holder, {}", case());
                        let hit = found.map(|(lane, value)| (lane, Probe::Hit(value)));
                        assert_eq!(hit, at.map(|l| (l, want)), "find, {}", case());
                        assert_eq!(entries.1, n, "{}", case());
                        // The holder's unlock counted a write.
                        bucket.version.store(word, Ordering::Relaxed);
                        seen[match want {
                            Probe::Hit(_) => 0,
                            Probe::Absent => 1,
                            Probe::Art => 2,
                        }] += 1;
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
    fn a_line_lists_its_keys_ascending_whatever_their_lanes() {
        // Inserted in every one of the 5,040 orders, seven keys come out
        // ascending; removed in that order again, the rest stay so.
        const KEYS: [u64; LANES] = [10, 20, 30, 40, 50, 60, 70];
        let mut orders = std::collections::HashSet::new();
        for n in 0..5_040 {
            let order = nth_order(KEYS, n);
            orders.insert(order);
            let s = SlotArray::new(7);
            for key in order {
                assert!(put(&s, 0, key, key * 10));
            }
            assert_eq!(s.read_bucket(0), (KEYS.map(|k| (k, k * 10)), LANES));
            assert_eq!(s.with_bucket(0, |g| g.entries()), s.read_bucket(0));
            assert!(!put(&s, 0, 5, 50), "full");
            let mut rest = KEYS.to_vec();
            for key in order {
                assert_eq!(take(&s, 0, key), Some(key * 10));
                rest.retain(|&k| k != key);
                let want: Vec<(u64, u64)> = rest.iter().map(|&k| (k, k * 10)).collect();
                assert_eq!(live(&s, 0), want, "order {order:?}");
            }
        }
        assert_eq!(orders.len(), 5_040, "every order once");
    }

    #[test]
    fn the_build_takes_a_free_lane_of_the_line_then_spills() {
        // Nine positions: two buckets of seven lanes. Keys arrive
        // ascending and take bucket 1's lanes in order, then spill.
        let s = SlotArray::new(9);
        for key in 1..=7 {
            assert!(s.place_unsync(1, key, key), "lane {} is free", key - 1);
        }
        assert!(!spilled(&s, 1));
        assert!(!s.place_unsync(1, 8, 8), "no lane left");
        assert!(spilled(&s, 1));
        assert!(!spilled(&s, 0), "another bucket");
        assert_eq!(live(&s, 1), (1..=7).map(|k| (k, k)).collect::<Vec<_>>());
        assert_eq!(verdict_of(&s, 1, 8), Some(u64::MAX));
        assert_eq!(s.live_count(), 7);
    }

    #[test]
    fn a_write_to_one_lane_moves_every_lanes_version() {
        // A reader's ART miss re-checks its bucket's one version word, so
        // a writer of any lane of the bucket must move it.
        let s = SlotArray::new(7);
        for lane in 0..LANES {
            let before = s.version(0);
            put(&s, 0, lane as u64 + 1, 50);
            assert!(!s.version_unchanged(0, before), "lane {lane}");
        }
        assert_eq!(live(&s, 0).len(), LANES);
    }

    #[test]
    fn a_sweep_at_lane_0_waits_for_a_writer_of_lane_2() {
        // A writer whose key takes lane 2 holds the whole bucket, so a
        // sweep that locks the bucket to copy it from lane 0 waits for it
        // and then sees the writer's insert (DESIGN.md §14).
        use std::sync::atomic::AtomicBool;
        let s = SlotArray::new(14);
        put(&s, 1, 10, 100);
        put(&s, 1, 20, 200);
        let done = AtomicBool::new(false);
        let (held_tx, held) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                s.with_bucket(1, |g| {
                    held_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    g.insert(77, 770);
                    done.store(true, Ordering::Relaxed);
                })
            });
            held.recv().unwrap();
            assert_eq!(s.walk(0, 1).collect::<Vec<_>>(), [1], "locked");
            let (entries, n) = s.with_bucket(1, |g| {
                assert!(
                    done.load(Ordering::Relaxed),
                    "the sweep passed a held bucket"
                );
                g.entries()
            });
            assert_eq!(entries[..n], [(10, 100), (20, 200), (77, 770)]);
        });
    }

    #[test]
    fn a_read_past_its_retry_budget_takes_the_line_lock_and_its_version() {
        // A writer holds bucket 1 far past the reader's whole retry budget
        // (a few ms of spins, yields and parks), so the probe escalates to
        // the bucket lock and returns once the writer releases, with the
        // word its own unlock stored: the writer's unlock counted one
        // write, the reader's a second.
        let s = SlotArray::new(14);
        let (held_tx, held) = std::sync::mpsc::channel();
        let (verdict, v) = std::thread::scope(|scope| {
            scope.spawn(|| {
                s.with_bucket(1, |g| {
                    held_tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(500));
                    g.insert(44, 440);
                })
            });
            held.recv().unwrap();
            s.probe(1, 44)
        });
        assert!(matches!(verdict, Probe::Hit(440)), "{verdict:?}");
        assert_eq!(v, ONE + 2 * WRITE, "the escalated read's unlock");
        assert!(s.version_unchanged(1, v), "no write since");
        assert_eq!(live(&s, 1), [(44, 440)]);
        assert!(
            s.version_unchanged(1, v),
            "an optimistic read writes nothing"
        );
        put(&s, 1, 55, 550);
        assert!(!s.version_unchanged(1, v), "a write to another lane");
    }

    #[test]
    fn slot_and_model_sizes_are_pinned() {
        // What the cache-line counts of a slot hit (DESIGN.md §3) and the
        // model header's layout are reasoned from.
        assert_eq!(std::mem::size_of::<Bucket>(), 128);
        assert_eq!(std::mem::align_of::<Bucket>(), 128);
        assert_eq!(std::mem::size_of::<SlotArray>(), 24);
        assert_eq!(std::mem::size_of::<crate::model::GplModel>(), 72);
    }

    #[test]
    fn place_unsync_respects_occupancy() {
        // Four positions are one bucket of seven lanes: it takes seven
        // keys, and no eighth.
        let s = SlotArray::new(4);
        for key in 1..=7 {
            assert!(s.place_unsync(0, key, key * 10));
        }
        assert!(!s.place_unsync(0, 8, 80), "a full bucket rejects placement");
        assert_eq!(
            live(&s, 0),
            (1..=7).map(|k| (k, k * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn for_each_live_skips_empty_and_tombstones() {
        // Removed keys leave nothing behind; the live ones are listed by
        // their bucket.
        let s = SlotArray::new(14);
        put(&s, 0, 10, 100);
        put(&s, 0, 40, 400);
        put(&s, 1, 60, 600);
        take(&s, 0, 10);
        let mut seen = Vec::new();
        s.for_each_live(|b, k, v| seen.push((b, k, v)));
        assert_eq!(seen, vec![(0, 40, 400), (1, 60, 600)]);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn concurrent_claims_one_winner_per_slot() {
        // Eight threads race sixteen keys each into an array of two
        // buckets: fourteen lanes, each claimed by one key.
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(14));
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut wins = 0;
                for i in 0..16 {
                    if put(&s, i % 2, t * 100 + i as u64, t) {
                        wins += 1;
                    }
                }
                wins
            }));
        }
        let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 14, "each lane claimed exactly once");
        assert_eq!(s.live_count(), 14);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_slots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(SlotArray::new(7));
        put(&s, 0, 1, 1);
        put(&s, 0, 1 << 40, 1 << 40);
        let stop = Arc::new(AtomicBool::new(false));
        // The writer cycles pairs where key == value below a fixed upper
        // key, so every insert and remove shifts it.
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
            let (entries, n) = s.read_bucket(0);
            assert!(n >= 1 && entries[..n].windows(2).all(|w| w[0].0 < w[1].0));
            for &(key, value) in &entries[..n] {
                assert_eq!(key, value, "torn read: {key} != {value}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        w.join().unwrap();
    }

    /// One write of `key` to bucket `b` as the index's writers make it,
    /// with `art` standing in for ART: op 0 inserts, 1 upserts, 2 updates
    /// and 3 removes. Returns the value the key had.
    fn write(
        s: &SlotArray,
        art: &mut BTreeMap<u64, u64>,
        b: usize,
        (op, key, value): (u8, u64, u64),
    ) -> Option<u64> {
        s.with_bucket(b, |g| {
            if let Some((lane, old)) = g.find(key) {
                match op {
                    1 | 2 => g.set_value(lane, value),
                    3 => g.remove(lane),
                    _ => {}
                }
                return Some(old);
            }
            let old = match g.probe(key) {
                Probe::Art => art.get(&key).copied(),
                _ => None,
            };
            match (op, old) {
                (0 | 1, None) if g.is_full() => {
                    g.spill();
                    art.insert(key, value);
                }
                (0 | 1, None) => g.insert(key, value),
                (1 | 2, Some(_)) => {
                    art.insert(key, value);
                }
                (3, Some(_)) => {
                    art.remove(&key);
                }
                _ => {}
            }
            old
        })
    }

    /// The bucket rule on every bucket of `s`, whose keys `route` to their
    /// buckets: lanes below the count bits' `n` hold the bucket's keys that
    /// are not in `art`, ascending, with their `oracle` values; the lanes
    /// from `n` up read 0; and every key's verdict agrees.
    fn check_buckets(
        s: &SlotArray,
        route: impl Fn(u64) -> usize,
        oracle: &BTreeMap<u64, u64>,
        art: &BTreeMap<u64, u64>,
        keys: u64,
    ) -> Result<(), TestCaseError> {
        for (b, bucket) in s.all().iter().enumerate() {
            let v = bucket.version.load(Ordering::Relaxed);
            let (k, val) = (Bucket::words(&bucket.key), Bucket::words(&bucket.value));
            let want: Vec<(u64, u64)> = oracle
                .iter()
                .filter(|(key, _)| route(**key) == b && !art.contains_key(key))
                .map(|(&key, &value)| (key, value))
                .collect();
            let n = count(v);
            proptest::prop_assert_eq!(v & LOCKED, 0);
            proptest::prop_assert_eq!(n, want.len(), "bucket {}: the count bits", b);
            let lanes: Vec<(u64, u64)> = (0..n).map(|l| (k[l], val[l])).collect();
            proptest::prop_assert_eq!(lanes, want, "bucket {}: lanes below n", b);
            proptest::prop_assert!(
                (n..LANES).all(|l| k[l] == 0 && val[l] == 0),
                "bucket {}: a lane from n = {} up is not 0: {:?}",
                b,
                n,
                k
            );
        }
        for key in 1..=keys {
            let b = route(key);
            let want = match (oracle.get(&key), art.contains_key(&key)) {
                (Some(_), true) => Probe::Art,
                (Some(&v), false) => Probe::Hit(v),
                (None, _) => miss(s.version(b)),
            };
            proptest::prop_assert_eq!(s.probe(b, key).0, want, "key {}", key);
        }
        Ok(())
    }

    proptest::proptest! {
        /// Random inserts, upserts, updates and removes on one array
        /// against a `BTreeMap`: after every one, each bucket holds its
        /// live keys in lanes `0..n` ascending, reads 0 from lane `n` up,
        /// and counts `n` in its word.
        #[test]
        fn a_bucket_keeps_its_keys_sorted_through_any_writes(
            positions in 1usize..22,
            ops in proptest::collection::vec((0u8..4, 1u64..41), 0..160usize),
        ) {
            const KEYS: u64 = 40;
            let s = SlotArray::new(positions);
            // Monotone, as a model's prediction is, and dense enough that
            // buckets fill and spill.
            let route = |key: u64| s.bucket_at((key - 1) as usize * positions / KEYS as usize);
            let (mut oracle, mut art) = (BTreeMap::new(), BTreeMap::new());
            for (step, &(op, key)) in ops.iter().enumerate() {
                let value = key * 1_000 + step as u64;
                let got = write(&s, &mut art, route(key), (op, key, value));
                let want = match op {
                    0 => oracle.get(&key).copied().or_else(|| {
                        oracle.insert(key, value);
                        None
                    }),
                    1 => oracle.insert(key, value),
                    2 => oracle.get_mut(&key).map(|v| std::mem::replace(v, value)),
                    _ => oracle.remove(&key),
                };
                proptest::prop_assert_eq!(got, want, "op {} of key {} at step {}", op, key, step);
                check_buckets(&s, route, &oracle, &art, KEYS)?;
            }
        }
    }

    /// Arrays planned for `a` and `b` positions carved from one mapped
    /// region, A first, and a handle that says whether the region still
    /// exists.
    fn carved_pair(a: usize, b: usize) -> (SlotArray, SlotArray, std::sync::Weak<Region>) {
        let bytes = SlotArray::footprint(a) + SlotArray::footprint(b);
        let region = Region::mapped(bytes).expect("map a region");
        let mut arrays = SlotArray::carve(region, &[a, b]);
        let (b, a) = (arrays.pop().unwrap(), arrays.pop().unwrap());
        let weak = Arc::downgrade(a.region());
        (a, b, weak)
    }

    fn all_empty(s: &SlotArray) -> bool {
        (0..s.buckets()).all(|b| live(s, b).is_empty()) && s.walk(0, usize::MAX).next().is_none()
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
        // A is 15 buckets, and B starts on the next: A's last buckets,
        // every lane full, are A's alone.
        let (a, b, _) = carved_pair(100, 100);
        for bucket in 9..15 {
            for lane in 0..LANES {
                assert!(put(&a, bucket, (bucket * LANES + lane) as u64 + 1, 1));
            }
        }
        assert!(all_empty(&b), "A's last buckets are A's alone");
        assert_eq!(a.live_count(), 42);
    }

    #[test]
    fn releasing_a_leaves_a_filled_b_intact() {
        // Many pages each, so A's drop has whole pages to release.
        let (a, b, weak) = carved_pair(3000, 3000);
        let n = b.buckets();
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
            assert_eq!(live(&b, i), [(key, value)]);
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
        // Sorted buckets, filled in one pass, moved the layout digest
        // again and left the spans alone. Spans counted in buckets, and a
        // last bucket that seats seven keys, moved both digests again.
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
            let bytes: usize = spans.iter().map(|s| s.1 * BUCKET).sum();
            assert!(bytes >= SHARED_REGION_MIN, "{bytes} B is one shared region");
            assert_eq!(idx.learned_layout_digest(), 0x3873_6fd3_0e22_6cfb);
            assert_eq!(spans_digest(&spans), 0x78f1_7953_a0d5_2748);
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
