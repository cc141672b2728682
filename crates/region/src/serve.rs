//! The async batched serving front-end: submission queues that
//! accumulate in-flight point lookups into `get_batch` rings.
//!
//! Every queued request is a `(key, oneshot)` pair in one of the server's
//! queues: one per thread stripe, the submitting thread's
//! [`probe::striped::stripe_id`], whatever the key. A request therefore
//! only ever meets requests from its own worker thread (past
//! [`STRIPES`] threads, from the threads sharing its stripe), and its
//! whole life — push, leader yield, flush, wake-up — stays on that
//! worker: no queue line, yielded leader or woken task crosses cores.
//! Two paths drain a
//! queue into one [`ConcurrentIndex::get_batch`] call:
//!
//! * **ring fill** — the submitter whose push reaches `ring_width`
//!   drains and executes the full ring inline;
//! * **group-commit leadership** — the submitter that finds the queue
//!   *empty* becomes the leader: it yields to the executor once (which
//!   puts it behind every task its worker has queued, so every runnable
//!   peer that could push onto this queue does so first) and then
//!   flushes whatever accumulated. Batch sizes therefore adapt to the
//!   instantaneous load — 1 when idle, `ring_width` under saturation —
//!   without waiting on any timer.
//!
//! Under load the AMAC engines (DESIGN.md §13) thus see real batches on
//! the serving path, and no thread but the submitters' own is involved.
//! Every drain empties its queue and the next push into an empty queue
//! makes a new leader, so a nonempty queue always has a flush coming —
//! also when the leader is cancelled: its flush is the `Drop` of a guard
//! it holds across the yield, so a leader dropped mid-yield flushes on
//! its way out. A leader flushes only the batch it leads: if a ring fill
//! (or a saturated submitter) drained the queue while it yielded, what is
//! queued now has a leader of its own, and cutting that batch short would
//! leave one more leader per ring fill cycling through the run queue. A
//! flush works from stack arrays and leaves the queue its buffer: it
//! allocates nothing.
//!
//! In steady state nothing a request reads or writes on this path shares
//! a line with what another worker writes: each queue has a 128-byte line
//! of its own, the counters are [`Striped`], and admission takes its
//! credit from a spare count on the submitting stripe's own line.
//!
//! # Overload semantics (DESIGN.md §17)
//!
//! Admission bounds **credits granted**, and a request holds one credit
//! from its admission until its answer is sent (queued plus executing in
//! a ring). Credits are handed out as in a sloppy counter (Boyd-Wickizer
//! et al., OSDI 2010): a submitter takes one from its stripe's spare, and
//! only a stripe whose spare is empty grants itself up to `chunk` more
//! off the one global count, which never exceeds `max_depth`. A flush
//! gives its requests' credits to the flushing thread's stripe, and only
//! what would leave that stripe `chunk` or more spare goes back to the
//! global count. `chunk` is `ring_width` when `max_depth ≥ 2 · STRIPES ·
//! ring_width` (16 in the default config, whose `max_depth` is 1024) and
//! 1 otherwise, when every request takes its credit off the global count
//! itself. Idle
//! stripes may therefore hold up to `STRIPES · (chunk − 1)` spare credits
//! (240 by default), and shedding may begin that far below `max_depth`
//! requests in flight; in-flight requests plus spare credits never
//! exceed it.
//!
//! A submitter that finds the server saturated — its spare empty, the
//! global count at `max_depth` — first flushes whatever is queued on its
//! own stripe's queue and retries from the spare that flush gave back. If the
//! server is still saturated it flushes every queue — the leaders that
//! owe those flushes may be stuck behind it in the executor, or on other
//! workers — and then retries through the `resilience` ladder (spin →
//! yield → park), now waiting for the index alone; if the budget
//! escalates — the server stayed saturated through the whole ladder — the
//! request is **shed** with [`ServeError::Overloaded`] rather than queued
//! into unbounded latency. Under saturation the system therefore degrades
//! by rejecting, not by collapsing: P99.9 of *served* requests stays
//! bounded by `max_depth` × flush latency. A flush gives its credits back
//! also when `get_batch` panics; the callers of that ring get
//! [`ServeError::Shutdown`].

use index_api::{ConcurrentIndex, Key, Value};
use probe::metrics::{self, Counter};
use probe::striped::{self, Striped, STRIPES};
use resilience::{LayerCounters, Retry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use tokio::sync::oneshot;

/// Widest ring a flush executes: the size of its stack arrays.
const MAX_RING: usize = 64;

/// Poison-tolerant mutex lock (the repo-wide idiom: a panicking holder
/// must not wedge every later operation).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs for a [`BatchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Submissions that fill a queue to this depth trigger an inline
    /// `get_batch` flush. Multiples of the AMAC ring width (8) make the
    /// engines' rings run full. At most 64.
    pub ring_width: usize,
    /// Admission bound on **in-flight requests** (queued plus currently
    /// executing in a `get_batch` ring) plus the spare admission credits
    /// the thread stripes hold, across the whole server. Submissions
    /// beyond it back off and eventually shed. When it is at least
    /// `2 · STRIPES · ring_width`, stripes take credits `ring_width` at a
    /// time and keep fewer than `ring_width` spare each, so shedding may
    /// begin up to `STRIPES · (ring_width − 1)` requests below it; below
    /// that, every request takes its credit off the global count and the
    /// bound is exact. Must be at least `ring_width`.
    pub max_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ring_width: 16,
            max_depth: 1024,
        }
    }
}

/// Why a request was not served (see [`BatchServer::get`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue stayed full through the whole retry budget;
    /// the request was shed by admission control.
    Overloaded,
    /// The ring holding the request was dropped unanswered (the index
    /// panicked mid-batch).
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request shed: submission queue saturated"),
            ServeError::Shutdown => write!(f, "request dropped unanswered"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Point-in-time serving counters (always on, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests completed with a result.
    pub served: u64,
    /// `get_batch` flushes executed: `ring_flushes + leader_flushes`.
    pub flushes: u64,
    /// Flushes by a submitter inline: its push filled the ring, or it
    /// found the server saturated and flushed what was queued.
    pub ring_flushes: u64,
    /// Flushes by a group-commit leader after its yield (or on its drop).
    pub leader_flushes: u64,
    /// Keys submitted across all flushes.
    pub batched_keys: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

/// The counters behind [`ServeStats`], striped: every request bumps
/// `served` and every flush two more, from every worker at once.
#[derive(Default)]
struct StatsInner {
    served: Striped,
    ring_flushes: Striped,
    leader_flushes: Striped,
    batched_keys: Striped,
    shed: Striped,
}

struct Pending {
    key: Key,
    tx: oneshot::Sender<Option<Value>>,
}

/// One submission queue: the requests waiting for a flush, and how many
/// flushes have drained it, which tells a leader whether the batch it
/// leads is still the one queued.
struct Queue {
    pending: Vec<Pending>,
    drains: u64,
}

/// A value on a 128-byte line of its own (two cache lines, so the
/// adjacent-line prefetcher cannot pair it with a neighbour either).
#[repr(align(128))]
struct Line<T>(T);

/// An async batching front-end over any [`ConcurrentIndex`]. Cheap to
/// share: callers hold it in an `Arc` and submit from any number of
/// tasks. See the module docs for the batching and overload protocol.
pub struct BatchServer {
    index: Arc<dyn ConcurrentIndex>,
    /// One queue per thread stripe; a request goes to its submitter's
    /// `stripe_id()`.
    queues: [Line<Mutex<Queue>>; STRIPES],
    cfg: ServeConfig,
    stats: StatsInner,
    /// Credits a stripe grants itself at a time: `ring_width` when
    /// `max_depth` leaves room for every stripe to hold two grants, else
    /// 1 (see the module docs).
    chunk: u64,
    /// Admission credits granted: held by requests admitted but not yet
    /// answered (queued or inside a flush), or spare on some stripe. This
    /// — not queue depth — is the admission-control gauge: full rings are
    /// drained inline, so queues themselves never jam, but a slow
    /// `get_batch` under overload keeps requests in flight. Never above
    /// `max_depth`; every stripe writes it, once per `chunk` requests.
    granted: Line<AtomicU64>,
    /// Each stripe's spare credits, fewer than `chunk` once a give-back
    /// has settled.
    spare: [Line<AtomicU64>; STRIPES],
}

/// Group-commit leadership, held across the leader's yield: dropping it
/// flushes the batch the leader leads, whether the leader was resumed or
/// cancelled.
struct LeaderFlush<'a> {
    server: &'a BatchServer,
    queue: usize,
    /// The queue's `drains` when the leader's push found it empty.
    drains: u64,
}

impl Drop for LeaderFlush<'_> {
    fn drop(&mut self) {
        let s = self.server;
        let queue = lock(&s.queues[self.queue].0);
        // Drained since (a ring filled, or a saturated submitter flushed
        // it): what is queued now came after, and has a leader of its own.
        if queue.drains == self.drains {
            s.flush(queue, &s.stats.leader_flushes);
        }
    }
}

/// A flush's admission credits, given back to the flushing thread's
/// stripe when it drops: after the ring's answers are sent, or while a
/// panicking `get_batch` unwinds.
struct Admitted<'a> {
    server: &'a BatchServer,
    n: u64,
}

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.server.give_back(striped::stripe_id(), self.n);
    }
}

/// The admission credits, for tests: at rest, `granted` is the stripes'
/// spare alone, and every stripe holds fewer than `chunk`.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Credits {
    /// Credits granted off `max_depth`.
    pub granted: u64,
    /// Each stripe's spare credits.
    pub spare: [u64; STRIPES],
    /// Credits a stripe grants itself at a time.
    pub chunk: u64,
}

impl Credits {
    /// Requests admitted but not yet answered (exact at rest; a snapshot
    /// taken mid-grant may see the spare before the grant, hence the
    /// saturation).
    pub fn unanswered(&self) -> u64 {
        self.granted.saturating_sub(self.spare.iter().sum())
    }
}

impl BatchServer {
    /// Build a server over `index` with one submission queue per thread
    /// stripe.
    pub fn new(index: Arc<dyn ConcurrentIndex>, cfg: ServeConfig) -> Self {
        assert!(
            (1..=MAX_RING).contains(&cfg.ring_width),
            "ring_width must be in 1..={MAX_RING}"
        );
        assert!(
            cfg.max_depth >= cfg.ring_width,
            "max_depth must be at least ring_width"
        );
        let chunk = if cfg.max_depth >= 2 * STRIPES * cfg.ring_width {
            cfg.ring_width
        } else {
            1
        };
        BatchServer {
            index,
            queues: std::array::from_fn(|_| {
                Line(Mutex::new(Queue {
                    pending: Vec::with_capacity(cfg.ring_width),
                    drains: 0,
                }))
            }),
            cfg,
            stats: StatsInner::default(),
            chunk: chunk as u64,
            granted: Line(AtomicU64::new(0)),
            spare: std::array::from_fn(|_| Line(AtomicU64::new(0))),
        }
    }

    /// Take one admission credit for a submitter on `stripe`: from the
    /// stripe's spare, else by granting up to `chunk` credits off the
    /// global count and keeping the rest as spare. False when the server
    /// is saturated: the spare is empty and the global count is at
    /// `max_depth`.
    fn admit(&self, stripe: usize) -> bool {
        if self.take_spare(stripe) {
            return true;
        }
        let max = self.cfg.max_depth as u64;
        let granted = &self.granted.0;
        let mut cur = granted.load(Ordering::Acquire);
        while cur < max {
            let grant = self.chunk.min(max - cur);
            match granted.compare_exchange_weak(
                cur,
                cur + grant,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    self.give_back(stripe, grant - 1);
                    return true;
                }
                Err(now) => cur = now,
            }
        }
        false
    }

    /// Take one credit from `stripe`'s spare, if it has one.
    fn take_spare(&self, stripe: usize) -> bool {
        self.spare[stripe]
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| c.checked_sub(1))
            .is_ok()
    }

    /// Give `n` credits to `stripe`: it keeps them as spare up to
    /// `chunk − 1`, and the rest go back to the global count.
    fn give_back(&self, stripe: usize, n: u64) {
        if n == 0 {
            return;
        }
        let cap = self.chunk - 1;
        let kept = self.spare[stripe]
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < cap).then(|| (c + n).min(cap))
            })
            .map_or(0, |c| (c + n).min(cap) - c);
        if n > kept {
            self.granted.0.fetch_sub(n - kept, Ordering::Release);
        }
    }

    /// Flush stripe `q`'s queue inline: a saturated submitter's flush.
    fn flush_inline(&self, q: usize) {
        self.flush(lock(&self.queues[q].0), &self.stats.ring_flushes);
    }

    /// Execute one ring: drain the queue (at most `ring_width` deep, as
    /// every push that fills it flushes under the same lock) into stack
    /// arrays, release it, run a single `get_batch` and complete every
    /// oneshot. One drain per call: coming back for requests pushed
    /// meanwhile would take the batch their own leader is forming.
    fn flush(&self, mut queue: MutexGuard<'_, Queue>, path: &Striped) {
        let n = queue.pending.len();
        if n == 0 {
            return;
        }
        queue.drains += 1;
        let mut keys = [0; MAX_RING];
        let mut txs = [const { None }; MAX_RING];
        for (i, p) in queue.pending.drain(..).enumerate() {
            keys[i] = p.key;
            txs[i] = Some(p.tx);
        }
        drop(queue);
        let _credits = Admitted {
            server: self,
            n: n as u64,
        };
        let mut out = [None; MAX_RING];
        self.index.get_batch(&keys[..n], &mut out[..n]);
        path.add(1);
        self.stats.batched_keys.add(n as u64);
        metrics::incr(Counter::RegionBatchFlush);
        for (tx, v) in txs.into_iter().flatten().zip(out) {
            // A dropped receiver (cancelled caller) is fine.
            let _ = tx.send(v);
        }
    }

    /// Submit one point lookup. Resolves when the ring containing it is
    /// flushed (inline on ring fill, or by its queue's leader). Sheds
    /// with [`ServeError::Overloaded`] when admission control gives up.
    pub async fn get(&self, key: Key) -> Result<Option<Value>, ServeError> {
        let stripe = striped::stripe_id();
        // Admission: take a credit, backing off (and finally shedding)
        // while the server is saturated. The waits block the executor
        // thread briefly — acceptable for the shimmed thread-per-worker
        // runtime, and exactly the backpressure we want: saturation
        // should slow submitters down before shedding.
        let mut retry = Retry::new();
        while !self.admit(stripe) {
            // Saturated. Whatever is still queued may be waiting for a
            // leader that the executor will not poll before this wait is
            // over — possibly one queued behind this very task, or one on
            // another worker. This stripe's own queue comes first: its
            // flush gives its credits to this stripe's spare.
            self.flush_inline(stripe);
            if self.take_spare(stripe) {
                break;
            }
            // Then every queue: afterwards every in-flight request is
            // inside some thread's `get_batch`, and waiting for a credit
            // is waiting for the index only.
            (0..STRIPES).for_each(|q| self.flush_inline(q));
            if retry.wait_or_escalate(&LayerCounters::UNCOUNTED) {
                self.stats.shed.add(1);
                return Err(ServeError::Overloaded);
            }
        }
        let (tx, rx) = oneshot::channel();
        let lead = {
            let mut queue = lock(&self.queues[stripe].0);
            queue.pending.push(Pending { key, tx });
            match queue.pending.len() {
                len if len >= self.cfg.ring_width => {
                    self.flush(queue, &self.stats.ring_flushes);
                    None
                }
                1 => Some(queue.drains),
                _ => None,
            }
        };
        if let Some(drains) = lead {
            // Group-commit leadership: the first submitter into an empty
            // queue yields to the executor once — which runs every task
            // its worker has queued first, so every peer that could push
            // onto this queue does — then flushes whatever accumulated
            // (the guard's drop). Batch sizes adapt to the instantaneous
            // load: 1 when idle, up to ring_width under load.
            let _flush = LeaderFlush {
                server: self,
                queue: stripe,
                drains,
            };
            tokio::task::yield_now().await;
        }
        match rx.await {
            Ok(v) => {
                self.stats.served.add(1);
                Ok(v)
            }
            Err(_) => Err(ServeError::Shutdown),
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.stats;
        let (ring, leader) = (s.ring_flushes.sum(), s.leader_flushes.sum());
        ServeStats {
            served: s.served.sum(),
            flushes: ring + leader,
            ring_flushes: ring,
            leader_flushes: leader,
            batched_keys: s.batched_keys.sum(),
            shed: s.shed.sum(),
        }
    }

    /// Snapshot of the admission credits (racy while requests run).
    #[doc(hidden)]
    pub fn credits(&self) -> Credits {
        Credits {
            granted: self.granted.0.load(Ordering::Acquire),
            spare: std::array::from_fn(|s| self.spare[s].0.load(Ordering::Relaxed)),
            chunk: self.chunk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapIndex;
    use index_api::BulkLoad;
    use std::future::Future;
    use std::pin::{pin, Pin};
    use std::task::{Context, Poll, Waker};
    use std::time::Duration;
    use tokio::runtime::Builder;

    fn server(cfg: ServeConfig) -> (Arc<BatchServer>, Vec<(Key, Value)>) {
        let pairs: Vec<(Key, Value)> = (1..=500u64).map(|k| (k * 3, k)).collect();
        let index: Arc<dyn ConcurrentIndex> = Arc::new(MapIndex::bulk_load(&pairs));
        (Arc::new(BatchServer::new(index, cfg)), pairs)
    }

    /// Runs `f` on a fresh thread whose stripe — and so whose submission
    /// queues — is none of `not`. Stripes are claimed round-robin, so that
    /// is one of the first few threads unless other threads claim stripes
    /// in between.
    fn off_stripe<R: Send>(not: &[usize], f: impl FnOnce() -> R + Send) -> R {
        let mut f = Some(f);
        loop {
            let ran = std::thread::scope(|s| {
                s.spawn(|| (!not.contains(&striped::stripe_id())).then(|| f.take().unwrap()()))
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e))
            });
            if let Some(out) = ran {
                return out;
            }
        }
    }

    /// A [`MapIndex`] whose `get_batch` first calls a hook on the keys.
    struct Hooked<F>(MapIndex, F);

    impl<F: Fn(&[Key]) + Send + Sync> ConcurrentIndex for Hooked<F> {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.get(key)
        }
        fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
            (self.1)(keys);
            self.0.get_batch(keys, out)
        }
        fn insert(&self, k: Key, v: Value) -> index_api::Result<()> {
            self.0.insert(k, v)
        }
        fn update(&self, k: Key, v: Value) -> index_api::Result<()> {
            self.0.update(k, v)
        }
        fn remove(&self, k: Key) -> Option<Value> {
            self.0.remove(k)
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
            self.0.range(lo, hi, out)
        }
        fn memory_usage(&self) -> usize {
            self.0.memory_usage()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn name(&self) -> &'static str {
            "hooked"
        }
    }

    /// A get polled once and still pending, movable to another thread.
    type Held<'a> = Pin<Box<dyn Future<Output = Result<Option<Value>, ServeError>> + Send + 'a>>;

    /// The smallest server that takes credits two at a time: ring 2 and
    /// `max_depth` 2 · STRIPES · 2.
    fn credit_server() -> BatchServer {
        let (srv, _) = server(ServeConfig {
            ring_width: 2,
            max_depth: 2 * STRIPES * 2,
        });
        assert_eq!(srv.credits().chunk, 2, "credits are engaged");
        Arc::into_inner(srv).unwrap()
    }

    /// No stripe holds `chunk` spare credits or more, and the global
    /// count is within `max_depth`.
    fn assert_bounded(srv: &BatchServer) {
        let c = srv.credits();
        assert!(c.granted <= srv.cfg.max_depth as u64, "{c:?}");
        assert!(c.spare.iter().all(|&s| s < c.chunk), "{c:?}");
    }

    /// Polls a get of `key` once on the calling thread, as the leader of
    /// its stripe's queue, and returns it still pending. Before the poll,
    /// the server counts as saturated for this stripe when its spare is
    /// empty and the global count is at `max_depth`; the poll must take
    /// the saturated path (flush queued work) then and only then, and
    /// leave the credits bounded.
    fn lead(srv: &BatchServer, key: Key) -> Held<'_> {
        let cx = &mut Context::from_waker(Waker::noop());
        let stripe = striped::stripe_id();
        let before = srv.credits();
        let saturated = before.spare[stripe] == 0 && before.granted == srv.cfg.max_depth as u64;
        let flushes = srv.stats().ring_flushes;
        let mut get: Held<'_> = Box::pin(srv.get(key));
        assert!(get.as_mut().poll(cx).is_pending(), "key {key} leads");
        let flushed = srv.stats().ring_flushes > flushes;
        assert_eq!(flushed, saturated, "key {key}, credits {before:?}");
        assert_bounded(srv);
        get
    }

    /// Polls held gets to their answers.
    fn answer<'a>(srv: &BatchServer, held: impl IntoIterator<Item = Held<'a>>) {
        let cx = &mut Context::from_waker(Waker::noop());
        for mut get in held {
            assert!(matches!(get.as_mut().poll(cx), Poll::Ready(Ok(Some(_)))));
            assert_bounded(srv);
        }
    }

    /// Admits one request on `stripe` directly, as a submitter there
    /// would, and checks the grant: taken from the stripe's spare if it has
    /// one; else refused exactly when the global count is at `max_depth`;
    /// else `min(chunk, max_depth − granted)` granted at once, all but the
    /// one taken kept as spare. The credits stay bounded.
    fn admit_on(srv: &BatchServer, stripe: usize) -> bool {
        let before = srv.credits();
        let max = srv.cfg.max_depth as u64;
        let admitted = srv.admit(stripe);
        let after = srv.credits();
        let (granted, spare) = if before.spare[stripe] > 0 {
            (before.granted, before.spare[stripe] - 1)
        } else if before.granted == max {
            (max, 0)
        } else {
            let grant = before.chunk.min(max - before.granted);
            (before.granted + grant, grant - 1)
        };
        assert_eq!(admitted, after != before, "stripe {stripe}, {before:?}");
        assert_eq!((after.granted, after.spare[stripe]), (granted, spare));
        assert_bounded(srv);
        admitted
    }

    #[test]
    fn serves_hits_and_misses_correctly() {
        let rt = Builder::new_multi_thread()
            .worker_threads(4)
            .build()
            .unwrap();
        let (srv, pairs) = server(ServeConfig::default());
        let handles: Vec<_> = (0..300u64)
            .map(|i| {
                let srv = Arc::clone(&srv);
                rt.spawn(async move { (i, srv.get(i * 2 + 1).await.unwrap()) })
            })
            .collect();
        rt.block_on(async {
            for h in handles {
                let (i, got) = h.await.unwrap();
                let key = i * 2 + 1;
                let want = pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
                assert_eq!(got, want, "key {key}");
            }
        });
        let st = srv.stats();
        assert_eq!(st.served, 300);
        assert!(st.flushes > 0);
        assert_eq!(st.batched_keys, 300);
    }

    #[test]
    fn rings_flush_without_background_sweep() {
        let rt = Builder::new_multi_thread()
            .worker_threads(2)
            .build()
            .unwrap();
        // No thread but the submitters' own exists: full rings and
        // group-commit leaders alone must complete every request.
        let cfg = ServeConfig {
            ring_width: 8,
            max_depth: 64,
        };
        let (srv, _) = server(cfg);
        let handles: Vec<_> = (0..64u64)
            .map(|k| {
                let srv = Arc::clone(&srv);
                rt.spawn(async move { srv.get(k * 3).await.unwrap() })
            })
            .collect();
        rt.block_on(async {
            for h in handles {
                h.await.unwrap();
            }
        });
        let st = srv.stats();
        assert_eq!(st.served, 64);
        assert_eq!(st.batched_keys, 64);
        // Exact flush counts are schedule-dependent (ring fills vs
        // leader flushes), but batching must hold: at least the 8
        // full-ring minimum, and well under one flush per request.
        assert!((8..=32).contains(&st.flushes), "flushes {}", st.flushes);
    }

    #[test]
    fn dropped_leader_still_answers_its_followers() {
        // No runtime and no thread at all: the futures are polled by
        // hand. The leader is dropped while suspended in its yield; the
        // flush it owed its follower must happen on that drop.
        let (srv, _) = server(ServeConfig::default());
        let cx = &mut Context::from_waker(Waker::noop());
        let mut follower = pin!(srv.get(6));
        {
            let mut leader = pin!(srv.get(3));
            assert!(leader.as_mut().poll(cx).is_pending(), "leader yields");
            assert!(follower.as_mut().poll(cx).is_pending(), "follower waits");
        }
        assert_eq!(follower.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        let st = srv.stats();
        assert_eq!((st.leader_flushes, st.ring_flushes), (1, 0));
        assert_eq!((st.flushes, st.batched_keys, st.served), (1, 2, 1));
    }

    #[test]
    fn a_leader_whose_batch_a_ring_fill_took_leaves_the_next_batch_to_its_leader() {
        // A ring fill drains the first leader's batch; the next push makes
        // a second leader. The first leader's resumption must not flush
        // the second one's batch: a request pushed after it still joins
        // that batch, and one flush carries both.
        let (srv, _) = server(ServeConfig {
            ring_width: 3,
            max_depth: 8,
        });
        let cx = &mut Context::from_waker(Waker::noop());
        let mut first = pin!(srv.get(3));
        assert!(first.as_mut().poll(cx).is_pending(), "leads");
        let mut follower = pin!(srv.get(6));
        assert!(follower.as_mut().poll(cx).is_pending());
        assert_eq!(
            pin!(srv.get(9)).poll(cx),
            Poll::Ready(Ok(Some(3))),
            "fills the ring"
        );
        let mut second = pin!(srv.get(12));
        assert!(
            second.as_mut().poll(cx).is_pending(),
            "leads the next batch"
        );
        assert_eq!(first.as_mut().poll(cx), Poll::Ready(Ok(Some(1))));
        assert_eq!(srv.stats().leader_flushes, 0, "not its batch to flush");
        let mut late = pin!(srv.get(15));
        assert!(
            late.as_mut().poll(cx).is_pending(),
            "joins the second batch"
        );
        assert_eq!(second.as_mut().poll(cx), Poll::Ready(Ok(Some(4))));
        assert_eq!(late.as_mut().poll(cx), Poll::Ready(Ok(Some(5))));
        assert_eq!(follower.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        let st = srv.stats();
        assert_eq!((st.ring_flushes, st.leader_flushes), (1, 1));
        assert_eq!((st.flushes, st.batched_keys, st.served), (2, 5, 5));
    }

    #[test]
    fn cancelled_follower_leaks_no_admission_capacity() {
        let (srv, _) = server(ServeConfig {
            ring_width: 4,
            max_depth: 4,
        });
        let cx = &mut Context::from_waker(Waker::noop());
        {
            let mut leader = pin!(srv.get(3));
            assert!(leader.as_mut().poll(cx).is_pending());
            for key in [6, 9] {
                // Admitted and queued, then cancelled.
                assert!(pin!(srv.get(key)).poll(cx).is_pending());
            }
            // The leader's flush answers all three, listening or not.
            assert_eq!(leader.as_mut().poll(cx), Poll::Ready(Ok(Some(1))));
        }
        // All `max_depth` slots are free again: a leaked one would make
        // the fourth admission back off and shed.
        let mut gets: Vec<_> = (1..=4u64).map(|k| Box::pin(srv.get(k * 3))).collect();
        let polled: Vec<_> = gets.iter_mut().map(|g| g.as_mut().poll(cx)).collect();
        assert_eq!(polled[..3], [Poll::Pending; 3]);
        assert_eq!(polled[3], Poll::Ready(Ok(Some(4))), "fills the ring");
        for (k, g) in (1..=3u64).zip(&mut gets) {
            assert_eq!(g.as_mut().poll(cx), Poll::Ready(Ok(Some(k))));
        }
        drop(gets);
        let st = srv.stats();
        assert_eq!((st.shed, st.served, st.batched_keys), (0, 5, 7));
        assert_eq!((st.leader_flushes, st.ring_flushes), (1, 1));
    }

    #[test]
    fn saturated_submitter_flushes_what_is_queued_instead_of_waiting() {
        // A leader and a follower of one queue hold two of three credits,
        // a request inside some other worker's `get_batch` (admitted
        // directly) the third; the ring (three wide) is not full, and the
        // leader that would flush is not being polled. A third submitter
        // must not wait for it (here it would wait out the whole ladder
        // and shed): it flushes what is queued and takes a freed credit.
        let (srv, _) = server(ServeConfig {
            ring_width: 3,
            max_depth: 3,
        });
        let cx = &mut Context::from_waker(Waker::noop());
        let (mut leader, mut follower) = (pin!(srv.get(3)), pin!(srv.get(1500)));
        assert!(leader.as_mut().poll(cx).is_pending());
        assert!(follower.as_mut().poll(cx).is_pending());
        let elsewhere = (striped::stripe_id() + 1) % STRIPES;
        assert!(srv.admit(elsewhere));
        let mut third = pin!(srv.get(6));
        assert!(
            third.as_mut().poll(cx).is_pending(),
            "admitted; now a leader"
        );
        assert_eq!(leader.as_mut().poll(cx), Poll::Ready(Ok(Some(1))));
        assert_eq!(follower.as_mut().poll(cx), Poll::Ready(Ok(Some(500))));
        assert_eq!(third.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        srv.give_back(elsewhere, 1);
        assert_eq!(srv.credits().unanswered(), 0);
        let st = srv.stats();
        assert_eq!((st.shed, st.served, st.batched_keys), (0, 3, 3));
        assert_eq!((st.ring_flushes, st.leader_flushes), (1, 1));
    }

    #[test]
    fn two_threads_on_two_stripes_form_two_batches() {
        // Two submitting threads on two stripes: each thread's request
        // leads its stripe's queue, so neither waits for the other's leader.
        let (srv, _) = server(ServeConfig::default());
        let cx = &mut Context::from_waker(Waker::noop());
        let mut mine = pin!(srv.get(3));
        assert!(
            mine.as_mut().poll(cx).is_pending(),
            "leads this thread's queue"
        );
        off_stripe(&[striped::stripe_id()], || {
            let cx = &mut Context::from_waker(Waker::noop());
            let mut theirs = pin!(srv.get(6));
            assert!(theirs.as_mut().poll(cx).is_pending(), "leads a queue too");
            assert_eq!(theirs.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        });
        assert_eq!(mine.as_mut().poll(cx), Poll::Ready(Ok(Some(1))));
        let st = srv.stats();
        assert_eq!((st.leader_flushes, st.ring_flushes), (2, 0));
        assert_eq!((st.batched_keys, st.served), (2, 2));
    }

    #[test]
    fn a_saturated_submitter_flushes_a_queue_another_threads_leader_owes() {
        // `saturated_submitter_flushes_what_is_queued_instead_of_waiting`
        // across threads: one leader on each of two threads' stripes
        // holding both slots, neither polled. A third submitter flushes
        // both queues, the other thread's too, and is admitted.
        let (srv, _) = server(ServeConfig {
            ring_width: 2,
            max_depth: 2,
        });
        let cx = &mut Context::from_waker(Waker::noop());
        let mut mine = pin!(srv.get(3));
        assert!(mine.as_mut().poll(cx).is_pending());
        let (queued_tx, queued_rx) = std::sync::mpsc::channel();
        let (flushed_tx, flushed_rx) = std::sync::mpsc::channel();
        let (me, srv_ref) = (striped::stripe_id(), &*srv);
        std::thread::scope(|s| {
            s.spawn(move || {
                off_stripe(&[me], move || {
                    let cx = &mut Context::from_waker(Waker::noop());
                    let mut theirs = pin!(srv_ref.get(6));
                    assert!(theirs.as_mut().poll(cx).is_pending());
                    queued_tx.send(()).unwrap();
                    flushed_rx.recv().unwrap();
                    assert_eq!(theirs.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
                })
            });
            queued_rx.recv().unwrap();
            let mut third = pin!(srv.get(9));
            assert!(
                third.as_mut().poll(cx).is_pending(),
                "admitted; now a leader"
            );
            flushed_tx.send(()).unwrap();
            assert_eq!(mine.as_mut().poll(cx), Poll::Ready(Ok(Some(1))));
            assert_eq!(third.as_mut().poll(cx), Poll::Ready(Ok(Some(3))));
        });
        let st = srv.stats();
        assert_eq!((st.shed, st.served, st.batched_keys), (0, 3, 3));
        assert_eq!((st.ring_flushes, st.leader_flushes), (2, 1));
    }

    #[test]
    fn a_panicking_flush_gives_its_slots_back() {
        // Every ring holding key 13 panics in `get_batch`. Three such
        // rings of two take six slots of a two-slot server; a leaked slot
        // would shed every later request.
        let index: Arc<dyn ConcurrentIndex> = Arc::new(Hooked(
            MapIndex::bulk_load(&[(3, 1), (6, 2)]),
            |keys: &[Key]| assert!(!keys.contains(&13), "a failing batch (expected)"),
        ));
        let srv = BatchServer::new(
            index,
            ServeConfig {
                ring_width: 2,
                max_depth: 2,
            },
        );
        let cx = &mut Context::from_waker(Waker::noop());
        for _ in 0..3 {
            let mut leader = pin!(srv.get(3));
            assert!(leader.as_mut().poll(cx).is_pending());
            // The follower fills the ring and runs it inline: it panics.
            let mut follower = Box::pin(srv.get(13));
            let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                follower.as_mut().poll(cx)
            }));
            assert!(polled.is_err(), "the flush panicked");
            drop(follower);
            assert_eq!(
                leader.as_mut().poll(cx),
                Poll::Ready(Err(ServeError::Shutdown)),
                "the dropped ring's caller"
            );
        }
        let mut fresh = pin!(srv.get(6));
        assert!(fresh.as_mut().poll(cx).is_pending(), "admitted");
        assert_eq!(fresh.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        let st = srv.stats();
        assert_eq!((st.shed, st.served), (0, 1));
    }

    #[test]
    fn credits_are_granted_a_chunk_at_a_time_and_never_past_max_depth() {
        // Three stripes take credits until the server saturates: each of
        // two leads its queue with a get, and the rest are admitted
        // directly on chosen stripes. `admit_on` and `lead` check every
        // step: grants come a chunk at a time, the global count never
        // passes `max_depth`, and the saturated path begins exactly when
        // the requests in flight plus the stripes' spare reach it.
        let srv = credit_server();
        let cx = &mut Context::from_waker(Waker::noop());
        let a = striped::stripe_id();
        // A full ring first: its flush leaves the global count odd, so a
        // later grant must stop one short of a chunk at `max_depth`.
        let mut leader = pin!(srv.get(3));
        assert!(leader.as_mut().poll(cx).is_pending());
        assert!(pin!(srv.get(6)).poll(cx).is_ready(), "fills the ring");
        assert!(leader.as_mut().poll(cx).is_ready());
        let c = srv.credits();
        assert_eq!((c.granted, c.spare[a], c.unanswered()), (1, 1, 0));
        let (b, theirs) = off_stripe(&[a], || (striped::stripe_id(), lead(&srv, 9)));
        let y = (0..STRIPES).find(|s| ![a, b].contains(s)).unwrap();
        for stripe in [b; 20].into_iter().chain([y; 21]) {
            assert!(admit_on(&srv, stripe));
        }
        let held = lead(&srv, 12);
        let mut direct_a = 0;
        while admit_on(&srv, a) {
            direct_a += 1;
        }
        assert_eq!(direct_a, 19, "the last grant stopped one short");
        let c = srv.credits();
        assert_eq!(c.granted, srv.cfg.max_depth as u64, "{c:?}");
        assert_eq!(c.unanswered() + c.spare.iter().sum::<u64>(), c.granted);
        // Saturated: the next submitter here flushes its own stripe's
        // queue, takes a credit it gave back, and touches no other
        // stripe's queue.
        let flushes = srv.stats().ring_flushes;
        let last = lead(&srv, 15);
        assert_eq!(
            srv.stats().ring_flushes - flushes,
            1,
            "only its own stripe's queue"
        );
        let c = srv.credits();
        assert_eq!(c.unanswered(), 21 + 21 + 20, "{c:?}");
        assert_eq!(c.spare[a], 0, "the credit it took");
        answer(&srv, [held, theirs, last]);
        for (stripe, n) in [(a, direct_a), (b, 20), (y, 21)] {
            srv.give_back(stripe, n);
            assert_bounded(&srv);
        }
        let c = srv.credits();
        assert_eq!(c.unanswered(), 0, "{c:?}");
        let st = srv.stats();
        assert_eq!((st.shed, st.served, st.batched_keys), (0, 5, 5));
    }

    #[test]
    fn a_flush_from_another_stripe_hands_its_credits_back_within_the_bound() {
        // Two stripes hold every credit: one request each queued under a
        // leader, the rest admitted directly. A third stripe, with nothing
        // queued of its own, finds the server saturated and flushes their
        // queues. The credits of those flushes go to its own stripe, which
        // keeps less than a chunk and returns the rest.
        let srv = credit_server();
        let a = striped::stripe_id();
        let mine = lead(&srv, 3);
        let (b, theirs) = off_stripe(&[a], || (striped::stripe_id(), lead(&srv, 6)));
        let mut direct = 0;
        for stripe in [a, b] {
            while admit_on(&srv, stripe) {
                direct += 1;
            }
        }
        let c = srv.credits();
        assert_eq!((c.granted, c.unanswered()), (64, 64), "{c:?}");
        let (c_stripe, third) = off_stripe(&[a, b], || {
            let third = lead(&srv, 9);
            (striped::stripe_id(), third)
        });
        let st = srv.stats();
        assert_eq!(st.ring_flushes, 2, "every other stripe's queue");
        let c = srv.credits();
        assert_eq!(c.unanswered(), 63, "{c:?}");
        assert_eq!((c.granted, c.spare[c_stripe]), (63, 0), "{c:?}");
        // The directly admitted requests answered by a flush on the third
        // stripe: it keeps one credit and returns the rest.
        srv.give_back(c_stripe, direct);
        let c = srv.credits();
        assert_eq!(
            (c.granted, c.spare[c_stripe], c.unanswered()),
            (2, 1, 1),
            "{c:?}"
        );
        answer(&srv, [mine, theirs, third]);
        let c = srv.credits();
        assert_eq!(c.unanswered(), 0, "{c:?}");
        assert_eq!(srv.stats().served, 3);
    }

    #[test]
    fn a_panicking_flush_gives_its_credits_back() {
        // `a_panicking_flush_gives_its_slots_back` with credits engaged:
        // forty panicking rings of two would hold 80 of 64 credits if
        // their flushes kept them.
        let index: Arc<dyn ConcurrentIndex> = Arc::new(Hooked(
            MapIndex::bulk_load(&[(3, 1), (6, 2)]),
            |keys: &[Key]| assert!(!keys.contains(&13), "a failing batch (expected)"),
        ));
        let cfg = ServeConfig {
            ring_width: 2,
            max_depth: 2 * STRIPES * 2,
        };
        let srv = BatchServer::new(index, cfg);
        assert_eq!(srv.credits().chunk, 2);
        let cx = &mut Context::from_waker(Waker::noop());
        for _ in 0..40 {
            let mut leader = pin!(srv.get(3));
            assert!(leader.as_mut().poll(cx).is_pending());
            let mut follower = Box::pin(srv.get(13));
            let polled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                follower.as_mut().poll(cx)
            }));
            assert!(polled.is_err(), "the flush panicked");
            drop(follower);
            assert_eq!(
                leader.as_mut().poll(cx),
                Poll::Ready(Err(ServeError::Shutdown))
            );
            assert_bounded(&srv);
        }
        let c = srv.credits();
        assert_eq!(c.unanswered(), 0, "{c:?}");
        let mut fresh = pin!(srv.get(6));
        assert!(fresh.as_mut().poll(cx).is_pending(), "admitted");
        assert_eq!(fresh.as_mut().poll(cx), Poll::Ready(Ok(Some(2))));
        let st = srv.stats();
        assert_eq!((st.shed, st.served), (0, 1));
    }

    #[test]
    fn saturated_server_sheds() {
        // With max_depth == 1 and an index whose get_batch blocks, the
        // single in-flight slot stays occupied for 50ms at a time while
        // 32 submitters hammer the server — admission control must shed.
        let index: Arc<dyn ConcurrentIndex> = Arc::new(Hooked(
            MapIndex::bulk_load(&[(3, 1), (6, 2)]),
            |_: &[Key]| std::thread::sleep(Duration::from_millis(50)),
        ));
        let srv = Arc::new(BatchServer::new(
            index,
            ServeConfig {
                ring_width: 1,
                max_depth: 1,
            },
        ));
        let rt = Builder::new_multi_thread()
            .worker_threads(8)
            .build()
            .unwrap();
        let handles: Vec<_> = (0..32u64)
            .map(|k| {
                let srv = Arc::clone(&srv);
                rt.spawn(async move { srv.get(k).await })
            })
            .collect();
        let results = rt.block_on(async {
            let mut out = Vec::new();
            for h in handles {
                out.push(h.await.unwrap());
            }
            out
        });
        let shed = results
            .iter()
            .filter(|r| matches!(r, Err(ServeError::Overloaded)))
            .count() as u64;
        assert_eq!(srv.stats().shed, shed);
        // With a 50ms flush and 32 rapid-fire submitters over a
        // 1-deep queue, admission control must have shed something.
        assert!(shed > 0, "expected overload shedding");
    }
}
