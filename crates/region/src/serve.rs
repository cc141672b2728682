//! The async batched serving front-end: per-shard submission queues that
//! accumulate in-flight point lookups into `get_batch` rings.
//!
//! Every queued request is a `(key, oneshot)` pair. Two paths drain a
//! queue into one [`ConcurrentIndex::get_batch`] call:
//!
//! * **ring fill** — the submitter whose push reaches `ring_width`
//!   drains and executes the full ring inline;
//! * **group-commit leadership** — the submitter that finds the queue
//!   *empty* becomes the leader: it yields to the executor once (letting
//!   every runnable peer pile its request on) and then flushes whatever
//!   accumulated. Batch sizes therefore adapt to the instantaneous load
//!   — 1 when idle, `ring_width` under saturation — without waiting on
//!   any timer.
//!
//! Under load the AMAC engines (DESIGN.md §13) thus see real batches on
//! the serving path with zero extra threads on the critical path. A
//! background flusher still sweeps the queues on a short interval as a
//! straggler bound for requests whose leader already flushed.
//!
//! # Overload semantics (DESIGN.md §17)
//!
//! Admission is a bound on **in-flight requests** (queued plus executing
//! in a ring). A submitter that finds the server saturated retries
//! through the `resilience` global retry budget (spin → yield → park,
//! the repo-wide contention policy); if the budget escalates — the
//! server stayed saturated through the whole backoff ladder — the
//! request is **shed** with [`ServeError::Overloaded`] rather than
//! queued into unbounded latency. Under saturation the system therefore
//! degrades by rejecting, not by collapsing: P99.9 of *served* requests
//! stays bounded by `max_depth` × flush latency.

use crate::metrics_hook;
use crate::router::lock;
use index_api::{ConcurrentIndex, Key, Value};
use resilience::{Retry, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use tokio::sync::oneshot;

/// Tuning knobs for a [`BatchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Submissions that fill a queue to this depth trigger an inline
    /// `get_batch` flush. Multiples of the AMAC ring width (8) make the
    /// engines' rings run full.
    pub ring_width: usize,
    /// Admission bound on **in-flight requests** (queued plus currently
    /// executing in a `get_batch` ring), across the whole server.
    /// Submissions beyond it back off and eventually shed. Must be at
    /// least `ring_width`.
    pub max_depth: usize,
    /// Background sweep interval for partially-filled queues (straggler
    /// latency bound while traffic ramps down).
    pub flush_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ring_width: 16,
            max_depth: 1024,
            flush_interval: Duration::from_micros(100),
        }
    }
}

/// Why a request was not served (see [`BatchServer::get`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue stayed full through the whole retry budget;
    /// the request was shed by admission control.
    Overloaded,
    /// The server shut down while the request was in flight.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "request shed: submission queue saturated"),
            ServeError::Shutdown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Point-in-time serving counters (always on, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests completed with a result.
    pub served: u64,
    /// `get_batch` flushes executed (inline + background).
    pub flushes: u64,
    /// Keys submitted across all flushes.
    pub batched_keys: u64,
    /// Requests shed by admission control.
    pub shed: u64,
}

#[derive(Default)]
struct StatsInner {
    served: AtomicU64,
    flushes: AtomicU64,
    batched_keys: AtomicU64,
    shed: AtomicU64,
}

struct Pending {
    key: Key,
    tx: oneshot::Sender<Option<Value>>,
}

struct Shared {
    index: Arc<dyn ConcurrentIndex>,
    queues: Vec<Mutex<Vec<Pending>>>,
    cfg: ServeConfig,
    stats: StatsInner,
    /// Requests admitted but not yet answered (queued or inside a
    /// flush). This — not queue depth — is the admission-control gauge:
    /// full rings are drained inline, so queues themselves never jam,
    /// but a slow `get_batch` under overload keeps requests in flight.
    in_flight: AtomicU64,
    /// Flusher shutdown flag + wakeup: a condvar (not a bare sleep) so
    /// `Drop` can interrupt an arbitrarily long flush interval.
    shutdown: Mutex<bool>,
    wake: Condvar,
}

impl Shared {
    /// Execute one ring: a single `get_batch` over the drained queue,
    /// then complete every oneshot.
    fn flush(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let keys: Vec<Key> = batch.iter().map(|p| p.key).collect();
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        self.index.get_batch(&keys, &mut out);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .batched_keys
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        metrics_hook::batch_flush();
        let answered = batch.len() as u64;
        for (p, v) in batch.into_iter().zip(out) {
            // A dropped receiver (cancelled caller) is fine.
            let _ = p.tx.send(v);
        }
        self.in_flight.fetch_sub(answered, Ordering::Release);
    }

    /// Drain-and-flush every queue once (background sweep / shutdown).
    fn sweep(&self) {
        for q in &self.queues {
            let batch = std::mem::take(&mut *lock(q));
            self.flush(batch);
        }
    }
}

/// An async batching front-end over any [`ConcurrentIndex`]. Cheap to
/// share: callers hold it in an `Arc` and submit from any number of
/// tasks. See the module docs for the batching and overload protocol.
pub struct BatchServer {
    shared: Arc<Shared>,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl BatchServer {
    /// Build a server over `index` with one submission queue per batch
    /// domain ([`ConcurrentIndex::batch_domains`] — the region router
    /// reports its shard count, monolithic indexes report 1). Spawns the
    /// background flusher thread.
    pub fn new(index: Arc<dyn ConcurrentIndex>, cfg: ServeConfig) -> Self {
        assert!(cfg.ring_width > 0, "ring_width must be positive");
        assert!(
            cfg.max_depth >= cfg.ring_width,
            "max_depth must be at least ring_width"
        );
        let domains = index.batch_domains().max(1);
        let shared = Arc::new(Shared {
            index,
            queues: (0..domains)
                .map(|_| Mutex::new(Vec::with_capacity(cfg.ring_width)))
                .collect(),
            cfg,
            stats: StatsInner::default(),
            in_flight: AtomicU64::new(0),
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
        });
        let flusher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("region-flusher".into())
                .spawn(move || loop {
                    {
                        // `_while` checks the flag before the first wait: a
                        // shutdown signalled during the sweep below is seen
                        // at once, not after a whole `flush_interval`.
                        let (down, _) = shared
                            .wake
                            .wait_timeout_while(
                                lock(&shared.shutdown),
                                shared.cfg.flush_interval,
                                |down| !*down,
                            )
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        if *down {
                            return;
                        }
                    }
                    shared.sweep();
                })
                .expect("spawn region flusher thread")
        };
        BatchServer {
            shared,
            flusher: Some(flusher),
        }
    }

    /// Submit one point lookup. Resolves when the ring containing it is
    /// flushed (inline on ring fill, or by the background sweep). Sheds
    /// with [`ServeError::Overloaded`] when admission control gives up.
    pub async fn get(&self, key: Key) -> Result<Option<Value>, ServeError> {
        let s = &*self.shared;
        let d = s.index.batch_domain_of(key) % s.queues.len();
        // Admission: reserve an in-flight slot, backing off (and finally
        // shedding) while the server is saturated. The waits block the
        // executor thread briefly — acceptable for the shimmed
        // thread-per-worker runtime, and exactly the backpressure we
        // want: saturation should slow submitters down before shedding.
        let mut retry = Retry::new();
        loop {
            let cur = s.in_flight.load(Ordering::Acquire);
            if (cur as usize) < s.cfg.max_depth
                && s.in_flight
                    .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                break;
            }
            if (cur as usize) < s.cfg.max_depth {
                continue; // lost the CAS race, not saturated — just retry
            }
            match retry.step_global() {
                Step::Wait(_) => {}
                Step::Escalate => {
                    s.stats.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded);
                }
            }
        }
        let (rx, lead) = {
            let mut q = lock(&s.queues[d]);
            let (tx, rx) = oneshot::channel();
            q.push(Pending { key, tx });
            let len = q.len();
            let ready = if len >= s.cfg.ring_width {
                Some(std::mem::take(&mut *q))
            } else {
                None
            };
            drop(q);
            if let Some(batch) = ready {
                s.flush(batch);
                (rx, false)
            } else {
                (rx, len == 1)
            }
        };
        if lead {
            // Group-commit leadership: the first submitter into an empty
            // queue yields to the executor once — letting every runnable
            // peer pile its request on — then flushes whatever
            // accumulated. Batch sizes adapt to the instantaneous load
            // (1 when idle, up to ring_width under load) without waiting
            // on the background sweep interval.
            tokio::task::yield_now().await;
            let batch = std::mem::take(&mut *lock(&s.queues[d]));
            s.flush(batch);
        }
        match rx.await {
            Ok(v) => {
                s.stats.served.fetch_add(1, Ordering::Relaxed);
                Ok(v)
            }
            Err(_) => Err(ServeError::Shutdown),
        }
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            served: s.served.load(Ordering::Relaxed),
            flushes: s.flushes.load(Ordering::Relaxed),
            batched_keys: s.batched_keys.load(Ordering::Relaxed),
            shed: s.shed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        *lock(&self.shared.shutdown) = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        // Complete any stragglers so awaiting callers resolve instead of
        // seeing Shutdown.
        self.shared.sweep();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MapIndex;
    use index_api::BulkLoad;
    use tokio::runtime::Builder;

    fn server(cfg: ServeConfig) -> (Arc<BatchServer>, Vec<(Key, Value)>) {
        let pairs: Vec<(Key, Value)> = (1..=500u64).map(|k| (k * 3, k)).collect();
        let index: Arc<dyn ConcurrentIndex> = Arc::new(MapIndex::bulk_load(&pairs));
        (Arc::new(BatchServer::new(index, cfg)), pairs)
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
        let cfg = ServeConfig {
            ring_width: 8,
            max_depth: 64,
            // Effectively disable the background sweep: only full rings
            // and group-commit leaders flush, so those paths alone must
            // complete every request.
            flush_interval: Duration::from_secs(3600),
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
    fn saturated_server_sheds() {
        // With max_depth == 1 and an index whose get_batch blocks, the
        // single in-flight slot stays occupied for 50ms at a time while
        // 32 submitters hammer the server — admission control must shed.
        struct SlowIndex(MapIndex);
        impl ConcurrentIndex for SlowIndex {
            fn get(&self, key: Key) -> Option<Value> {
                self.0.get(key)
            }
            fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
                std::thread::sleep(Duration::from_millis(50));
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
                "slow"
            }
        }
        let index: Arc<dyn ConcurrentIndex> =
            Arc::new(SlowIndex(MapIndex::bulk_load(&[(3, 1), (6, 2)])));
        let srv = Arc::new(BatchServer::new(
            index,
            ServeConfig {
                ring_width: 1,
                max_depth: 1,
                flush_interval: Duration::from_secs(3600),
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
