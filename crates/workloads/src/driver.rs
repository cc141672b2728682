//! The multi-threaded measurement driver: one loop that runs one [`Op`]
//! stream per thread over any [`ConcurrentIndex`] and reports throughput,
//! sampled tail latencies (the paper reports million ops/sec and P99.9
//! µs) and, when asked, completions per fixed-width time bucket (the
//! throughput-over-time curves behind the retrain-stall measurement).
//!
//! The streams are the caller's — [`crate::WorkloadPlan::stream`],
//! [`crate::YcsbPlan::stream`], [`crate::ShiftPlan::stream`] — so the
//! same deterministic streams can be replayed against a second index;
//! their count is the thread count.

use crate::histogram::LatencyHistogram;
use crate::mix::Op;
use index_api::ConcurrentIndex;
use std::sync::Barrier;
use std::time::Instant;

/// Driver knobs.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Measure latency on every `latency_sample_every`-th timed unit (an
    /// operation, or one whole `get_batch` flush; 1 = all; higher values
    /// keep the timer overhead off the hot path).
    pub latency_sample_every: usize,
    /// Batched-read width: `>= 2` buffers consecutive `Op::Read`s and
    /// issues them through [`ConcurrentIndex::get_batch`] (flushing early
    /// at any write/scan so ordering against mutations is preserved);
    /// `0` or `1` keeps the scalar read path.
    pub batch: usize,
    /// Width in milliseconds of [`RunResult::buckets`]; `0` records no
    /// buckets and keeps the per-operation clock read off the hot path.
    pub bucket_ms: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            latency_sample_every: 16,
            batch: 0,
            bucket_ms: 0,
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Total operations executed.
    pub total_ops: usize,
    /// Wall-clock seconds (max across threads).
    pub secs: f64,
    /// Throughput in million operations per second.
    pub mops: f64,
    /// Median sampled latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile sampled latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile sampled latency, microseconds — the paper's tail
    /// metric.
    pub p999_us: f64,
    /// Reads that found a key (sanity signal; should be ~100% for
    /// key-recall workloads).
    pub read_hits: usize,
    /// Total reads issued.
    pub reads: usize,
    /// Inserts that were rejected as duplicates (should be 0 with
    /// thread-disjoint streams).
    pub failed_inserts: usize,
    /// Width of each time bucket in milliseconds (the
    /// [`DriverConfig::bucket_ms`] of the run).
    pub bucket_ms: u64,
    /// Operations completed per fixed-width time bucket since the
    /// barrier, summed across threads. `buckets[i]` covers
    /// `[i * bucket_ms, (i+1) * bucket_ms)`; empty when `bucket_ms` is 0.
    pub buckets: Vec<u64>,
}

impl RunResult {
    /// Per-bucket throughput in million ops/sec, for curve plotting.
    pub fn bucket_mops(&self) -> Vec<f64> {
        let per_sec = 1_000.0 / self.bucket_ms.max(1) as f64;
        self.buckets
            .iter()
            .map(|&n| n as f64 * per_sec / 1e6)
            .collect()
    }
}

/// One thread's counters; [`run`] sums them into the [`RunResult`].
struct Worker<'a> {
    cfg: &'a DriverConfig,
    start: Instant,
    lat: LatencyHistogram,
    buckets: Vec<u64>,
    /// Timed units so far (operations and batch flushes): the sampling
    /// clock.
    units: usize,
    ops: usize,
    reads: usize,
    hits: usize,
    failed: usize,
}

impl Worker<'_> {
    /// Start a timed unit: `Some(now)` when this one is sampled.
    fn begin(&self) -> Option<Instant> {
        self.units
            .is_multiple_of(self.cfg.latency_sample_every.max(1))
            .then(Instant::now)
    }

    /// Finish a timed unit that completed `ops` operations.
    fn end(&mut self, t0: Option<Instant>, ops: usize) {
        if let Some(t0) = t0 {
            self.lat.record(t0.elapsed().as_nanos() as u64);
        }
        self.units += 1;
        self.ops += ops;
        if self.cfg.bucket_ms == 0 {
            return; // no buckets: no per-operation clock read
        }
        let b = (self.start.elapsed().as_millis() as u64 / self.cfg.bucket_ms) as usize;
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += ops as u64;
    }

    /// Drain the buffered read keys through `get_batch` as one timed
    /// unit (a no-op on an empty buffer).
    fn flush<I: ConcurrentIndex + ?Sized>(
        &mut self,
        index: &I,
        keys: &mut Vec<u64>,
        out: &mut [Option<u64>],
    ) {
        if keys.is_empty() {
            return;
        }
        let out = &mut out[..keys.len()];
        let t0 = self.begin();
        index.get_batch(keys, out);
        self.reads += keys.len();
        self.hits += out.iter().filter(|o| o.is_some()).count();
        self.end(t0, keys.len());
        keys.clear();
    }

    /// Execute `stream` to exhaustion; returns the elapsed seconds.
    fn drive<I: ConcurrentIndex + ?Sized>(
        &mut self,
        index: &I,
        stream: impl Iterator<Item = Op>,
    ) -> f64 {
        let batch = self.cfg.batch;
        let mut keys: Vec<u64> = Vec::with_capacity(batch);
        let mut out: Vec<Option<u64>> = vec![None; batch];
        let mut scan_buf: Vec<(u64, u64)> = Vec::with_capacity(128);
        self.start = Instant::now();
        for op in stream {
            if batch >= 2 {
                // Buffer consecutive reads; a write or scan flushes first
                // so the read sees every earlier mutation.
                if let Op::Read(k) = op {
                    keys.push(k);
                    if keys.len() == batch {
                        self.flush(index, &mut keys, &mut out);
                    }
                    continue;
                }
                self.flush(index, &mut keys, &mut out);
            }
            let t0 = self.begin();
            match op {
                Op::Read(k) => {
                    self.reads += 1;
                    self.hits += usize::from(index.get(k).is_some());
                }
                Op::Insert(k, v) => self.failed += usize::from(index.insert(k, v).is_err()),
                Op::Remove(k) => {
                    index.remove(k);
                }
                Op::Scan(k, len) => {
                    scan_buf.clear();
                    index.scan(k, len, &mut scan_buf);
                }
            }
            self.end(t0, 1);
        }
        self.flush(index, &mut keys, &mut out);
        self.start.elapsed().as_secs_f64()
    }
}

/// Run one operation stream per thread over `index`, all threads
/// released together by a barrier. Blocks until every stream is
/// exhausted.
pub fn run<I, S>(index: &I, streams: Vec<S>, cfg: &DriverConfig) -> RunResult
where
    I: ConcurrentIndex + ?Sized,
    S: Iterator<Item = Op> + Send,
{
    let barrier = Barrier::new(streams.len().max(1));
    let workers: Vec<(f64, Worker)> = std::thread::scope(|s| {
        let barrier = &barrier;
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                s.spawn(move || {
                    let mut w = Worker {
                        cfg,
                        start: Instant::now(),
                        lat: LatencyHistogram::new(),
                        buckets: Vec::new(),
                        units: 0,
                        ops: 0,
                        reads: 0,
                        hits: 0,
                        failed: 0,
                    };
                    barrier.wait();
                    (w.drive(index, stream), w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut r = RunResult {
        bucket_ms: cfg.bucket_ms,
        ..RunResult::default()
    };
    let mut lat = LatencyHistogram::new();
    for (secs, w) in workers {
        r.secs = r.secs.max(secs);
        lat.merge(&w.lat);
        r.total_ops += w.ops;
        r.reads += w.reads;
        r.read_hits += w.hits;
        r.failed_inserts += w.failed;
        if w.buckets.len() > r.buckets.len() {
            r.buckets.resize(w.buckets.len(), 0);
        }
        for (m, b) in r.buckets.iter_mut().zip(w.buckets) {
            *m += b;
        }
    }
    if r.secs > 0.0 {
        r.mops = r.total_ops as f64 / r.secs / 1e6;
    }
    let pct = |p: f64| lat.quantile(p) as f64 / 1_000.0;
    (r.p50_us, r.p99_us, r.p999_us) = (pct(0.50), pct(0.99), pct(0.999));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Mix;
    use crate::ops::{OpStream, WorkloadPlan};
    use index_api::{BulkLoad, IndexError, Key, Result, Value};
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Locked BTreeMap reference index for driver tests.
    struct RefIndex(Mutex<BTreeMap<Key, Value>>);

    impl ConcurrentIndex for RefIndex {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, value: Value) -> Result<()> {
            let mut m = self.0.lock().unwrap();
            if m.contains_key(&key) {
                return Err(IndexError::DuplicateKey);
            }
            m.insert(key, value);
            Ok(())
        }
        fn update(&self, key: Key, value: Value) -> Result<()> {
            match self.0.lock().unwrap().get_mut(&key) {
                Some(v) => {
                    *v = value;
                    Ok(())
                }
                None => Err(IndexError::KeyNotFound),
            }
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().remove(&key)
        }
        fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
            let m = self.0.lock().unwrap();
            let before = out.len();
            out.extend(m.range(lo..=hi).map(|(&k, &v)| (k, v)));
            out.len() - before
        }
        fn memory_usage(&self) -> usize {
            self.0.lock().unwrap().len() * 16
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "ref"
        }
    }

    impl BulkLoad for RefIndex {
        fn bulk_load(pairs: &[(Key, Value)]) -> Self {
            Self(Mutex::new(pairs.iter().copied().collect()))
        }
    }

    /// Even keys loaded, odd keys reserved, bulk-loaded into a fresh
    /// reference index.
    fn fixture(n: u64, mix: Mix, theta: f64, seed: u64) -> (RefIndex, WorkloadPlan) {
        let loaded: Vec<u64> = (1..=n).map(|i| i * 2).collect();
        let reserve: Vec<u64> = (1..=n).map(|i| i * 2 + 1).collect();
        let pairs: Vec<(u64, u64)> = loaded.iter().map(|&k| (k, k)).collect();
        (
            RefIndex::bulk_load(&pairs),
            WorkloadPlan::new(loaded, reserve, mix, theta, seed),
        )
    }

    fn streams(plan: &WorkloadPlan, threads: usize, ops: usize) -> Vec<OpStream> {
        (0..threads).map(|t| plan.stream(t, threads, ops)).collect()
    }

    fn cfg(latency_sample_every: usize, batch: usize, bucket_ms: u64) -> DriverConfig {
        DriverConfig {
            latency_sample_every,
            batch,
            bucket_ms,
        }
    }

    #[test]
    fn balanced_run_reports_sane_numbers() {
        let (idx, plan) = fixture(5_000, Mix::BALANCED, 0.99, 1);
        let r = run(&idx, streams(&plan, 4, 2_000), &cfg(4, 0, 0));
        assert_eq!(r.total_ops, 8_000);
        assert!(r.mops > 0.0);
        assert!(r.p999_us >= r.p99_us && r.p99_us >= r.p50_us);
        assert_eq!(r.failed_inserts, 0, "reserve slices are disjoint");
        assert_eq!(r.read_hits, r.reads, "every read key was loaded");
        assert!(r.buckets.is_empty(), "bucket_ms = 0 records no buckets");
    }

    #[test]
    fn batched_run_matches_scalar_counters() {
        let (idx, plan) = fixture(5_000, Mix::BALANCED, 0.99, 1);
        let scalar = run(&idx, streams(&plan, 2, 2_000), &cfg(4, 0, 0));
        let (idx, _) = fixture(5_000, Mix::BALANCED, 0.99, 1);
        let batched = run(&idx, streams(&plan, 2, 2_000), &cfg(4, 16, 0));
        // Same plan, fresh index: identical op/read/hit accounting, every
        // op executed exactly once through either path.
        assert_eq!(batched.total_ops, scalar.total_ops);
        assert_eq!(batched.reads, scalar.reads);
        assert_eq!(batched.read_hits, scalar.read_hits);
        assert_eq!(batched.failed_inserts, 0);
        assert!(batched.mops > 0.0);
    }

    /// One fixed single-thread stream — reads of loaded and of absent
    /// keys, a fresh insert, a duplicate insert, a remove, a scan, and a
    /// read tail that is not a multiple of the batch width — must count
    /// the same through the scalar path and through `get_batch`, with
    /// every op in exactly one bucket either way.
    #[test]
    fn batch_8_and_batch_0_agree_on_a_fixed_stream() {
        let mut ops = Vec::new();
        for i in 1..=40u64 {
            ops.push(Op::Read(i * 2)); // loaded
            ops.push(Op::Read(i * 2 + 1)); // absent until inserted below
            if i % 5 == 0 {
                ops.push(Op::Insert(i * 2 + 1, i)); // fresh
                ops.push(Op::Insert(i * 2, i)); // duplicate of a loaded key
                ops.push(Op::Read(i * 2 + 1)); // now present
            }
            if i % 9 == 0 {
                ops.push(Op::Remove(i * 2));
                ops.push(Op::Read(i * 2)); // now absent
                ops.push(Op::Scan(i, 10));
            }
        }
        ops.extend((1..=5u64).map(|i| Op::Read(i * 2)));
        let results: Vec<RunResult> = [0usize, 8]
            .into_iter()
            .map(|batch| {
                let (idx, _) = fixture(100, Mix::READ_ONLY, 0.5, 1);
                run(&idx, vec![ops.clone().into_iter()], &cfg(1, batch, 1))
            })
            .collect();
        let (scalar, batched) = (&results[0], &results[1]);
        assert_eq!(scalar.total_ops, ops.len());
        assert_eq!(scalar.failed_inserts, 8, "one duplicate per fifth key");
        assert!(scalar.read_hits > 0 && scalar.read_hits < scalar.reads);
        for r in [scalar, batched] {
            assert_eq!(r.total_ops, scalar.total_ops);
            assert_eq!(r.reads, scalar.reads);
            assert_eq!(r.read_hits, scalar.read_hits);
            assert_eq!(r.failed_inserts, scalar.failed_inserts);
            assert_eq!(r.buckets.iter().sum::<u64>() as usize, r.total_ops);
        }
    }

    #[test]
    fn timed_run_buckets_account_for_every_op() {
        use crate::shift::{ShiftKind, ShiftPlan};
        let plan = ShiftPlan::new(ShiftKind::RollingWindow, 11);
        let idx = RefIndex::bulk_load(&plan.initial_pairs());
        let threads = 2;
        let ops = 5_000;
        let streams: Vec<_> = (0..threads).map(|t| plan.stream(t, threads, ops)).collect();
        let r = run(&idx, streams, &cfg(16, 0, 5));
        assert_eq!(r.total_ops, threads * ops);
        assert_eq!(
            r.buckets.iter().sum::<u64>() as usize,
            r.total_ops,
            "every op lands in exactly one bucket"
        );
        assert_eq!(r.failed_inserts, 0, "shift streams are thread-disjoint");
        assert_eq!(r.bucket_ms, 5);
        assert!(r.mops > 0.0);
        assert_eq!(r.bucket_mops().len(), r.buckets.len());
    }

    #[test]
    fn scan_workload_runs() {
        let (idx, plan) = fixture(2_000, Mix::SCAN, 0.5, 2);
        let r = run(&idx, streams(&plan, 2, 200), &cfg(1, 0, 0));
        assert_eq!(r.total_ops, 400);
        assert_eq!(r.reads, 0);
    }
}
