//! Seeded multi-threaded workload driver wiring chaos + oracle together.
//!
//! A [`Scenario`] deterministically derives, from one seed: the initial
//! bulk-load contents, every thread's operation script, and the chaos
//! perturbation schedule. Running the same scenario twice issues exactly
//! the same operations; with the `chaos` features enabled in the crates
//! under test, the same delay pattern is re-applied too.

use std::sync::{Barrier, Mutex, PoisonError};

use index_api::{ConcurrentIndex, Key, Value};

use crate::oracle::{self, History, OracleReport, Recorder};
use probe::{chaos, SplitMix64};

/// How threads share the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Each thread owns a disjoint key slice — checked with the exact
    /// sequential-replay oracle.
    Disjoint,
    /// All threads draw from one shared pool — checked with the
    /// last-writer-wins oracle.
    Shared,
}

/// A deterministic concurrent workload description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed: scripts, preload, and chaos schedule derive from it.
    pub seed: u64,
    /// Worker thread count.
    pub threads: usize,
    /// Operations issued per thread.
    pub ops_per_thread: usize,
    /// Keys per thread (disjoint) or shared-pool size (shared).
    pub keys_per_thread: usize,
    /// Key-space sharing mode, which also selects the oracle.
    pub partition: Partition,
    /// Chaos perturbation probability out of 1024; `0` skips installing
    /// a schedule (points stay inert).
    pub chaos_intensity: u32,
    /// Batched-read width: `>= 2` coalesces runs of consecutive `Get`
    /// ops into `get_batch` calls of at most this many keys (flushing
    /// early at any mutation, so event order is preserved); `0` or `1`
    /// issues scalar `get`s. The oracle treats the batch as consecutive
    /// per-key reads either way.
    pub batch_width: usize,
}

impl Scenario {
    /// A default-shaped scenario for `seed`: 8 threads, disjoint keys,
    /// moderate chaos.
    pub fn disjoint(seed: u64) -> Self {
        Self {
            seed,
            threads: 8,
            ops_per_thread: 800,
            keys_per_thread: 192,
            partition: Partition::Disjoint,
            chaos_intensity: 256,
            batch_width: 0,
        }
    }

    /// A default-shaped shared-key scenario for `seed`.
    pub fn shared(seed: u64) -> Self {
        Self {
            partition: Partition::Shared,
            ..Self::disjoint(seed)
        }
    }

    /// Total key universe: `1 ..= threads * keys_per_thread`, offset past
    /// the reserved key 0.
    fn universe(&self) -> u64 {
        (self.threads * self.keys_per_thread) as u64
    }

    /// The thread-`t` key for local index `i` under the partition mode.
    fn key_for(&self, t: usize, i: u64) -> Key {
        match self.partition {
            Partition::Disjoint => 1 + (t * self.keys_per_thread) as u64 + i,
            Partition::Shared => 1 + i,
        }
    }

    /// Deterministic initial contents. Bulk-load (or pre-insert) exactly
    /// these pairs before calling [`Scenario::run`]; the oracle is told
    /// the same set. Roughly a third of the universe is preloaded.
    pub fn initial_pairs(&self) -> Vec<(Key, Value)> {
        let mut rng = SplitMix64::new(self.seed ^ 0x1A17_5EED_0001);
        let mut out = Vec::new();
        for k in 1..=self.universe() {
            if rng.next_below(3) == 0 {
                out.push((k, k.wrapping_mul(0x9E37) ^ self.seed));
            }
        }
        out
    }

    /// Run the workload against `index` (already loaded with
    /// [`Scenario::initial_pairs`]) and oracle-check the result.
    pub fn run(&self, index: &dyn ConcurrentIndex) -> Result<(), OracleReport> {
        let initial = self.initial_pairs();
        let scripts: Vec<Vec<oracle::Op>> = (0..self.threads).map(|t| self.script_for(t)).collect();

        // The chaos schedule is process-global: serialize chaos scenarios
        // so parallel test functions don't supersede each other's seeds.
        static SCHEDULE_OWNER: Mutex<()> = Mutex::new(());
        let _serial = (self.chaos_intensity > 0).then(|| {
            SCHEDULE_OWNER
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        });
        let _guard = (self.chaos_intensity > 0)
            .then(|| chaos::install_schedule(self.seed, self.chaos_intensity));

        let barrier = Barrier::new(self.threads);
        let histories: Vec<History> = std::thread::scope(|s| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|script| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut rec = Recorder::new(index);
                        barrier.wait();
                        if self.batch_width >= 2 {
                            // Coalesce runs of consecutive gets into
                            // get_batch calls; any mutation flushes first
                            // so the recorded event order matches the
                            // issue order.
                            let mut buf: Vec<Key> = Vec::with_capacity(self.batch_width);
                            for &op in script {
                                if let oracle::Op::Get(k) = op {
                                    buf.push(k);
                                    if buf.len() == self.batch_width {
                                        rec.get_batch(&buf);
                                        buf.clear();
                                    }
                                    continue;
                                }
                                if !buf.is_empty() {
                                    rec.get_batch(&buf);
                                    buf.clear();
                                }
                                exec(&mut rec, op);
                            }
                            if !buf.is_empty() {
                                rec.get_batch(&buf);
                            }
                        } else {
                            for &op in script {
                                exec(&mut rec, op);
                            }
                        }
                        rec.into_history()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        match self.partition {
            Partition::Disjoint => oracle::check_disjoint(index, &initial, &histories),
            Partition::Shared => oracle::check_lww(index, &initial, &histories),
        }
    }

    /// Thread `t`'s deterministic op script. Mix: ~30% get, ~5% scan,
    /// ~20% insert, ~15% update, ~15% upsert, ~15% remove.
    fn script_for(&self, t: usize) -> Vec<oracle::Op> {
        let mut rng = SplitMix64::new(
            self.seed ^ (t as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x5C21_9700,
        );
        let keys = match self.partition {
            Partition::Disjoint => self.keys_per_thread as u64,
            Partition::Shared => self.universe(),
        };
        (0..self.ops_per_thread)
            .map(|_| {
                let k = self.key_for(t, rng.next_below(keys));
                let v = rng.next_u64() | 1; // never 0, easier to eyeball
                match rng.next_below(100) {
                    0..=29 => oracle::Op::Get(k),
                    // Scans sweep many slots mid-churn, so they observe
                    // torn optimistic reads point gets rarely line up
                    // with.
                    30..=34 => oracle::Op::Scan(k, 1 + rng.next_below(24) as usize),
                    35..=54 => oracle::Op::Insert(k, v),
                    55..=69 => oracle::Op::Update(k, v),
                    70..=84 => oracle::Op::Upsert(k, v),
                    _ => oracle::Op::Remove(k),
                }
            })
            .collect()
    }
}

fn exec(rec: &mut Recorder<'_>, op: oracle::Op) {
    match op {
        oracle::Op::Get(k) => {
            rec.get(k);
        }
        oracle::Op::Insert(k, v) => {
            let _ = rec.insert(k, v);
        }
        oracle::Op::Update(k, v) => {
            let _ = rec.update(k, v);
        }
        oracle::Op::Upsert(k, v) => {
            let _ = rec.upsert(k, v);
        }
        oracle::Op::Remove(k) => {
            rec.remove(k);
        }
        oracle::Op::Scan(lo, n) => {
            rec.scan(lo, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    struct LockedMap(Mutex<BTreeMap<Key, Value>>);

    impl ConcurrentIndex for LockedMap {
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn insert(&self, key: Key, value: Value) -> index_api::Result<()> {
            let mut m = self.0.lock().unwrap();
            if key == index_api::RESERVED_KEY {
                return Err(index_api::IndexError::ReservedKey);
            }
            if m.contains_key(&key) {
                return Err(index_api::IndexError::DuplicateKey);
            }
            m.insert(key, value);
            Ok(())
        }
        fn update(&self, key: Key, value: Value) -> index_api::Result<()> {
            match self.0.lock().unwrap().get_mut(&key) {
                Some(v) => {
                    *v = value;
                    Ok(())
                }
                None => Err(index_api::IndexError::KeyNotFound),
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
            0
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn name(&self) -> &'static str {
            "locked-map"
        }
    }

    #[test]
    fn scripts_are_deterministic() {
        let s = Scenario::disjoint(7);
        assert_eq!(s.script_for(3), s.script_for(3));
        assert_ne!(s.script_for(0), s.script_for(1));
        assert_eq!(s.initial_pairs(), s.initial_pairs());
    }

    #[test]
    fn disjoint_scenario_passes_on_correct_index() {
        let s = Scenario::disjoint(11);
        let idx = LockedMap(Mutex::new(s.initial_pairs().into_iter().collect()));
        s.run(&idx).unwrap();
    }

    #[test]
    fn shared_scenario_passes_on_correct_index() {
        let s = Scenario::shared(13);
        let idx = LockedMap(Mutex::new(s.initial_pairs().into_iter().collect()));
        s.run(&idx).unwrap();
    }

    #[test]
    fn batched_scenario_passes_on_correct_index() {
        let mut s = Scenario::disjoint(17);
        s.batch_width = 8;
        let idx = LockedMap(Mutex::new(s.initial_pairs().into_iter().collect()));
        s.run(&idx).unwrap();
        let mut s = Scenario::shared(19);
        s.batch_width = 8;
        let idx = LockedMap(Mutex::new(s.initial_pairs().into_iter().collect()));
        s.run(&idx).unwrap();
    }
}
