//! Unit tests: the op streams are a pure function of the seed, write keys
//! are partitioned disjointly, the oracle sees a lost write, and spans
//! nest. Workloads run at 1/64 of their size and with two client threads
//! whatever the host has, so the pinned digests hold everywhere.

use crate::drive::{self, Limit};
use crate::spec::{Spec, WORKLOADS};
use crate::stream::{self, Plan};
use crate::trace::{self, Traced};
use alt_index::AltIndex;
use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: usize = 2;

fn small(spec: &Spec) -> Spec {
    spec.scaled(64)
}

fn whole() -> Limit {
    Limit {
        deadline: None,
        sample_every: [1; 3],
    }
}

/// Digests of `make_plan(spec.scaled(64), 1, 2)`, in `WORKLOADS` order. A
/// change here means every recorded number was taken on other inputs.
const GOLDEN: [u64; 5] = [
    0xb6d1_64c2_223f_7611,
    0xa0ce_d250_67b0_bb0b,
    0x9176_3c73_af64_e222,
    0x626a_150c_903f_f59e,
    0xc362_fd94_7826_7b58,
];

#[test]
fn streams_are_a_function_of_the_seed() {
    for (spec, golden) in WORKLOADS.iter().zip(GOLDEN) {
        let spec = small(spec);
        let one = stream::digest(&stream::make_plan(&spec, 1, THREADS));
        assert_eq!(
            one,
            stream::digest(&stream::make_plan(&spec, 1, THREADS)),
            "{}",
            spec.name
        );
        assert_ne!(
            one,
            stream::digest(&stream::make_plan(&spec, 2, THREADS)),
            "{}",
            spec.name
        );
        assert_eq!(one, golden, "{}: digest {one:#018x}", spec.name);
    }
}

#[test]
fn write_keys_are_partitioned_disjointly() {
    let reserve: Vec<u64> = (1..=10_000u64).map(|k| k * 7).collect();
    let (shares, probe) = stream::partition_reserve(&reserve, 3, 100);
    assert_eq!(probe.len(), 100);
    let mut all: Vec<u64> = shares.iter().flatten().chain(&probe).copied().collect();
    all.sort_unstable();
    assert_eq!(all, reserve, "every reserve key has exactly one owner");

    // In the generated streams: no key is inserted by two clients, and no
    // stream touches a probe key.
    for spec in &WORKLOADS {
        let plan = stream::make_plan(&small(spec), 3, THREADS);
        let mut inserted: Vec<u64> = Vec::new();
        for s in &plan.main {
            inserted.extend(
                s.kinds
                    .iter()
                    .zip(&s.keys)
                    .filter(|(&k, _)| k == stream::INSERT)
                    .map(|(_, &key)| key),
            );
            assert!(
                s.keys.iter().all(|k| plan.probe_keys.binary_search(k).is_err()),
                "{}",
                spec.name
            );
        }
        let n = inserted.len();
        inserted.sort_unstable();
        inserted.dedup();
        assert_eq!(inserted.len(), n, "{}: a key is inserted twice", spec.name);
    }
}

/// Run a plan's streams to their end and count what the oracle objects to.
fn violations<I: ConcurrentIndex>(idx: &I, plan: &Plan) -> u64 {
    let outs = drive::run_threads(
        idx,
        &plan.data,
        &plan.main,
        whole(),
        None,
        drive::sample_buffers(plan.main.len()),
    );
    let executed: Vec<u64> = outs.iter().map(|c| c.ops).collect();
    let extra = drive::live_inserts(&plan.main, &executed);
    outs.iter().map(|c| c.failed).sum::<u64>() + drive::verify_final(idx, &plan.data.bulk, &extra, THREADS)
}

/// An index that acknowledges every 100th insert without doing it.
struct DropsInserts(AltIndex, AtomicUsize);

impl ConcurrentIndex for DropsInserts {
    fn get(&self, key: Key) -> Option<Value> {
        self.0.get(key)
    }
    fn insert(&self, key: Key, value: Value) -> Result<()> {
        if self.1.fetch_add(1, Ordering::Relaxed) % 100 == 99 {
            return Ok(());
        }
        self.0.insert(key, value)
    }
    fn update(&self, key: Key, value: Value) -> Result<()> {
        self.0.update(key, value)
    }
    fn remove(&self, key: Key) -> Option<Value> {
        self.0.remove(key)
    }
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        self.0.range(lo, hi, out)
    }
    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        ConcurrentIndex::scan(&self.0, lo, n, out)
    }
    fn memory_usage(&self) -> usize {
        self.0.memory_usage()
    }
    fn len(&self) -> usize {
        ConcurrentIndex::len(&self.0)
    }
    fn name(&self) -> &'static str {
        "drops-inserts"
    }
}

#[test]
fn oracle_accepts_a_correct_index_and_sees_a_lost_insert() {
    for spec in WORKLOADS.iter().filter(|s| !s.read_only()) {
        let plan = stream::make_plan(&small(spec), 5, THREADS);
        assert_eq!(
            violations(&AltIndex::bulk_load(&plan.data.bulk), &plan),
            0,
            "{}",
            spec.name
        );
        let lossy = DropsInserts(AltIndex::bulk_load(&plan.data.bulk), AtomicUsize::new(0));
        assert!(
            violations(&lossy, &plan) > 0,
            "{}: lost inserts went unnoticed",
            spec.name
        );
    }
}

#[test]
fn read_only_workloads_pass_the_oracle() {
    for spec in WORKLOADS.iter().filter(|s| s.read_only()) {
        let plan = stream::make_plan(&small(spec), 5, THREADS);
        assert_eq!(
            violations(&AltIndex::bulk_load(&plan.data.bulk), &plan),
            0,
            "{}",
            spec.name
        );
    }
}

#[test]
fn quantile_is_the_mean_of_a_one_percent_rank_window() {
    let sorted: Vec<u32> = (0..1000).collect();
    assert_eq!(crate::quantile_ns(&sorted, 0.50), 499.5);
    assert_eq!(crate::quantile_ns(&sorted, 0.99), 989.5);
    assert_eq!(crate::quantile_ns(&[7], 0.99), 7.0);
}

#[test]
fn spans_nest_and_carry_their_cause() {
    type Inner = Traced<AltIndex, { trace::ALT }>;
    type Outer = Traced<Inner, { trace::REGION }>;
    let pairs: Vec<(u64, u64)> = (1..=1000u64).map(|k| (k * 3, k)).collect();
    let idx = Outer::bulk_load(&pairs);
    assert_eq!(idx.get(30), Some(10));
    let mut out = [None; 2];
    idx.get_batch(&[3, 4], &mut out);
    assert_eq!(out, [Some(1), None]);

    let mine = trace::drain();
    for op in [trace::OP_BULK_LOAD, trace::OP_GET, trace::OP_GET_BATCH] {
        let outer = mine
            .iter()
            .find(|s| s.layer == trace::REGION && s.op == op)
            .expect("outer span");
        let inner = mine
            .iter()
            .find(|s| s.layer == trace::ALT && s.op == op)
            .expect("inner span");
        assert_eq!(inner.parent, outer.id, "the inner call was caused by the outer one");
        assert_eq!(outer.parent, 0);
        assert!(
            outer.start <= inner.start && inner.end <= outer.end,
            "self time is never negative"
        );
    }
    let batch = mine.iter().find(|s| s.op == trace::OP_GET_BATCH).expect("batch span");
    assert_eq!(batch.tag, 2, "a batch span is tagged with its size");
}

#[test]
fn runs_layout_withholds_consecutive_runs() {
    let spec = small(Spec::by_name("write_hot").as_ref().expect("workload"));
    let crate::spec::Layout::Runs { count, len } = spec.layout else {
        panic!("write_hot withholds runs")
    };
    let all = datasets::generate(spec.dataset, spec.generated, 9);
    let data = stream::make_data(&spec, 9);
    assert_eq!(data.reserve.len(), count * len);
    assert_eq!(data.bulk.len() + data.reserve.len(), all.len());
    for run in data.reserve.chunks(len) {
        let at = all.binary_search(&run[0]).expect("a dataset key");
        assert_eq!(run, &all[at..at + len], "a run is consecutive in the dataset");
        assert!(data.bulk.binary_search_by_key(&run[0], |p| p.0).is_err());
    }
}

#[test]
fn a_host_corrected_section_runs_in_segments_between_reference_windows() {
    let spec = small(Spec::by_name("write_mix").as_ref().expect("workload"));
    let plan = stream::make_plan(&spec, 5, THREADS);
    let idx = AltIndex::bulk_load(&plan.data.bulk);
    let limit = Limit {
        deadline: Some(std::time::Duration::from_secs(1)),
        sample_every: [1; 3],
    };
    let reference = crate::host::Reference::new();
    let outs = drive::run_threads(
        &idx,
        &plan.data,
        &plan.main,
        limit,
        Some(&reference),
        drive::sample_buffers(plan.main.len()),
    );
    for c in &outs {
        assert_eq!((c.segments.len(), c.windows.len()), (2, 3));
        assert!(c.windows.iter().all(|&ns| ns > 0.0));
        assert!(c.segments.iter().all(|s| s.secs < 1.0));
        assert!(c.segments[0].marks[0] <= c.segments[1].marks[0]);
        assert_eq!(c.segments[1].marks[0], c.samples[0].len());
        assert_eq!(c.failed, 0);
    }
    // Same speed in every window: the correction is the identity.
    let nominal = crate::host::Reference::NOMINAL_WINDOW_NS;
    let mut flat = outs;
    for c in &mut flat {
        c.windows = vec![nominal / 2.0; 3];
    }
    assert_eq!(crate::segment_speeds(&flat), [2.0, 2.0]);
    let (raw, scaled) = (
        crate::pooled_samples(&flat, 0, &[1.0, 1.0]),
        crate::pooled_samples(&flat, 0, &[2.0, 2.0]),
    );
    assert_eq!(raw.len(), flat.iter().map(|c| c.samples[0].len()).sum::<usize>());
    assert!(raw.iter().zip(&scaled).all(|(&r, &s)| s == 2 * r));
}
