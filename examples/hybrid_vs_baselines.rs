//! Head-to-head: ALT-index against every baseline on one balanced
//! workload — a miniature of the paper's headline experiment you can run
//! in seconds.
//!
//! ```sh
//! cargo run --release --example hybrid_vs_baselines
//! ```

use alt::alt_index::AltIndex;
use alt::art::Art;
use alt::baselines::{AlexLike, FinedexLike, LippLike, XIndexLike};
use alt::datasets::{generate_pairs, Dataset};
use alt::index_api::{BulkLoad, ConcurrentIndex};
use alt::workloads::{self, DriverConfig, Mix, WorkloadPlan};
use std::sync::Arc;

fn main() {
    let n = 400_000;
    let dataset = Dataset::Osm;
    let pairs = generate_pairs(dataset, n, 3);
    let bulk: Vec<(u64, u64)> = pairs.iter().step_by(2).copied().collect();
    let reserve: Vec<u64> = pairs.iter().skip(1).step_by(2).map(|p| p.0).collect();
    let loaded: Vec<u64> = bulk.iter().map(|p| p.0).collect();

    println!(
        "dataset = {}, {} loaded + {} reserved, balanced 50/50, zipf 0.99",
        dataset.name(),
        bulk.len(),
        reserve.len()
    );

    let indexes: Vec<(&str, Arc<dyn ConcurrentIndex>)> = vec![
        ("ALT-index", Arc::new(AltIndex::bulk_load(&bulk))),
        ("ART", Arc::new(Art::bulk_load(&bulk))),
        ("ALEX+", Arc::new(AlexLike::bulk_load(&bulk))),
        ("LIPP+", Arc::new(LippLike::bulk_load(&bulk))),
        ("XIndex", Arc::new(XIndexLike::bulk_load(&bulk))),
        ("FINEdex", Arc::new(FinedexLike::bulk_load(&bulk))),
    ];

    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "index", "Mops/s", "p50 us", "p99.9 us", "MiB"
    );
    for (name, idx) in indexes {
        let plan = WorkloadPlan::new(loaded.clone(), reserve.clone(), Mix::BALANCED, 0.99, 9);
        let cfg = DriverConfig {
            latency_sample_every: 8,
            ..DriverConfig::default()
        };
        let streams = (0..threads).map(|t| plan.stream(t, threads, 100_000));
        let r = workloads::run(&*idx, streams.collect(), &cfg);
        println!(
            "{name:>10} {:>12.3} {:>12.2} {:>12.2} {:>12.1}",
            r.mops,
            r.p50_us,
            r.p999_us,
            idx.memory_usage() as f64 / (1 << 20) as f64
        );
    }
}
