//! The five workloads and their frozen sizes.
//!
//! Every size here is part of the benchmark's definition: changing one
//! changes what the numbers mean, so a change to this file is a change
//! to the benchmark and needs a fresh baseline (README "Changing the
//! benchmark").

use datasets::Dataset;

/// Which traffic a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 100 % point lookups, uniform, 5 % absent keys.
    ReadOc,
    /// 50 % get (zipf) / 40 % insert / 5 % update / 5 % remove.
    WriteMix,
    /// Inserts into withheld consecutive runs, each followed by a get.
    WriteHot,
    /// 95 % 100-key scans / 5 % inserts, plus one get in every 16 ops.
    ScanMix,
    /// Zipf point lookups through `BatchServer` from async connections.
    ServeZipf,
}

/// How the generated keys are split into bulk-loaded keys and the reserve
/// (keys that exist in the dataset but are not loaded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Even-index keys are bulk-loaded, odd-index keys are the reserve:
    /// the reserve is spread uniformly over the key space.
    Alternate,
    /// `count` runs of `len` consecutive keys each, evenly spaced over the
    /// key space, are the reserve; everything else is bulk-loaded.
    Runs {
        /// Runs withheld.
        count: usize,
        /// Keys per run.
        len: usize,
    },
}

/// One workload: dataset, sizes, traffic.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Traffic shape.
    pub kind: Kind,
    /// Synthetic dataset (always generated, never loaded from disk).
    pub dataset: Dataset,
    /// Keys generated.
    pub generated: usize,
    /// Bulk / reserve split.
    pub layout: Layout,
    /// Closed-loop clients: `None` means one per client thread,
    /// `Some(n)` means `n` async connections on the serving runtime.
    pub connections: Option<usize>,
    /// Ops pre-generated per client. A read-only stream is replayed until
    /// the deadline. A stream that writes is a fixed amount of work, sized
    /// to take 2 to 7 of the 10 seconds at this commit on a 2-core host:
    /// the index then goes through the same states in every run, which a
    /// fixed time would not give on workloads whose speed changes as the
    /// index fills. The deadline only cuts a run that got slower.
    pub ops_per_client: usize,
    /// Ops of client 0's stream the traced run replays with one client.
    pub replay_ops: usize,
    /// Whole set-ups per run; `setup_s` is their median. Large indexes
    /// afford one inside the run-time budget.
    pub setup_reps: usize,
    /// Whether the timed section's throughput and latency are reported at
    /// the nominal host speed (README "Host-speed correction").
    pub host_corrected: bool,
}

/// Reserve keys set aside for the traced run's write probe.
pub const PROBE_KEYS: usize = 16_384;

/// Keys returned by one scan.
pub const SCAN_LEN: usize = 100;

/// Length of the read-only warm-up before the timed section.
pub const WARMUP_SECS: f64 = 2.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "read_oc",
        kind: Kind::ReadOc,
        dataset: Dataset::Fb,
        generated: 16_000_000,
        layout: Layout::Alternate,
        connections: None,
        ops_per_client: 4_000_000,
        replay_ops: 1 << 20,
        setup_reps: 1,
        host_corrected: true,
    },
    Spec {
        name: "write_mix",
        kind: Kind::WriteMix,
        dataset: Dataset::Osm,
        generated: 24_000_000,
        layout: Layout::Alternate,
        connections: None,
        ops_per_client: 8_000_000,
        replay_ops: 1 << 20,
        setup_reps: 1,
        host_corrected: true,
    },
    Spec {
        name: "write_hot",
        kind: Kind::WriteHot,
        dataset: Dataset::Fb,
        generated: 16_000_000,
        layout: Layout::Runs { count: 4096, len: 1024 },
        connections: None,
        ops_per_client: 2_400_000,
        replay_ops: 1 << 20,
        setup_reps: 1,
        host_corrected: true,
    },
    Spec {
        name: "scan_mix",
        kind: Kind::ScanMix,
        dataset: Dataset::Osm,
        generated: 16_000_000,
        layout: Layout::Alternate,
        connections: None,
        ops_per_client: 600_000,
        replay_ops: 1 << 17,
        setup_reps: 2,
        host_corrected: true,
    },
    Spec {
        name: "serve_zipf",
        kind: Kind::ServeZipf,
        dataset: Dataset::Libio,
        generated: 4_000_000,
        layout: Layout::Alternate,
        connections: Some(64),
        ops_per_client: 65_536,
        replay_ops: 1 << 16,
        setup_reps: 5,
        host_corrected: false,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// Whether the workload only reads, so its streams can be replayed.
    pub fn read_only(&self) -> bool {
        matches!(self.kind, Kind::ReadOc | Kind::ServeZipf)
    }

    /// Latency is sampled on every n-th `get`, `insert` and `scan`: cheap
    /// frequent ops sparsely, so the two clock reads stay a small share of
    /// what is timed; rare or long ops densely, so a p99 rests on enough
    /// samples. `scan_mix` has one get in 16 ops and times them all.
    pub fn sample_every(&self) -> [u32; 3] {
        match self.kind {
            Kind::ScanMix => [1, 4, 1],
            _ => [16, 4, 1],
        }
    }

    /// The same traffic on a dataset `div` times smaller (unit tests).
    #[cfg(test)]
    pub fn scaled(mut self, div: usize) -> Spec {
        self.generated /= div;
        self.ops_per_client = (self.ops_per_client / div).max(1024);
        self.replay_ops = self.replay_ops.min(self.ops_per_client);
        if let Layout::Runs { len, .. } = &mut self.layout {
            *len /= div;
        }
        self
    }
}

/// Client threads: every core up to four.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}
