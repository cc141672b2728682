//! What the host looks like and how noisy it is right now.

use std::time::Instant;

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|v| v.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// A fixed dependent arithmetic loop: millions of steps per second. Moves
/// with CPU frequency and stolen time, with nothing else.
pub fn spin_mops() -> f64 {
    const STEPS: u64 = 200_000_000;
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let t = Instant::now();
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

/// Dependent-load latency in ns over a 1 GiB single-cycle permutation
/// (four times the shared L3): what one cache miss costs right now.
pub fn memlat_ns() -> f64 {
    const SLOTS: usize = 1 << 27;
    const STEPS: usize = 4_000_000;
    // x -> a*x + c mod 2^k with a = 1 mod 4 and c odd visits every slot
    // once per cycle (Hull-Dobell), and the large multiplier makes the
    // next address unpredictable to the prefetchers.
    let next: Vec<u64> = (0..SLOTS as u64)
        .map(|i| {
            (i.wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F))
                & (SLOTS as u64 - 1)
        })
        .collect();
    let mut at = 0usize;
    let t = Instant::now();
    for _ in 0..STEPS {
        at = next[at] as usize;
    }
    std::hint::black_box(at);
    t.elapsed().as_nanos() as f64 / STEPS as f64
}

/// The host-speed reference: binary searches for random keys in a fixed
/// 128 MiB sorted array. Its upper levels stay cached and its lower ones
/// miss, like an index lookup, so it slows down with the host's memory
/// system the way the memory-bound workloads do (README "Host-speed
/// correction"). It is frozen: changing it changes every corrected number.
pub struct Reference {
    keys: Vec<u64>,
}

impl Reference {
    const KEYS: usize = 1 << 24;
    const BATCH: usize = 64;
    /// ns per search on the host the baseline was recorded on, in a quiet
    /// hour: in a window between two segments of a workload, which starts
    /// from the cache the workload has just filled, and measured alone
    /// beside a set-up.
    pub const NOMINAL_WINDOW_NS: f64 = 590.0;
    pub const NOMINAL_ALONE_NS: f64 = 480.0;

    /// Build the array (resident before any RSS baseline is taken).
    pub fn new() -> Reference {
        Reference {
            keys: (0..Self::KEYS as u64).map(|i| 3 * i + 1).collect(),
        }
    }

    /// ns per search on this thread over the next `secs`: the median batch,
    /// so that a preempted batch does not count. `lane` decorrelates the
    /// threads' key sequences.
    pub fn window(&self, secs: f64, lane: usize) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1);
        let mut batches: Vec<u64> = Vec::with_capacity(1 << 10);
        let start = Instant::now();
        while batches.is_empty() || start.elapsed().as_secs_f64() < secs {
            let t0 = Instant::now();
            for _ in 0..Self::BATCH {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let target = (x >> 40) * 3;
                std::hint::black_box(self.keys.partition_point(|&k| k < target));
            }
            batches.push(t0.elapsed().as_nanos() as u64);
        }
        batches.sort_unstable();
        batches[batches.len() / 2] as f64 / Self::BATCH as f64
    }

    /// ns per search with `threads` threads searching together for a
    /// quarter of a second (their mean): taken before and after a set-up.
    pub fn measure(&self, threads: usize) -> f64 {
        std::thread::scope(|sc| {
            let workers: Vec<_> = (0..threads).map(|t| sc.spawn(move || self.window(0.25, t))).collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread"))
                .sum::<f64>()
                / threads as f64
        })
    }

    /// How fast the host is relative to nominal (< 1: slower), given
    /// reference measurements taken around what was timed and the nominal
    /// value for that kind of measurement.
    pub fn speed(ref_ns: &[f64], nominal_ns: f64) -> f64 {
        nominal_ns * ref_ns.len() as f64 / ref_ns.iter().sum::<f64>()
    }
}
