//! The one flag parser of the `figures` binary (keeps the workspace free
//! of a CLI dependency): positional experiment names plus the union of
//! the flags the experiments read.

use datasets::Dataset;
use workloads::{Mix, YcsbKind};

/// Experiment selection and parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Positional experiment names (`table1`, `fig7`, `fig7c`, `abl-a` …;
    /// comma lists are split): ids or groups of [`crate::registry`].
    pub experiments: Vec<String>,
    /// Total dataset size (the evaluation bulk-loads 50% of it unless an
    /// experiment says otherwise).
    pub keys: usize,
    /// Worker threads.
    pub threads: usize,
    /// Operations per thread.
    pub ops: usize,
    /// Datasets to run.
    pub datasets: Vec<Dataset>,
    /// Sub-figure selector (`a`..`e`), empty = all.
    pub part: String,
    /// Zipfian skew for reads.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Restrict to these index names (empty = all).
    pub indexes: Vec<String>,
    /// Append hot-path metrics counters to the report (needs the crate's
    /// `metrics` feature; see [`crate::metrics`]).
    pub metrics: bool,
    /// Install a schedule-perturbing chaos run with this seed (needs the
    /// crate's `chaos` feature; see [`crate::chaos`]).
    pub chaos_seed: Option<u64>,
    /// Construction thread counts (`--build-threads 1,2,8`). The
    /// bulk_build experiment sweeps all of them; every other experiment
    /// uses the first entry for its one-off index construction. Empty =
    /// serial plus the host's available parallelism (bulk_build) /
    /// available parallelism (the others).
    pub build_threads: Vec<usize>,
    /// Batch widths (`--batch-width 1,8,32`). The batch_lookup
    /// experiment sweeps all of them; empty = the default
    /// {1, 8, 16, 32, 64} sweep. Width 1 is the scalar baseline.
    pub batch_widths: Vec<usize>,
    /// Time-bucket width in milliseconds for throughput-over-time
    /// curves (the retrain_shift experiment).
    pub bucket_ms: u64,
    /// `--mix read,insert,scan` percentages of the free-form `ycsb`
    /// experiment.
    pub mix: Mix,
    /// `--batch N` (N >= 2) routes runs of consecutive reads of a driven
    /// experiment through `get_batch` in N-wide flushes (see
    /// `workloads::DriverConfig::batch`); rows are then labelled
    /// `<workload>+batchN`.
    pub batch: usize,
    /// `--ycsb d|e`: the `ycsb` experiment runs the YCSB D (latest-read)
    /// or E (scan-heavy) generator instead of `--mix`.
    pub ycsb: Option<YcsbKind>,
    /// `--connections 4,32,256`: the connection counts the
    /// service_throughput experiment sweeps.
    pub connections: Vec<usize>,
    /// `--shards N`: initial region shards (service_throughput).
    pub shards: usize,
    /// `--ring N`: `get_batch` ring width of the batched serving mode
    /// (service_throughput).
    pub ring: usize,
    /// `--max-depth N`: admission-control depth (service_throughput).
    pub max_depth: usize,
    /// `--burst N` (N >= 2): open-loop bursts of N concurrent requests
    /// per connection instead of a closed loop (service_throughput).
    pub burst: usize,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            experiments: Vec::new(),
            keys: 2_000_000,
            threads: default_threads(),
            ops: 200_000,
            datasets: datasets::ALL_DATASETS.to_vec(),
            part: String::new(),
            theta: 0.99,
            seed: 42,
            indexes: Vec::new(),
            metrics: false,
            chaos_seed: None,
            build_threads: Vec::new(),
            batch_widths: Vec::new(),
            bucket_ms: 50,
            mix: Mix::BALANCED,
            batch: 0,
            ycsb: None,
            connections: vec![4, 32, 256],
            shards: 4,
            ring: 32,
            max_depth: 4096,
            burst: 1,
        }
    }
}

/// The paper uses 32 threads; default to what the host can actually run.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(32))
        .unwrap_or(4)
}

/// Default construction thread count (uncapped — bulk load scales past
/// the workload harness's 32-thread ceiling).
pub fn default_build_threads() -> usize {
    alt_index::default_build_threads()
}

/// Every flag, for `--help` and the unknown-flag message.
const USAGE: &str = "usage: figures <experiment>[,<experiment>…] [flags] | figures --list
flags: --keys N --threads N --ops N --datasets a,b --part a|b|c|d|e
--theta F --seed N --indexes x,y --metrics --chaos-seed N
--build-threads 1,2,8 --batch-width 1,8,32 --bucket-ms N --batch N
(ycsb) --mix r,i,s --ycsb d|e
(service_throughput) --connections 8,64 --shards N --ring N --max-depth N --burst N";

/// Parse an integer that must be at least `min`.
fn num(flag: &str, v: &str, min: usize) -> usize {
    let n: usize = v.parse().unwrap_or_else(|_| panic!("{flag} {v}"));
    assert!(n >= min, "{flag} must be >= {min}");
    n
}

/// Parse a comma list of integers, each at least `min`.
fn list(flag: &str, v: &str, min: usize) -> Vec<usize> {
    v.split(',').map(|s| num(flag, s, min)).collect()
}

impl Args {
    /// Parse `std::env::args()`, panicking with usage on bad input.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse an explicit argument iterator.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next()
                    .unwrap_or_else(|| panic!("flag {flag} expects a value"))
            };
            match flag.as_str() {
                "--keys" => out.keys = parse_human(&val()),
                "--threads" => out.threads = num(&flag, &val(), 0),
                "--ops" => out.ops = parse_human(&val()),
                "--part" => out.part = val().to_ascii_lowercase(),
                "--theta" => out.theta = val().parse().expect("--theta"),
                "--seed" => out.seed = val().parse().expect("--seed"),
                "--datasets" => {
                    out.datasets = val()
                        .split(',')
                        .map(|s| Dataset::parse(s).unwrap_or_else(|| panic!("unknown dataset {s}")))
                        .collect();
                }
                "--indexes" => {
                    out.indexes = val().split(',').map(|s| s.to_string()).collect();
                }
                "--metrics" => out.metrics = true,
                "--chaos-seed" => out.chaos_seed = Some(val().parse().expect("--chaos-seed")),
                "--build-threads" => out.build_threads = list(&flag, &val(), 1),
                "--batch-width" => out.batch_widths = list(&flag, &val(), 1),
                "--bucket-ms" => out.bucket_ms = num(&flag, &val(), 1) as u64,
                "--mix" => {
                    let p = list(&flag, &val(), 0);
                    assert_eq!(p.len(), 3, "--mix read,insert,scan");
                    out.mix = Mix::new(p[0] as u8, p[1] as u8, p[2] as u8);
                }
                "--batch" => out.batch = num(&flag, &val(), 0),
                "--ycsb" => out.ycsb = Some(YcsbKind::parse(&val()).expect("--ycsb d|e")),
                "--connections" => out.connections = list(&flag, &val(), 1),
                "--shards" => out.shards = num(&flag, &val(), 0),
                "--ring" => out.ring = num(&flag, &val(), 0),
                "--max-depth" => out.max_depth = num(&flag, &val(), 0),
                "--burst" => out.burst = num(&flag, &val(), 1),
                "--help" | "-h" | "--list" => {
                    if flag != "--list" {
                        eprintln!("{USAGE}\nexperiments:");
                    }
                    for e in crate::registry::EXPERIMENTS {
                        println!("{}", e.id);
                    }
                    std::process::exit(0);
                }
                name if !name.starts_with('-') => {
                    out.experiments.extend(name.split(',').map(str::to_string));
                }
                other => panic!("unknown flag {other}\n{USAGE}"),
            }
        }
        out
    }

    /// The construction thread count for experiments that build each
    /// index once (everything except bulk_build, which sweeps
    /// [`Args::build_threads_sweep`]): first `--build-threads` entry, or
    /// the host's available parallelism.
    pub fn construction_threads(&self) -> usize {
        self.build_threads
            .first()
            .copied()
            .unwrap_or_else(default_build_threads)
    }

    /// The thread counts the bulk_build experiment sweeps: the
    /// `--build-threads` list as given, or serial plus the host's
    /// available parallelism.
    pub fn build_threads_sweep(&self) -> Vec<usize> {
        if self.build_threads.is_empty() {
            let host = default_build_threads();
            if host > 1 {
                vec![1, host]
            } else {
                vec![1]
            }
        } else {
            self.build_threads.clone()
        }
    }

    /// The batch widths the batch_lookup experiment sweeps: the
    /// `--batch-width` list as given, or the default
    /// {1, 8, 16, 32, 64}.
    pub fn batch_width_sweep(&self) -> Vec<usize> {
        if self.batch_widths.is_empty() {
            vec![1, 8, 16, 32, 64]
        } else {
            self.batch_widths.clone()
        }
    }

    /// Whether sub-part `p` was selected (empty selector = run all).
    pub fn wants_part(&self, p: &str) -> bool {
        self.part.is_empty() || self.part == p
    }

    /// Whether index `name` was selected (empty selector = all).
    pub fn wants_index(&self, name: &str) -> bool {
        self.indexes.is_empty() || self.indexes.iter().any(|i| i.eq_ignore_ascii_case(name))
    }
}

/// Parse `2000000`, `2_000_000`, `2m`, `500k`.
pub fn parse_human(s: &str) -> usize {
    let s = s.replace('_', "").to_ascii_lowercase();
    let (num, mult) = if let Some(p) = s.strip_suffix('m') {
        (p.to_string(), 1_000_000)
    } else if let Some(p) = s.strip_suffix('k') {
        (p.to_string(), 1_000)
    } else {
        (s, 1)
    };
    let f: f64 = num.parse().expect("numeric size");
    (f * mult as f64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse(&[]);
        assert_eq!(a.keys, 2_000_000);
        assert_eq!(a.datasets.len(), 4);
        assert!(a.wants_part("a"));
        assert!(a.wants_index("ALT-index"));
    }

    #[test]
    fn parses_flags() {
        let a = parse(&[
            "--keys",
            "500k",
            "--threads",
            "8",
            "--part",
            "B",
            "--datasets",
            "osm,fb",
            "--indexes",
            "alt-index,art",
            "--metrics",
        ]);
        assert_eq!(a.keys, 500_000);
        assert_eq!(a.threads, 8);
        assert!(a.wants_part("b"));
        assert!(!a.wants_part("a"));
        assert_eq!(a.datasets, vec![Dataset::Osm, Dataset::Fb]);
        assert!(a.wants_index("ART"));
        assert!(!a.wants_index("XIndex"));
        assert!(a.metrics);
        assert!(!parse(&[]).metrics, "off by default");
    }

    #[test]
    fn build_threads_flag_and_sweeps() {
        let a = parse(&["--build-threads", "1,2,8"]);
        assert_eq!(a.build_threads, vec![1, 2, 8]);
        assert_eq!(a.construction_threads(), 1);
        assert_eq!(a.build_threads_sweep(), vec![1, 2, 8]);

        let d = parse(&[]);
        assert!(d.build_threads.is_empty());
        assert_eq!(d.construction_threads(), default_build_threads());
        let sweep = d.build_threads_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.len() <= 2);
    }

    #[test]
    fn batch_width_flag_and_sweeps() {
        let a = parse(&["--batch-width", "1,8,32"]);
        assert_eq!(a.batch_widths, vec![1, 8, 32]);
        assert_eq!(a.batch_width_sweep(), vec![1, 8, 32]);

        let d = parse(&[]);
        assert!(d.batch_widths.is_empty());
        assert_eq!(d.batch_width_sweep(), vec![1, 8, 16, 32, 64]);
    }

    #[test]
    fn bucket_ms_flag() {
        assert_eq!(parse(&[]).bucket_ms, 50);
        assert_eq!(parse(&["--bucket-ms", "10"]).bucket_ms, 10);
    }

    #[test]
    fn ycsb_and_service_flags_through_the_one_parser() {
        let a = parse(&[
            "ycsb,service_throughput",
            "--mix",
            "95,5,0",
            "--batch",
            "16",
            "--ycsb",
            "e",
            "--connections",
            "8,64",
            "--shards",
            "4",
            "--ring",
            "32",
            "--max-depth",
            "4096",
            "--burst",
            "2",
            "fig7c",
        ]);
        assert_eq!(a.experiments, ["ycsb", "service_throughput", "fig7c"]);
        assert_eq!(a.mix, Mix::new(95, 5, 0));
        assert_eq!(a.batch, 16);
        assert_eq!(a.ycsb, Some(YcsbKind::E));
        assert_eq!(a.connections, vec![8, 64]);
        assert_eq!((a.shards, a.ring, a.max_depth, a.burst), (4, 32, 4096, 2));

        let d = parse(&[]);
        assert!(d.experiments.is_empty());
        assert_eq!((d.mix, d.batch, d.ycsb), (Mix::BALANCED, 0, None));
        assert_eq!(d.connections, vec![4, 32, 256]);
        assert_eq!((d.shards, d.ring, d.max_depth, d.burst), (4, 32, 4096, 1));
    }

    #[test]
    #[should_panic(expected = "unknown flag --nope")]
    fn unknown_flag_panics_with_usage() {
        parse(&["table1", "--nope"]);
    }

    #[test]
    fn human_sizes() {
        assert_eq!(parse_human("2m"), 2_000_000);
        assert_eq!(parse_human("1.5M"), 1_500_000);
        assert_eq!(parse_human("250k"), 250_000);
        assert_eq!(parse_human("1_000"), 1_000);
    }
}
