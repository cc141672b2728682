//! A tiny flag parser for the experiment binaries (keeps the workspace
//! free of a CLI dependency).

use datasets::Dataset;

/// Common experiment parameters.
#[derive(Debug, Clone)]
pub struct Args {
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
    /// bulk_build experiment sweeps all of them; every other bin uses the
    /// first entry for its one-off index construction. Empty = serial
    /// plus the host's available parallelism (bulk_build) / available
    /// parallelism (other bins).
    pub build_threads: Vec<usize>,
    /// Batch widths (`--batch-width 1,8,32`). The batch_lookup
    /// experiment sweeps all of them; empty = the default
    /// {1, 8, 16, 32, 64} sweep. Width 1 is the scalar baseline.
    pub batch_widths: Vec<usize>,
    /// Time-bucket width in milliseconds for throughput-over-time
    /// curves (the retrain_shift experiment).
    pub bucket_ms: u64,
}

impl Default for Args {
    fn default() -> Self {
        Self {
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
                "--threads" => out.threads = val().parse().expect("--threads"),
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
                "--build-threads" => {
                    out.build_threads = val()
                        .split(',')
                        .map(|s| {
                            let t: usize = s.parse().expect("--build-threads");
                            assert!(t >= 1, "--build-threads entries must be >= 1");
                            t
                        })
                        .collect();
                }
                "--bucket-ms" => {
                    out.bucket_ms = val().parse().expect("--bucket-ms");
                    assert!(out.bucket_ms >= 1, "--bucket-ms must be >= 1");
                }
                "--batch-width" => {
                    out.batch_widths = val()
                        .split(',')
                        .map(|s| {
                            let w: usize = s.parse().expect("--batch-width");
                            assert!(w >= 1, "--batch-width entries must be >= 1");
                            w
                        })
                        .collect();
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --keys N --threads N --ops N --datasets a,b \
                         --part a|b|c|d|e --theta F --seed N --indexes x,y \
                         --metrics --chaos-seed N --build-threads 1,2,8 \
                         --batch-width 1,8,32 --bucket-ms N"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other} (try --help)"),
            }
        }
        out
    }

    /// The construction thread count for bins that build each index once
    /// (everything except bulk_build, which sweeps
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
    fn human_sizes() {
        assert_eq!(parse_human("2m"), 2_000_000);
        assert_eq!(parse_human("1.5M"), 1_500_000);
        assert_eq!(parse_human("250k"), 250_000);
        assert_eq!(parse_human("1_000"), 1_000);
    }
}
