//! `altbench`: one workload per invocation, end-to-end metrics from an
//! untraced run (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`). See `../README.md` for what each number means and
//! `../../BENCHMARK.json` for the contract this binary is held to.
//!
//! The benchmark adds no knobs: every layer runs with its `Default`
//! configuration, so a later change to a default is measured.

mod drive;
mod host;
mod layers;
mod spec;
mod stream;
#[cfg(test)]
mod tests;
mod trace;

use alt_index::AltIndex;
use drive::{ClientOut, Limit, Samples, CLASS_NAMES};
use host::Reference;
use index_api::{BulkLoad, ConcurrentIndex};
use region::{BatchServer, RegionIndex, ServeConfig};
use spec::{Kind, Spec};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use stream::{Data, Plan, Stream};

/// One reported number.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
pub struct Report {
    /// Ops whose result the oracle checked.
    attempted: u64,
    /// Ops, or entries of the final state, it found wrong.
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra `"key": value` JSON members for the result file (counts that
    /// say how much evidence each metric rests on).
    detail: Vec<(String, String)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// `value` must print as JSON (a number, or an already quoted string).
    fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.detail.push((key.into(), value.to_string()));
    }
}

/// The system under test: how it is built from bulk pairs and how its
/// closed-loop clients call it.
trait System: Sized {
    type Index: ConcurrentIndex;
    fn build(pairs: &[(u64, u64)]) -> Self;
    fn index(&self) -> &Self::Index;
    /// Retrains completed so far, over every `AltIndex` of the system.
    fn retrains(&self) -> usize;
    /// Run the streams; `reference` asks for a host-corrected section.
    fn drive(
        &self,
        data: &Arc<Data>,
        streams: &Arc<Vec<Stream>>,
        threads: usize,
        limit: Limit,
        reference: Option<&Reference>,
        buffers: Vec<Samples>,
    ) -> Vec<ClientOut>;
}

/// Client threads calling `AltIndex` directly.
struct Direct(AltIndex);

impl System for Direct {
    type Index = AltIndex;
    fn build(pairs: &[(u64, u64)]) -> Self {
        Direct(AltIndex::bulk_load(pairs))
    }
    fn index(&self) -> &AltIndex {
        &self.0
    }
    fn retrains(&self) -> usize {
        self.0.retrain_count()
    }
    fn drive(
        &self,
        data: &Arc<Data>,
        streams: &Arc<Vec<Stream>>,
        _threads: usize,
        limit: Limit,
        reference: Option<&Reference>,
        buffers: Vec<Samples>,
    ) -> Vec<ClientOut> {
        drive::run_threads(&self.0, data, streams, limit, reference, buffers)
    }
}

/// Async connections awaiting `BatchServer::get` over the region router.
struct Served {
    index: Arc<RegionIndex<AltIndex>>,
    server: Arc<BatchServer>,
}

impl System for Served {
    type Index = RegionIndex<AltIndex>;
    fn build(pairs: &[(u64, u64)]) -> Self {
        let index = Arc::new(RegionIndex::<AltIndex>::bulk_load(pairs));
        let server = Arc::new(BatchServer::new(Arc::clone(&index) as _, ServeConfig::default()));
        Served { index, server }
    }
    fn index(&self) -> &RegionIndex<AltIndex> {
        &self.index
    }
    /// The router does not expose its shards; a read-only workload
    /// retrains nothing anyway.
    fn retrains(&self) -> usize {
        0
    }
    /// Never host-corrected: what a served request waits for is the
    /// runtime's scheduling and queueing, not memory (README).
    fn drive(
        &self,
        _data: &Arc<Data>,
        streams: &Arc<Vec<Stream>>,
        threads: usize,
        limit: Limit,
        _reference: Option<&Reference>,
        buffers: Vec<Samples>,
    ) -> Vec<ClientOut> {
        drive::run_serve(&self.server, streams, threads, limit, false, buffers)
    }
}

/// Mean of the samples whose rank lies within half a percentile of `q`.
/// A single order statistic of integer nanoseconds moves in steps; the
/// mean over a narrow rank window is the same quantity without them.
pub fn quantile_ns(sorted: &[u32], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let lo = ((q - 0.005).max(0.0) * n) as usize;
    let hi = (((q + 0.005).min(1.0) * n).ceil() as usize).clamp(lo + 1, sorted.len());
    sorted[lo..hi].iter().map(|&v| f64::from(v)).sum::<f64>() / (hi - lo) as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    (values[(n - 1) / 2] + values[n / 2]) / 2.0
}

/// Whole set-up: dataset, op streams, bulk load. Returns the RSS just
/// before bulk load and the seconds the whole took.
fn set_up<S: System>(spec: &Spec, seed: u64, threads: usize) -> (Plan, S, u64, f64) {
    let t = Instant::now();
    let plan = stream::make_plan(spec, seed, threads);
    let rss_before = host::rss_bytes();
    let system = S::build(&plan.data.bulk);
    (plan, system, rss_before, t.elapsed().as_secs_f64())
}

/// Host speed in each segment of a timed section: the mean over clients
/// of the reference windows before and after it (1 when uncorrected).
fn segment_speeds(timed: &[ClientOut]) -> Vec<f64> {
    (0..timed[0].segments.len())
        .map(|i| {
            let around: Vec<f64> = timed
                .iter()
                .flat_map(|c| c.windows.get(i..i + 2).unwrap_or(&[]))
                .copied()
                .collect();
            if around.is_empty() {
                1.0
            } else {
                Reference::speed(&around, Reference::NOMINAL_WINDOW_NS)
            }
        })
        .collect()
}

/// All clients' samples of one class, each scaled by its segment's factor.
fn pooled_samples(timed: &[ClientOut], class: usize, factors: &[f64]) -> Vec<u32> {
    let mut all = Vec::new();
    for c in timed {
        let mut from = 0;
        for (seg, f) in c.segments.iter().zip(factors) {
            all.extend(
                c.samples[class][from..seg.marks[class]]
                    .iter()
                    .map(|&v| (f64::from(v) * f) as u32),
            );
            from = seg.marks[class];
        }
    }
    all.sort_unstable();
    all
}

fn run_untraced<S: System>(spec: &Spec, seed: u64, seconds: f64, threads: usize) -> Report {
    // The host's speed is measured beside everything memory-bound that is
    // timed, and those times are reported as they would be on the nominal
    // host (README "Host-speed correction").
    let reference = Reference::new();
    let buffers = drive::sample_buffers(spec.connections.unwrap_or(threads));
    let mut around = vec![reference.measure(threads)];
    let (plan, system, rss_before, first_setup) = set_up::<S>(spec, seed, threads);
    around.push(reference.measure(threads));
    let mut setups = vec![first_setup * Reference::speed(&around, Reference::NOMINAL_ALONE_NS)];
    let mut r = Report::default();
    r.note("setup_secs_raw", first_setup);
    r.note("setup_reference_ns", format!("{around:.1?}"));
    r.note("stream_digest", format!("\"{:016x}\"", stream::digest(&plan)));
    let Plan { data, main, warm, .. } = plan;
    let (data, main, warm) = (Arc::new(data), Arc::new(main), Arc::new(warm));
    r.note("clients", main.len());
    r.note("stream_ops_per_client", spec.ops_per_client);
    r.note("len_start", system.index().len());

    // Read-only warm-up: caches and lazy set-up settle before timing.
    let warmed = system.drive(
        &data,
        &warm,
        threads,
        Limit::timed(spec::WARMUP_SECS, spec),
        None,
        buffers,
    );
    let buffers = warmed.into_iter().map(|c| c.samples).collect();
    let corrected = spec.host_corrected.then_some(&reference);
    let timed = system.drive(&data, &main, threads, Limit::timed(seconds, spec), corrected, buffers);
    // Memory before anything else is allocated: what grew since just before
    // bulk load is the system (the sample buffers and the reference are
    // older than that baseline).
    let len_end = system.index().len();
    let rss_growth = host::rss_bytes().saturating_sub(rss_before);

    let speeds = segment_speeds(&timed);
    let slowest = |i: usize| timed.iter().map(|c| c.segments[i].secs).fold(0.0, f64::max);
    let raw_secs: f64 = (0..speeds.len()).map(slowest).sum();
    let nominal_secs: f64 = speeds.iter().enumerate().map(|(i, speed)| slowest(i) * speed).sum();
    let executed: Vec<u64> = timed.iter().map(|c| c.ops).collect();
    r.attempted = executed.iter().sum();
    r.failed = timed.iter().map(|c| c.failed).sum();
    r.put("throughput_mops", r.attempted as f64 / nominal_secs / 1e6, "Mops/s");
    r.note("throughput_mops_raw", r.attempted as f64 / raw_secs / 1e6);
    r.note("timed_secs", raw_secs);
    r.note("host_speed", nominal_secs / raw_secs);
    r.note("segment_speeds", format!("{speeds:.3?}"));
    let ones = vec![1.0; speeds.len()];
    for (class, name) in CLASS_NAMES.iter().enumerate() {
        let (all, raw) = (
            pooled_samples(&timed, class, &speeds),
            pooled_samples(&timed, class, &ones),
        );
        r.note(format!("{name}_samples"), all.len());
        if all.is_empty() {
            continue;
        }
        // Of the caller-seen percentiles only the gets' median is steady
        // and defined on every workload (README "Demoted metrics"); the
        // result file keeps the others, as measured.
        if class == 0 {
            r.put("get_p50_ns", quantile_ns(&all, 0.50), "ns");
        }
        r.note(format!("{name}_p50_ns_raw"), quantile_ns(&raw, 0.50));
        r.note(format!("{name}_p99_ns_raw"), quantile_ns(&raw, 0.99));
    }
    drop(timed);
    r.put("rss_bytes_per_key", rss_growth as f64 / len_end as f64, "B");
    r.note("len_end", len_end);
    r.note("retrains", system.retrains());
    let extra = drive::live_inserts(&main, &executed);
    let violations = drive::verify_final(system.index(), &data.bulk, &extra, threads);
    r.failed += violations;
    r.note("final_state_violations", violations);

    // Further set-ups after the run (the first one's RSS baseline must
    // be a fresh process); `setup_s` is the median of all of them.
    drop((system, data, main, warm, extra));
    let mut after = reference.measure(threads);
    for _ in 1..spec.setup_reps {
        let before = after;
        let secs = set_up::<S>(spec, seed, threads).3;
        after = reference.measure(threads);
        setups.push(secs * Reference::speed(&[before, after], Reference::NOMINAL_ALONE_NS));
    }
    r.note("setup_secs", format!("{setups:?}"));
    r.put("setup_s", median(&mut setups), "s");
    r
}

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: altbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        spec::WORKLOADS.map(|s| s.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(value) = argv.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Spec::by_name(&value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    let Some(spec) = workload else { usage() };
    if !(seconds > 0.0 && seconds <= 60.0) {
        usage();
    }
    Args {
        spec,
        seed,
        seconds,
        trace,
        out,
    }
}

fn json_f64(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite");
    format!("{v}")
}

fn main() {
    // `ALT_RESILIENCE_*`, `ALT_SOSD_DIR` and friends change what the
    // layers do; a benchmark number must not depend on the environment.
    if let Some((name, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("ALT_")) {
        eprintln!("altbench: refusing to run with {} set", name.to_string_lossy());
        std::process::exit(2);
    }
    let args = parse_args();
    let threads = spec::client_threads();

    // A run that takes three times its nominal length is a failed run.
    let budget = std::time::Duration::from_secs_f64(3.0 * (30.0 + args.seconds));
    std::thread::spawn(move || {
        std::thread::sleep(budget);
        eprintln!("altbench: run exceeded {budget:?}, aborting");
        std::process::exit(3);
    });

    let report = match (args.trace, args.spec.kind) {
        (true, _) => layers::run_traced(&args.spec, args.seed, threads, &args.out),
        (false, Kind::ServeZipf) => run_untraced::<Served>(&args.spec, args.seed, args.seconds, threads),
        (false, _) => run_untraced::<Direct>(&args.spec, args.seed, args.seconds, threads),
    };

    for m in &report.metrics {
        println!("{:<34} {:>18.4} {}", m.name, m.value, m.unit);
    }
    let mut run = Report::default();
    run.note("workload", format!("\"{}\"", args.spec.name));
    run.note("seed", args.seed);
    run.note("seconds", json_f64(args.seconds));
    run.note("trace", u8::from(args.trace));
    run.note("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()));
    run.note("threads", threads);
    run.note(
        "cpu_model",
        format!("\"{}\"", host::cpu_model().replace(['"', '\\'], " ")),
    );
    let detail: Vec<String> = run
        .detail
        .iter()
        .chain(&report.detail)
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("detail: {{{}}}", detail.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_f64(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
