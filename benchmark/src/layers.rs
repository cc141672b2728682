//! The traced run: per-layer numbers for one workload.
//!
//! The same suite runs on every workload's data, so every per-layer
//! metric exists on every workload: host calibration, the learned layer's
//! segmentation, the index's residency split and batch path on a fixed
//! read-only key sequence, a standalone `Art` on the same pairs as the
//! tree-walk reference, a write probe, a single-client replay of a fixed
//! prefix of client 0's stream (so counts repeat exactly), and a serving
//! phase through `BatchServer` over the region router. Spans come from
//! `trace::Traced` wrappers at the seams the public API offers; end-to-end
//! metrics never come from this run.

use crate::drive::{self, Limit};
use crate::spec::{Kind, Spec, SCAN_LEN};
use crate::stream::{self, Plan, Stream};
use crate::trace::{self, Span, Traced};
use crate::{host, Report};
use alt_index::{AltConfig, AltIndex};
use art::Art;
use datasets::rng::SplitMix64;
use index_api::{BulkLoad, ConcurrentIndex};
use region::{BatchServer, RegionIndex, ServeConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use workloads::Zipf;

type TracedAlt = Traced<AltIndex, { trace::ALT }>;
type TracedRegion = Traced<RegionIndex<TracedAlt>, { trace::REGION }>;
type TracedArt = Traced<Art, { trace::ART }>;

/// Keys in the read-only residency phase.
const GET_KEYS: usize = 200_000;
/// `get_batch` width in the batch phase (`ServeConfig::default().ring_width`).
const BATCH_WIDTH: usize = 16;
/// Scans in the probe, on the index and on the standalone `Art`.
const PROBE_SCANS: usize = 4_096;
/// The serving phase loads at most this many pairs (a subsample of larger
/// bulk sets) and sends this many requests per connection.
const SERVE_PAIRS: usize = 2_000_000;
const SERVE_CONNECTIONS: usize = 64;
const SERVE_REQUESTS: usize = 8_192;
/// Every 64th request's spans go to the span file.
const KEEP_EVERY: u64 = 64;

fn spans_of(spans: &[Span], layer: u8, op: u8) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.layer == layer && s.op == op)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn mean_dur<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    mean(spans.map(|s| s.dur() as f64))
}

/// Duration at rank `q` (plain order statistic; 0 without spans).
fn quantile_dur<'a>(spans: impl Iterator<Item = &'a Span>, q: f64) -> f64 {
    let mut durs: Vec<u64> = spans.map(Span::dur).collect();
    durs.sort_unstable();
    durs.get(((durs.len() as f64 * q) as usize).min(durs.len().saturating_sub(1)))
        .map_or(0.0, |&d| d as f64)
}

/// Summed duration per summed tag (batch size, keys returned).
fn dur_per_tag<'a>(spans: impl Iterator<Item = &'a Span>) -> f64 {
    let (dur, tags) = spans.fold((0u64, 0u64), |(d, t), s| (d + s.dur(), t + u64::from(s.tag)));
    if tags == 0 {
        0.0
    } else {
        dur as f64 / tags as f64
    }
}

/// Where a key of the residency phase lives.
#[derive(Clone, Copy, PartialEq)]
enum Home {
    Slot,
    Art,
    Absent,
}

/// The fixed read-only key sequence: 95 % uniform bulk keys, 5 % keys that
/// are never inserted.
fn residency_keys(plan: &Plan, seed: u64) -> Vec<u64> {
    let rng = &mut SplitMix64::new(seed ^ 0x6765_745f_7068_6173);
    let bulk = &plan.data.bulk;
    (0..GET_KEYS)
        .map(|i| {
            if i % 20 == 19 {
                plan.probe_keys[i / 20 % plan.probe_keys.len()]
            } else {
                bulk[rng.next_below(bulk.len() as u64) as usize].0
            }
        })
        .collect()
}

/// Time `keys.len()` untraced gets; returns seconds.
fn untraced_pass<I: ConcurrentIndex>(idx: &I, keys: &[u64]) -> f64 {
    let t = Instant::now();
    for &k in keys {
        std::hint::black_box(idx.get(k));
    }
    t.elapsed().as_secs_f64()
}

/// Run one op through `idx` and count it, and its failure, in the report.
fn checked<I: ConcurrentIndex>(idx: &I, plan: &Plan, kind: u8, key: u64, deep: bool, r: &mut Report) {
    let mut scratch = Vec::with_capacity(2 * SCAN_LEN);
    r.attempted += 1;
    r.failed += u64::from(!drive::exec(idx, &plan.data, kind, key, &mut scratch, deep));
}

/// Learned layer, bulk load, residency split, batch path and the probe on
/// the workload's index; the standalone `Art` reference. Returns the
/// index, the spans so far and, apart, the probe's spans.
fn index_phases(plan: &Plan, seed: u64, threads: usize, r: &mut Report) -> (TracedAlt, Vec<Span>, Vec<Span>) {
    let bulk = &plan.data.bulk;
    let n = bulk.len() as f64;

    // learned: the segmentation bulk load runs, timed alone.
    let keys: Vec<u64> = bulk.iter().map(|p| p.0).collect();
    let epsilon = AltConfig::default().effective_epsilon(keys.len());
    let t = Instant::now();
    let segments = learned::gpl_segment(&keys, epsilon);
    r.put(
        "learned.gpl_segment_ns_per_key",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    r.put("learned.segments", segments.len() as f64, "count");
    drop((segments, keys));

    let main = TracedAlt::bulk_load(bulk);
    let mut spans = trace::drain();
    r.put(
        "alt.bulk_load_s",
        mean_dur(spans_of(&spans, trace::ALT, trace::OP_BULK_LOAD)) / 1e9,
        "s",
    );
    let st = main.0.stats();
    r.put("alt.num_models", st.num_models as f64, "count");
    r.put("alt.learned_share", st.learned_share(), "share");
    r.put("alt.keys_in_art", st.keys_in_art as f64, "count");
    r.put("alt.fast_pointers", st.fast_pointers as f64, "count");
    r.put("alt.fast_pointers_unmerged", st.fast_pointers_unmerged as f64, "count");

    // Residency: classify each key with the index's own probe, then time
    // untraced, traced, untraced passes over the same warm sequence.
    let gets = residency_keys(plan, seed);
    let (mut jump, mut root) = (Vec::new(), Vec::new());
    let homes: Vec<Home> = gets
        .iter()
        .map(|&k| match main.0.probe_art_hops(k) {
            Some(p) => {
                jump.extend(p.jump_hops.map(f64::from));
                root.push(f64::from(p.root_hops));
                Home::Art
            }
            None if bulk.binary_search_by_key(&k, |p| p.0).is_ok() => Home::Slot,
            None => Home::Absent,
        })
        .collect();
    untraced_pass(&main.0, &gets);
    let t = Instant::now();
    for (&k, &home) in gets.iter().zip(&homes) {
        r.failed += u64::from(main.get(k).is_some() == (home == Home::Absent));
    }
    let traced_secs = t.elapsed().as_secs_f64();
    let untraced_secs = untraced_pass(&main.0, &gets);
    r.attempted += gets.len() as u64;
    let get_spans = trace::drain();
    let by_home = |home: Home| {
        let of_home = get_spans.iter().zip(&homes).filter(move |(_, &h)| h == home);
        mean(of_home.map(|(s, _)| s.dur() as f64))
    };
    r.put("alt.get_slot_ns", by_home(Home::Slot), "ns");
    r.put("alt.get_art_ns", by_home(Home::Art), "ns");
    r.put("alt.get_absent_ns", by_home(Home::Absent), "ns");
    r.put("get_p99_ns", quantile_dur(get_spans.iter(), 0.99), "ns");
    let present = homes.iter().filter(|&&h| h != Home::Absent).count();
    r.put("alt.art_hit_share", root.len() as f64 / present as f64, "share");
    r.put("alt.jump_hops_mean", mean(jump.into_iter()), "count");
    r.put("alt.root_hops_mean", mean(root.into_iter()), "count");
    r.put(
        "trace.overhead_share",
        (traced_secs - untraced_secs) / untraced_secs,
        "share",
    );
    spans.extend(get_spans);

    let mut out = vec![None; BATCH_WIDTH];
    for chunk in gets.chunks(BATCH_WIDTH) {
        main.get_batch(chunk, &mut out);
    }
    let batch_spans = trace::drain();
    r.put("alt.get_batch_ns_per_key", dur_per_tag(batch_spans.iter()), "ns");
    spans.extend(batch_spans);

    // Probe: keys no stream touches are inserted, updated and removed,
    // and a fixed sequence of scans runs, so that every op type has a cost
    // on this index even where the workload's own mix lacks it.
    let cutoff = bulk[bulk.len().saturating_sub(2 * SCAN_LEN)].0;
    let scannable = gets
        .iter()
        .zip(&homes)
        .filter(|(&k, &h)| h != Home::Absent && k < cutoff);
    let scan_los: Vec<u64> = scannable.map(|(&k, _)| k).take(PROBE_SCANS).collect();
    for kind in [stream::INSERT, stream::UPDATE, stream::REMOVE_UPD] {
        for &k in &plan.probe_keys {
            checked(&main, plan, kind, k, false, r);
        }
    }
    for &lo in &scan_los {
        checked(&main, plan, stream::SCAN, lo, true, r);
    }
    let probe_spans = trace::drain();
    r.put(
        "alt.update_ns",
        mean_dur(spans_of(&probe_spans, trace::ALT, trace::OP_UPDATE)),
        "ns",
    );
    r.put(
        "alt.remove_ns",
        mean_dur(spans_of(&probe_spans, trace::ALT, trace::OP_REMOVE)),
        "ns",
    );

    // art: the tree-walk reference on the same pairs and key sequences.
    let arena_before = art::arena_allocated_bytes();
    let tree = TracedArt::bulk_load_threaded(bulk, threads);
    r.put(
        "art.arena_bytes_per_key",
        (art::arena_allocated_bytes() - arena_before) as f64 / n,
        "B",
    );
    r.put("art.avg_depth", tree.0.structure_stats().avg_depth(), "count");
    untraced_pass(&tree.0, &gets);
    trace::drain();
    for (&k, &home) in gets.iter().zip(&homes) {
        r.failed += u64::from(tree.get(k).is_some() == (home == Home::Absent));
    }
    r.attempted += gets.len() as u64;
    for &k in &plan.probe_keys {
        checked(&tree, plan, stream::INSERT, k, false, r);
    }
    for &lo in &scan_los {
        checked(&tree, plan, stream::SCAN, lo, false, r);
    }
    let art_spans = trace::drain();
    r.put(
        "art.get_ns",
        mean_dur(spans_of(&art_spans, trace::ART, trace::OP_GET)),
        "ns",
    );
    r.put(
        "art.insert_ns",
        mean_dur(spans_of(&art_spans, trace::ART, trace::OP_INSERT)),
        "ns",
    );
    r.put(
        "art.scan_ns_per_key",
        dur_per_tag(spans_of(&art_spans, trace::ART, trace::OP_SCAN)),
        "ns",
    );
    spans.extend(art_spans);
    (main, spans, probe_spans)
}

/// The serving phase: `BatchServer` over the traced router over traced
/// `AltIndex` shards, closed-loop connections, every request spanned.
/// On `serve_zipf` this is the workload itself (a prefix of each
/// connection's stream); elsewhere it is zipf gets over a subsample of the
/// workload's bulk pairs.
fn serve_phase(spec: &Spec, plan: Plan, seed: u64, threads: usize, r: &mut Report) -> Vec<Span> {
    let Plan { mut data, main, .. } = plan;
    let streams: Vec<Stream> = if spec.kind == Kind::ServeZipf {
        let prefix = |s: &Stream| Stream {
            kinds: s.kinds[..SERVE_REQUESTS.min(s.len())].to_vec(),
            keys: s.keys[..SERVE_REQUESTS.min(s.len())].to_vec(),
            replay: false,
        };
        main.iter().map(prefix).collect()
    } else {
        let step = data.bulk.len().div_ceil(SERVE_PAIRS);
        data.bulk = data.bulk.iter().step_by(step).copied().collect();
        let (bulk, zipf) = (&data.bulk, Zipf::new(data.bulk.len() as u64, 0.99));
        let connection = |c: usize| {
            let rng = &mut SplitMix64::new(seed ^ (0x7365_7276 + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let hot = |rank: u64| bulk[(rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % bulk.len() as u64) as usize].0;
            let keys: Vec<u64> = (0..SERVE_REQUESTS).map(|_| hot(zipf.sample(rng))).collect();
            Stream {
                kinds: vec![stream::GET; keys.len()],
                keys,
                replay: false,
            }
        };
        (0..SERVE_CONNECTIONS).map(connection).collect()
    };
    let index = Arc::new(TracedRegion::bulk_load(&data.bulk));
    let server = Arc::new(BatchServer::new(Arc::clone(&index) as _, ServeConfig::default()));
    trace::drain();
    let limit = Limit {
        deadline: None,
        sample_every: [u32::MAX; 3],
    };
    // Nothing is sampled here: the spans are the measurement.
    let buffers = vec![Default::default(); streams.len()];
    let outs = drive::run_serve(&server, &Arc::new(streams), threads, limit, true, buffers);
    let (served, routed, shards) = (server.stats(), index.0.stats(), index.0.shard_count());
    drop(server);
    let spans = trace::drain();
    r.attempted += outs.iter().map(|c| c.ops).sum::<u64>();
    r.failed += outs.iter().map(|c| c.failed).sum::<u64>();

    let gets = || spans_of(&spans, trace::SERVE, trace::OP_GET);
    let batches = || spans_of(&spans, trace::REGION, trace::OP_GET_BATCH);
    // Time in the router itself: its batch spans minus the shard batch
    // spans they caused.
    let batch_ids: std::collections::HashSet<u64> = batches().map(|s| s.id).collect();
    let in_shards = spans_of(&spans, trace::ALT, trace::OP_GET_BATCH).filter(|s| batch_ids.contains(&s.parent));
    let child_ns: u64 = in_shards.map(Span::dur).sum();
    let (batch_ns, batch_keys) = batches().fold((0u64, 0u64), |(d, k), s| (d + s.dur(), k + u64::from(s.tag)));
    let batch_keys = batch_keys.max(1) as f64;
    // A request is carried by a batch of size b with probability
    // proportional to b, so the batch span an average request waits
    // inside is the size-weighted mean.
    let carried = batches().map(|s| s.dur() as f64 * f64::from(s.tag)).sum::<f64>() / batch_keys;
    r.put("region.get_self_ns", (batch_ns - child_ns) as f64 / batch_keys, "ns");
    r.put("region.shards", shards as f64, "count");
    r.put("region.splits", routed.splits as f64, "count");
    r.put("region.merges", routed.merges as f64, "count");
    r.put("region.migrated_keys", routed.migrated_keys as f64, "count");
    r.put("region.route_retries", routed.route_retries as f64, "count");
    r.put("serve.wait_ns", mean_dur(gets()) - carried, "ns");
    r.put("serve.batch_ns_per_key", batch_ns as f64 / batch_keys, "ns");
    r.put(
        "serve.avg_batch",
        served.batched_keys as f64 / served.flushes.max(1) as f64,
        "count",
    );
    r.put("serve.flushes", served.flushes as f64, "count");
    r.put("serve.served", served.served as f64, "count");
    r.put("serve.shed", served.shed as f64, "count");
    r.put("serve.get_p999_ns", quantile_dur(gets(), 0.999), "ns");
    spans
}

/// The whole traced run for one workload.
pub fn run_traced(spec: &Spec, seed: u64, threads: usize, out_dir: &Path) -> Report {
    let mut r = Report::default();
    r.put("host.spin_mops", host::spin_mops(), "Mops/s");
    r.put("host.memlat_ns", host::memlat_ns(), "ns");
    r.put("host.reference_ns", host::Reference::new().measure(threads), "ns");
    let plan = stream::make_plan(spec, seed, threads);
    let (main, mut spans, probe) = index_phases(&plan, seed, threads, &mut r);

    // Replay a fixed prefix of client 0's stream: one client, every op
    // checked, so counts repeat exactly.
    let before = (main.0.retrain_count(), main.0.retrain_attempt_count());
    let (s, n) = (&plan.main[0], spec.replay_ops.min(plan.main[0].len()));
    let t = Instant::now();
    for (i, (&kind, &key)) in s.kinds[..n].iter().zip(&s.keys[..n]).enumerate() {
        checked(&main, &plan, kind, key, i % 64 == 0, &mut r);
    }
    let replay_ns = t.elapsed().as_nanos() as f64;
    let own = trace::drain();
    // An op type costs what it cost in the replayed prefix of the
    // workload's own stream; one the mix lacks, what it cost in the probe.
    let alt = |op: u8| {
        let in_mix = spans_of(&own, trace::ALT, op).next().is_some();
        spans_of(if in_mix { &own } else { &probe }, trace::ALT, op)
    };
    let stalled: u64 = alt(trace::OP_INSERT).map(Span::dur).filter(|&d| d > 1_000_000).sum();
    r.put("alt.insert_ns", mean_dur(alt(trace::OP_INSERT)), "ns");
    r.put("insert_p50_ns", quantile_dur(alt(trace::OP_INSERT), 0.50), "ns");
    r.put("insert_p99_ns", quantile_dur(alt(trace::OP_INSERT), 0.99), "ns");
    r.put("alt.insert_p999_ns", quantile_dur(alt(trace::OP_INSERT), 0.999), "ns");
    r.put(
        "alt.insert_max_ms",
        quantile_dur(alt(trace::OP_INSERT), 1.0) / 1e6,
        "ms",
    );
    r.put("alt.stall_share", stalled as f64 / replay_ns, "share");
    r.put("alt.retrains", (main.0.retrain_count() - before.0) as f64, "count");
    r.put(
        "alt.retrain_attempts",
        (main.0.retrain_attempt_count() - before.1) as f64,
        "count",
    );
    r.put("alt.scan_ns_per_key", dur_per_tag(alt(trace::OP_SCAN)), "ns");
    r.put("scan_p50_ns", quantile_dur(alt(trace::OP_SCAN), 0.50), "ns");
    r.put("scan_p99_ns", quantile_dur(alt(trace::OP_SCAN), 0.99), "ns");
    r.put("alt.scan_p999_ns", quantile_dur(alt(trace::OP_SCAN), 0.999), "ns");
    let (st, len) = (main.0.stats(), main.len() as f64);
    r.put("alt.num_models_end", st.num_models as f64, "count");
    r.put("alt.learned_share_end", st.learned_share(), "share");
    r.put("alt.keys_in_art_end", st.keys_in_art as f64, "count");
    r.put("alt.fast_pointers_end", st.fast_pointers as f64, "count");
    r.put("alt.mem_learned_bytes_per_key", st.memory_learned as f64 / len, "B");
    r.put("alt.mem_art_bytes_per_key", st.memory_art as f64 / len, "B");
    r.put("alt.mem_buffer_bytes_per_key", st.memory_buffer as f64 / len, "B");
    drop(main);
    spans.extend(probe);
    spans.extend(own);

    spans.extend(serve_phase(spec, plan, seed, threads, &mut r));
    r.put("failed_ops_share", r.failed as f64 / r.attempted as f64, "share");

    r.note("replayed_ops", n);
    r.note("spans", spans.len());
    let path = out_dir.join(format!("trace-{}.jsonl", spec.name));
    match std::fs::create_dir_all(out_dir).and_then(|()| trace::write_jsonl(&path, &spans, KEEP_EVERY)) {
        Ok(written) => r.note("spans_written", written),
        Err(e) => {
            eprintln!("altbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    r
}
