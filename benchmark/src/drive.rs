//! Closed-loop executors and the correctness oracle.
//!
//! Every caller — a client thread, or an async connection on the serving
//! runtime — issues its next op when the previous one returns, because an
//! index caller waits for its reply. Each op's result is compared with
//! the one result its stream position allows (`stream` module docs).

use crate::host::Reference;
use crate::spec::{Spec, SCAN_LEN};
use crate::stream::{self, updated, Data, Stream};
use crate::trace;
use datasets::gen::value_for;
use index_api::ConcurrentIndex;
use region::BatchServer;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Op classes whose latency is sampled.
pub const CLASS_NAMES: [&str; 3] = ["get", "insert", "scan"];
const NO_CLASS: usize = 3;

fn class_of(kind: u8) -> usize {
    match kind {
        stream::GET | stream::GET_UPD | stream::GET_ABSENT => 0,
        stream::INSERT => 1,
        stream::SCAN => 2,
        _ => NO_CLASS,
    }
}

/// Latency samples kept per class, over all clients of a run.
const SAMPLE_BUDGET: usize = 1 << 23;

/// One client's sampled latencies in ns as measured, per class.
pub type Samples = [Vec<u32>; 3];

/// Empty sample buffers for `clients` clients, every page resident. A run
/// makes them before its RSS baseline and hands them from section to
/// section, so they never count as index memory and no page fault of
/// theirs lands in a timed op.
pub fn sample_buffers(clients: usize) -> Vec<Samples> {
    let one = || {
        let mut v = vec![1u32; SAMPLE_BUDGET / clients];
        v.clear();
        v
    };
    (0..clients).map(|_| std::array::from_fn(|_| one())).collect()
}

/// A host-corrected section is cut into segments of this length, with a
/// reference window of `WINDOW_SECS` on every client thread around each.
const SEGMENT_SECS: f64 = 0.5;
const WINDOW_SECS: f64 = 0.025;

/// One client's share of one segment of a section.
pub struct Segment {
    /// Seconds from the segment's common start to the client's last op.
    pub secs: f64,
    /// Lengths of the client's sample vectors when the segment ended.
    pub marks: [usize; 3],
}

/// What one client did.
pub struct ClientOut {
    /// Ops completed (a replayed stream counts every pass).
    pub ops: u64,
    /// Ops whose result was wrong, refused or shed.
    pub failed: u64,
    /// Sampled latencies (the buffers the section was given).
    pub samples: Samples,
    /// The section's segments (one, unless host-corrected).
    pub segments: Vec<Segment>,
    /// Host-corrected sections: the reference's ns per search on this
    /// client's thread in the window before each segment and after the last.
    pub windows: Vec<f64>,
}

/// When a client stops (the end of a stream that is not replayed always
/// stops it) and which ops it times.
#[derive(Clone, Copy)]
pub struct Limit {
    /// Stop at the first sampled op that starts after this long (not
    /// counting reference windows).
    pub deadline: Option<Duration>,
    /// Sample every n-th op of each class (1 = all, `u32::MAX` = none).
    pub sample_every: [u32; 3],
}

impl Limit {
    /// Run for at most `secs`, sampling as the workload prescribes.
    pub fn timed(secs: f64, spec: &Spec) -> Limit {
        Limit {
            deadline: Some(Duration::from_secs_f64(secs)),
            sample_every: spec.sample_every(),
        }
    }
}

/// One client's position, counters and samples: the part of the closed
/// loop that thread clients and async connections share.
struct Client<'a> {
    s: &'a Stream,
    limit: Limit,
    /// Start and end of the current segment.
    start: Instant,
    stop: Option<Instant>,
    pos: usize,
    seen: [u32; 4],
    out: ClientOut,
}

impl<'a> Client<'a> {
    fn new(s: &'a Stream, limit: Limit, mut samples: Samples) -> Self {
        samples.iter_mut().for_each(Vec::clear);
        let out = ClientOut {
            ops: 0,
            failed: 0,
            samples,
            segments: Vec::new(),
            windows: Vec::new(),
        };
        Client {
            s,
            limit,
            start: Instant::now(),
            stop: None,
            pos: 0,
            seen: [0; 4],
            out,
        }
    }

    /// Call when the clients are released together into a segment that
    /// lasts `len` (`None`: to the end of the stream).
    fn begin(&mut self, start: Instant, len: Option<Duration>) {
        self.start = start;
        self.stop = len.map(|d| start + d);
    }

    /// Call when `next` has ended the segment.
    fn end(&mut self) {
        self.out.segments.push(Segment {
            secs: self.start.elapsed().as_secs_f64(),
            marks: std::array::from_fn(|class| self.out.samples[class].len()),
        });
    }

    /// The next op `(kind, key, sample start, deep scan check)`, or `None`
    /// when the stream has ended or a sampled op finds the segment over.
    fn next(&mut self) -> Option<(u8, u64, Option<Instant>, bool)> {
        let (kind, key) = (*self.s.kinds.get(self.pos)?, self.s.keys[self.pos]);
        let class = class_of(kind);
        self.seen[class] += 1;
        let mut t0 = None;
        if class != NO_CLASS && self.seen[class].is_multiple_of(self.limit.sample_every[class]) {
            let now = Instant::now();
            if self.stop.is_some_and(|stop| now >= stop) {
                return None;
            }
            t0 = Some(now);
        }
        Some((kind, key, t0, class == 2 && self.seen[2].is_multiple_of(64)))
    }

    fn done(&mut self, kind: u8, t0: Option<Instant>, ok: bool) {
        if let Some(t0) = t0 {
            self.out.samples[class_of(kind)].push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        self.out.failed += u64::from(!ok);
        self.out.ops += 1;
        self.pos += 1;
        if self.pos == self.s.len() && self.s.replay && self.stop.is_some() {
            self.pos = 0;
        }
    }
}

/// Check one scan result. Every scan: full length, starts at `lo` (a bulk
/// key, never removed). Every 64th also: strictly ascending, every value
/// one its key can have, every bulk key of the returned span present and
/// every other key a reserve key.
fn scan_ok(data: &Data, lo: u64, out: &[(u64, u64)], deep: bool) -> bool {
    if out.len() != SCAN_LEN || out[0].0 != lo {
        return false;
    }
    if !deep {
        return true;
    }
    let mut b = data.bulk.partition_point(|p| p.0 < lo);
    let mut prev = 0u64;
    for &(k, v) in out {
        if k <= prev || (v != value_for(k) && v != updated(k)) {
            return false;
        }
        prev = k;
        match data.bulk.get(b) {
            Some(p) if p.0 == k => b += 1,
            Some(p) if p.0 < k => return false,
            _ if data.reserve.binary_search(&k).is_err() => return false,
            _ => {}
        }
    }
    true
}

/// Run one op and say whether its result was the expected one.
#[inline]
pub fn exec<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    data: &Data,
    kind: u8,
    key: u64,
    out: &mut Vec<(u64, u64)>,
    deep: bool,
) -> bool {
    match kind {
        stream::GET => idx.get(key) == Some(value_for(key)),
        stream::GET_UPD => idx.get(key) == Some(updated(key)),
        stream::GET_ABSENT => idx.get(key).is_none(),
        stream::INSERT => idx.insert(key, value_for(key)).is_ok(),
        stream::UPDATE => idx.update(key, updated(key)).is_ok(),
        stream::REMOVE => idx.remove(key) == Some(value_for(key)),
        stream::REMOVE_UPD => idx.remove(key) == Some(updated(key)),
        _ => {
            out.clear();
            idx.scan(key, SCAN_LEN, out);
            scan_ok(data, key, out, deep)
        }
    }
}

/// One closed-loop client thread per stream, started together. With a
/// `reference`, the section is host-corrected: the threads run it in
/// lockstep segments and all measure the reference around each.
pub fn run_threads<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    data: &Data,
    streams: &[Stream],
    limit: Limit,
    reference: Option<&Reference>,
    buffers: Vec<Samples>,
) -> Vec<ClientOut> {
    let segments = match (reference, limit.deadline) {
        (Some(_), Some(d)) => (d.as_secs_f64() / SEGMENT_SECS).ceil() as u32,
        _ => 1,
    };
    let segment_len = limit.deadline.map(|d| d / segments);
    let barrier = Barrier::new(streams.len());
    std::thread::scope(|sc| {
        let handles: Vec<_> = streams
            .iter()
            .zip(buffers)
            .enumerate()
            .map(|(lane, (s, samples))| {
                let barrier = &barrier;
                sc.spawn(move || {
                    let mut client = Client::new(s, limit, samples);
                    let mut out = Vec::with_capacity(2 * SCAN_LEN);
                    let window = |client: &mut Client| {
                        if let Some(reference) = reference {
                            barrier.wait();
                            client.out.windows.push(reference.window(WINDOW_SECS, lane));
                        }
                    };
                    for _ in 0..segments {
                        window(&mut client);
                        barrier.wait();
                        client.begin(Instant::now(), segment_len);
                        while let Some((kind, key, t0, deep)) = client.next() {
                            let ok = exec(idx, data, kind, key, &mut out, deep);
                            client.done(kind, t0, ok);
                        }
                        client.end();
                    }
                    window(&mut client);
                    client.out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// One closed-loop async connection per stream on a runtime of `workers`
/// threads, each awaiting `BatchServer::get` (the server's whole API, so
/// the streams hold gets only). A shed request is a failed one. `traced`
/// records a `serve.get` span around every request.
pub fn run_serve(
    server: &Arc<BatchServer>,
    streams: &Arc<Vec<Stream>>,
    workers: usize,
    limit: Limit,
    traced: bool,
    buffers: Vec<Samples>,
) -> Vec<ClientOut> {
    let rt = tokio::runtime::Builder::new_multi_thread()
        .worker_threads(workers)
        .build()
        .expect("serving runtime");
    let start = Instant::now();
    let handles: Vec<_> = buffers
        .into_iter()
        .enumerate()
        .map(|(c, samples)| {
            let (server, streams) = (Arc::clone(server), Arc::clone(streams));
            rt.spawn(async move {
                let mut client = Client::new(&streams[c], limit, samples);
                client.begin(start, limit.deadline);
                while let Some((kind, key, t0, _)) = client.next() {
                    assert_eq!(kind, stream::GET, "the server serves gets only");
                    let got = if traced {
                        let tag = client.out.ops as u32;
                        trace::TracedFuture::new(trace::SERVE, trace::OP_GET, tag, server.get(key)).await
                    } else {
                        server.get(key).await
                    };
                    client.done(kind, t0, got == Ok(Some(value_for(key))));
                }
                client.end();
                client.out
            })
        })
        .collect();
    let outs = rt.block_on(async {
        let mut outs = Vec::with_capacity(handles.len());
        for h in handles {
            outs.push(h.await.expect("connection task"));
        }
        outs
    });
    // The runtime is leaked, not dropped: the shim's `Runtime::drop` sets
    // its shutdown flag under another mutex than the one its workers'
    // condvar waits with, so a worker that has just seen the flag unset
    // misses the wake-up and the join never returns (one serving run in
    // about seventy hung here). The idle workers end with the process.
    std::mem::forget(rt);
    outs
}

/// The keys the executed prefixes of the streams leave behind: `(key,
/// value)` sorted, disjoint from the bulk keys. Clients own disjoint
/// keys, insert each at most once per pass and never re-insert a removed
/// one, so a key is live iff its owner inserted and did not remove it.
pub fn live_inserts(streams: &[Stream], executed: &[u64]) -> Vec<(u64, u64)> {
    let of_client = |s: &Stream, n: u64| {
        let n = (n as usize).min(s.len());
        let (mut ins, mut gone, mut upd) = (Vec::new(), Vec::new(), Vec::new());
        for (&kind, &key) in s.kinds[..n].iter().zip(&s.keys[..n]) {
            match kind {
                stream::INSERT => ins.push(key),
                stream::UPDATE => upd.push(key),
                stream::REMOVE | stream::REMOVE_UPD => gone.push(key),
                _ => {}
            }
        }
        for v in [&mut ins, &mut gone, &mut upd] {
            v.sort_unstable();
        }
        let (mut g, mut u) = (0usize, 0usize);
        let mut live = Vec::with_capacity(ins.len());
        for k in ins {
            while gone.get(g).is_some_and(|&x| x < k) {
                g += 1;
            }
            while upd.get(u).is_some_and(|&x| x < k) {
                u += 1;
            }
            if gone.get(g) != Some(&k) {
                live.push((
                    k,
                    if upd.get(u) == Some(&k) {
                        updated(k)
                    } else {
                        value_for(k)
                    },
                ));
            }
        }
        live
    };
    let mut all: Vec<(u64, u64)> = std::thread::scope(|sc| {
        let workers: Vec<_> = streams
            .iter()
            .zip(executed)
            .map(|(s, &n)| sc.spawn(move || of_client(s, n)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    });
    all.sort_unstable();
    all
}

/// Compare the index's whole content with the expected live set (bulk
/// pairs merged with `extra`), reading it back in ranges of about a
/// million keys on `threads` threads. Returns the number of violations: a
/// wrong `len()`, and every position where a range differs from the
/// expectation.
pub fn verify_final<I: ConcurrentIndex + ?Sized>(
    idx: &I,
    bulk: &[(u64, u64)],
    extra: &[(u64, u64)],
    threads: usize,
) -> u64 {
    const CHUNK: usize = 1 << 20;
    let chunks = bulk.len().div_ceil(CHUNK).max(1);
    let check = |c: usize| {
        let chunk = &bulk[c * CHUNK..bulk.len().min((c + 1) * CHUNK)];
        // A chunk's range runs from its first bulk key to just below the
        // next chunk's; the outer two reach the ends of the key space.
        let lo = if c == 0 { 1 } else { chunk[0].0 };
        let hi = if c + 1 == chunks {
            u64::MAX
        } else {
            bulk[(c + 1) * CHUNK].0 - 1
        };
        let extra = &extra[extra.partition_point(|p| p.0 < lo)..extra.partition_point(|p| p.0 <= hi)];
        let mut want = Vec::with_capacity(chunk.len() + extra.len());
        let (mut a, mut b) = (chunk.iter().peekable(), extra.iter().peekable());
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            want.push(if x.0 < y.0 {
                *a.next().expect("peeked")
            } else {
                *b.next().expect("peeked")
            });
        }
        want.extend(a);
        want.extend(b);
        let mut got = Vec::with_capacity(want.len());
        idx.range(lo, hi, &mut got);
        got.len().abs_diff(want.len()) as u64 + got.iter().zip(&want).filter(|(g, w)| g != w).count() as u64
    };
    let differing: u64 = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..threads)
            .map(|t| sc.spawn(move || (t..chunks).step_by(threads).map(check).sum::<u64>()))
            .collect();
        workers.into_iter().map(|w| w.join().expect("verifier thread")).sum()
    });
    differing + u64::from(idx.len() != bulk.len() + extra.len())
}
