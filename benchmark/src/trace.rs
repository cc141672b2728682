//! Spans recorded from the benchmark's own files, around the calls into
//! each layer (spans inside the program are a later change — ROADMAP
//! item 2).
//!
//! `Traced<I, LAYER>` wraps an index at a seam the public API offers and
//! records one span per call: layer, op, start, end, the span that caused
//! it (the innermost span open on this thread) and a tag (request number
//! or batch size). Spans stay in per-thread memory until `drain`.

use index_api::{BulkLoad, ConcurrentIndex, Key, Result, Value};
use std::cell::RefCell;
use std::future::Future;
use std::io::Write;
use std::pin::Pin;
use std::sync::{Arc, Mutex, OnceLock};
use std::task::{Context, Poll};
use std::time::Instant;

/// Layer ids (index into `LAYERS`).
pub const SERVE: u8 = 0;
/// The region router.
pub const REGION: u8 = 1;
/// `AltIndex`.
pub const ALT: u8 = 2;
/// A standalone `Art`.
pub const ART: u8 = 3;
const LAYERS: [&str; 4] = ["serve", "region", "alt", "art"];

/// Op ids (index into `OPS`).
pub const OP_GET: u8 = 0;
/// `get_batch`; the tag is the batch size.
pub const OP_GET_BATCH: u8 = 1;
/// `insert`.
pub const OP_INSERT: u8 = 2;
/// `update`.
pub const OP_UPDATE: u8 = 3;
/// `remove`.
pub const OP_REMOVE: u8 = 4;
/// `scan`; the tag is the number of keys returned.
pub const OP_SCAN: u8 = 5;
/// `range`.
pub const OP_RANGE: u8 = 6;
/// `bulk_load`; the tag is the number of pairs.
pub const OP_BULK_LOAD: u8 = 7;
const OPS: [&str; 8] = [
    "get",
    "get_batch",
    "insert",
    "update",
    "remove",
    "scan",
    "range",
    "bulk_load",
];

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id: recording thread in the high bits, sequence below.
    pub id: u64,
    /// Id of the span that was open on this thread when this one began
    /// (0 = none).
    pub parent: u64,
    /// Nanoseconds since the first span of the process.
    pub start: u64,
    /// Nanoseconds since the first span of the process.
    pub end: u64,
    /// Layer id.
    pub layer: u8,
    /// Op id.
    pub op: u8,
    /// Request number, batch size or result count.
    pub tag: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

struct Local {
    buf: Arc<Mutex<Vec<Span>>>,
    open: Vec<u64>,
    next: u64,
}

static BUFFERS: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new({
        let buf = Arc::new(Mutex::new(Vec::with_capacity(1 << 16)));
        let mut all = BUFFERS.lock().expect("span registry");
        all.push(Arc::clone(&buf));
        Local { buf, open: Vec::new(), next: (all.len() as u64) << 40 }
    });
}

fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span on this thread: returns `(id, parent)`.
fn open() -> (u64, u64) {
    LOCAL.with_borrow_mut(|l| {
        l.next += 1;
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(l.next);
        (l.next, parent)
    })
}

fn close(span: Span) {
    LOCAL.with_borrow_mut(|l| {
        l.open.pop();
        l.buf.lock().expect("span buffer").push(span);
    });
}

/// Record a span around `f`; `tag` may depend on the result.
#[inline]
pub fn span<R>(layer: u8, op: u8, f: impl FnOnce() -> R, tag: impl FnOnce(&R) -> u32) -> R {
    let (id, parent) = open();
    let start = now();
    let r = f();
    let end = now();
    close(Span {
        id,
        parent,
        start,
        end,
        layer,
        op,
        tag: tag(&r),
    });
    r
}

/// Take every span recorded so far, from all threads, ordered by start.
pub fn drain() -> Vec<Span> {
    let mut all = Vec::new();
    for buf in BUFFERS.lock().expect("span registry").iter() {
        all.append(&mut buf.lock().expect("span buffer"));
    }
    all.sort_unstable_by_key(|s| (s.start, s.id));
    all
}

/// An index wrapped at a public seam; every call records a span.
pub struct Traced<I, const LAYER: u8>(pub I);

impl<I: ConcurrentIndex, const LAYER: u8> ConcurrentIndex for Traced<I, LAYER> {
    fn get(&self, key: Key) -> Option<Value> {
        span(LAYER, OP_GET, || self.0.get(key), |_| 0)
    }
    fn insert(&self, key: Key, value: Value) -> Result<()> {
        span(LAYER, OP_INSERT, || self.0.insert(key, value), |_| 0)
    }
    fn update(&self, key: Key, value: Value) -> Result<()> {
        span(LAYER, OP_UPDATE, || self.0.update(key, value), |_| 0)
    }
    fn remove(&self, key: Key) -> Option<Value> {
        span(LAYER, OP_REMOVE, || self.0.remove(key), |_| 0)
    }
    fn get_batch(&self, keys: &[Key], out: &mut [Option<Value>]) {
        span(
            LAYER,
            OP_GET_BATCH,
            || self.0.get_batch(keys, out),
            |_| keys.len() as u32,
        )
    }
    fn batch_domains(&self) -> usize {
        self.0.batch_domains()
    }
    fn batch_domain_of(&self, key: Key) -> usize {
        self.0.batch_domain_of(key)
    }
    fn range(&self, lo: Key, hi: Key, out: &mut Vec<(Key, Value)>) -> usize {
        span(LAYER, OP_RANGE, || self.0.range(lo, hi, out), |n| *n as u32)
    }
    fn scan(&self, lo: Key, n: usize, out: &mut Vec<(Key, Value)>) -> usize {
        span(LAYER, OP_SCAN, || self.0.scan(lo, n, out), |n| *n as u32)
    }
    fn memory_usage(&self) -> usize {
        self.0.memory_usage()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<I: BulkLoad, const LAYER: u8> BulkLoad for Traced<I, LAYER> {
    fn bulk_load(pairs: &[(Key, Value)]) -> Self {
        Traced(span(
            LAYER,
            OP_BULK_LOAD,
            || I::bulk_load(pairs),
            |_| pairs.len() as u32,
        ))
    }
    fn bulk_load_threaded(pairs: &[(Key, Value)], threads: usize) -> Self {
        Traced(span(
            LAYER,
            OP_BULK_LOAD,
            || I::bulk_load_threaded(pairs, threads),
            |_| pairs.len() as u32,
        ))
    }
}

/// A future whose whole life is one span, and which is the open span on
/// whatever thread polls it — so a `get_batch` flushed inline by a
/// request's poll names that request as its cause.
pub struct TracedFuture<F> {
    inner: Pin<Box<F>>,
    span: Span,
}

impl<F> TracedFuture<F> {
    /// Start the span now.
    pub fn new(layer: u8, op: u8, tag: u32, inner: F) -> Self {
        let (id, parent) = open();
        LOCAL.with_borrow_mut(|l| l.open.pop());
        let start = now();
        TracedFuture {
            inner: Box::pin(inner),
            span: Span {
                id,
                parent,
                start,
                end: 0,
                layer,
                op,
                tag,
            },
        }
    }
}

impl<F: Future> Future for TracedFuture<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        let id = self.span.id;
        LOCAL.with_borrow_mut(|l| l.open.push(id));
        let polled = self.inner.as_mut().poll(cx);
        if polled.is_ready() {
            self.span.end = now();
            close(self.span);
        } else {
            LOCAL.with_borrow_mut(|l| l.open.pop());
        }
        polled
    }
}

/// Write every span whose root request's sequence number is a multiple
/// of `keep_every`, one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], keep_every: u64) -> std::io::Result<usize> {
    let parent_of: std::collections::HashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut written = 0usize;
    for s in spans {
        let mut root = s.id;
        while let Some(&p) = parent_of.get(&root).filter(|&&p| p != 0) {
            root = p;
        }
        if (root & ((1 << 40) - 1)) % keep_every != 0 {
            continue;
        }
        writeln!(
            out,
            "{{\"name\":\"{}.{}\",\"id\":{},\"parent\":{},\"root\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
            LAYERS[s.layer as usize], OPS[s.op as usize], s.id, s.parent, root, s.id >> 40, s.start, s.end, s.tag
        )?;
        written += 1;
    }
    out.flush()?;
    Ok(written)
}
