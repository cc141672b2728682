//! Workload generation and the multi-threaded measurement driver for the
//! ALT-index evaluation (§IV-A2 of the paper).
//!
//! * [`zipf`] — a zipfian sampler (θ = 0.99 by default, as in the paper).
//! * [`mix`] — the seven workload shapes: read-only, read-heavy,
//!   read-write-balanced, write-heavy, write-only, hot-write, and scan.
//! * [`ops`] — per-thread operation streams: zipfian reads over the
//!   bulk-loaded keys, uniformly distributed inserts from a reserved
//!   pool, 100-key scans.
//! * [`shift`] — distribution-shift streams (monotonic append, rolling
//!   window, sudden mid-run shift) for exercising retraining.
//! * [`ycsb`] — YCSB scenarios D (latest-read) and E (scan-heavy), the
//!   two shapes the classic mixes don't cover.
//! * [`driver`] — one measurement loop: [`driver::run`] executes one
//!   operation stream per thread over any
//!   [`index_api::ConcurrentIndex`], measuring throughput, sampled
//!   P50/P99/P99.9 latencies and (when asked) throughput per fixed-width
//!   time bucket, the measurement behind the retrain-stall curves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod driver;
/// The log-bucketed latency histogram, re-exported from [`probe`] (whose
/// phase timers share its bucket layout, and which this crate sits
/// above).
pub mod histogram {
    pub use probe::histogram::*;
}
pub mod mix;
pub mod ops;
pub mod shift;
pub mod ycsb;
pub mod zipf;

pub use driver::{run, DriverConfig, RunResult};
pub use histogram::LatencyHistogram;
pub use mix::{Mix, Op};
pub use ops::{OpStream, WorkloadPlan};
pub use shift::{ShiftKind, ShiftPlan, ShiftStream};
pub use ycsb::{YcsbKind, YcsbPlan, YcsbStream};
pub use zipf::Zipf;
