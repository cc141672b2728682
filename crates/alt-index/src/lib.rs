//! **ALT-index**: a hybrid learned index for concurrent memory database
//! systems — reproduction of Yang et al., ICDE 2025.
//!
//! ALT-index is a two-tier, concurrent, updatable ordered index over
//! `u64 -> u64`:
//!
//! * The **learned index layer** is a flat array of linear *GPL models*
//!   (built by the Greedy Pessimistic Linear segmentation algorithm,
//!   [`learned::gpl`]). A model predicts a 128-byte bucket, and every key
//!   stored here sits in the bucket its model predicts, whose seven lanes
//!   hold its keys sorted from lane 0 up, so this layer has **no
//!   prediction error** beyond one bucket, never performs a secondary
//!   search, and scans a bucket in lane order.
//! * The **ART-OPT layer** ([`art`]) holds conflict data — keys whose
//!   predicted bucket is full — and is searched from its root. (The
//!   paper's fast pointer buffer, which let a model resume ART searches at
//!   an intermediate node, was built, measured out of cache and withdrawn:
//!   EXPERIMENTS.md "Fast pointers".)
//!
//! Concurrency: the paper's slot versions taken to the bucket (one
//! version word per bucket, which a reader validates and a writer locks
//! while it shifts the bucket's keys)
//! in the learned layer, and optimistic lock coupling in ART (§III-E of
//! the paper).
//! Overcrowded models are rebuilt on the fly (§III-F).
//!
//! # Quick start
//!
//! ```
//! use alt_index::AltIndex;
//!
//! let pairs: Vec<(u64, u64)> = (1..=100_000u64).map(|k| (k * 13, k)).collect();
//! let idx = AltIndex::bulk_load_default(&pairs);
//!
//! assert_eq!(idx.get(13), Some(1));
//! idx.insert(7, 700).unwrap();
//! idx.update(7, 701).unwrap();
//! let mut out = Vec::new();
//! idx.range(1, 100, &mut out);
//! assert!(out.contains(&(7, 701)));
//! assert_eq!(idx.remove(7), Some(701));
//! ```

#![warn(missing_docs)]
// Prefix-comparison loops index with `depth + i` arithmetic; iterator
// adaptors would obscure the byte-position math.
#![allow(clippy::needless_range_loop)]

mod api;
mod batch;
mod config;
mod dir;
pub mod index;
mod model;
mod retrain;
mod scan;
pub mod slots;
mod stats;

pub use config::{default_build_threads, AltConfig};
pub use index::AltIndex;
pub use stats::{AltStats, ArtProbe};

use probe::metrics::Counter;

/// The counters this crate's retry loops record their backoff tiers and
/// escalations under (`resilience::Retry::wait_or_escalate`).
pub(crate) const LAYER: resilience::LayerCounters = resilience::LayerCounters::new(
    Counter::AltEscalation,
    Counter::AltBackoffYield,
    Counter::AltBackoffPark,
);
