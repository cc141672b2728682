//! A concurrent Adaptive Radix Tree (Leis et al., ICDE 2013) with
//! optimistic lock coupling (Leis et al., DaMoN 2016) over `u64 -> u64`.
//!
//! This crate is both a substrate and a baseline for the ALT-index
//! reproduction:
//!
//! * As a **substrate**, it is the ART-OPT layer of ALT-index, holding the
//!   conflict data of the learned layer.
//! * As a **baseline**, it is the "ART" competitor of Table I and
//!   Figs 7-9.
//!
//! Both enter the tree at the root: the paper's fast pointers (§III-C,
//! searches resumed at an intermediate node) were built, measured out of
//! cache and withdrawn — EXPERIMENTS.md "Fast pointers".
//!
//! Concurrency: readers are lock-free (version validation + epoch-based
//! reclamation via `crossbeam-epoch`); writers lock at most a parent/child
//! pair (a merge also its surviving child). Values are updated in place
//! through an atomic in the leaf.
//!
//! The root is a Node256 with an empty prefix that lives as long as the
//! tree, as in the OLC ART: nothing replaces it, so no write races for a
//! root slot. A node's prefix changes in place under its lock and its
//! parent's; a node is copied only to change its type (grow, shrink).

#![warn(missing_docs)]
// Prefix-comparison loops index with `depth + i` arithmetic; iterator
// adaptors would obscure the byte-position math.
#![allow(clippy::needless_range_loop)]

mod api;
pub(crate) mod arena;
mod batch;
// Exposed (unstably) for the child-search oracle suite
// (tests/child_search.rs); the stable surface is the re-export list
// below.
#[doc(hidden)]
pub mod node;
mod olc;
mod scan;
mod stats;
mod tree;

pub use arena::{arena_alloc_fail_count, arena_allocated_bytes};
pub use batch::{drive_ring, BatchCursor, BatchStep, RING_WIDTH};
pub use node::{key_byte, key_bytes, NodePtr, NodeType, MAX_PREFIX};
pub use olc::VersionLock;
pub use stats::ArtStats;
pub use tree::Art;

use probe::metrics::Counter;

/// The counters this crate's retry loops record their backoff tiers and
/// escalations under (`resilience::Retry::wait_or_escalate`).
pub(crate) const LAYER: resilience::LayerCounters = resilience::LayerCounters::new(
    Counter::ArtEscalation,
    Counter::ArtBackoffYield,
    Counter::ArtBackoffPark,
);
