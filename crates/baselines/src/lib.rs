//! Shape-faithful reimplementations of the indexes the ALT-index paper
//! evaluates against (§IV-A3): **ALEX+**, **LIPP+**, **XIndex**, and
//! **FINEdex**. (The fifth competitor, plain **ART**, lives in the `art`
//! crate.)
//!
//! "Shape-faithful" means each baseline implements the *mechanism* that
//! gives the original system its published strengths and weaknesses —
//! the mechanisms Table I attributes each system's limitation to:
//!
//! * [`alex::AlexLike`] — gapped arrays with model-based placement and
//!   **data shifting** on collisions, node splits on fullness (→ good
//!   reads, high tail latency under hard insert patterns).
//! * [`lipp::LippLike`] — precise-position nodes that resolve conflicts
//!   by **creating child nodes**, with per-node **statistics counters**
//!   updated on every insert along the path (→ cache-line invalidation
//!   under concurrency, large memory footprint).
//! * [`xindex::XIndexLike`] — a two-stage RMI over groups, each with a
//!   sorted array + **delta buffer** merged by a **background compactor**
//!   (→ buffer lookups on the read path, merge cost under writes).
//! * [`finedex::FinedexLike`] — LPA-trained models with **per-position
//!   level bins** (fine-grained delta buffers) (→ many models, bounded
//!   secondary search plus bin walks).
//!
//! Simplifications versus the original C++ systems are documented on each
//! type; they preserve the comparative behaviour the paper reports, not
//! absolute numbers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alex;
pub(crate) mod batch;
pub mod finedex;
pub mod lipp;
pub mod seqlock;
pub mod xindex;

pub use alex::AlexLike;
pub use finedex::FinedexLike;
pub use lipp::LippLike;
pub use xindex::XIndexLike;

use probe::metrics::Counter;

/// The counters this crate's retry loops record their backoff tiers and
/// escalations under (`resilience::Retry::wait_or_escalate`).
pub(crate) const LAYER: resilience::LayerCounters = resilience::LayerCounters::new(
    Counter::BaselineEscalation,
    Counter::BaselineBackoffYield,
    Counter::BaselineBackoffPark,
);
