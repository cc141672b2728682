//! Deterministic concurrency testkit for the ALT-index workspace.
//!
//! Two pieces (see `TESTING.md` at the repository root), on top of the
//! seeded schedule-perturbing chaos points of [`probe::chaos`]:
//!
//! * [`oracle`] — per-thread operation-history recording plus quiesce
//!   validation against a reference model, generic over
//!   [`index_api::ConcurrentIndex`].
//! * [`harness`] — a seeded multi-threaded workload driver that wires
//!   the two together: deterministic op scripts per thread, chaos
//!   perturbation while running, oracle checking at join.

#![warn(missing_docs)]

pub mod harness;
pub mod oracle;
