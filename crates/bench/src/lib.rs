//! The experiment harness behind the `figures` binary: one experiment
//! table ([`registry`]), one interpreter for the driver-shaped rows
//! ([`sweep`]), the measurements that are not that shape ([`studies`],
//! [`service`]), and the shared setup, index registry, flag parser and
//! report formatting.
//!
//! `figures <experiment>[,…]` regenerates the rows/series of a table or
//! figure of the ALT-index paper (`figures --list` names them). Scale
//! defaults are laptop-sized (2M keys instead of the paper's 200M,
//! thread count capped by the host); pass `--keys`, `--threads`, `--ops`
//! to change them. See `EXPERIMENTS.md` for the recorded
//! paper-vs-measured comparison.

#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod indexes;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod service;
pub mod setup;
pub mod studies;
pub mod sweep;

pub use cli::Args;
pub use indexes::IndexKind;
pub use report::Row;
pub use setup::Setup;
