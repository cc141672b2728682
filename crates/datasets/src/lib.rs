//! Deterministic synthetic dataset generators for the ALT-index
//! evaluation.
//!
//! The paper evaluates on four 200M-key datasets (SOSD `fb` and `osm`,
//! plus `libio` and `longlat`). Those files are not shipped here; instead
//! each generator reproduces the *distributional character* that drives
//! every experiment — how learnable the CDF is, which controls the GPL
//! model count, the bulk-load conflict ratio, and the learned/ART split:
//!
//! | name      | character                                   | learnability |
//! |-----------|---------------------------------------------|--------------|
//! | `libio`   | near-linear auto-increment IDs, bursty gaps | very high    |
//! | `fb`      | heavy-tailed ID blocks (lognormal-ish gaps) | medium       |
//! | `osm`     | uniform samples of the full 64-bit space    | medium-low   |
//! | `longlat` | clustered multiplicative transform          | low          |
//!
//! All generators are seeded and deterministic: the same `(name, n, seed)`
//! always yields the same sorted, deduplicated, zero-free key array.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod rng;
pub mod sosd;

pub use gen::{generate, generate_pairs, Dataset, ALL_DATASETS};
pub use sosd::{load_sosd, maybe_load, write_sosd, SOSD_DIR_ENV};
