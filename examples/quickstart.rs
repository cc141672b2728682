//! Quickstart: build an ALT-index, run the basic operations, and peek at
//! the two-tier structure.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use alt::alt_index::AltIndex;

fn main() {
    // Bulk-load one million sorted keys (the learned layer absorbs what
    // fits its linear models; the rest spills into ART).
    let pairs: Vec<(u64, u64)> = (1..=1_000_000u64).map(|k| (k * 8, k)).collect();
    let idx = AltIndex::bulk_load_default(&pairs);
    println!("loaded {} keys, epsilon = {}", idx.len(), idx.epsilon());

    // Point lookups.
    assert_eq!(idx.get(8), Some(1));
    assert_eq!(idx.get(9), None);

    // Inserts: empty predicted slots absorb them in place; occupied ones
    // route to the ART layer.
    for k in 1..=1_000u64 {
        idx.insert(k * 8 + 3, k).unwrap();
    }
    assert_eq!(idx.get(11), Some(1));

    // Updates and removals work across both layers transparently.
    idx.update(11, 42).unwrap();
    assert_eq!(idx.get(11), Some(42));
    assert_eq!(idx.remove(11), Some(42));

    // Range scans merge the learned layer with ART.
    let mut out = Vec::new();
    idx.range(8, 80, &mut out);
    println!(
        "range [8, 80] -> {} entries, first = {:?}",
        out.len(),
        out.first()
    );

    // Structural introspection (the paper's §IV-H metrics).
    let stats = idx.stats();
    println!(
        "models = {}, learned share = {:.1}%, ART keys = {}, memory = {:.1} MiB",
        stats.num_models,
        stats.learned_share() * 100.0,
        stats.keys_in_art,
        stats.memory_total() as f64 / (1 << 20) as f64,
    );
}
