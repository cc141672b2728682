//! Drive the concurrency testkit (`testkit` + `probe::chaos`) end to end
//! from the public API.
//!
//! ```sh
//! cargo run --release --example chaos_demo                    # points compiled out
//! cargo run --release --example chaos_demo --features chaos   # perturbed run
//! cargo run --release --example chaos_demo --features chaos -- 31337
//! ```
//!
//! With `--features chaos` the run installs a seeded schedule, hammers an
//! `AltIndex` with a shared-key scenario plus ART with a disjoint one,
//! reports the chaos-point hit count (`probe::chaos::hits`), and
//! oracle-checks both histories. Without the feature the same binary
//! shows `probe::chaos::point` is compiled out (zero hits).

use alt_index::AltIndex;
use index_api::BulkLoad;
use testkit::harness::Scenario;

fn main() {
    let seed: u64 = match std::env::args().nth(1) {
        None => 42,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("usage: chaos_demo [seed (decimal u64)] — got {s:?}");
                std::process::exit(2);
            }
        },
    };

    let before = probe::chaos::hits();

    let shared = Scenario::shared(seed);
    let alt = AltIndex::bulk_load(&shared.initial_pairs());
    match shared.run(&alt) {
        Ok(()) => println!("alt-index shared-key scenario (seed {seed}): oracle clean"),
        Err(report) => {
            eprintln!("alt-index shared-key scenario (seed {seed}) FAILED:\n{report}");
            std::process::exit(1);
        }
    }

    let disjoint = Scenario::disjoint(seed);
    let art = art::Art::bulk_load(&disjoint.initial_pairs());
    match disjoint.run(&art) {
        Ok(()) => println!("art disjoint-key scenario (seed {seed}): oracle clean"),
        Err(report) => {
            eprintln!("art disjoint-key scenario (seed {seed}) FAILED:\n{report}");
            std::process::exit(1);
        }
    }

    let hits = probe::chaos::hits() - before;
    if cfg!(feature = "chaos") {
        println!("chaos points hit: {hits} (feature `chaos` on)");
        assert!(hits > 0, "chaos feature on but no instrumented site fired");
    } else {
        println!("chaos points hit: {hits} (feature `chaos` off — points compiled out)");
        assert_eq!(hits, 0, "points must vanish without the chaos feature");
    }
}
