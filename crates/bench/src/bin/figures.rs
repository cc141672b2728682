//! `figures <experiment>[,…] [--part x] [flags]`: regenerate tables and
//! figures of the ALT-index paper by experiment id or figure name
//! (`figures --list` prints the ids, `--help` the flags); see
//! [`bench::registry::EXPERIMENTS`].

fn main() {
    if let Err(msg) = bench::registry::run(&bench::Args::parse()) {
        eprintln!("{msg}");
        std::process::exit(2);
    }
}
