//! The `figures` binary end to end, as CI and
//! `scripts/run_all_experiments.sh` invoke it (a debug build here, so
//! arithmetic overflow panics).

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures")
}

fn json_rows(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("#json "))
        .map(str::to_string)
        .collect()
}

#[test]
fn list_prints_every_id_and_an_unknown_name_fails_listing_them() {
    let list = figures(&["--list"]);
    assert!(list.status.success());
    let ids = String::from_utf8(list.stdout).unwrap();
    assert_eq!(ids.lines().count(), 25, "{ids}");

    for args in [&["fig11"][..], &["--keys", "1k"]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        for id in ids.lines() {
            assert!(err.contains(id), "{args:?}: `{id}` missing from: {err}");
        }
        assert!(json_rows(&out).is_empty());
    }
    // A bad flag value is a failure too (what lets
    // run_all_experiments.sh stop on a crashed experiment).
    assert!(!figures(&["table1", "--datasets", "nope"]).status.success());
}

/// The whole-dataset experiments (`Setup::new` at `bulk_ratio = 1.0`),
/// where a debug build panics on arithmetic a release build wraps;
/// fig8d's 100 % point is the sweep through the same split.
#[test]
fn full_load_experiments_run_in_a_debug_build() {
    let scale = ["--keys", "4k", "--threads", "1", "--ops", "200"];
    for (name, rows) in [("fig3", 3 + 14), ("fig4", 10), ("fig8d", 4 * 3)] {
        let mut args = vec![name, "--datasets", "osm", "--indexes", "ART,FINEdex,XIndex"];
        args.extend(scale);
        let out = figures(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: {err}");
        assert_eq!(json_rows(&out).len(), rows, "{name}: {err}");
    }
    let out = figures(&["fig8", "--part", "d", "--indexes", "art", "--keys", "4k"]);
    let rows = json_rows(&out);
    assert_eq!(rows.len(), 4);
    assert!(rows
        .iter()
        .all(|r| r.contains("\"experiment\":\"fig8d\"") && r.contains("\"index\":\"ART\"")));
    assert!(rows[3].contains("\"x\":1.0"), "{}", rows[3]);
}
