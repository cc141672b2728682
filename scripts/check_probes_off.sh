#!/usr/bin/env bash
# "Compiles to nothing" gate for the probe seam (crates/probe): a default
# release build of the `quickstart` example — every probe feature off —
# must contain no symbol from `probe::chaos`, `probe::fail` or
# `probe::metrics`: no verb body, no registry, no counter bank. A verb
# that stopped folding away, or a call site that reaches a control-plane
# function in a default build, shows up here by name. Exits 1 and lists
# the symbols otherwise.
#
# As a self-check the same listing must be non-empty with the features
# on; pass --self-check to run that second (slower) build too.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='probe::(chaos|fail|metrics)::'
bin="${CARGO_TARGET_DIR:-target}/release/examples/quickstart"

cargo build --release --example quickstart
if leaked=$(nm -C "$bin" | grep -E "$pattern"); then
    echo "probe symbols in a default build of quickstart:"
    echo "$leaked"
    exit 1
fi
echo "check_probes_off: no probe::{chaos,fail,metrics} symbol in $bin"

if [ "${1:-}" = "--self-check" ]; then
    cargo build --release --example quickstart --features "chaos metrics fault"
    # (No `grep -q`: it would close the pipe on `nm` under pipefail.)
    if ! nm -C "$bin" | grep -cE "$pattern" >/dev/null; then
        echo "self-check failed: no probe symbol with the features on either;" \
            "the pattern no longer matches how symbols are named"
        exit 1
    fi
    echo "check_probes_off: self-check saw probe symbols with the features on"
fi
