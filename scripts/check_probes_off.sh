#!/usr/bin/env bash
# "Compiles to nothing" gate for the probe seam (crates/probe): a default
# release build of the `quickstart` example — every probe feature off —
# must contain no symbol from `probe::chaos`, `probe::fail` or
# `probe::metrics`: no verb body, no registry, no counter bank. A verb
# that stopped folding away, or a call site that reaches a control-plane
# function in a default build, shows up here by name. Exits 1 and lists
# the symbols otherwise.
#
# The gate fails closed: `nm` must succeed on the binary cargo reports
# having built, and the listing must name `alt_index::` symbols (the
# code the probes sit in) — a missing tool, a wrong path or a stripped
# binary is a failure, not "no symbols".
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='probe::(chaos|fail|metrics)::'

# Ask cargo where the binary is instead of guessing target/ (a relative
# CARGO_TARGET_DIR or a --target triple moves it).
bin=$(cargo build --release --example quickstart --message-format=json |
    sed -n 's/.*"executable":"\([^"]*quickstart[^"]*\)".*/\1/p' | tail -n 1)
if [ -z "$bin" ] || [ ! -x "$bin" ]; then
    echo "check_probes_off: cargo reported no quickstart executable"
    exit 1
fi

symbols=$(nm -C "$bin")
if ! grep -q 'alt_index::' <<<"$symbols"; then
    echo "check_probes_off: no alt_index:: symbol in nm -C $bin;" \
        "the listing is empty or stripped, so it proves nothing"
    exit 1
fi
if leaked=$(grep -E "$pattern" <<<"$symbols"); then
    echo "probe symbols in a default build of quickstart:"
    echo "$leaked"
    exit 1
fi
echo "check_probes_off: no probe::{chaos,fail,metrics} symbol in $bin"
