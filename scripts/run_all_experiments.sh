#!/usr/bin/env bash
# Regenerate every table/figure of the paper at laptop scale with the one
# `figures` binary (`cargo build --release -p bench`). Results land in
# results/<name>.txt (table + #json lines); a failing experiment stops
# the script with a non-zero status and its name.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results

KEYS=${KEYS:-1m}
THREADS=${THREADS:-4}
OPS=${OPS:-50k}
# Construction thread counts the bulk_build sweep records (serial
# baseline first; see results/BENCH_bulk_build.json).
BUILD_THREADS=${BUILD_THREADS:-1,2,4,8}
# Batch widths the batch_lookup sweep records (width 1 = scalar
# baseline; see results/BENCH_batch_lookup.json).
BATCH_WIDTHS=${BATCH_WIDTHS:-1,8,16,32,64}
FIGURES=target/release/figures
SUFFIX=""

run() {
    local name="$1" out="results/$1$SUFFIX.txt"; shift
    echo ">>> $name $*"
    if ! "$FIGURES" "$name" "$@" > "$out" 2>&1; then
        { grep -A1 'panicked at' "$out" || tail -n 5 "$out"; } >&2
        echo "EXPERIMENT FAILED: $name (see $out)" >&2
        exit 1
    fi
    grep -v '^#json\|^==' "$out" | head -50 || true
}

# The machine-readable baseline of an experiment: its #json rows as JSON
# lines, one row object per line — the shape scripts/summarize_results.py
# parses.
bench_json() {
    grep '#json' "results/$1$SUFFIX.txt" | sed 's/^#json //' \
        > "results/BENCH_$1$SUFFIX.json"
}

run table1 --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig3   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig4   --keys 500k
run fig6   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig7   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig8   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig9   --keys "$KEYS" --threads "$THREADS" --ops 25k
run fig10  --keys "$KEYS"
run ablation --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run ycsb   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run bulk_build --keys "$KEYS" --build-threads "$BUILD_THREADS"
bench_json bulk_build
run batch_lookup --keys "$KEYS" --ops "$OPS" --batch-width "$BATCH_WIDTHS"
bench_json batch_lookup
# Throughput-over-time curves under distribution shift.
run retrain_shift --threads "$THREADS" --ops "$OPS" --bucket-ms "${BUCKET_MS:-50}"
bench_json retrain_shift
# The closed-loop sweep only; results/BENCH_service_throughput.json also
# holds an open-loop overload run (EXPERIMENTS.md "Serving throughput").
run service_throughput --keys "$KEYS" --threads "$THREADS" --ops "$OPS" \
    --datasets fb,osm --connections 8,64,256
echo "ALL EXPERIMENTS DONE"
