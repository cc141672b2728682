#!/usr/bin/env bash
# Regenerate every table/figure of the paper at laptop scale.
# Results land in results/<name>.txt (table + #json lines).
set -u
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
BIN=target/release

run() {
    local name="$1"; shift
    echo ">>> $name $*"
    "$BIN/$name" "$@" > "results/$name$SUFFIX.txt" 2>&1
    grep -v '#json' "results/$name$SUFFIX.txt" | tail -n +2 | head -50
}

SUFFIX=""
run table1 --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig3   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig4   --keys 500k
run fig6   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig7   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig8   --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run fig9   --keys "$KEYS" --threads "$THREADS" --ops 25k
run fig10  --keys "$KEYS"
run ablation --keys "$KEYS" --threads "$THREADS" --ops "$OPS"
run bulk_build --keys "$KEYS" --build-threads "$BUILD_THREADS"
# The machine-readable build-cost baseline (JSON lines, one row object
# per line — the shape scripts/summarize_results.py parses).
grep '#json' "results/bulk_build$SUFFIX.txt" | sed 's/^#json //' \
    > "results/BENCH_bulk_build$SUFFIX.json"
run batch_lookup --keys "$KEYS" --ops "$OPS" --batch-width "$BATCH_WIDTHS"
# The machine-readable batched-lookup baseline (same JSON-lines shape).
grep '#json' "results/batch_lookup$SUFFIX.txt" | sed 's/^#json //' \
    > "results/BENCH_batch_lookup$SUFFIX.json"
run retrain_shift --threads "$THREADS" --ops "$OPS" --bucket-ms "${BUCKET_MS:-50}"
# The machine-readable throughput-over-time curves, inline vs background
# retraining (same JSON-lines shape).
grep '#json' "results/retrain_shift$SUFFIX.txt" | sed 's/^#json //' \
    > "results/BENCH_retrain_shift$SUFFIX.json"
echo "ALL EXPERIMENTS DONE"
