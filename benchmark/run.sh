#!/bin/sh
# The one command: release build, ten seeds of each of the five workloads,
# one traced run of each, every metric printed by name with its unit, and
# the set written to benchmark/out/set-NAME.json.
set -eu
exec python3 "$(dirname "$0")/run.py" --set "${1:-$(date +%Y%m%d-%H%M%S)}"
