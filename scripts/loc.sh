#!/usr/bin/env bash
# Code-size measure for "net-negative LoC" claims: per file and in total,
# the lines above the file's first `#[cfg(test)]` at column 0 (its test
# module; an indented one gates a single item) that are neither blank nor
# `//` comments (doc comments included). Directories are searched for
# `*.rs`. A number for the log, not a gate.
#
#   scripts/loc.sh [paths…]        (default: crates/*/src shims/*/src)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    set -- crates/*/src shims/*/src
fi

find "$@" -name '*.rs' -not -path '*/target/*' -print0 |
    sort -z |
    xargs -0 awk '
function flush() { if (file != "") printf "%7d %s\n", n, file }
FNR == 1 { flush(); file = FILENAME; n = 0; in_tests = 0 }
/^#\[cfg\(test\)\]/ { in_tests = 1 }
in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
{ n++; total++ }
END { flush(); printf "%7d total\n", total }'
