#!/usr/bin/env bash
# SAFETY-comment gate: every `unsafe { .. }` block and `unsafe impl` under
# crates/ and shims/ must be introduced by a `// SAFETY:` comment.
#
# "Introduced by" means: walking up from the line that holds the `unsafe`
# keyword, past the rest of its own statement (lines that do not end a
# statement or open/close a block) and past attributes, the first thing
# met is a comment block containing `SAFETY:`. A trailing `// SAFETY:` on
# the line itself also counts. Exits 1 and lists every offender otherwise.
#
# Also prints the two totals ROADMAP quotes (lines mentioning `unsafe`,
# lines mentioning `SAFETY`, same tree), so they are read off CI's log
# like `scripts/loc.sh`'s: numbers, not gates.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates shims -name '*.rs' -not -path '*/target/*' -print0 |
    sort -z |
    xargs -0 awk '
function is_comment(s) { return s ~ /^[[:space:]]*\/\// }
function is_attr(s) { return s ~ /^[[:space:]]*#\[/ }
function documented(i,    j) {
    if (line[i] ~ /\/\/.*SAFETY:/) return 1
    j = i - 1
    # The rest of the statement the keyword sits in, and attributes.
    while (j >= 1 && !is_comment(line[j]) &&
           (is_attr(line[j]) || line[j] !~ /[;{}][[:space:]]*$/)) j--
    for (; j >= 1 && is_comment(line[j]); j--)
        if (line[j] ~ /SAFETY:/) return 1
    return 0
}
function flush(    i) {
    for (i = 1; i <= n; i++) {
        if (is_comment(line[i])) continue
        if (line[i] !~ /(^|[^[:alnum:]_])unsafe[[:space:]]*(\{|impl)/) continue
        if (!documented(i)) { printf "%s:%d: %s\n", file, i, line[i]; bad++ }
    }
}
FNR == 1 { if (file != "") flush(); file = FILENAME; n = 0 }
{ line[++n] = $0 }
END {
    flush()
    if (bad) { printf "%d unsafe block(s)/impl(s) without a // SAFETY: comment\n", bad; exit 1 }
}'
echo "SAFETY gate: every unsafe block and unsafe impl is documented"
for word in unsafe SAFETY; do
    printf '%7d lines mention %s\n' \
        "$(grep -rn "$word" --include='*.rs' crates shims | wc -l)" "$word"
done
