#!/usr/bin/env bash
# Run every workspace crate's test suite once, timing each, and print a
# slowest-first table so creeping test cost is visible in CI logs. This
# IS the CI test gate (equivalent coverage to `cargo test --workspace
# --no-fail-fast`, run per crate): a failing suite prints its output and
# the run carries on, so one red suite cannot hide the rest; every
# failure is listed again at the end and fails the script.
#
# Set TIMINGS_OUT=<path> to also write the table there in a stable
# tab-separated form (seconds<TAB>suite), so CI can upload it as an
# artifact and runs can be diffed across commits.
set -euo pipefail
cd "$(dirname "$0")/.."

# Workspace members, from cargo itself (not manifest text parsing, so
# member renames / glob members cannot silently empty the list).
meta=$(cargo metadata --no-deps --format-version 1)
if command -v jq >/dev/null 2>&1; then
    members=$(printf '%s' "$meta" | jq -r '.packages[].name')
else
    members=$(printf '%s' "$meta" | python3 -c \
        'import json,sys; print("\n".join(p["name"] for p in json.load(sys.stdin)["packages"]))')
fi

count=0
failed=()
times=$(mktemp)
log=$(mktemp)
trap 'rm -f "$times" "$log"' EXIT
for name in $members; do
    start=$(date +%s.%N)
    if ! cargo test -q -p "$name" --no-fail-fast >"$log" 2>&1; then
        echo "=== FAILED: $name ===" >&2
        cat "$log" >&2
        failed+=("$name")
    fi
    end=$(date +%s.%N)
    count=$((count + 1))
    awk -v s="$start" -v e="$end" -v n="$name" \
        'BEGIN { printf "%9.2f  %s\n", e - s, n }' >>"$times"
done

# Guard against a parsing regression silently testing nothing: this
# workspace has 16 members and only ever grows.
if [ "$count" -lt 10 ]; then
    echo "only $count test suites ran — member discovery is broken" >&2
    exit 1
fi

echo "per-suite test timings ($count suites, seconds, slowest first):"
sort -rn "$times"

if [ -n "${TIMINGS_OUT:-}" ]; then
    sort -rn "$times" | awk '{ printf "%s\t%s\n", $1, $2 }' >"$TIMINGS_OUT"
    echo "timings artifact written to $TIMINGS_OUT"
fi

if [ "${#failed[@]}" -gt 0 ]; then
    echo "${#failed[@]} of $count suites FAILED: ${failed[*]}" >&2
    exit 1
fi
