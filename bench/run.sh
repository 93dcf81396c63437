#!/usr/bin/env bash
# One full set: release build, six untraced runs, then six traced runs;
# prints one merged JSON object on stdout with every metric by name and
# unit, plus the commit, core count, BLINDFL_THREADS and rustc it was
# measured with. Progress goes to stderr.
#
#   bench/run.sh [--seed N] [--seconds N] [--smoke] [--record]
#
# --record also appends each run to bench/history.jsonl.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --smoke | --record) extra+=("$1"); shift ;;
        *) echo "usage: bench/run.sh [--seed N] [--seconds N] [--smoke] [--record]" >&2; exit 2 ;;
    esac
done

# Always the release profile: the binary itself refuses to measure a
# debug build.
cargo build --release --quiet --manifest-path bench/ladder/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-bench/ladder/target}/release/ladder"

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for trace in 0 1; do
    for w in $workloads; do
        echo "[run.sh] $w --trace $trace --seed $seed" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${extra[@]}" \
            | tail -n 1 >"$out/$w.$trace.json"
    done
done

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then commit="$commit-dirty"; fi
OUT="$out" SEED="$seed" SECONDS_="$seconds" COMMIT="$commit" RUSTC="$(rustc --version)" python3 - $workloads <<'PY'
import json, os, sys
out = os.environ["OUT"]
doc = {
    "commit": os.environ["COMMIT"],
    "cores": os.cpu_count(),
    "BLINDFL_THREADS": os.environ.get("BLINDFL_THREADS"),
    "rustc": os.environ["RUSTC"],
    "seed": int(os.environ["SEED"]),
    "seconds": float(os.environ["SECONDS_"]),
    "workloads": {},
}
for w in sys.argv[1:]:
    e2e = json.load(open(f"{out}/{w}.0.json"))
    layer = json.load(open(f"{out}/{w}.1.json"))
    doc["workloads"][w] = {
        "correct": e2e["correct"] and layer["correct"],
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "trace_attempted": layer["attempted"],
        "trace_failed": layer["failed"],
        "end_to_end": e2e["metrics"],
        "per_layer": layer["metrics"],
    }
json.dump(doc, sys.stdout, indent=1)
print()
PY
