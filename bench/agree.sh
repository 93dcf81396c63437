#!/usr/bin/env bash
# Two full sets of the same code (bench/run.sh twice, same seed); fails
# if any end-to-end metric of any workload differs between the sets by
# more than its bound in BENCHMARK.json, if a run reports a failed
# operation, or if one of the counts that must repeat exactly (on the
# five training workloads) does not.
#
#   bench/agree.sh [--seed N] [--seconds N]
set -euo pipefail
cd "$(dirname "$0")/.."

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
bench/run.sh "$@" >"$out/a.json"
bench/run.sh "$@" >"$out/b.json"

python3 - "$out/a.json" "$out/b.json" <<'PY'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
spec = json.load(open("BENCHMARK.json"))
exact = [("end_to_end", "wire_bytes_per_row"), ("per_layer", "mpc.msgs_per_batch"),
         ("per_layer", "paillier.matmul_pows_per_batch")]
bad = 0
for w in (x["name"] for x in spec["workloads"]):
    ra, rb = a["workloads"][w], b["workloads"][w]
    for r in (ra, rb):
        if not r["correct"] or r["failed"] or r["trace_failed"]:
            print(f"FAIL {w}: a run reported failed operations")
            bad += 1
    for m in spec["end_to_end"]:
        va, vb = ra["end_to_end"][m["name"]]["value"], rb["end_to_end"][m["name"]]["value"]
        diff = abs(va - vb) / min(abs(va), abs(vb))
        verdict = "ok" if diff <= m["bound"] else "FAIL"
        bad += verdict == "FAIL"
        print(f"{verdict:4} {w:14} {m['name']:20} {va:14.4f} {vb:14.4f}  diff {diff * 100:6.2f} %  bound {m['bound'] * 100:.0f} %")
    # The gateway coalesces micro-batches by arrival time, so its
    # per-request bytes are steady (bounded above) but not exact.
    for group, name in exact if w != "serve_gateway" else []:
        va, vb = ra[group][name]["value"], rb[group][name]["value"]
        if va != vb:
            print(f"FAIL {w}: {name} must repeat exactly, got {va} and {vb}")
            bad += 1
sys.exit(1 if bad else 0)
PY
echo "[agree.sh] the two sets agree within the benchmark's bounds" >&2
