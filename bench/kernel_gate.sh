#!/usr/bin/env bash
# Gates one build's blocked gemm kernels against another build's, on the
# same host. An attempt runs 5 bench_kernels sweeps of each build,
# alternating base and head, and takes each record's median over a build's
# sweeps; perf_diff then fails the attempt when a gated head record's median
# speedup over the reference kernel (timed in the same sweep) is more than
# 10 % below the base's. A failed attempt gets one retry with fresh sweeps,
# head first this time; the gate fails only if the retry fails too. One
# sweep on a shared host can read a record 10 % low on unchanged code; the
# median of five rarely does.
#
#   bench/kernel_gate.sh BASE_BENCH_KERNELS HEAD_BENCH_KERNELS PERF_DIFF [OUT_DIR]
#
# Every sweep is pinned to the host's last CPU when taskset can pin there.
# The sweeps land in OUT_DIR (default kernel_gate/) as base-<i>.json and
# head-<i>.json, and the medians as base.json and head.json (base_retry.json
# and head_retry.json when the retry ran). Needs python3 for the medians.
# Exit 0 = pass, 1 = the head regressed in both attempts, 2 = bad usage or
# a sweep failed (a bench_kernels bit mismatch fails the gate outright).
#
# CI builds the base from the pull request's base commit (HEAD^ on a push)
# in a git worktree; to compare two local commits:
#
#   git worktree add --detach ../base <commit>
#   cmake -B ../base/build -S ../base && cmake --build ../base/build --target bench_kernels
#   bench/kernel_gate.sh ../base/build/bench/bench_kernels build/bench/bench_kernels \
#     build/examples/perf_diff
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 BASE_BENCH_KERNELS HEAD_BENCH_KERNELS PERF_DIFF [OUT_DIR]" >&2
  exit 2
fi
base_bin=$1
head_bin=$2
perf_diff=$3
out=${4:-kernel_gate}
sweeps=5
mkdir -p "$out"

pin=()
last_cpu=$(($(nproc) - 1))
if command -v taskset > /dev/null && taskset -c "$last_cpu" true 2> /dev/null; then
  pin=(taskset -c "$last_cpu")
fi

# The records CI has gated since the blocked tier became the default: the
# square gemm and gemm_nt sweeps.
gated=()
for op in gemm gemm_nt; do
  for n in 64 128 256 512; do gated+=(--match "$op/$n/t1"); done
done

sweep() {  # sweep BINARY JSON
  if ! "${pin[@]}" "$1" --json "$2" --require-speedup 1.0 > "$2.log" 2>&1; then
    cat "$2.log" >&2
    echo "FAIL: $1 sweep failed" >&2
    exit 2
  fi
}

median() {  # median OUT_JSON SWEEP_JSON... — each record's median gflops and speedup_vs_ref
  python3 - "$@" << 'EOF'
import json, statistics, sys
out, sweeps = sys.argv[1], sys.argv[2:]
rows = {}
for path in sweeps:
    with open(path) as f:
        for r in json.load(f)["records"]:
            rows.setdefault((r["op"], r.get("size"), r.get("shape"), r["config"]), []).append(r)
records = []
for same in rows.values():
    rec = dict(same[0])
    for field in ("gflops", "speedup_vs_ref"):
        if field in rec:
            rec[field] = statistics.median(r[field] for r in same)
    records.append(rec)
with open(out, "w") as f:
    json.dump({"schema_version": 1, "sweeps": len(sweeps), "records": records}, f, indent=1)
EOF
}

attempt() {  # attempt FIRST_SIDE SUFFIX — alternating sweeps, then the gate on the medians
  local first=$1 suffix=$2 second
  if [ "$first" = base ]; then second=head; else second=base; fi
  for i in $(seq 1 "$sweeps"); do
    for side in "$first" "$second"; do
      local bin=$base_bin
      if [ "$side" = head ]; then bin=$head_bin; fi
      sweep "$bin" "$out/$side$suffix-$i.json"
    done
  done
  median "$out/base$suffix.json" "$out"/base"$suffix"-*.json
  median "$out/head$suffix.json" "$out"/head"$suffix"-*.json
  "$perf_diff" "$out/base$suffix.json" "$out/head$suffix.json" --fail-on-regress --threshold 0.10 \
    "${gated[@]}"
}

if attempt base ""; then
  echo "PASS: head kernels within 10 % of the base (medians of $sweeps sweeps each)"
  exit 0
fi
echo "first attempt regressed; the gate fails only if a second attempt regresses too"
if attempt head _retry; then
  echo "PASS: head kernels within 10 % of the base on the retry"
  exit 0
fi
echo "FAIL: head kernels regressed against the base in both attempts" >&2
exit 1
