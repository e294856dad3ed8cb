#!/usr/bin/env bash
# Gates one build's blocked gemm kernels against another build's, on the
# same host: bench_kernels sweeps of the base and the head run back to back,
# and perf_diff fails the attempt when a gated head record's speedup over
# the reference kernel (timed in the same sweep) is more than 10 % below
# the base's. A failed attempt gets one retry with fresh sweeps of both,
# head first this time; the gate fails only if the retry fails too.
#
#   bench/kernel_gate.sh BASE_BENCH_KERNELS HEAD_BENCH_KERNELS PERF_DIFF [OUT_DIR]
#
# Both sweeps are pinned to the host's last CPU when taskset can pin there.
# The sweeps land in OUT_DIR (default kernel_gate/) as base.json and
# head.json, plus base_retry.json and head_retry.json when the retry ran.
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

gate() {  # gate BASE_JSON HEAD_JSON
  "$perf_diff" "$1" "$2" --fail-on-regress --threshold 0.10 "${gated[@]}"
}

sweep "$base_bin" "$out/base.json"
sweep "$head_bin" "$out/head.json"
if gate "$out/base.json" "$out/head.json"; then
  echo "PASS: head kernels within 10 % of the base"
  exit 0
fi
echo "first attempt regressed; the gate fails only if a second attempt regresses too"
sweep "$head_bin" "$out/head_retry.json"
sweep "$base_bin" "$out/base_retry.json"
if gate "$out/base_retry.json" "$out/head_retry.json"; then
  echo "PASS: head kernels within 10 % of the base on the retry"
  exit 0
fi
echo "FAIL: head kernels regressed against the base in both attempts" >&2
exit 1
