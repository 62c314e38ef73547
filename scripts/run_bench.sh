#!/usr/bin/env sh
# Build (if needed) and run the benchmark suite, collecting machine-readable
# results as BENCH_*.json in the output directory.
#
# Usage: scripts/run_bench.sh [build-dir] [out-dir]
#   build-dir  CMake build tree (default: build)
#   out-dir    where BENCH_*.json land (default: <build-dir>/bench-results)
#
# Set SYM_BENCH_SMOKE=1 for the fast CI variant (same flags the bench_smoke
# ctest label uses). Set SYM_BENCH_COMMIT_ROOT=1 to also refresh the
# committed trajectory files at the repo root (BENCH_overhead.json,
# BENCH_scaling.json, BENCH_cache.json, BENCH_scale.json) — full mode
# only, so a smoke run can never clobber real numbers.
#
# Every bench runs even after one fails (each study JSON records its own
# gate verdicts); the script prints each exit status, exits 1 if any failed.

set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$root/build"}
out=${2:-"$build/bench-results"}

smoke_flag=""
if [ "${SYM_BENCH_SMOKE:-0}" = "1" ]; then
  smoke_flag="--smoke"
fi
if [ "${SYM_BENCH_COMMIT_ROOT:-0}" = "1" ] && [ -n "$smoke_flag" ]; then
  echo "run_bench: refusing to refresh root BENCH files from a smoke run"
  exit 1
fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root" -B "$build"
fi
cmake --build "$build" -j"$(nproc 2>/dev/null || echo 2)"

mkdir -p "$out"
rm -f "$out"/BENCH_*.json  # a study that dies must not leave a stale file

# The trajectory studies and their result files (gates: EXPERIMENTS.md).
studies="overhead_study:BENCH_overhead scaling_study:BENCH_scaling
cache_fairness_study:BENCH_cache scale_study:BENCH_scale"

summary=""
failed=0
# run <bench> <args...>: run one bench binary, record its exit status.
run() {
  bench=$1
  shift
  echo "== $bench =="
  if "$build/bench/$bench" "$@"; then status=0; else status=$?; failed=1; fi
  summary="$summary
  $bench: exit $status"
}

for s in $studies; do
  run "${s%%:*}" $smoke_flag --out "$out/${s#*:}.json"
done
run micro_benchmarks --benchmark_out="$out/BENCH_micro.json" \
  --benchmark_out_format=json ${smoke_flag:+--benchmark_min_time=0.01}

if [ "${SYM_BENCH_COMMIT_ROOT:-0}" = "1" ]; then
  for s in $studies; do
    f=${s#*:}.json
    if [ -f "$out/$f" ]; then
      cp "$out/$f" "$root/$f"
      echo "refreshed committed trajectory file: $root/$f"
    fi
  done
fi

echo
echo "results in $out:"
ls -l "$out"/BENCH_*.json
echo "exit status:$summary"
exit "$failed"
