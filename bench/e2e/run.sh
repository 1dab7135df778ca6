#!/usr/bin/env bash
# End-to-end serving benchmark. Run from the repository root:
#
#   bench/e2e/run.sh [--workload all|explore|dashboard|batch|ingest]
#                    [--seed N] [--seconds S] [--trace | --trace 0|1]
#                    [--out FILE]
#
# Builds bench/e2e/build (Release) when needed, then runs each named
# workload in a fresh load-generator process. Each run prints
# "workload metric value unit" lines and, last, one JSON result line;
# --out FILE also writes that result with run details (one file per
# workload: FILE gets the workload name inserted before its extension
# when --workload all). Build output goes to stderr. The load generator
# kills the server it spawned on every exit path.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workload=all
seed=1
seconds=24
trace=0
out=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

build="$here/build"
work="$build/out"
mkdir -p "$work/tmp"
export TMPDIR="$work/tmp"
{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$(nproc)" \
    --target e2e_bench entropydb_serve entropydb_build
} 1>&2

if [[ "$workload" == all ]]; then
  workloads=(explore dashboard batch ingest)
else
  workloads=("$workload")
fi
for w in "${workloads[@]}"; do
  target="$out"
  if [[ -n "$out" && ${#workloads[@]} -gt 1 ]]; then
    target="${out%.*}-$w.${out##*.}"
  fi
  "$build/bin/e2e_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --workdir "$work" ${target:+--out "$target"}
done
