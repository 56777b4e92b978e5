#!/usr/bin/env bash
# Runs the google-benchmark micro suite (bench/micro_components.cc) in a
# Release build and writes the results to BENCH_micro.json so perf
# trajectory data accumulates across changes.
#
# Usage:
#   bench/run_bench.sh [output.json] [--compare baseline.json] [extra args...]
#
# --compare diffs the fresh run against a baseline BENCH_micro.json.
# Times (mean-aggregate real_time per benchmark, with the mean cpu_time
# beside it: single-thread CPU time is the unit a one-CPU host reads)
# stay report-only: a real_time regression above 25% is flagged, never
# failed on, as shared-runner timings are noisy. Exact work counters
# (pool_lines, containing_bytes, pool_bytes, directory_bytes,
# file_bytes, edges_visited, sets_evaluated, overlay_sketches) print as
# baseline -> current, and a rise in any of them on
# BM_IndexEstimateSweep, BM_IndexEstPlusQuery, BM_BestEffortQuery,
# BM_SerializeRrIndex, BM_LoadRrIndex, BM_SnapshotPublish or
# BM_CompactOverlay fails the run (exit 1), and so the CI job: counts
# need no repeats and no quiet host. A change that means to move a count
# regenerates the baseline. Counters in the REPORTED list (graph_lines)
# print the same way and never fail. bench/paired.sh reads both lists
# below. The
# baseline is snapshotted before the run, so comparing against the
# output path itself ("how does this commit compare to the committed
# numbers?") works. The comparison table is also written to
# <output>.compare.txt next to the JSON (the release-bench CI job
# uploads both as artifacts).
#
# The suite covers the query-side micro benchmarks (BM_IndexEstPlusQuery
# times the best-effort IndexEst+ query pitexbench serves) plus the
# offline pipeline: BM_IndexBuild (generation into per-slot runs finished by
# FromRuns, per-thread sweep), BM_SnapshotPublish (serve-mode epoch
# freeze, empty vs populated overlay), BM_CompactOverlay (the fold of a
# 64-batch overlay into a new base), BM_DynamicRepairSingleEdge and
# BM_ApplyUpdatesBatch (one 4-update batch on the dblp analog the
# end-to-end benchmark serves).
#
# Environment:
#   BUILD_DIR    Release build directory (default: build-bench)
#   REPETITIONS  benchmark repetitions for aggregates (default: 3)
#
# Compare two runs with google-benchmark's tools/compare.py, or diff the
# JSON directly; docs/perf.md records the pooled-layout and best-effort
# before/after numbers.

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

out_json=""
compare_baseline=""
extra_args=()
while (($#)); do
  case "$1" in
    --compare)
      [[ $# -ge 2 ]] || { echo "error: --compare needs a baseline path" >&2; exit 2; }
      compare_baseline="$2"
      shift 2
      ;;
    *)
      if [[ -z "${out_json}" ]]; then
        out_json="$1"
      else
        extra_args+=("$1")
      fi
      shift
      ;;
  esac
done
out_json="${out_json:-${repo_root}/BENCH_micro.json}"

baseline_snapshot=""
if [[ -n "${compare_baseline}" ]]; then
  if [[ ! -f "${compare_baseline}" ]]; then
    echo "error: baseline ${compare_baseline} not found" >&2
    exit 2
  fi
  baseline_snapshot="$(mktemp)"
  trap 'rm -f "${baseline_snapshot}"' EXIT
  cp "${compare_baseline}" "${baseline_snapshot}"
fi

build_dir="${BUILD_DIR:-${repo_root}/build-bench}"
repetitions="${REPETITIONS:-3}"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
  -DPITEX_BUILD_TESTS=OFF -DPITEX_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j "$(nproc)" --target micro_components

bench_bin="${build_dir}/bench/micro_components"
if [[ ! -x "${bench_bin}" ]]; then
  echo "error: ${bench_bin} was not built (is libbenchmark-dev installed?)" >&2
  exit 1
fi

"${bench_bin}" \
  --benchmark_repetitions="${repetitions}" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${out_json}" \
  --benchmark_out_format=json \
  ${extra_args[@]+"${extra_args[@]}"}

echo "wrote ${out_json}"

if [[ -n "${baseline_snapshot}" ]]; then
  compare_txt="${out_json%.json}.compare.txt"
  status=0
  python3 - "${baseline_snapshot}" "${out_json}" > "${compare_txt}" << 'PYEOF' || status=$?
import json
import sys

REGRESSION_PCT = 25.0
COUNTERS = ("pool_lines", "containing_bytes", "pool_bytes",
            "directory_bytes", "file_bytes", "edges_visited",
            "sets_evaluated", "overlay_sketches")
REPORTED = ("graph_lines",)
GATED = ("BM_IndexEstimateSweep", "BM_IndexEstPlusQuery",
         "BM_BestEffortQuery", "BM_SerializeRrIndex", "BM_LoadRrIndex",
         "BM_SnapshotPublish", "BM_CompactOverlay")

def means(path):
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for bench in doc.get("benchmarks", []):
        # With report_aggregates_only the file holds aggregates; fall back
        # to raw entries for baselines produced without repetitions.
        if bench.get("aggregate_name", "") not in ("", "mean"):
            continue
        out[bench.get("run_name", bench.get("name", ""))] = bench
    return out

base = means(sys.argv[1])
cur = means(sys.argv[2])

shared = sorted(set(base) & set(cur))
added = sorted(set(cur) - set(base))
removed = sorted(set(base) - set(cur))

print()
print(f"=== benchmark comparison vs baseline (mean real_time, >"
      f"{REGRESSION_PCT:.0f}% slower flagged; mean cpu_time beside) ===")
print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'delta':>8}"
      f" {'base cpu':>12} {'cur cpu':>12} {'cpu delta':>9}")

def pct(b, c):
    return 0.0 if b == 0 else (c - b) / b * 100.0

regressions = []
for name in shared:
    b, unit = base[name].get("real_time", 0.0), base[name].get("time_unit", "ns")
    c = cur[name].get("real_time", 0.0)
    b_cpu = base[name].get("cpu_time", 0.0)
    c_cpu = cur[name].get("cpu_time", 0.0)
    delta = pct(b, c)
    flag = ""
    if delta > REGRESSION_PCT:
        flag = "  REGRESSION"
        regressions.append((name, delta))
    print(f"{name:<44} {b:>10.1f}{unit:<2} {c:>10.1f}{unit:<2} "
          f"{delta:>+7.1f}% {b_cpu:>10.1f}{unit:<2} {c_cpu:>10.1f}{unit:<2} "
          f"{pct(b_cpu, c_cpu):>+8.1f}%{flag}")
for name in added:
    print(f"{name:<44} {'-':>12} {cur[name].get('real_time', 0.0):>10.1f}"
          f"{cur[name].get('time_unit', 'ns'):<2}     new")
for name in removed:
    print(f"{name:<44} {base[name].get('real_time', 0.0):>10.1f}"
          f"{base[name].get('time_unit', 'ns'):<2} {'-':>12} removed")
print()
if regressions:
    print(f"{len(regressions)} benchmark(s) regressed more than "
          f"{REGRESSION_PCT:.0f}% (report-only, not gating):")
    for name, delta in regressions:
        print(f"  {name}: {delta:+.1f}%")
else:
    print("no regressions above the threshold")

print()
print("=== exact counters vs baseline (a rise on "
      + ", ".join(GATED) + " fails) ===")
rises = []
for name in shared:
    gated = name.split("/")[0] in GATED
    for counter in COUNTERS + REPORTED:
        if counter not in base[name] or counter not in cur[name]:
            continue
        b, c = base[name][counter], cur[name][counter]
        # The counts are exact; the slack only absorbs JSON rounding.
        rose = c > b + 1e-9 * max(abs(b), 1.0)
        flag = ""
        if rose and gated and counter in COUNTERS:
            flag = "  COUNT REGRESSION"
            rises.append((name, counter, b, c))
        print(f"{name:<32} {counter:<17} {b:>14.6g} -> {c:<14.6g}{flag}"
              .rstrip())
print()
if rises:
    print(f"{len(rises)} count(s) rose on the gated benchmarks:")
    for name, counter, b, c in rises:
        print(f"  {name} {counter}: {b:.6g} -> {c:.6g}")
    sys.exit(1)
print("no count rose on the gated benchmarks")
PYEOF
  cat "${compare_txt}"
  echo "wrote ${compare_txt}"
  exit "${status}"
fi
