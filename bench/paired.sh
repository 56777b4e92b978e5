#!/usr/bin/env bash
# Paired parent/change timing: runs N alternating pairs of one pitexbench
# workload or of a filtered set of micro benchmarks, on a parent revision
# and on this checkout's working tree, and prints median [q1, q3] per
# side and how many pairs the change won, per metric.
#
# Usage:
#   bench/paired.sh <parent-rev> --workload <name> [--pairs N] [--seed S]
#                   [--cpus LIST] [--trace]
#   bench/paired.sh <parent-rev> --micro <filter> [--pairs N] [--cpus LIST]
#
#   --workload  a pitexbench workload (read_hot, read_cold, write_mixed,
#               availability); pair k runs seed S + k - 1 on both sides
#               (default S = 1) through each tree's pitexbench/run.sh,
#               and every run must report "correct": true; with
#               --trace each run takes run.sh's --trace 1, which adds
#               the per-layer ledger's metrics
#   --micro     a google-benchmark filter for bench/micro_components;
#               each side is built in Release (PITEX_BUILD_TESTS and
#               PITEX_BUILD_EXAMPLES off) and run once per pair with
#               --benchmark_min_time=0.5. The exact counters a side
#               reports (the COUNTERS and REPORTED lists in
#               bench/run_bench.sh) print
#               in a second table, flagged where the sides differ
#   --pairs     number of pairs (default 10); odd pairs run the parent
#               first, even pairs the change
#   --cpus      run each side under `taskset -c LIST` (e.g. 0 for the
#               one-CPU rule) and name the list in the summary. Micro
#               builds are not pinned; a tree's first pitexbench run
#               builds it under the pin. Without it nothing is pinned.
#
# The parent is exported with `git archive` into $PAIRED_DIR/<sha>
# (default ${TMPDIR:-/tmp}/pitex-paired), so the checkout's .git is not
# touched and an export is reused by later calls. Micro builds go to
# $PAIRED_DIR/build-parent-<sha> and $PAIRED_DIR/build-change-<cksum of
# this checkout's path>. Metric directions come from BENCHMARK.json
# (pitexbench) or are "lower" (micro real and CPU time). Raw values are
# kept in $PAIRED_DIR/<mode>-<target>.tsv.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() {
  sed -n '2,37p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[[ $# -ge 1 ]] || usage
parent_rev="$1"
shift
mode=""
target=""
pairs=10
seed=1
cpus=""
trace=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) mode=workload; target="${2:?}"; shift 2 ;;
    --micro) mode=micro; target="${2:?}"; shift 2 ;;
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --cpus) cpus="${2:?}"; shift 2 ;;
    --trace) trace=(--trace 1); shift ;;
    *) echo "paired: unknown argument $1" >&2; usage ;;
  esac
done
[[ -n "$mode" ]] || usage
# pin: the prefix every timed run takes.
pin=()
if [[ -n "$cpus" ]]; then
  taskset -c "$cpus" true || { echo "paired: bad --cpus $cpus" >&2; exit 2; }
  pin=(taskset -c "$cpus")
fi

sha="$(git -C "$repo" rev-parse --verify "${parent_rev}^{commit}")"
dir="${PAIRED_DIR:-${TMPDIR:-/tmp}/pitex-paired}"
parent="$dir/$sha"
if [[ ! -f "$parent/CMakeLists.txt" ]]; then
  mkdir -p "$parent"
  git -C "$repo" archive "$sha" | tar -x -C "$parent"
fi
label="$(printf '%s' "$mode-$target" | tr -c 'A-Za-z0-9_.-' '_')"
raw="$dir/$label.tsv"
: >"$raw"

# run_side <side> <pair>: appends "<side>\t<metric>\t<value>" rows.
if [[ "$mode" == workload ]]; then
  run_side() {
    local tree="$parent"
    [[ "$1" == change ]] && tree="$repo"
    local out
    out="$("${pin[@]}" bash "$tree/pitexbench/run.sh" --workload "$target" \
             --seed "$((seed + $2 - 1))" "${trace[@]}" | tail -n 1)"
    SIDE="$1" python3 -c '
import json, os, sys
doc = json.loads(sys.stdin.read())
if not doc.get("correct"):
    sys.exit("paired: %s run answered wrongly" % os.environ["SIDE"])
for name, m in doc["metrics"].items():
    print("%s\t%s\t%r" % (os.environ["SIDE"], name, m["value"]))
' <<<"$out" >>"$raw"
  }
else
  build_micro() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
      -DPITEX_BUILD_TESTS=OFF -DPITEX_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build "$2" -j "$(nproc)" --target micro_components >/dev/null
  }
  change_build="$dir/build-change-$(cksum <<<"$repo" | cut -d' ' -f1)"
  build_micro "$parent" "$dir/build-parent-$sha"
  build_micro "$repo" "$change_build"
  run_side() {
    local bin="$dir/build-parent-$sha/bench/micro_components"
    [[ "$1" == change ]] && bin="$change_build/bench/micro_components"
    "${pin[@]}" "$bin" --benchmark_filter="$target" --benchmark_min_time=0.5 \
      --benchmark_format=json 2>/dev/null |
      SIDE="$1" RUN_BENCH="$repo/bench/run_bench.sh" python3 -c '
import ast, json, os, re, sys
scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
run_bench = open(os.environ["RUN_BENCH"]).read()
counters = sum((ast.literal_eval(re.search(
    r"^%s = (\(.*?\))" % name, run_bench, re.M | re.S).group(1))
    for name in ("COUNTERS", "REPORTED")), ())
for b in json.load(sys.stdin)["benchmarks"]:
    f = scale[b["time_unit"]]
    for key in ("real_time", "cpu_time"):
        print("%s\t%s.%s_ns\t%r" % (os.environ["SIDE"], b["name"], key,
                                   b[key] * f))
    for key in counters:
        if key in b:
            print("%s\tcount:%s.%s\t%r" % (os.environ["SIDE"], b["name"],
                                           key, b[key]))
' >>"$raw"
  }
fi

for ((k = 1; k <= pairs; k++)); do
  if ((k % 2 == 1)); then
    run_side parent "$k"
    run_side change "$k"
  else
    run_side change "$k"
    run_side parent "$k"
  fi
  echo "pair $k/$pairs done" >&2
done

python3 - "$raw" "$repo/BENCHMARK.json" "$mode" "$cpus" <<'PYEOF'
import collections
import json
import sys

raw, spec_path, mode, cpus = sys.argv[1:5]
better = collections.defaultdict(lambda: "lower")
if mode == "workload":
    spec = json.load(open(spec_path))
    for entry in spec.get("end_to_end", []) + spec.get("per_layer", []):
        better[entry["name"]] = entry["better"]

values = collections.defaultdict(lambda: {"parent": [], "change": []})
order = []
for line in open(raw):
    side, name, value = line.rstrip("\n").split("\t")
    if name not in values:
        order.append(name)
    values[name][side].append(float(value))


def quartiles(xs):
    xs = sorted(xs)

    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


def fmt(x):
    return "%.5g" % x


if cpus:
    print("CPUs: taskset -c %s" % cpus)
    print()
print("| metric | parent | change | change % | change wins |")
print("|---|---|---|---|---|")
counts = [name for name in order if name.startswith("count:")]
for name in order:
    p, c = values[name]["parent"], values[name]["change"]
    if name in counts or not p or len(p) != len(c):
        continue
    pq, cq = quartiles(p), quartiles(c)
    lower = better[name] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else 0.0
    print("| %s | %s [%s, %s] | %s [%s, %s] | %+.1f%% | %d/%d |" % (
        name, fmt(pq[1]), fmt(pq[0]), fmt(pq[2]), fmt(cq[1]), fmt(cq[0]),
        fmt(cq[2]), delta, wins, len(p)))

def show(xs):
    return "/".join("%.10g" % x for x in sorted(set(xs))) or "-"


# Exact counters: one value per side unless the count is not exact. A
# counter one side lacks, or whose values differ, is flagged.
if counts:
    print()
    print("| counter | parent | change | |")
    print("|---|---|---|---|")
for name in counts:
    p, c = values[name]["parent"], values[name]["change"]
    flag = "" if p and c and set(p) == set(c) and len(set(p)) == 1 \
        else "DIFFERS"
    print("| %s | %s | %s | %s |" % (name[len("count:"):], show(p), show(c),
                                      flag))
PYEOF
