#!/usr/bin/env bash
# Is the benchmark steady enough to hold its own bounds?
#
#   benchmark/check_repeat.sh [runs] [seconds] [first_seed] [sets] [workload...]
#
# Runs every workload BENCHMARK.json lists (or the ones named) `runs`
# times for its `run_seconds` (or `seconds`) with tracing off, each
# time with another seed (first_seed, first_seed+1, ...), and
# repeats the whole set `sets` times. For every end-to-end metric it
# prints the median and the spread of each set -- the distance between
# the first and third quartile as a share of the median, exactly as the
# driver computes it -- against the bound BENCHMARK.json fixes:
#
#   steady   spread below a third of the bound (the target)
#   inside   spread within the bound
#   OUTSIDE  spread beyond the bound: lengthen the run or demote the metric
#
# With sets >= 2 it also checks that no later set's median is worse
# than the first set's by more than the bound. Exits non-zero on any
# OUTSIDE, any worse median, or any run that failed its checks.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
spec="$here/../BENCHMARK.json"
runs=${1:-10}
seconds=${2:-$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")}
first_seed=${3:-1}
sets=${4:-1}
shift $(($# < 4 ? $# : 4))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  read -r -a workloads < <(python3 -c 'import json, sys; print(*[w["name"] for w in json.load(open(sys.argv[1]))["workloads"]])' "$spec")
fi

bench=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
"${bench[@]}" --workload none >/dev/null 2>&1 || true # build before timing anything

out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
for set in $(seq 1 "$sets"); do
  for workload in "${workloads[@]}"; do
    for i in $(seq 0 $((runs - 1))); do
      seed=$((first_seed + i))
      echo "set $set  $workload  seed $seed" >&2
      # The last line of a run is its JSON result; a failed run still
      # prints one, and the analysis below reports it.
      "${bench[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 >>"$out/$workload.set$set.jsonl" || true
    done
  done
done

python3 - "$spec" "$out" "$sets" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, sets, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bad = 0
for workload in workloads:
    print(f"== {workload}")
    first_median = {}
    for s in range(1, sets + 1):
        rows = [json.loads(line) for line in open(f"{out}/{workload}.set{s}.jsonl")]
        wrong = [r for r in rows if not r["correct"] or r["failed"]]
        if wrong:
            print(f"   set {s}: {len(wrong)} of {len(rows)} runs failed their checks")
            bad += 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in rows]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            verdict = "steady" if spread < bound / 3 else "inside" if spread <= bound else "OUTSIDE"
            # setup_s is held to its bound on medians only.
            if verdict == "OUTSIDE" and name != "setup_s":
                bad += 1
            line = f"   set {s}  {name:<18} median {median:>12.3f} {metric['unit']:<6} spread {spread:6.1%}  bound {bound:4.0%}  {verdict}"
            if s == 1:
                first_median[name] = median
            else:
                change = median / first_median[name] - 1
                worse = change if metric["better"] == "lower" else -change
                line += f"  vs set 1 {change:+6.1%}"
                if worse > bound:
                    line += "  WORSE THAN SET 1"
                    bad += 1
            print(line)
sys.exit(1 if bad else 0)
EOF
