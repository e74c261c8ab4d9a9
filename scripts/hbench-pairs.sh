#!/bin/sh
# Paired hbench runs of two already-built trees: the comparison every perf
# change reports (ROADMAP: only alternating pairs resolve anything on a
# noisy host).
#
#   scripts/hbench-pairs.sh <tree-a> <tree-b> <workload> <seed>...
#   scripts/hbench-pairs.sh <tree-a> <tree-b> all <seed>...
#
# <tree-a> is the parent checkout, <tree-b> the change; each must already
# hold crates/bench/src/bin/hbench/target/release/hbench (this script
# builds nothing, so nothing compiles while a run is timed). Run it from
# the repository root: BENCHMARK.json there supplies the run length, the
# metric names, their direction and their bounds. One pair per seed, both
# sides at `--seconds <run_seconds> --trace 0`; A goes first on even
# seeds, B on odd ones. `all` runs every workload BENCHMARK.json lists,
# one after the other.
#
# Prints, per workload, one row per run, with the run's process CPU
# seconds (user + sys) beside its end-to-end metrics, then each side's
# median CPU seconds, and per metric both medians and quartiles, how many
# pairs B won, and a verdict: "unresolved" when A's own quartile spread
# exceeds the metric's bound (unless every B run beats every A run). A
# change that buys throughput with a core shows what that core costs in
# the CPU column.
set -eu

if [ "$#" -lt 4 ]; then
    sed -n '2,24p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
for tree in "$1" "$2"; do
    if [ ! -x "$tree/crates/bench/src/bin/hbench/target/release/hbench" ]; then
        echo "hbench-pairs: no built hbench under $tree (build it first:" \
            "cargo build --release --offline --manifest-path" \
            "crates/bench/src/bin/hbench/Cargo.toml)" >&2
        exit 2
    fi
done
[ -f BENCHMARK.json ] || { echo "hbench-pairs: run from the repository root (no BENCHMARK.json here)" >&2; exit 2; }

exec python3 - "$@" <<'PY'
import json, resource, statistics, subprocess, sys

tree_a, tree_b, workload, seeds = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
names = [m["name"] for m in metrics]
seconds = str(bench["run_seconds"])
binary = "/crates/bench/src/bin/hbench/target/release/hbench"
workloads = [w["name"] for w in bench["workloads"]] if workload == "all" else [workload]


def cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(tree, workload, seed):
    """One run's JSON result and the CPU seconds its process used."""
    before = cpu_s()
    out = subprocess.run(
        [tree + binary, "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1]), cpu_s() - before


def quantile(sorted_values, q):
    at = q * (len(sorted_values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (at - lo)


def pairs(workload):
    print(" ".join(["seed", "side", "order"] + names + ["cpu_s", "correct", "failed"]))
    runs = {"A": [], "B": []}
    cpu = {"A": [], "B": []}
    for seed in seeds:
        order = "AB" if int(seed) % 2 == 0 else "BA"
        for position, side in enumerate(order, 1):
            result, seconds_used = run(tree_a if side == "A" else tree_b, workload, seed)
            runs[side].append(result)
            cpu[side].append(seconds_used)
            values = [format(result["metrics"][n]["value"], ".6g") for n in names]
            print(" ".join([seed, side, str(position)] + values + [format(seconds_used, ".2f"), str(result["correct"]).lower(), str(result["failed"])]), flush=True)

    print()
    print(f"{workload}: {len(seeds)} pairs, A = {tree_a}, B = {tree_b}")
    for side in "AB":
        wrong = sum(not r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"  {side}: {wrong} incorrect runs, {failed} of {attempted} operations failed,"
              f" median process CPU {statistics.median(cpu[side]):.2f} s per run")
    print(f"{'metric':<20} {'A q1/median/q3':<34} {'B q1/median/q3':<34} {'B/A':>7} {'B wins':>7}  verdict")
    for m in metrics:
        name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
        a = [r["metrics"][name]["value"] for r in runs["A"]]
        b = [r["metrics"][name]["value"] for r in runs["B"]]
        better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
        wins = sum(better(y, x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        sa, sb = sorted(a), sorted(b)
        qa = [quantile(sa, q) for q in (0.25, 0.5, 0.75)]
        qb = [quantile(sb, q) for q in (0.25, 0.5, 0.75)]
        base = abs(qa[1]) or 1.0
        spread = (qa[2] - qa[0]) / base
        change = (qb[1] - qa[1]) / base
        worse_by = -change if higher else change
        disjoint_better = all(better(y, x) for x in a for y in b)
        decided = len(a) - ties
        if a == b:
            verdict = "identical"
        elif spread > bound and not disjoint_better:
            verdict = f"unresolved (A spread {spread:.3f} > bound {bound})"
        elif worse_by > bound:
            verdict = f"WORSE than bound {bound}"
        elif decided and wins >= 0.9 * decided and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
            verdict = "better"
        else:
            verdict = f"within bound {bound}"
        cell = lambda q: "/".join(format(v, ".5g") for v in q)
        print(f"{name:<20} {cell(qa):<34} {cell(qb):<34} {qb[1] / base:>7.3f} {wins:>4}/{len(a):<2}  {verdict}")


for number, workload in enumerate(workloads):
    if number:
        print()
    pairs(workload)
PY
