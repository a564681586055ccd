#!/usr/bin/env python3
"""Check the benchmark's steadiness across seeds.

usage: python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                   [--workloads a,b] [--trace 0|1]
                                   [--verbose] [--save FILE]
                                   [--interleave FILE2]
       python3 perfbench/steady.py --compare FIRST SECOND

Run from the root of a fluxtrace checkout. Runs each workload --runs
times, each with its own seed, through run.py with BENCHMARK.json's run
length, and prints for every metric its median and its spread: the
distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above a third of the metric's bound is marked (setup_s is timed once per
run and is held by its median alone), as is a run whose answers are not
correct and a failed share that differs between runs. --save keeps
every run's result line in FILE. --interleave FILE2 (with --save) also
runs a second set on the next --runs seeds, one run of it after each
run of the first set, so that a drift of the host over time falls on
both sets alike; it keeps that set in FILE2 and then compares the two
as --compare does.

--compare takes two files saved that way (two sets of runs of the same
code) and prints, for every end-to-end metric of every workload in both,
each set's median and how much worse the second is than the first, as a
share of the first; a change beyond the metric's bound is marked, as
is a failed share that differs between the sets. Either mode exits 1 on
a mark.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def failed_shares(results):
    return {r["failed"] / r["attempted"] for r in results}


def median_and_spread(results, name):
    values = [r["metrics"][name]["value"] for r in results]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def compare(spec, first_path, second_path):
    first = json.loads(Path(first_path).read_text())
    second = json.loads(Path(second_path).read_text())
    agree = True
    for workload in first:
        if workload not in second:
            continue
        a, b = first[workload], second[workload]
        shares = failed_shares(a) | failed_shares(b)
        mark = "" if len(shares) == 1 else "  <-- differs"
        agree = agree and not mark
        print("%s: %d and %d runs, failed share %s%s" %
              (workload, len(a), len(b),
               sorted("%.6f" % s for s in shares), mark))
        for m in spec["end_to_end"]:
            m1, s1 = median_and_spread(a, m["name"])
            m2, s2 = median_and_spread(b, m["name"])
            worse = (m2 - m1) / m1 if m1 else 0.0
            if m["better"] == "higher":
                worse = -worse
            mark = ""
            if worse > m["bound"]:
                mark = "  <-- worse by more than the bound"
                agree = False
            print("  %-20s set 1 %12.6g (spread %6.2f%%)  set 2 %12.6g "
                  "(spread %6.2f%%)  second worse by %7.2f%%  (bound %g%%)%s" %
                  (m["name"], m1, 100 * s1, m2, 100 * s2, 100 * worse,
                   100 * m["bound"], mark))
    return agree


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    ap.add_argument("--save", metavar="FILE",
                    help="keep every run's result line in FILE")
    ap.add_argument("--interleave", metavar="FILE2",
                    help="run a second set alternating with the first and "
                         "keep it in FILE2 (needs --save)")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two saved sets of runs")
    args = ap.parse_args()
    if args.compare:
        sys.exit(0 if compare(spec, *args.compare) else 1)
    if args.interleave and not args.save:
        ap.error("--interleave needs --save")

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    steady = True
    saved, second = {}, {}
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i,
                                    spec["run_seconds"], args.trace))
            if args.interleave:
                second.setdefault(workload, []).append(
                    run_once(workload, args.first_seed + args.runs + i,
                             spec["run_seconds"], args.trace))
        saved[workload] = results
        if args.save:
            Path(args.save).write_text(json.dumps(saved) + "\n")
        if args.interleave:
            Path(args.interleave).write_text(json.dumps(second) + "\n")
        shares = failed_shares(results)
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed share %s" %
              (workload, len(results), correct,
               sorted("%.6f" % s for s in shares)))
        steady = steady and correct and len(shares) == 1
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, spread = median_and_spread(results, m["name"])
            q1, _, q3 = statistics.quantiles(values, n=4)
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s" and \
                    spread > bound / 3:
                mark = "  <-- above a third of the bound"
                steady = False
            print("  %-36s median %14.6g  q1 %14.6g  q3 %14.6g  spread "
                  "%6.2f%%%s%s" %
                  (m["name"], med, q1, q3, 100 * spread,
                   "" if bound is None else "  (bound %g%%)" % (100 * bound),
                   mark))
            if args.verbose:
                print("    runs in seed order: " +
                      " ".join("%.6g" % v for v in values))
    if args.interleave:
        print("second set, run after each run of the first:")
        steady = compare(spec, args.save, args.interleave) and steady
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
