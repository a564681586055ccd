#!/usr/bin/env python3
"""Build and run the fluxtrace benchmark.

usage: python3 perfbench/run.py --workload postmortem|live_follow|fleet
                                --seed N --seconds S --trace 0|1

Run from the root of a fluxtrace checkout. Builds ../src and the
perfbench binary in Release under .bench_build/ (configured once;
`cmake --build` is a no-op when nothing changed), runs the binary in a
fresh work directory under .bench_work/ and removes that directory. The
binary's standard output is passed through except its last line, which
names each metric and its value: that line is printed again with each
metric's unit from BENCHMARK.json, after checking that the binary
printed exactly the metrics BENCHMARK.json lists for the mode. Build
output goes to standard error.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("postmortem", "live_follow", "fleet")
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no fluxtrace sources under %s" % (ROOT / "src"))
    cmds = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                 "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in cmds:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def with_units(line, trace):
    """The binary's result line, each metric given its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result["metrics"]) != set(units):
        sys.exit("perfbench: the binary's metrics differ from BENCHMARK.json:"
                 " %s" % sorted(set(result["metrics"]) ^ set(units)))
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in result["metrics"].items()}
    return json.dumps(result)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = WORK / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    # A terminated wrapper still stops and reaps the binary (finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        out, rc = "", 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if rc != 0 or not lines:
        sys.stdout.write(out)
        sys.exit(rc or 1)
    print("\n".join(lines[:-1] + [with_units(lines[-1], args.trace)]))


if __name__ == "__main__":
    main()
