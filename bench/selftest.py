#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 bench/selftest.py [--seed 7] [--workload NAME ...]

For each workload it runs ``bench/run.py`` in short subprocesses and fails
(exit 1) unless:

* the behaviour fingerprint is identical across two runs with one seed,
  between THREADS=1 and THREADS=<cores>, and with tracing on;
* two traced runs report identical call counts and count metrics;
* every function the workload lists as exercised reads nonzero calls, and
  every function it lists as bypassed reads zero;
* trace.covered_frac >= 0.95 (the layer spans cover the job time).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import TIMING_SUFFIXES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SECONDS = "1"
MIN_COVERED = 0.95


def run(workload, seed, trace, threads=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = {"result": json.loads(proc.stdout.strip().splitlines()[-1])}
    for line in proc.stdout.splitlines():
        if line.startswith("# fingerprint "):
            out["fingerprint"] = line.split()[2]
        elif line.startswith("# calls "):
            out["calls"] = json.loads(line[len("# calls "):])
    return out


def check(workload, seed) -> list[str]:
    wl = WORKLOADS[workload]
    nproc = os.cpu_count() or 1
    problems = []
    first, second = run(workload, seed, 0), run(workload, seed, 0)
    single = run(workload, seed, 0, threads=1)
    if not first["fingerprint"] == second["fingerprint"] == single["fingerprint"]:
        problems.append("fingerprints differ: "
                        f"run 1 {first['fingerprint'][:12]}, run 2 {second['fingerprint'][:12]}, "
                        f"THREADS=1 {single['fingerprint'][:12]} (THREADS={nproc} otherwise)")
    traced = [run(workload, seed, 1), run(workload, seed, 1)]
    if traced[0]["fingerprint"] != first["fingerprint"]:
        problems.append("tracing changes the fingerprint")
    if traced[0]["calls"] != traced[1]["calls"]:
        problems.append("call counts differ between two traced runs")
    counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
               if not k.endswith(TIMING_SUFFIXES)} for t in traced]
    if counts[0] != counts[1]:
        problems.append("count metrics differ between two traced runs: " + ", ".join(
            k for k in counts[0] if counts[0][k] != counts[1].get(k)))
    calls = traced[0]["calls"]
    for name in wl.exercised:
        if not calls.get(name):
            problems.append(f"{name} is exercised but reads zero calls")
    for name in wl.bypassed:
        if calls.get(name):
            problems.append(f"{name} is bypassed but reads {calls[name]} calls per job")
    covered = traced[0]["result"]["metrics"]["trace.covered_frac"]["value"]
    if covered < MIN_COVERED:
        problems.append(f"trace.covered_frac {covered:.3f} < {MIN_COVERED}")
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    failed = False
    for workload in args.workload or list(WORKLOADS):
        problems = check(workload, args.seed)
        print(f"{workload}: {'ok' if not problems else 'FAIL'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
