#!/usr/bin/env python3
"""Run one benchmark workload of specspan and print its metrics.

    python3 bench/run.py --workload pipeline-sphere --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout: the package is imported from the
checkout's ``src/`` (nothing needs installing).  One closed-loop client runs
jobs until ``--seconds`` have passed; inputs are made from ``--seed``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured;
with ``--trace 1`` tracing wrappers are installed around the package's public
functions and the per-layer metrics of BENCHMARK.json are reported instead.
Every metric is printed as ``name = value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A job fails when it raises (or the CLI exits nonzero) or when its outputs fail
a check; ``failed`` counts both.  ``correct`` is false when any job's outputs
failed a check, and the exit code is then 1.  A job that raised has no outputs
to check: it counts in ``failed`` and ``fail_frac`` and the exit code stays 0,
unless ``--strict`` is given, which exits 1 whenever ``fail_frac > 0``.

Environment pinned before numpy is imported: THREADS = --threads (default:
available cores) and OPENBLAS/OMP/MKL_NUM_THREADS = 1.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3          # set-ups per run; setup_s is their median
FINGERPRINT_JOBS = 10   # jobs whose outputs form the fingerprint (always run)
TRACE_JOBS = 10         # jobs of one traced (and one untraced) pass
MIN_P90_JOBS = 100      # p90 needs ten samples beyond it: the run goes on
STRETCH = 1.5           # past --seconds until it has them, up to 1.5 x --seconds
# Per-layer values that are times; the others are counts taken from the first
# traced pass, which repeat exactly for a given seed.
TIMING_SUFFIXES = (".self_s", ".parallel_eff", ".part_skew", "trace.overhead_frac",
                   "trace.covered_frac")
# Reported by name on every run but not gated (they can be 0 or depend on one
# extreme input); the JSON result carries correct/attempted/failed instead.
EXTRA_UNITS = {"fail_frac": "ratio", "ratio_min": "ratio", "cert_margin_min": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="THREADS for the package's per-part maps (default: cores)")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any job failed, also when it only raised")
    return p.parse_args(argv)


def environment(np, seed, threads) -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                     capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "specspan").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "threads": threads, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
    }


def _canonical(obj):
    """JSON-able form with every float rounded to 12 significant digits."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (list, tuple)):
        return [_canonical(o) for o in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return _canonical(obj.tolist())
    if isinstance(obj, int):
        return obj
    return f"{float(obj):.11e}"


def fingerprint(records) -> str:
    text = json.dumps(_canonical(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Client:
    """Runs and checks jobs of one workload, keeping the tallies."""

    def __init__(self, wl, pkg, inputs):
        self.wl, self.pkg, self.inputs = wl, pkg, inputs
        self.attempted = self.raised = self.wrong = 0
        self.times: list[float] = []
        self.records: list = []
        self.quality: list[dict] = []

    def job(self, index: int) -> tuple[float, float]:
        """Run job `index` and check it; returns its (start, end) times."""
        inp = self.inputs[index % len(self.inputs)]
        t0 = time.perf_counter()
        try:
            out = self.wl.run(self.pkg, inp)
            problems = None
        except Exception:  # a raising job is a failed job, not a crashed run
            out, problems = None, [traceback.format_exc()]
        t1 = time.perf_counter()
        if problems is None:
            problems = self.wl.check(inp, out)
            self.wrong += bool(problems)
        else:
            self.raised += 1
        self.attempted += 1
        self.times.append(t1 - t0)
        if problems:
            if self.failed <= 3:
                print(f"job {index} failed: " + "; ".join(problems), file=sys.stderr)
        else:
            self.quality.append(self.wl.quality(inp, out))
        if len(self.records) < FINGERPRINT_JOBS and index == len(self.records):
            self.records.append(self.wl.record(inp, out) if not problems else "FAILED")
        return t0, t1

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def measure(client, seconds) -> dict:
    """Untraced closed loop for `seconds`; the end-to-end metrics."""
    import numpy as np
    start = time.perf_counter()
    j = 0
    while True:
        _, t1 = client.job(j)
        j += 1
        elapsed = t1 - start
        if j >= FINGERPRINT_JOBS and elapsed >= seconds and (
                j >= MIN_P90_JOBS or elapsed >= STRETCH * seconds):
            break
    wall = time.perf_counter() - start
    if j < MIN_P90_JOBS:
        print(f"warning: only {j} jobs; job_s_p90 has fewer than ten samples beyond it",
              file=sys.stderr)
    q = client.quality
    out = {
        "jobs_per_s": (client.attempted - client.failed) / wall,
        "job_s_p50": float(np.percentile(client.times, 50)),
        "job_s_p90": float(np.percentile(client.times, 90)),
        "coreset_kib": (statistics.fmean(x["coreset_bytes"] for x in q) / 1024.0
                        if q else 0.0),
    }
    ratios = [x["ratio"] for x in q if "ratio" in x]
    margins = [x["cert_margin"] for x in q if "cert_margin" in x]
    if ratios:
        out["ratio_min"] = min(ratios)
    if margins:
        out["cert_margin_min"] = min(margins)
    return out


def measure_traced(client, seconds) -> dict:
    """Alternating traced and untraced passes over jobs 0..TRACE_JOBS-1.

    The traced pass runs first, so the fingerprint shows that tracing leaves
    the outputs unchanged.  Counts come from the first traced pass and times
    are means over all passes.
    """
    import tracing
    tracer = tracing.Tracer()
    jobs = range(TRACE_JOBS)
    passes: list[dict] = []
    plain = traced = covered = 0.0
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        tracer.spans.clear()
        tracer.install()
        try:
            windows = []
            for j in jobs:
                tracer.job = j
                windows.append(client.job(j))
        finally:
            tracer.uninstall()
        for j, (a, b) in zip(jobs, windows):
            traced += b - a
            covered += tracing.covered_time(tracer.spans, j, a, b)
        passes.append(tracing.layer_metrics(tracer.spans, jobs))
        for j in jobs:
            a, b = client.job(j)
            plain += b - a
        now = time.perf_counter()
        if now - start + (now - t_pair) > seconds:
            break
    metrics = {name: (statistics.fmean(p[name] for p in passes)
                      if name.endswith(TIMING_SUFFIXES) else first)
               for name, first in passes[0].items()}
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.covered_frac"] = covered / traced
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["THREADS"] = str(args.threads)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "specspan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a specspan checkout (no src/specspan or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads
    t_import = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    spec = json.loads(spec_path.read_text())

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work_root)
    try:
        setups = []
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            pkg = workloads.load_package()
            if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
                print(f"error: specspan imported from {pkg.cli.__file__}, not {SRC}",
                      file=sys.stderr)
                return 2
            rep_dir = os.path.join(workdir, f"setup-{rep}")
            os.mkdir(rep_dir)
            inputs = wl.make_inputs(args.seed, rep_dir)
            try:  # warm-up job, untimed and unchecked
                wl.run(pkg, inputs[0])
            except Exception as exc:  # job 0 fails again in the timed phase and counts
                print(f"warm-up job raised {type(exc).__name__}: {exc}", file=sys.stderr)
            setups.append(time.perf_counter() - t0)
        client = Client(wl, pkg, inputs)
        if args.trace:
            values = measure_traced(client, args.seconds)
            wanted = spec["per_layer"]
        else:
            values = measure(client, args.seconds)
            values["setup_s"] = t_import + statistics.median(setups)
            values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    values["fail_frac"] = client.failed / client.attempted
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace} "
          f"jobs {client.attempted} failed {client.failed} "
          f"(raised {client.raised}, wrong outputs {client.wrong})")
    print("# env " + json.dumps(environment(np, args.seed, args.threads), sort_keys=True))
    print(f"# fingerprint {fingerprint(client.records)} jobs {len(client.records)}")
    if args.trace:  # calls per job of every traced function, for selftest.py
        print("# calls " + json.dumps({k[:-len(".calls")]: v for k, v in values.items()
                                       if k.endswith(".calls")}, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    units.update({k: v for k, v in EXTRA_UNITS.items() if not args.trace})
    for name, unit in units.items():
        if name in values:
            print(f"{name} = {values[name]:.6g} {unit}")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": client.wrong == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    if client.wrong or (args.strict and client.failed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
