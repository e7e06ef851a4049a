"""Command-line front end.

Exit codes: 0 success, 2 bad flags or a malformed input file, 3 generation/
guard failure, a build the LP could not finish or an internal failure (a
breached iteration cap or postcondition), 4 verification failure (also when a
verifier's LP could not finish); unreadable input or unwritable output: 2.
`main` maps what a command raises to its exit code by one table, FAILURES.
stdout carries machine-readable JSON only; human messages go to stderr.  Every
command honors --seed for bit-exact reproducibility of all non-timing fields.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import detmax, hardgen
from .coreset import (REPORT_VERSION, BadPartColumn, PartitionedInput,
                      PartitionScheme, Solver, partition, run_pipeline, solve)
from .formats import FormatError, read_vector_file, report_json, write_report, write_vector_file
from .lp import Infeasible, Unbounded
from .spanner import (NotInSpan, SpannerParams, build_k_spanner, certify_all,
                      verify_k_spanner, verify_weak)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GENERATION = 3
EXIT_VERIFY = 4

SOLVERS = [s.value for s in Solver]
LP_FAILURES = (Infeasible, Unbounded, NotInSpan)  # an LP that could not finish

# (exception types, exit code, stderr line); the first matching entry wins
FAILURES = [
    ((FormatError, BadPartColumn, OSError), EXIT_USAGE, "{exc}"),
    ((detmax.TooLarge, detmax.Degenerate), EXIT_GENERATION, "guard: {exc}"),
    (LP_FAILURES, EXIT_GENERATION, "build failed: {name}: {exc}"),
    ((ValueError,), EXIT_USAGE, "{exc}"),
    ((RuntimeError,), EXIT_GENERATION, "internal failure: {exc}"),
]


def _report(config: dict, timings_ms: dict, **fields) -> dict:
    return {"config": config, **fields, "timings_ms": timings_ms,
            "version": REPORT_VERSION}


def _cmd_gen(args) -> int:
    try:
        if args.kind in ("sphere", "pm1"):
            vs = (hardgen.sample_sphere(args.n, args.d, args.seed) if args.kind == "sphere"
                  else hardgen.gen_pm1_lowerbound(args.d, args.n, args.seed))
            write_vector_file(args.out, vs, metadata={
                "kind": args.kind, "d": args.d, "n": args.n, "seed": args.seed,
            })
        else:
            inst = hardgen.gen_hard_instance(
                args.d, args.beta, args.M, args.seed, args.n_override)
            full = inst.parts.union
            ids = np.concatenate([
                np.full(len(part), i, dtype=np.int64)
                for i, part in enumerate(inst.parts.parts)
            ])
            write_vector_file(args.out, full, part_ids=ids, metadata={
                "kind": "hard", "d": inst.d, "m": inst.m,
                "parts": len(inst.parts),
                "beta": inst.beta, "M": inst.big_m, "seed": inst.seed,
                "n_per_set": inst.n_per_set,
                "planted": ",".join(str(i) for i in inst.planted),
            })
    except (hardgen.SamplingFailed, hardgen.DimensionTooSmall, ValueError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    return EXIT_OK


def _write_files(texts: dict) -> None:
    """Write each text to its path, opening every path before writing any.
    Paths open without truncation, and when one cannot be opened those created
    here are removed again: no file has changed when the error goes on."""
    opened = []
    try:
        for path in texts:
            opened.append((path, os.path.exists(path), open(path, "a")))
    except OSError:
        for path, existed, fh in opened:
            fh.close()
            if not existed:
                os.remove(path)
        raise
    for (_, _, fh), text in zip(opened, texts.values()):
        with fh:
            fh.truncate(0)
            fh.write(text)


def _cmd_spanner(args) -> int:
    vs, _, _ = read_vector_file(args.input)
    k = args.k if args.k is not None else vs.dim
    params = SpannerParams(alpha=args.alpha, alpha_scale=args.alpha_scale)
    t0 = time.perf_counter()
    sp = build_k_spanner(vs, k, params=params)
    t_build = time.perf_counter()
    verdict = "skipped"
    ok = True
    reason = "verification failed"
    try:
        if args.verify == "weak":
            ok, _ = verify_weak(vs, sp, sp.alpha)
        elif args.verify == "strong":
            certs = certify_all(vs, sp, sp.alpha)
            ok = all(c.passes(sp.alpha) for c in certs)
        elif args.verify == "k":
            ok = verify_k_spanner(vs, sp, k, sp.alpha)
    except LP_FAILURES as exc:
        ok, reason = False, f"verification failed: {type(exc).__name__}: {exc}"
    if args.verify != "none":
        verdict = "pass" if ok else "fail"
    t_verify = time.perf_counter()
    report = _report({
        "command": "spanner", "input": args.input, "k": k,
        "alpha": sp.alpha, "verify": args.verify,
        "size": sp.size, "indices": list(sp.indices), "verdict": verdict,
    }, {
        "build": (t_build - t0) * 1e3,
        "verify": (t_verify - t_build) * 1e3,
    })
    indices = "\n".join(str(i) for i in sp.indices) + "\n"
    _write_files({path: text for path, text in ((args.out, report_json(report)),
                                                (args.indices_out, indices)) if path})
    print(report_json({"size": sp.size, "verdict": verdict}), end="")
    if args.verify != "none" and not ok:
        print(reason, file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_detmax(args) -> int:
    vs, _, _ = read_vector_file(args.input)
    t0 = time.perf_counter()
    sol = solve(vs, args.k, Solver(args.method), args.trials, args.seed)
    elapsed = (time.perf_counter() - t0) * 1e3
    report = _report({
        "command": "detmax", "input": args.input, "k": args.k,
        "method": args.method, "trials": args.trials,
        "indices": list(sol.indices),
    }, {"solve": elapsed}, objective=sol.value, seed=args.seed)
    write_report(report, args.out)
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    vs, part_ids, metadata = read_vector_file(args.input)
    if part_ids is not None and args.parts is None:
        pinput = partition(vs, int(part_ids.max()) + 1,
                           PartitionScheme.FROM_FILE, part_ids=part_ids)
    elif args.parts is not None:
        scheme = PartitionScheme.ROUND_ROBIN if args.scheme == "rr" else PartitionScheme.HASH
        pinput = partition(vs, args.parts, scheme, seed=args.seed)
    else:
        pinput = PartitionedInput([vs])
    params = SpannerParams(alpha=args.alpha, alpha_scale=args.alpha_scale)
    report = run_pipeline(pinput, args.k, params=params, solver=Solver(args.solver),
                          seed=args.seed, trials=args.trials)
    out = report.to_dict()
    if "planted" in metadata:
        planted = [int(tok) for tok in metadata["planted"].split(",") if tok]
        union_labels = set(out["config"]["union_labels"])
        out["planted_survival"] = [lbl in union_labels for lbl in planted]
    write_report(out, args.report)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="specspan",
        description="Spectral spanners, determinant maximization, core-set pipelines.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instance files")
    gsub = gen.add_subparsers(dest="kind", required=True)
    for kind in ("sphere", "hard", "pm1"):
        gp = gsub.add_parser(kind)
        gp.add_argument("--d", type=int, required=True)
        gp.add_argument("--seed", type=int, default=0)
        gp.add_argument("--out", required=True)
        if kind == "hard":
            gp.add_argument("--beta", type=float, default=1.0)
            gp.add_argument("--M", type=float, default=hardgen.DEFAULT_M_SCALAR)
            gp.add_argument("--n-override", dest="n_override", type=int, default=None)
        else:
            gp.add_argument("--n", type=int, required=True)
        gp.set_defaults(func=_cmd_gen)

    spn = sub.add_parser("spanner", help="build and verify a spectral spanner")
    spn.add_argument("--input", required=True)
    spn.add_argument("--k", type=int, default=None)
    spn.add_argument("--alpha", type=float, default=None)
    spn.add_argument("--alpha-scale", dest="alpha_scale", type=float, default=1.0)
    spn.add_argument("--verify", choices=["none", "weak", "strong", "k"], default="weak")
    spn.add_argument("--out", default=None)
    spn.add_argument("--indices-out", dest="indices_out", default=None)
    spn.set_defaults(func=_cmd_spanner)

    dm = sub.add_parser("detmax", help="offline determinant maximization")
    dm.add_argument("--input", required=True)
    dm.add_argument("--k", type=int, required=True)
    dm.add_argument("--method", choices=SOLVERS, default=Solver.GREEDY_LOCAL.value)
    dm.add_argument("--trials", type=int, default=1000)
    dm.add_argument("--seed", type=int, default=0)
    dm.add_argument("--out", default=None)
    dm.set_defaults(func=_cmd_detmax)

    pl = sub.add_parser("pipeline", help="composable core-set pipeline")
    pl.add_argument("--input", required=True)
    pl.add_argument("--parts", type=int, default=None)
    pl.add_argument("--scheme", choices=["rr", "hash"], default="rr")
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--alpha", type=float, default=None)
    pl.add_argument("--alpha-scale", dest="alpha_scale", type=float, default=1.0)
    pl.add_argument("--solver", choices=SOLVERS, default=Solver.GREEDY_LOCAL.value)
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--trials", type=int, default=1000)
    pl.add_argument("--report", default=None)
    pl.set_defaults(func=_cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, code, line in FAILURES:
            if isinstance(exc, types):
                print(line.format(exc=exc, name=type(exc).__name__), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
