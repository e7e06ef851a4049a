"""The benchmark's four workloads: inputs, jobs, output checks, fingerprints.

Every workload is a closed loop: one client sends the next job only when the
previous one has finished.  Inputs come from the benchmark's own numpy
Generator keyed by the workload seed; the package sees only the generated
inputs.  Jobs call the package only through its public functions (and
``specspan.cli.main`` in-process), and every check uses ``numpy.linalg``, never
the package's own ``linalg``.

Job sizes keep each workload's d and k and scale n (and, for detmax-offline,
the relaxation and design iteration counts) so that one job takes about
0.2-0.35 s on a 2-core x86 VM and a 25-30 s run completes >= 100 jobs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
import zlib
from types import SimpleNamespace

import numpy as np

REL = 1e-9  # relative slack of every numeric check


def load_package():
    """Import specspan afresh (module state and lazy set-up included)."""
    for key in [k for k in sys.modules if k == "specspan" or k.startswith("specspan.")]:
        del sys.modules[key]
    return SimpleNamespace(**{
        name: importlib.import_module(f"specspan.{name}")
        for name in ("cli", "coreset", "detmax", "hardgen", "spanner")
    })


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def _sphere(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    g = rng.standard_normal((n, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _elementary_symmetric(eigs: np.ndarray, k: int) -> float:
    """e_k of the eigenvalues = sum of det over all k-subsets (Cauchy-Binet)."""
    return float(np.poly(-np.asarray(eigs, dtype=np.float64))[k])


def _det_k_upper(x: np.ndarray, k: int) -> float:
    """An upper bound on det of the Gram of any k rows of x."""
    return _elementary_symmetric(np.linalg.eigvalsh(x.T @ x), k)


def _design_value(x: np.ndarray, weights: np.ndarray, objective: str) -> float:
    lam = np.linalg.eigvalsh((x.T * weights) @ x)
    if lam[0] <= 0.0:
        return math.inf
    if objective == "D":
        return math.exp(-float(np.sum(np.log(lam))) / len(lam))
    if objective == "E":
        return 1.0 / float(lam[0])
    return float(np.sum(1.0 / lam)) / len(lam)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL * scale


class Workload:
    """One workload: pool of seeded inputs, the job, its checks and record.

    `exercised` and `bypassed` name traced functions that must read nonzero
    and zero calls in a traced run (checked by selftest.py).
    """

    name = ""
    pool = 128
    exercised: tuple[str, ...] = ()
    bypassed: tuple[str, ...] = ()

    def make_inputs(self, seed: int, workdir: str) -> list:
        return [self.make_input(_rng(seed, self.name, i), i, workdir)
                for i in range(self.pool)]

    def make_input(self, rng, index, workdir):
        raise NotImplementedError

    def run(self, pkg, inp):
        """The timed job; returns its outputs."""
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Problems with the job's outputs; empty when it passed."""
        raise NotImplementedError

    def record(self, inp, out):
        """Non-timing outputs that enter the behaviour fingerprint."""
        raise NotImplementedError

    def quality(self, inp, out) -> dict:
        """coreset_bytes, and ratio / cert_margin where they apply."""
        raise NotImplementedError


class PipelineSphere(Workload):
    name = "pipeline-sphere"
    n, d, k, parts = 200, 16, 2, 4
    exercised = ("cli.main", "formats.read_vector_file", "formats.write_report",
                 "coreset.partition", "coreset.run_pipeline", "util.ordered_map",
                 "spanner.build_k_spanner", "spanner.volume_greedy",
                 "spanner.build_d_spanner", "lp.domination_check", "lp.solve_lp",
                 "detmax.greedy_local_search", "detmax.subset_value",
                 "linalg.cholesky_spd", "linalg.gram_schmidt")
    bypassed = ("spanner.strong_certificate", "spanner.certify_all",
                "spanner.verify_weak", "spanner.verify_k_spanner",
                "detmax.brute_force_detmax", "detmax.fractional_detmax",
                "detmax.nikolov_round", "detmax.fractional_design",
                "hardgen.gen_hard_instance", "hardgen.lowerbound_experiment")

    def make_input(self, rng, index, workdir):
        x = _sphere(rng, self.n, self.d)
        path = os.path.join(workdir, f"sphere-{index}.csv")
        with open(path, "w") as fh:
            fh.write("# kind: sphere\n")
            fh.write("\n".join(",".join(f"{v:.17g}" for v in row) for row in x) + "\n")
        return SimpleNamespace(path=path, x=x, seed=int(rng.integers(2**31)))

    def run(self, pkg, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main([
                "pipeline", "--input", inp.path, "--parts", str(self.parts),
                "--scheme", "rr", "--k", str(self.k), "--solver", "greedy",
                "--seed", str(inp.seed)])
        if code != 0:  # the CLI failed: a failed job, like one that raises
            raise RuntimeError(f"specspan pipeline exited {code}")
        return SimpleNamespace(report=json.loads(buf.getvalue()))

    def check(self, inp, out):
        r = out.report
        labels = r["config"]["union_labels"]
        problems = []
        if not r["ratio"] >= r["guarantee"]:
            problems.append(f"ratio {r['ratio']} below guarantee {r['guarantee']}")
        if r["comm_bytes"] != 8 * self.d * r["union_size"]:
            problems.append("comm_bytes != 8*d*union_size")
        if len(labels) != r["union_size"] or sum(r["coreset_sizes"]) != r["union_size"]:
            problems.append("union size disagrees with labels or core-set sizes")
        if len(set(labels)) != len(labels) or not all(0 <= lbl < self.n for lbl in labels):
            problems.append("union labels are not distinct input rows")
        else:
            bound = _det_k_upper(inp.x[labels], self.k)
            if not 0.0 < r["objective"] <= bound * (1 + REL):
                problems.append(f"objective {r['objective']} outside (0, {bound}]")
        full = _det_k_upper(inp.x, self.k)
        if not 0.0 < r["reference"]["value"] <= full * (1 + REL):
            problems.append(f"reference {r['reference']['value']} outside (0, {full}]")
        return problems

    def record(self, inp, out):
        r = out.report
        return [r["config"]["union_labels"], r["coreset_sizes"], r["union_size"],
                r["objective"], r["reference"]["value"], r["ratio"],
                r["guarantee"], r["comm_bytes"]]

    def quality(self, inp, out):
        return {"coreset_bytes": out.report["comm_bytes"], "ratio": out.report["ratio"]}


class CertifyStrong(Workload):
    name = "certify-strong"
    n_strong, d_strong = 9, 8
    n_k, d_k, k = 2, 16, 2
    exercised = ("spanner.build_d_spanner", "spanner.build_k_spanner",
                 "spanner.verify_weak", "spanner.certify_all",
                 "spanner.strong_certificate", "spanner.verify_k_spanner",
                 "lp.domination_check", "linalg.inv_spd", "linalg.pinv_quadform",
                 "linalg.preceq_k", "linalg.sym_eig")
    bypassed = ("cli.main", "formats.read_vector_file", "coreset.run_pipeline",
                "util.ordered_map", "detmax.subset_value",
                "detmax.greedy_local_search", "detmax.brute_force_detmax",
                "detmax.fractional_design", "hardgen.gen_hard_instance")

    def make_input(self, rng, index, workdir):
        return SimpleNamespace(x=_sphere(rng, self.n_strong, self.d_strong),
                               y=_sphere(rng, self.n_k, self.d_k))

    def run(self, pkg, inp):
        sp_mod = pkg.spanner
        alpha = sp_mod.SpannerParams().resolve_alpha(self.d_strong)
        alpha_k = 32.0 * self.k * (1.0 + math.log(self.k)) ** 3
        sp = sp_mod.build_d_spanner(inp.x, alpha)
        weak, _ = sp_mod.verify_weak(inp.x, sp, alpha)
        certs = sp_mod.certify_all(inp.x, sp, alpha)
        spk = sp_mod.build_k_spanner(inp.y, self.k)
        k_ok = sp_mod.verify_k_spanner(inp.y, spk, self.k, alpha_k)
        return SimpleNamespace(sp=sp, weak=weak, certs=certs, spk=spk, k_ok=k_ok,
                               alpha=alpha)

    def check(self, inp, out):
        problems = []
        if out.weak is not True:
            problems.append("weak verification failed")
        if out.k_ok is not True:
            problems.append("k-spanner verification failed")
        if [c.vector_index for c in out.certs] != list(range(self.n_strong)):
            problems.append("certificates do not cover the input in order")
            return problems
        members = set(out.sp.indices)
        for c in out.certs:
            lbls = [lbl for lbl, _ in c.support]
            p = np.array([prob for _, prob in c.support])
            if not members.issuperset(lbls) or np.any(p < 0.0) or abs(p.sum() - 1.0) > REL:
                problems.append(f"vector {c.vector_index}: support is not a distribution on U")
                continue
            u = inp.x[lbls]
            v = inp.x[c.vector_index]
            quad = float(v @ np.linalg.pinv((u.T * p) @ u) @ v)
            if not 0.0 < c.delta or quad > (1.0 / c.delta) * (1 + REL):
                problems.append(f"vector {c.vector_index}: v'M+v = {quad} > 1/delta = {1 / c.delta}")
            if c.delta * out.alpha < 1.0 - 1e-6 * out.alpha:
                problems.append(f"vector {c.vector_index}: delta*alpha = {c.delta * out.alpha} < 1")
        return problems

    def record(self, inp, out):
        return [out.sp.indices, out.weak,
                [[c.vector_index, c.support, c.delta] for c in out.certs],
                out.spk.indices, out.spk.stage_tags, out.k_ok]

    def quality(self, inp, out):
        return {"coreset_bytes": 8 * (self.d_strong * out.sp.size + self.d_k * out.spk.size),
                "cert_margin": min(c.delta * out.alpha for c in out.certs)}


class LowerboundHard(Workload):
    name = "lowerbound-hard"
    d, beta, big_m, n_per_set, cap = 12, 1.0, 1e6, 96, 12
    exercised = ("hardgen.gen_hard_instance", "hardgen.random_rotation",
                 "hardgen.sample_sphere", "hardgen.lowerbound_experiment",
                 "util.ordered_map", "spanner.build_k_spanner",
                 "spanner.build_d_spanner", "lp.domination_check",
                 "detmax.greedy_local_search", "detmax.subset_value",
                 "linalg.cholesky_spd", "linalg.gram_schmidt")
    bypassed = ("cli.main", "formats.read_vector_file", "coreset.run_pipeline",
                "coreset.partition", "spanner.strong_certificate",
                "spanner.verify_weak", "spanner.verify_k_spanner",
                "detmax.brute_force_detmax", "detmax.fractional_detmax",
                "detmax.fractional_design")

    def make_input(self, rng, index, workdir):
        return SimpleNamespace(seed=int(rng.integers(2**31)))

    def run(self, pkg, inp):
        inst = pkg.hardgen.gen_hard_instance(self.d, self.beta, self.big_m,
                                             seed=inp.seed, n_override=self.n_per_set)
        rep = pkg.hardgen.lowerbound_experiment(inst, self.cap, seed=inp.seed)
        return SimpleNamespace(inst=inst, rep=rep)

    def check(self, inp, out):
        inst, rep = out.inst, out.rep
        problems = []
        sizes = [len(p) for p in inst.parts.parts]
        if sizes != [self.n_per_set] * (self.d - inst.m) + [1] * inst.m:
            problems.append(f"unexpected part sizes {sizes}")
        if any(s > self.cap for s in rep.coreset_sizes) or len(rep.coreset_sizes) != len(sizes):
            problems.append(f"core-set sizes {rep.coreset_sizes} exceed cap {self.cap}")
        if len(rep.survived) != self.d - inst.m:
            problems.append(f"survival list has {len(rep.survived)} entries, not d-m")
        if rep.planted_value != self.big_m ** (2 * inst.m):
            problems.append("planted value is not M^(2m)")
        if not _close(rep.ratio, rep.objective / rep.planted_value, rep.ratio):
            problems.append("ratio != objective / planted value")
        bound = float(np.linalg.det(inst.parts.union.vectors.T @ inst.parts.union.vectors))
        if not 0.0 < rep.objective <= bound * (1 + REL):
            problems.append(f"objective {rep.objective} outside (0, {bound}]")
        return problems

    def record(self, inp, out):
        rep = out.rep
        return [out.inst.planted, rep.survived, rep.coreset_sizes, rep.objective,
                rep.ratio]

    def quality(self, inp, out):
        return {"coreset_bytes": 8 * self.d * sum(out.rep.coreset_sizes),
                "ratio": out.rep.ratio}


class DetmaxOffline(Workload):
    name = "detmax-offline"
    n, d, k, trials, fw_iters, design_iters = 12, 5, 5, 1000, 250, 30
    objectives = ("D", "E", "A")
    exercised = ("detmax.brute_force_detmax", "detmax.greedy_local_search",
                 "detmax.subset_value", "detmax.fractional_detmax",
                 "detmax.nikolov_round", "detmax.fractional_design",
                 "detmax.eval_design", "linalg.sym_eig", "linalg.cholesky_spd",
                 "linalg.inv_spd")
    bypassed = ("lp.domination_check", "lp.solve_lp", "spanner.build_d_spanner",
                "spanner.build_k_spanner", "spanner.strong_certificate",
                "coreset.run_pipeline", "util.ordered_map", "cli.main",
                "formats.read_vector_file", "hardgen.gen_hard_instance")

    def make_input(self, rng, index, workdir):
        return SimpleNamespace(x=rng.standard_normal((self.n, self.d)),
                               objective=self.objectives[index % 3],
                               seed=int(rng.integers(2**31)))

    def run(self, pkg, inp):
        dm = pkg.detmax
        brute = dm.brute_force_detmax(inp.x, self.k)
        greedy = dm.greedy_local_search(inp.x, self.k)
        frac = dm.fractional_detmax(inp.x, self.k, iters=self.fw_iters)
        rounded = dm.nikolov_round(inp.x, frac, self.k, self.trials, inp.seed).best
        design = dm.fractional_design(inp.x, dm.DesignObjective(inp.objective),
                                      2.0 * self.d, iters=self.design_iters)
        return SimpleNamespace(brute=brute, greedy=greedy, rounded=rounded, design=design)

    def check(self, inp, out):
        problems = []
        best = out.brute.value
        for label, sol in (("brute", out.brute), ("greedy", out.greedy),
                           ("fw-round", out.rounded)):
            rows = inp.x[list(sol.indices)]
            det = float(np.linalg.det(rows @ rows.T))
            if not _close(sol.value, det, max(abs(det), best)):
                problems.append(f"{label} value {sol.value} != det of its Gram {det}")
            if sol.value > best * (1 + REL):
                problems.append(f"{label} value {sol.value} beats brute force {best}")
        w = out.design.weights
        budget = 2.0 * self.d
        if np.any(w < 0.0) or not _close(float(w.sum()), budget, budget):
            problems.append(f"design weights sum to {w.sum()}, not {budget}")
        start = _design_value(inp.x, np.full(self.n, budget / self.n), inp.objective)
        value = _design_value(inp.x, w, inp.objective)
        if value > start * (1 + REL):
            problems.append(f"design objective {value} worse than uniform start {start}")
        return problems

    def record(self, inp, out):
        return [[s.indices, s.value] for s in (out.brute, out.greedy, out.rounded)] + \
            [inp.objective, out.design.weights.tolist()]

    def quality(self, inp, out):
        return {"coreset_bytes": 8 * self.d * self.n,  # no core-set: the whole input
                "ratio": min(out.greedy.value, out.rounded.value) / out.brute.value}


WORKLOADS = {w.name: w for w in (PipelineSphere(), CertifyStrong(),
                                 LowerboundHard(), DetmaxOffline())}
