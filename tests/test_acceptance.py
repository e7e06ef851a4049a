"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 11 is implemented exactly as stated: the +-1 generator meets
the pairwise bound sqrt(d^1.5 / 2) = 16 at d = 64 for all 200 vectors by
sequential rejection (a row is kept only if it meets the bound against every
row kept before it); see the README.  The generator's postcondition at this
scale and its failure path are checked in tests/test_hardgen.py.
"""

import json
import math
import os
from itertools import combinations

import numpy as np

from specspan import detmax, hardgen, linalg
from specspan.coreset import PartitionScheme, Solver, partition, run_pipeline
from specspan.spanner import (build_d_spanner, build_k_spanner, certify_all,
                              check_witness_dominance,
                              projection_domination_holds, verify_k_spanner,
                              verify_weak)
from specspan.vectorset import VectorSet

with open(os.path.join(os.path.dirname(__file__), "data", "regression_corpus.json")) as fh:
    CORPUS = json.load(fh)


def announce(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {name}: {tag}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def sphere_rows(seed: int, n: int, d: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def default_alpha(d: int) -> float:
    return d * (1.0 + math.log(d)) ** 2


def minor_sum(a: np.ndarray, k: int) -> float:
    return sum(float(np.linalg.det(a[np.ix_(s, s)]))
               for s in combinations(range(a.shape[0]), k))


def test_criterion_01_detk_oracle():
    gen = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        d = int(gen.integers(1, 7))
        g = gen.standard_normal((d + 1, d))
        a = g.T @ g
        for k in range(1, d + 1):
            mine = linalg.det_k(a, k)
            oracle = minor_sum(a, k)
            err = abs(mine - oracle) / max(abs(oracle), 1e-300)
            worst = max(worst, err)
    announce(1, "det_k principal-minor oracle", worst <= 1e-8,
             f"worst rel err {worst:.2e}")


def test_criterion_02_cauchy_binet():
    gen = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        n = int(gen.integers(2, 9))
        d = int(gen.integers(2, 6))
        k = int(gen.integers(1, d + 1))
        x = gen.standard_normal((n, d))
        a = x.T @ x
        lhs = linalg.det_k(a, k)
        rhs = sum(linalg.det_k(x[list(s)].T @ x[list(s)], k)
                  for s in combinations(range(n), k))
        # rank-deficient cases are exactly zero up to eigenvalue noise; the
        # floor keeps the comparison relative to the matrix scale
        floor = 1e-12 * (1.0 + float(np.trace(a))) ** k
        err = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
        worst = max(worst, err)
    announce(2, "Cauchy-Binet identity", worst <= 1e-6,
             f"worst rel err {worst:.2e}")


def _criterion3_runs():
    for d in (4, 8, 12, 16):
        alpha = default_alpha(d)
        for n in (100, 500, 2000):
            for seed in range(5):
                x = sphere_rows(seed * 10000 + d * 100 + n, n, d)
                vs = VectorSet(x)
                sp = build_d_spanner(vs, alpha)
                yield d, n, seed, alpha, vs, sp


def test_criterion_03_to_06_weak_postcondition_size_dominance():
    all_weak = True
    all_size = True
    all_dom = True
    orth_exact = True
    for d, n, seed, alpha, vs, sp in _criterion3_runs():
        ok, _ = verify_weak(vs, sp, alpha)
        all_weak &= ok
        all_size &= sp.size <= 10 * d * (1.0 + math.log(d))
        dok, _ = check_witness_dominance(sp, tol=1e-9)
        all_dom &= dok
    for d in (4, 8, 12, 16):
        sp = build_d_spanner(VectorSet(np.eye(d)), default_alpha(d))
        orth_exact &= sp.size == d
    announce(3, "weak-spanner postcondition", all_weak)
    announce(5, "size bound O(d log d)", all_size and orth_exact,
             "orthonormal |U| = d exactly")
    announce(6, "witness diagonal dominance", all_dom, "tol 1e-9")


def test_criterion_04_strong_certificates():
    inconclusive = 0
    total = 0
    for d in (4, 8):
        alpha = default_alpha(d)
        for seed in range(5):
            x = sphere_rows(seed * 10000 + d * 100 + 100, 100, d)
            vs = VectorSet(x)
            sp = build_d_spanner(vs, alpha)
            certs = certify_all(vs, sp, alpha)
            total += len(certs)
            inconclusive += sum(not c.passes(alpha) for c in certs)
    announce(4, "strong certificates delta >= 1/alpha - 1e-6",
             inconclusive == 0, f"{total} certificates, {inconclusive} inconclusive")


def test_criterion_07_k_spanner_validity():
    ok_all = True
    prop_all = True
    for k in (2, 3):
        alpha = 32.0 * k * (1.0 + math.log(k)) ** 3
        for seed in range(3):
            x = sphere_rows(seed * 777 + k, 500, 12)
            vs = VectorSet(x)
            sp = build_k_spanner(vs, k)
            ok_all &= verify_k_spanner(vs, sp, k, alpha, tol=1e-7)
            # the builds at d=12 degenerate (m >= d), so exercise the
            # volume-greedy bound at the largest non-degenerate m
            m_check = min(11, 2 * k * (1 + k.bit_length()))
            prop_all &= projection_domination_holds(vs, m_check, k, tol=1e-7)
    announce(7, "k-spanner validity at 32k(1+ln k)^3", ok_all and prop_all,
             "mixture check + volume-greedy domination")


def test_criterion_08_rounding_bound():
    ok_all = True
    details = []
    for k in (2, 3, 4):
        for seed in range(3):
            x = np.random.default_rng(seed * 31 + k).standard_normal((12, k))
            vs = VectorSet(x)
            frac = detmax.fractional_detmax(vs)
            res = detmax.nikolov_round(vs, frac, k, 20000, seed=seed)
            target = math.exp(-k) * detmax.fractional_objective(vs, frac)
            slack = 3 * res.std / math.sqrt(res.trials)
            ok_all &= res.mean >= target - slack
            details.append(f"k={k}:{res.mean / max(target, 1e-300):.1f}x")
    announce(8, "rounding mean >= e^-k det_k(fractional)", ok_all,
             " ".join(details))


def test_criterion_09_composable_guarantee():
    recorded = CORPUS["criterion9_ratios"]
    ok_all = True
    ratios = []
    for seed in range(10):
        x = np.random.default_rng(1000 + seed).standard_normal((60, 4))
        pin = partition(VectorSet(x), 3, PartitionScheme.ROUND_ROBIN)
        rep = run_pipeline(pin, 4, solver=Solver.BRUTE, seed=seed)
        ratios.append(rep.ratio)
        ok_all &= rep.ratio >= rep.guarantee
        ok_all &= rep.ratio <= 1.0 + 1e-9
        ok_all &= rep.ratio >= 0.9 * recorded[str(seed)]  # regression pin
    announce(9, "composable guarantee (e*alpha)^-k", ok_all,
             f"min ratio {min(ratios):.3f} vs bound {rep.guarantee:.1e}")


def test_criterion_10_lowerbound_phenomenon():
    survival = np.zeros(10, dtype=int)
    small_ratio = 0
    for seed in range(50):
        inst = hardgen.gen_hard_instance(16, 1.0, 1e6, seed=seed, n_override=256)
        rep = hardgen.lowerbound_experiment(inst, 16, seed=seed)
        survival += np.array(rep.survived, dtype=int)
        small_ratio += rep.ratio < 1e-2
    p = 16.0 / 256.0
    threshold = p + 3.0 * math.sqrt(p * (1.0 - p) / 50.0)
    freqs = survival / 50.0
    survival_ok = bool(np.all(freqs <= threshold))
    ratio_ok = small_ratio >= 45
    announce(10, "planted-survival bound + collapse ratio",
             survival_ok and ratio_ok,
             f"max freq {freqs.max():.3f} <= {threshold:.3f}; "
             f"{small_ratio}/50 ratios < 1e-2")


def test_criterion_11_pm1_lower_bound():
    # Faithful to the stated parameters (d=64, 200 vectors, alpha = sqrt(d)).
    # The generator's epsilon = 1/2 pairwise bound makes every excluded vector
    # self-witnessing; see the module docstring.
    d, count, alpha = 64, 200, math.sqrt(64)
    try:
        vs = hardgen.gen_pm1_lowerbound(d, count, seed=1101)
    except hardgen.SamplingFailed as exc:
        announce(11, "pm1 non-coverage at alpha = sqrt(d)", False,
                 f"generator: {exc}")
        return
    x = vs.vectors
    gen = np.random.default_rng(1102)
    excluded = gen.choice(count, size=20, replace=False)
    ok_all = True
    for i in excluded:
        others = np.delete(x, i, axis=0)
        lhs = float(x[i] @ x[i]) ** 2
        rhs = alpha * float(np.max((others @ x[i]) ** 2))
        ok_all &= lhs > rhs
    announce(11, "pm1 non-coverage at alpha = sqrt(d)", ok_all)


def test_criterion_12_regular_function_scaling():
    gen = np.random.default_rng(1212)
    worst = 0.0
    for _ in range(20):
        d = int(gen.integers(2, 5))
        n = d + int(gen.integers(1, 5))
        x = gen.standard_normal((n, d))
        vs = VectorSet(x)
        w = gen.uniform(0.3, 2.0, size=n)
        for obj in detmax.DesignObjective:
            base = detmax.eval_design(vs, obj, weights=w)
            for t in (2.0, 10.0):
                scaled = detmax.eval_design(vs, obj, weights=t * w)
                worst = max(worst, abs(scaled * t - base) / abs(base))
    announce(12, "regular scaling f(tA) * t = f(A)", worst <= 1e-8,
             f"worst rel err {worst:.2e}")
