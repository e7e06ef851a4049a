"""Simplex kernel, the directional-domination wrapper and the l1 solve."""

import math
import zlib

import numpy as np
import pytest

from specspan.coreset import PartitionScheme, Solver, partition, run_pipeline
from specspan.lp import (DominationQuery, Infeasible, Unbounded, ZeroVector,
                         cover_threshold, domination_check, l1_representation,
                         solve_lp)
from specspan.spanner import build_k_spanner, check_witness_dominance
from specspan.vectorset import VectorSet
from conftest import enumerate_lp_vertices

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSolveLP:
    def test_one_dimensional_abs(self):
        # minimize t subject to x = 1, |x| <= t
        x, val = solve_lp(np.array([0.0, 1.0]),
                          a_eq=[[1.0, 0.0]], b_eq=[1.0],
                          a_ub=[[1.0, -1.0], [-1.0, -1.0]], b_ub=[0.0, 0.0])
        assert val == pytest.approx(1.0)
        assert x[0] == pytest.approx(1.0)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp(np.array([1.0]), a_eq=[[1.0], [1.0]], b_eq=[0.0, 1.0])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp(np.array([-1.0]), a_ub=[[-1.0]], b_ub=[0.0])

    def test_random_lps_match_vertex_enumeration(self, rng):
        hits = 0
        for _ in range(40):
            n = 3
            c = rng.standard_normal(n)
            a_ub = rng.standard_normal((5, n))
            x0 = rng.standard_normal(n)
            b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, size=5)  # strictly feasible
            a_ub = np.vstack([a_ub, np.eye(n), -np.eye(n)])   # box to stay bounded
            b_ub = np.concatenate([b_ub, np.full(2 * n, 10.0)])
            x_ref, ref = enumerate_lp_vertices(c, None, None, a_ub, b_ub)
            if x_ref is None:
                continue
            hits += 1
            _, val = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-9)
        assert hits >= 30

    def test_deterministic_bits(self, rng):
        c = rng.standard_normal(4)
        a_ub = rng.standard_normal((6, 4))
        b_ub = np.abs(rng.standard_normal(6)) + 0.5
        x1, v1 = solve_lp(c, a_ub=np.vstack([a_ub, np.eye(4), -np.eye(4)]),
                          b_ub=np.concatenate([b_ub, np.full(8, 5.0)]))
        x2, v2 = solve_lp(c, a_ub=np.vstack([a_ub, np.eye(4), -np.eye(4)]),
                          b_ub=np.concatenate([b_ub, np.full(8, 5.0)]))
        assert np.array_equal(x1, x2) and v1 == v2


class TestDominationCheck:
    def test_analytic_covered_at_four(self):
        res = domination_check(DominationQuery(E1 + E2, np.array([E1, E2]), 4.0))
        assert res.covered
        assert res.margin == pytest.approx(0.5)

    def test_analytic_witness_below_four(self):
        res = domination_check(DominationQuery(E1 + E2, np.array([E1, E2]), 3.9))
        assert not res.covered
        assert res.margin == pytest.approx(0.5)
        assert res.margin < 1.0 / math.sqrt(3.9)
        assert float(res.witness @ (E1 + E2)) == pytest.approx(1.0)

    def test_member_always_covered(self, rng):
        for alpha in (1.0, 2.0, 100.0):
            us = rng.standard_normal((5, 3))
            res = domination_check(DominationQuery(us[2], us, alpha))
            assert res.covered

    def test_empty_spanner_gives_base_witness(self):
        v = np.array([2.0, 0.0])
        res = domination_check(DominationQuery(v, np.zeros((0, 2)), 2.0))
        assert not res.covered
        assert res.margin == 0.0
        assert np.allclose(res.witness, v / 4.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            domination_check(DominationQuery(np.zeros(2), np.array([E1]), 2.0))

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            DominationQuery(E1, np.array([E2]), 0.5)

    def test_witness_violation_inequality(self, rng):
        # any returned witness satisfies <x,v>^2 > alpha * max <x,u>^2 literally
        for _ in range(30):
            d = int(rng.integers(2, 6))
            us = rng.standard_normal((int(rng.integers(1, 5)), d))
            v = rng.standard_normal(d) * 3.0
            alpha = float(rng.uniform(1.0, 20.0))
            res = domination_check(DominationQuery(v, us, alpha))
            if res.covered:
                continue
            x = res.witness
            assert float(x @ v) ** 2 > alpha * float(np.max((us @ x) ** 2))

    def test_scale_invariance(self, rng):
        # scaling U and v together changes neither status nor margin;
        # scaling U alone scales the margin linearly
        for _ in range(10):
            us = rng.standard_normal((4, 3))
            v = rng.standard_normal(3)
            alpha = float(rng.uniform(1.5, 10.0))
            base = domination_check(DominationQuery(v, us, alpha))
            for c in (0.25, 3.0):
                both = domination_check(DominationQuery(c * v, c * us, alpha))
                assert both.status == base.status
                assert both.margin == pytest.approx(base.margin, rel=1e-9, abs=1e-12)
                u_only = domination_check(DominationQuery(v, c * us, alpha))
                assert u_only.margin == pytest.approx(c * base.margin, rel=1e-9, abs=1e-12)

    def test_cover_threshold_slack(self):
        assert cover_threshold(4.0) == pytest.approx(0.5, rel=1e-8)
        assert cover_threshold(4.0) < 0.5


class TestL1Representation:
    def test_analytic_diagonal(self):
        c = l1_representation(np.array([E1, E2]), E1 + E2)
        assert np.allclose(c, [1.0, 1.0])

    def test_prefers_the_long_vector(self):
        # v = 2 e1 from {e1, 2 e1, e2}: one unit of the long vector beats two
        c = l1_representation(np.array([E1, 2.0 * E1, E2]), 2.0 * E1)
        assert np.allclose(c, [0.0, 1.0, 0.0])

    def test_negative_coefficients(self):
        c = l1_representation(np.array([E1, E2]), np.array([-3.0, 0.5]))
        assert np.allclose(c, [-3.0, 0.5])

    def test_outside_span_is_infeasible(self):
        with pytest.raises(Infeasible):
            l1_representation(np.array([[1.0, 0.0, 0.0]]), np.array([0.0, 1.0, 0.0]))

    def test_norm_is_inverse_domination_margin(self, rng):
        for _ in range(20):
            us = rng.standard_normal((5, 3))
            v = rng.standard_normal(3)
            c = l1_representation(us, v)
            assert np.allclose(us.T @ c, v, atol=1e-12)
            t_star = domination_check(DominationQuery(v, us, 2.0)).margin
            assert float(np.sum(np.abs(c))) == pytest.approx(1.0 / t_star, rel=1e-9)


def pipeline_sphere_input(seed: int, index: int) -> tuple[np.ndarray, int]:
    """Input `index` of the pipeline-sphere benchmark workload at `seed`."""
    gen = np.random.default_rng([seed, zlib.crc32(b"pipeline-sphere"), index])
    g = gen.standard_normal((200, 16))
    return g / np.linalg.norm(g, axis=1, keepdims=True), int(gen.integers(2**31))


class TestNumericalRegressions:
    @pytest.mark.parametrize("seed,index", [(2005, 0), (2005, 52), (2003, 9)])
    def test_pipeline_inputs_that_broke_the_ratio_test(self, seed, index):
        # Each input has a 50-vector part whose k=2 spanner build once raised
        # Unbounded (a ray made of 1e-17 entries with reduced cost -1.7e-11)
        # or "simplex returned an infeasible point" (a noise-sized pivot).
        x, job_seed = pipeline_sphere_input(seed, index)
        pin = partition(VectorSet(x), 4, PartitionScheme.ROUND_ROBIN, seed=job_seed)
        for part in pin.parts:
            sp = build_k_spanner(part, 2)
            assert check_witness_dominance(sp)[0]
        rep = run_pipeline(pin, 2, solver=Solver.GREEDY_LOCAL, seed=job_seed)
        labels = rep.config["union_labels"]
        assert len(set(labels)) == len(labels) == rep.union_size == sum(rep.coreset_sizes)
        assert rep.guarantee <= rep.ratio <= 1.0 + 1e-9
