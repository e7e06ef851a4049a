"""Simplex kernel, the directional-domination wrapper and the l1 solve."""

import math
import zlib

import numpy as np
import pytest

from specspan import lp, spanner
from specspan.coreset import PartitionScheme, Solver, partition, run_pipeline
from specspan.lp import (Infeasible, Unbounded, ZeroVector, cover_threshold,
                         domination_check, l1_representation, solve_lp)
from specspan.hardgen import gen_hard_instance, lowerbound_experiment
from specspan.spanner import (build_d_spanner, build_k_spanner, certify_all,
                              check_witness_dominance)
from specspan.vectorset import VectorSet
from conftest import enumerate_lp_vertices, unit_rows

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])


class TestSolveLP:
    """The standard-form kernel: min c @ z subject to a @ z = b, z >= 0."""

    @staticmethod
    def random_lp(rng):
        # two random equality rows (b of either sign) over four columns, and a
        # row sum(z) + s = 10 whose slack s is the ready column 4
        n = 4
        a = np.zeros((3, n + 1))
        a[:2, :n] = rng.standard_normal((2, n))
        a[2] = 1.0
        b = np.concatenate([a[:2, :n] @ rng.uniform(0.1, 1.0, n), [10.0]])
        c = np.concatenate([rng.standard_normal(n), [0.0]])
        return a, b, c, {2: n}

    def test_one_dimensional_abs(self):
        # minimize t subject to x = 1, |x| <= t, over (x+, x-, t, s1, s2)
        a = np.array([[1.0, -1.0, 0.0, 0.0, 0.0],
                      [1.0, -1.0, -1.0, 1.0, 0.0],
                      [-1.0, 1.0, -1.0, 0.0, 1.0]])
        z = solve_lp(a, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
                     {1: 3, 2: 4})
        assert z[2] == pytest.approx(1.0)
        assert z[0] - z[1] == pytest.approx(1.0)

    def test_random_lps_match_vertex_enumeration(self, rng):
        for _ in range(40):
            a, b, c, ready = self.random_lp(rng)
            width = a.shape[1]
            _, ref = enumerate_lp_vertices(c, a, b, -np.eye(width), np.zeros(width))
            z = solve_lp(a, b, c, ready)
            assert np.all(z >= 0.0)
            assert np.allclose(a @ z, b, atol=1e-9)
            assert float(c @ z) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_redundant_row_is_dropped(self):
        # the second row repeats the first: phase 1 drops it
        a = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        z = solve_lp(a, np.array([2.0, 2.0, 3.0]), np.array([1.0, 2.0, 0.5]), {})
        assert np.allclose(z, [2.0, 0.0, 3.0])

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp(np.array([[1.0, 1.0]]), np.array([-1.0]), np.zeros(2), {})

    def test_unbounded(self):
        # z0 - z1 = 1 holds along the ray (1 + s, s), where -z0 falls forever
        with pytest.raises(Unbounded):
            solve_lp(np.array([[1.0, -1.0]]), np.array([1.0]), np.array([-1.0, 0.0]), {})

    def test_deterministic_bits(self, rng):
        a, b, c, ready = self.random_lp(rng)
        assert np.array_equal(solve_lp(a, b, c, ready), solve_lp(a, b, c, ready))


class TestDominationCheck:
    def test_analytic_covered_at_four(self):
        res = domination_check(E1 + E2, np.array([E1, E2]), 4.0)
        assert res.covered
        assert res.margin == pytest.approx(0.5)

    def test_analytic_witness_below_four(self):
        res = domination_check(E1 + E2, np.array([E1, E2]), 3.9)
        assert not res.covered
        assert res.margin == pytest.approx(0.5)
        assert res.margin < 1.0 / math.sqrt(3.9)
        assert float(res.witness @ (E1 + E2)) == pytest.approx(1.0)

    def test_member_always_covered(self, rng):
        for alpha in (1.0, 2.0, 100.0):
            us = rng.standard_normal((5, 3))
            res = domination_check(us[2], us, alpha)
            assert res.covered

    def test_empty_spanner_gives_base_witness(self):
        v = np.array([2.0, 0.0])
        res = domination_check(v, np.zeros((0, 2)), 2.0)
        assert not res.covered
        assert res.margin == 0.0
        assert np.allclose(res.witness, v / 4.0)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            domination_check(np.zeros(2), np.array([E1]), 2.0)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(ValueError):
            domination_check(E1, np.array([E2]), 0.5)

    def test_witness_violation_inequality(self, rng):
        # any returned witness satisfies <x,v>^2 > alpha * max <x,u>^2 literally
        for _ in range(30):
            d = int(rng.integers(2, 6))
            us = rng.standard_normal((int(rng.integers(1, 5)), d))
            v = rng.standard_normal(d) * 3.0
            alpha = float(rng.uniform(1.0, 20.0))
            res = domination_check(v, us, alpha)
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
            base = domination_check(v, us, alpha)
            for c in (0.25, 3.0):
                both = domination_check(c * v, c * us, alpha)
                assert both.status == base.status
                assert both.margin == pytest.approx(base.margin, rel=1e-9, abs=1e-12)
                u_only = domination_check(v, c * us, alpha)
                assert u_only.margin == pytest.approx(c * base.margin, rel=1e-9, abs=1e-12)

    @staticmethod
    def fail_domination_lp(monkeypatch, error):
        # the domination tableau is the one with ready slack columns; the l1
        # LP of the recovery still solves
        real = lp.solve_lp

        def solve(a, b, c, ready):
            if ready:
                raise error("numerical failure")
            return real(a, b, c, ready)
        monkeypatch.setattr(lp, "solve_lp", solve)

    @pytest.mark.parametrize("error", [Unbounded, Infeasible])
    def test_failed_solve_out_of_span_gives_residual_witness(self, monkeypatch, error):
        self.fail_domination_lp(monkeypatch, error)
        us = np.array([[1e6, 0.0, 0.0], [3e5, 2e5, 0.0]])
        v = np.array([0.3, -0.2, 1e-3])
        res = domination_check(v, us, 4.0)
        assert not res.covered
        assert float(res.witness @ v) == pytest.approx(1.0, rel=1e-12)
        assert res.margin == pytest.approx(float(np.max(np.abs(us @ res.witness))), rel=1e-12)
        assert res.margin < 1e-6  # exact answer t* = 0: v leaves span(U)

    def test_failed_solve_in_span_covered_by_the_l1_lp(self, monkeypatch):
        # min ||c||_1 = 1 over e1, e2, so t* = 1 >= 1/sqrt(4)
        self.fail_domination_lp(monkeypatch, Unbounded)
        us = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        res = domination_check(np.array([0.5, 0.5, 0.0]), us, 4.0)
        assert res.covered
        assert res.margin == pytest.approx(1.0, rel=1e-12)

    def test_failed_solve_in_span_reraises(self, monkeypatch):
        # t* = 1/2.5 < 1/sqrt(4): a witness exists but only the dual gives it
        self.fail_domination_lp(monkeypatch, Unbounded)
        us = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(Unbounded):
            domination_check(np.array([0.5, 2.0, 0.0]), us, 4.0)

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

    @pytest.mark.parametrize("scale", [1e-11, 1e-8, 1e8])
    def test_v_far_from_the_scale_of_u(self, scale):
        # U and v are scaled by their own powers of two: with v's factor alone
        # U reached the tableau at 1e8 or more and the simplex raised Unbounded
        g = np.random.default_rng(3).standard_normal((60, 4))
        us = g / np.linalg.norm(g, axis=1, keepdims=True)
        v = np.array([0.3, 0.1, -0.2, 0.9])
        c = l1_representation(us, scale * v)
        assert np.allclose(us.T @ c, scale * v, rtol=0.0, atol=1e-12 * scale)
        ref = l1_representation(us, v)
        assert float(np.sum(np.abs(c))) == pytest.approx(scale * float(np.sum(np.abs(ref))),
                                                         rel=1e-9)

    def test_rows_far_apart_in_norm(self):
        # each row of U is scaled by its own power of two; with one power of
        # two for all of U the simplex raised Unbounded on some of these
        rng = np.random.default_rng(11)
        for _ in range(60):
            normal = unit_rows(rng, 5, 3)
            norms = np.ldexp(1.0, rng.choice([-20, 20], 5))
            u, v = normal * norms[:, None], unit_rows(rng, 1, 3)[0]
            c = l1_representation(u, v)
            assert np.allclose(u.T @ c, v, rtol=0.0, atol=1e-12)
            # the LP on the unit rows n_j: min sum t_j / |u_j| over (c', t)
            # with N^T c' = v and |c'_j| <= t_j, where c_j = c'_j / |u_j|
            eye = np.eye(5)
            _, ref = enumerate_lp_vertices(
                np.concatenate([np.zeros(5), 1.0 / norms]),
                np.hstack([normal.T, np.zeros((3, 5))]), v,
                np.vstack([np.hstack([eye, -eye]), np.hstack([-eye, -eye])]), np.zeros(10))
            assert float(np.sum(np.abs(c))) == pytest.approx(ref, rel=1e-8)

    def test_norm_is_inverse_domination_margin(self, rng):
        for _ in range(20):
            us = rng.standard_normal((5, 3))
            v = rng.standard_normal(3)
            c = l1_representation(us, v)
            assert np.allclose(us.T @ c, v, atol=1e-12)
            t_star = domination_check(v, us, 2.0).margin
            assert float(np.sum(np.abs(c))) == pytest.approx(1.0 / t_star, rel=1e-9)


def pipeline_sphere_input(seed: int, index: int) -> tuple[np.ndarray, int]:
    """Input `index` of the pipeline-sphere benchmark workload at `seed`."""
    gen = np.random.default_rng([seed, zlib.crc32(b"pipeline-sphere"), index])
    g = gen.standard_normal((200, 16))
    return g / np.linalg.norm(g, axis=1, keepdims=True), int(gen.integers(2**31))


@pytest.fixture(scope="module")
def unit_build():
    """200 unit rows in R^8 and the picks of their alpha = 4 d-spanner."""
    g = np.random.default_rng(3).standard_normal((200, 8))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    return x, build_d_spanner(VectorSet(x), 4.0).indices


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

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-150, 1e-13, 1e-12, 1e-9,
                                       1e6, 1e9, 1e150, 1e170, 1e300])
    def test_uniform_scale_keeps_picks(self, unit_build, scale):
        # Once: ZeroVector at scale <= 1e-12, Unbounded at 1e-9, other picks at
        # 1e6 and above.  The LPs now see v and U at |v| ~ 1 whatever the scale.
        # Squared row norms once underflowed below 1e-154 ("vector set is all
        # zeros") and overflowed above 1e154 (an empty spanner); the build now
        # scales its rows by a power of two first.
        x, picks = unit_build
        sp = build_d_spanner(VectorSet(scale * x), 4.0)
        assert sp.indices == picks
        assert check_witness_dominance(sp)[0]
        # certificates are scale-free: check them on the unit rows
        for cert in certify_all(VectorSet(scale * x[::10]), sp, 4.0):
            assert cert.passes(4.0)
            lbls = [j for j, _ in cert.support]
            p = np.array([prob for _, prob in cert.support])
            v = x[cert.vector_index * 10]
            quad = float(v @ np.linalg.pinv((x[lbls].T * p) @ x[lbls]) @ v)
            assert cert.delta * quad <= 1.0 + 1e-9

    def test_in_span_failed_solve_is_settled(self, monkeypatch):
        # With the screen off one in-span query of this run once raised
        # Unbounded; the l1 LP in U's frame settles it as covered.
        monkeypatch.setenv("THREADS", "1")
        monkeypatch.setattr(spanner, "_coverage_screen",
                            lambda x, u, basis, alpha: np.zeros(len(x), dtype=bool))
        answers = []

        def check(v, u, alpha):
            res = domination_check(v, u, alpha)
            answers.append((np.asarray(v), np.asarray(u), alpha, res))
            return res
        monkeypatch.setattr(spanner, "domination_check", check)
        lowerbound_experiment(gen_hard_instance(12, 1.0, 1e6, 2000, n_override=96), 12)
        for v, u, alpha, res in answers:
            if not res.covered:
                x = res.witness
                assert np.all(np.abs(u @ x) < cover_threshold(alpha) * float(x @ v))
                continue
            # t* = 1/min ||c||_1 over U^T c = v; here U's rows are independent,
            # so numpy's representation is the only one
            c = np.linalg.pinv(u.T) @ v
            assert np.linalg.norm(u.T @ c - v) <= 1e-9 * np.linalg.norm(v)
            assert res.margin * float(np.sum(np.abs(c))) == pytest.approx(1.0, rel=1e-6)
            assert res.margin >= cover_threshold(alpha)

    @pytest.mark.parametrize("seed,n", [(0, 24), (0, 48), (1, 24), (2, 24), (2, 48),
                                        (3, 48), (4, 24), (4, 48), (5, 24), (5, 48)])
    def test_whole_hard_instance_builds(self, seed, n):
        # The domination LP of one query of each build once raised Unbounded:
        # U at norm 1e6, |v| = 1 and v outside span(U), where t* = 0.
        union = gen_hard_instance(8, 1.0, 1e6, seed, n_override=n).parts.union
        alpha = 8 * (1 + math.log(8)) ** 2
        sp = build_d_spanner(union, alpha)
        u = sp.vectors
        assert np.linalg.matrix_rank(u) == 8 == len(u)
        # U is a basis, so each input's only representation c solves U^T c = x,
        # and x is covered exactly when ||c||_1 = 1/t* <= sqrt(alpha)
        coeffs = np.linalg.solve(u.T, union.vectors.T)
        assert np.all(np.sum(np.abs(coeffs), axis=0) <= math.sqrt(alpha) * (1 + 1e-6))
        # each pick's witness dominates it over the earlier picks
        for i, w in enumerate(sp.dspanner_witnesses):
            diag = abs(float(u[i] @ w))
            assert np.all(np.abs(u[:i] @ w) <= diag / math.sqrt(alpha) * (1 + 1e-9))
