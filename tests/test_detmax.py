"""Determinant maximization solvers and design objectives."""

import math

import numpy as np
import pytest

from specspan import linalg
from specspan.detmax import (Degenerate, DesignObjective, FractionalSolution,
                             TooLarge, brute_force_detmax, eval_design,
                             fractional_design, fractional_detmax,
                             fractional_objective, greedy_local_search,
                             nikolov_round)
from specspan.vectorset import VectorSet

TOY = VectorSet(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))


class TestBruteForce:
    def test_toy_pair(self):
        sol = brute_force_detmax(TOY, 2)
        assert sol.indices == (1, 2)
        assert sol.value == pytest.approx(4.0)

    def test_toy_single(self):
        sol = brute_force_detmax(TOY, 1)
        assert sol.indices == (1,)
        assert sol.value == pytest.approx(4.0)

    def test_rank_deficient_is_zero(self):
        vs = VectorSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert brute_force_detmax(vs, 2).value == pytest.approx(0.0, abs=1e-12)

    def test_guard(self):
        vs = VectorSet(np.ones((60, 2)))
        with pytest.raises(TooLarge):
            brute_force_detmax(vs, 25)

    def test_matches_numpy_enumeration(self, rng):
        from itertools import combinations
        x = rng.standard_normal((9, 4))
        gram = x @ x.T
        for k in (2, 3, 4):
            best = max(
                (float(np.linalg.det(gram[np.ix_(s, s)])), s)
                for s in combinations(range(9), k)
            )
            sol = brute_force_detmax(VectorSet(x), k)
            assert sol.value == pytest.approx(best[0], rel=1e-8)
            assert sol.indices == best[1]

    def test_lexicographic_tie_break(self):
        vs = VectorSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        sol = brute_force_detmax(vs, 2)
        assert sol.indices == (0, 1)

    def test_value_recomputable(self, rng):
        x = rng.standard_normal((8, 3))
        sol = brute_force_detmax(VectorSet(x), 3)
        pos = list(sol.indices)
        again = linalg.det_k(x[pos].T @ x[pos], 3)
        assert sol.value == pytest.approx(again, rel=1e-8)


class TestGreedyLocalSearch:
    def test_orthonormal_global_optimum(self):
        sol = greedy_local_search(VectorSet(np.eye(4)), 4)
        assert sol.value == pytest.approx(1.0)

    def test_toy(self):
        sol = greedy_local_search(TOY, 2)
        assert sol.value == pytest.approx(4.0)

    def test_against_brute_with_factorial_guarantee(self, rng):
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((10, 4))
            greedy = greedy_local_search(VectorSet(x), 3)
            brute = brute_force_detmax(VectorSet(x), 3)
            assert greedy.value <= brute.value * (1.0 + 1e-9)
            assert greedy.value >= brute.value / math.factorial(3) - 1e-12

    def test_rank_deficient_padding(self, rng):
        x = np.vstack([np.eye(2), np.zeros((2, 2))])
        sol = greedy_local_search(VectorSet(x), 3)
        assert len(sol.indices) == 3
        assert sol.value == pytest.approx(0.0, abs=1e-12)


class TestFractionalDetmax:
    def test_orthonormal_uniform(self):
        frac = fractional_detmax(VectorSet(np.eye(3)))
        assert np.allclose(frac.weights, 1.0)
        assert fractional_objective(VectorSet(np.eye(3)), frac) == pytest.approx(1.0, rel=1e-9)

    def test_toy_concentrates_on_best_pair(self):
        frac = fractional_detmax(TOY)
        obj = fractional_objective(TOY, frac)
        assert obj >= 4.0 * (1.0 - 1e-6)

    def test_duplicated_basis_matches_single_copy(self):
        single = fractional_objective(VectorSet(np.eye(3)),
                                      fractional_detmax(VectorSet(np.eye(3))))
        dup_vs = VectorSet(np.vstack([np.eye(3), np.eye(3)]))
        dup = fractional_objective(dup_vs, fractional_detmax(dup_vs))
        assert dup == pytest.approx(single, rel=1e-9)

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            fractional_detmax(VectorSet(np.array([[1.0, 0.0], [2.0, 0.0]])))

    def test_k_not_d_rejected(self):
        with pytest.raises(ValueError):
            fractional_detmax(TOY, k=1)

    def test_relaxation_dominates_integral(self, rng):
        for seed in range(4):
            x = np.random.default_rng(100 + seed).standard_normal((10, 3))
            vs = VectorSet(x)
            frac = fractional_detmax(vs)
            brute = brute_force_detmax(vs, 3)
            assert fractional_objective(vs, frac) >= brute.value * (1.0 - 1e-6)

    def test_budget_respected(self, rng):
        x = rng.standard_normal((8, 3))
        frac = fractional_detmax(VectorSet(x))
        assert float(np.sum(frac.weights)) == pytest.approx(3.0, abs=1e-9)


class TestNikolovRound:
    def test_orthonormal_point_masses_hit_one(self):
        vs = VectorSet(np.eye(3))
        res = nikolov_round(vs, FractionalSolution(np.ones(3), 3.0), 3, 500, seed=1)
        assert res.best.value == pytest.approx(1.0)
        # mean is exactly k!/k^k in expectation; check within 5 sigma
        expect = math.factorial(3) / 27.0
        assert abs(res.mean - expect) <= 5 * res.std / math.sqrt(res.trials)

    def test_k_one_finds_max_supported_norm(self):
        vs = VectorSet(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))
        s = FractionalSolution(np.array([0.2, 0.5, 0.3]), 1.0)
        res = nikolov_round(vs, s, 1, 200, seed=2)
        assert res.best.value == pytest.approx(4.0)

    def test_mean_lower_bound(self, rng):
        # expectation bound E >= e^{-k} det_k(sum s vv^T) with 3-sigma slack
        x = np.random.default_rng(9).standard_normal((8, 3))
        vs = VectorSet(x)
        frac = fractional_detmax(vs)
        res = nikolov_round(vs, frac, 3, 4000, seed=11)
        target = math.exp(-3) * fractional_objective(vs, frac)
        assert res.mean >= target - 3 * res.std / math.sqrt(res.trials)

    def test_deterministic(self):
        vs = VectorSet(np.eye(3))
        s = FractionalSolution(np.ones(3), 3.0)
        a = nikolov_round(vs, s, 3, 300, seed=5)
        b = nikolov_round(vs, s, 3, 300, seed=5)
        assert a.best == b.best and a.mean == b.mean and a.std == b.std

    def test_weight_sum_guard(self):
        vs = VectorSet(np.eye(3))
        with pytest.raises(ValueError):
            nikolov_round(vs, FractionalSolution(np.ones(3), 3.0), 2, 10, seed=0)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_guard(self, trials):
        vs = VectorSet(np.eye(3))
        with pytest.raises(ValueError, match="trials"):
            nikolov_round(vs, FractionalSolution(np.ones(3), 3.0), 3, trials, seed=0)


class TestEvalDesign:
    def test_identity_gram(self):
        vs = VectorSet(np.eye(4))
        ones = np.ones(4)
        assert eval_design(vs, DesignObjective.E, weights=ones) == pytest.approx(1.0)
        assert eval_design(vs, DesignObjective.D, weights=ones) == pytest.approx(1.0)
        assert eval_design(vs, DesignObjective.A, weights=ones) == pytest.approx(1.0)

    def test_scaling_law(self, rng):
        # regular objectives satisfy f(tA) = f(A)/t
        for _ in range(20):
            x = rng.standard_normal((7, 3))
            vs = VectorSet(x)
            w = rng.uniform(0.5, 2.0, size=7)
            for obj in DesignObjective:
                base = eval_design(vs, obj, weights=w)
                for t in (2.0, 10.0):
                    scaled = eval_design(vs, obj, weights=t * w)
                    assert scaled * t == pytest.approx(base, rel=1e-8)

    def test_rank_deficient_infinite(self):
        vs = VectorSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert eval_design(vs, DesignObjective.D, weights=np.ones(2)) == math.inf

    def test_indices_vs_weights(self, rng):
        x = rng.standard_normal((6, 3))
        vs = VectorSet(x)
        by_idx = eval_design(vs, DesignObjective.A, indices=[0, 2, 4])
        w = np.zeros(6)
        w[[0, 2, 4]] = 1.0
        assert by_idx == pytest.approx(eval_design(vs, DesignObjective.A, weights=w))


class TestFractionalDesign:
    def test_orthonormal_uniform_d_objective(self):
        vs = VectorSet(np.eye(4))
        sol = fractional_design(vs, DesignObjective.D, 4.0)
        assert np.allclose(sol.weights, 1.0)
        assert eval_design(vs, DesignObjective.D, weights=sol.weights) == pytest.approx(1.0)

    def test_monotone_budget(self, rng):
        x = np.random.default_rng(3).standard_normal((8, 3))
        vs = VectorSet(x)
        for obj in DesignObjective:
            lo = eval_design(vs, obj, weights=fractional_design(vs, obj, 3.0).weights)
            hi = eval_design(vs, obj, weights=fractional_design(vs, obj, 6.0).weights)
            assert hi <= lo * (1.0 + 1e-9)

    def test_beats_random_probes(self, rng):
        # FW value <= value at 200 random feasible allocations (D objective)
        gen = np.random.default_rng(17)
        x = gen.standard_normal((6, 3))
        vs = VectorSet(x)
        budget = 3.0
        fw_val = eval_design(vs, DesignObjective.D,
                             weights=fractional_design(vs, DesignObjective.D, budget).weights)
        for _ in range(200):
            w = gen.uniform(0.0, 1.0, size=6)
            w *= budget / float(np.sum(w))
            assert fw_val <= eval_design(vs, DesignObjective.D, weights=w) + 1e-9

    def test_degenerate(self):
        with pytest.raises(Degenerate):
            fractional_design(VectorSet(np.array([[1.0, 0.0]])), DesignObjective.D, 2.0)


class TestBetaScalingIdentity:
    def test_numeric_beta(self, rng):
        # beta(f, t) for regular f collapses to 1/t: f(A)/f(tA) = t
        for _ in range(10):
            x = rng.standard_normal((6, 3))
            vs = VectorSet(x)
            w = rng.uniform(0.2, 1.5, size=6)
            for obj in DesignObjective:
                for t in (2.0, 10.0):
                    ratio = eval_design(vs, obj, weights=w) / eval_design(vs, obj, weights=t * w)
                    assert ratio == pytest.approx(t, rel=1e-8)
