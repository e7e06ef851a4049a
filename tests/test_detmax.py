"""Determinant maximization solvers and design objectives."""

import math
from itertools import combinations

import numpy as np
import pytest

from specspan import detmax, linalg, rng as rng_mod
from specspan.detmax import (Degenerate, DesignObjective, FractionalSolution,
                             TooLarge, brute_force_detmax, eval_design,
                             fractional_design, fractional_detmax,
                             fractional_objective, greedy_local_search,
                             nikolov_round)
from specspan.spanner import volume_greedy
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

    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6])
    @pytest.mark.parametrize("chunk", [7, detmax.CHUNK])
    def test_matches_enumeration_across_chunks(self, monkeypatch, k, chunk):
        monkeypatch.setattr(detmax, "CHUNK", chunk)
        x = np.random.default_rng(40 + k).standard_normal((9, 6))
        best_val, best_set = -math.inf, None
        for s in combinations(range(9), k):  # strict '>' keeps the first maximum
            rows = x[list(s)]
            val = float(np.linalg.det(rows @ rows.T))
            if val > best_val:
                best_val, best_set = val, s
        sol = brute_force_detmax(VectorSet(x), k)
        assert sol.indices == best_set
        assert sol.value == pytest.approx(best_val, rel=1e-9)

    def test_tie_across_chunk_boundary_keeps_first(self, monkeypatch):
        # rows 10 and 11 are equal, so {0,1,2,3,10} (lex position 6) and
        # {0,1,2,3,11} (position 7) tie for the maximum; chunks of 7 split them
        monkeypatch.setattr(detmax, "CHUNK", 7)
        x = 0.1 * np.random.default_rng(3).standard_normal((12, 5))
        x[:4] = 10.0 * np.eye(5)[:4]
        x[10] = x[11] = 10.0 * np.eye(5)[4]
        sol = brute_force_detmax(VectorSet(x), 5)
        assert sol.indices == (0, 1, 2, 3, 10)
        assert sol.value == pytest.approx(1e10, rel=1e-12)

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


def scalar_local_search(x: np.ndarray, k: int, max_rounds: int = 50, budget=None):
    """One-swap-at-a-time first-improvement search from the volume-greedy
    seed, each candidate scored with numpy.linalg.det; (sorted set, cut)."""
    n = len(x)
    current = list(volume_greedy(VectorSet(x), k).indices)

    def value_of(s):
        rows = x[s]
        return float(np.linalg.det(rows @ rows.T))

    value = value_of(current)
    budget = max_rounds * n * k if budget is None else budget
    evals = 0
    improved = True
    while improved and evals < budget:
        improved = False
        in_set = set(current)
        for slot in range(k):
            for j in range(n):
                if j in in_set:
                    continue
                trial = current.copy()
                trial[slot] = j
                evals += 1
                val = value_of(trial)
                if val > value * (1.0 + 1e-9) + 1e-300:
                    current, value, improved = trial, val, True
                    break
                if evals >= budget:
                    break
            if improved or evals >= budget:
                break
    return tuple(sorted(current)), evals >= budget


class TestLocalSearchAgainstScalarScan:
    @pytest.mark.parametrize("chunk", [3, detmax.CHUNK])
    @pytest.mark.parametrize("seed,n,d,k", [(0, 9, 4, 3), (1, 9, 4, 4), (2, 14, 6, 5),
                                            (3, 30, 8, 6)])
    def test_same_local_optimum(self, monkeypatch, chunk, seed, n, d, k):
        monkeypatch.setattr(detmax, "CHUNK", chunk)
        x = np.random.default_rng(seed).standard_normal((n, d))
        ref, cut = scalar_local_search(x, k)
        assert not cut
        sol = greedy_local_search(VectorSet(x), k)
        assert sol.indices == ref
        rows = x[list(ref)]
        assert sol.value == pytest.approx(float(np.linalg.det(rows @ rows.T)), rel=1e-9)

    @pytest.mark.parametrize("chunk", [3, detmax.CHUNK])
    @pytest.mark.parametrize("seed,n,d,k", [(15, 20, 6, 5), (48, 12, 5, 4),
                                            (124, 16, 4, 3)])
    def test_budget_cut_after_one_round(self, monkeypatch, chunk, seed, n, d, k):
        # max_rounds=1 allows n*k evaluations; on these inputs the scan runs
        # out of them before it reaches the local optimum
        monkeypatch.setattr(detmax, "CHUNK", chunk)
        x = np.random.default_rng(seed).standard_normal((n, d))
        ref, cut = scalar_local_search(x, k, max_rounds=1)
        assert cut and ref != scalar_local_search(x, k)[0]
        assert greedy_local_search(VectorSet(x), k, max_rounds=1).indices == ref

    @pytest.mark.parametrize("chunk", [3, detmax.CHUNK])
    def test_last_evaluation_inside_budget_counts(self, monkeypatch, chunk):
        # here the (n*k)-th evaluation is an improving swap: one fewer
        # evaluation would end elsewhere
        monkeypatch.setattr(detmax, "CHUNK", chunk)
        x = np.random.default_rng(41).standard_normal((10, 4))
        ref = scalar_local_search(x, 3, budget=30)[0]
        assert scalar_local_search(x, 3, budget=29)[0] != ref
        assert greedy_local_search(VectorSet(x), 3, max_rounds=1).indices == ref


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

    @pytest.mark.parametrize("chunk", [7, detmax.CHUNK])
    def test_matches_per_trial_loop(self, monkeypatch, chunk):
        monkeypatch.setattr(detmax, "CHUNK", chunk)
        x = np.random.default_rng(21).standard_normal((8, 3))
        weights = np.random.default_rng(22).uniform(0.1, 1.0, size=8)
        frac = FractionalSolution(3.0 * weights / weights.sum(), 3.0)
        cum = np.cumsum(frac.weights / frac.weights.sum())
        cum[-1] = 1.0
        values, best_val, best_draw = [], -math.inf, None
        stream = rng_mod.generator(6, "trials")  # trial t reads draws 3t..3t+2
        for _ in range(500):
            draws = np.searchsorted(cum, stream.random(3), side="right")
            rows = x[draws]
            val = max(float(np.linalg.det(rows @ rows.T)), 0.0)
            values.append(val)
            if val > best_val:
                best_val, best_draw = val, draws
        res = nikolov_round(VectorSet(x), frac, 3, 500, seed=6)
        assert res.best.indices == tuple(sorted(int(i) for i in best_draw))
        assert res.best.value == pytest.approx(best_val, rel=1e-9)
        assert res.mean == pytest.approx(float(np.mean(values)), rel=1e-12)
        assert res.std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-9)

    def test_tie_keeps_the_first_trial(self, monkeypatch):
        # rows 0 and 2 have the same norm: with k=1 both score 9 exactly, and
        # the first trial to draw either must win, across chunks of 7 too; at
        # seed 0 that is row 2, and the last chunk draws row 0
        monkeypatch.setattr(detmax, "CHUNK", 7)
        x = np.array([[3.0, 0.0], [1.0, 1.0], [0.0, 3.0], [2.0, 2.0]])
        frac = FractionalSolution(np.full(4, 0.25), 1.0)
        cum = np.cumsum(frac.weights)
        stream = rng_mod.generator(0, "trials")
        firsts = [int(np.searchsorted(cum, stream.random(1), side="right")[0])
                  for _ in range(40)]
        first_max = next(i for i in firsts if i in (0, 2))
        last_chunk = firsts[(len(firsts) - 1) // 7 * 7:]
        assert 2 - first_max in last_chunk  # a later chunk holds the other one
        res = nikolov_round(VectorSet(x), frac, 1, 40, seed=0)
        assert res.best.indices == (first_max,)
        assert res.best.value == pytest.approx(9.0)

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

    def test_stack_members_are_lone_calls(self, rng):
        x = rng.standard_normal((7, 3))
        w = rng.uniform(0.0, 2.0, size=(6, 7))
        w[2, 2:] = 0.0  # rank two: +inf
        for obj in DesignObjective:
            values = eval_design(x, obj, weights=w)
            assert values.shape == (6,) and values[2] == math.inf
            lone = [eval_design(x, obj, weights=row) for row in w]
            assert values.tobytes() == np.array(lone).tobytes()
        assert eval_design(x, DesignObjective.D, weights=np.zeros((0, 7))).shape == (0,)

    def test_d_values_use_math_exp(self, rng):
        # np.exp misses math.exp's last bit on a few percent of inputs
        x = rng.standard_normal((7, 3))
        w = rng.uniform(0.0, 2.0, size=(200, 7))
        lams = linalg.sym_eig(np.array([(x.T * s) @ x for s in w])).eigenvalues
        expect = [math.exp(-float(np.sum(np.log(lam))) / 3) for lam in lams]
        assert eval_design(x, DesignObjective.D, weights=w).tolist() == expect

    def test_unknown_label_is_rejected(self, rng):
        vs = VectorSet(rng.standard_normal((8, 3)), labels=np.arange(100, 108))
        assert eval_design(vs, DesignObjective.A, indices=[100, 103, 105]) == \
            eval_design(vs, DesignObjective.A, weights=np.eye(8)[[0, 3, 5]].sum(axis=0))
        with pytest.raises(ValueError, match="unknown label 3"):
            eval_design(vs, DesignObjective.A, indices=[100, 3, 5])

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

    @pytest.mark.parametrize("budget", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_budget_must_be_positive_and_finite(self, budget):
        with pytest.raises(ValueError, match="budget"):
            fractional_design(VectorSet(np.eye(3)), DesignObjective.D, budget)


def design_by_lone_calls(x, obj, budget, iters):
    """fractional_design's Frank-Wolfe with numpy directions, scoring each
    iterate by its own eval_design call; the first strict minimum wins."""
    n = len(x)
    s = np.full(n, budget / n)
    a = (x.T * s) @ x
    fs = [detmax.eval_design(x, obj, weights=s)]
    best_s, best_f = s.copy(), fs[0]
    for t in range(1, iters + 1):
        if obj is DesignObjective.E:
            scores = (x @ np.linalg.eigh(a)[1][:, 0]) ** 2
        else:
            xa = x @ np.linalg.inv(a)
            scores = np.einsum("ij,ij->i", xa, x if obj is DesignObjective.D else xa)
        q = int(np.argmax(scores))
        gamma = 2.0 / (t + 2.0)
        s *= 1.0 - gamma
        s[q] += gamma * budget
        a = (1.0 - gamma) * a + (gamma * budget) * np.outer(x[q], x[q])
        fs.append(detmax.eval_design(x, obj, weights=s))
        if fs[-1] < best_f:
            best_s, best_f = s.copy(), fs[-1]
    return best_s, fs


class TestDesignBlocks:
    @pytest.mark.parametrize("obj", list(DesignObjective))
    @pytest.mark.parametrize("block", [1, 4, detmax.DESIGN_BLOCK])
    def test_matches_lone_scoring(self, monkeypatch, obj, block):
        monkeypatch.setattr(detmax, "DESIGN_BLOCK", block)
        x = np.random.default_rng(31).standard_normal((9, 3))
        for iters in (0, 3, 41):
            ref, _ = design_by_lone_calls(x, obj, 6.0, iters)
            got = fractional_design(x, obj, 6.0, iters=iters).weights
            assert got.tobytes() == ref.tobytes()
            assert got.base is None  # not a view that keeps a whole block alive

    def test_tie_across_block_boundary_keeps_first(self, monkeypatch):
        # values rounded to 0.1 tie from some iterate on; blocks of 4 split the tie
        real = detmax.eval_design
        monkeypatch.setattr(detmax, "eval_design", lambda *a, **kw: np.round(real(*a, **kw), 1))
        monkeypatch.setattr(detmax, "DESIGN_BLOCK", 4)
        x = np.random.default_rng(32).standard_normal((9, 3))
        ref, fs = design_by_lone_calls(x, DesignObjective.A, 6.0, 30)
        first = fs.index(min(fs))
        assert min(fs) in fs[(first // 4 + 1) * 4:]  # a later block ties the first minimum
        got = fractional_design(x, DesignObjective.A, 6.0, iters=30).weights
        assert got.tobytes() == ref.tobytes()


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
