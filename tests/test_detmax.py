"""Determinant maximization solvers and design objectives."""

import math
from fractions import Fraction
from itertools import combinations, islice

import numpy as np
import pytest

from conftest import rank_four_in_r5
from specspan import detmax, linalg, rng as rng_mod
from specspan.coreset import compose
from specspan.detmax import (Degenerate, DesignObjective, FractionalSolution,
                             TooLarge, brute_force_detmax, eval_design,
                             fractional_design, fractional_detmax,
                             fractional_objective, greedy_local_search,
                             nikolov_round)
from specspan.hardgen import gen_hard_instance
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

    @pytest.mark.parametrize("scale", [1e-5, 1e-6])
    def test_never_beats_brute_force_near_singular(self, scale):
        # greedy once valued its set by Jacobi det_k and brute force by stacked
        # Cholesky: greedy beat the exact solver on about half of these inputs
        for seed in range(40):
            x = np.random.default_rng(seed).standard_normal((9, 5))
            x[:, 4] *= scale
            brute = brute_force_detmax(x, 5)
            assert greedy_local_search(x, 5).value <= brute.value
            best = max(np.linalg.det(x[list(c)]) ** 2 for c in combinations(range(9), 5))
            assert brute.value == pytest.approx(best, rel=1e-2)

    def test_same_set_same_bits_as_brute_force(self):
        gen = np.random.default_rng(4)
        same = 0
        for _ in range(200):
            x = gen.standard_normal((10, 4))
            greedy, brute = greedy_local_search(x, 4), brute_force_detmax(x, 4)
            if greedy.indices == brute.indices:
                same += 1
                assert greedy.value == brute.value
        assert same >= 150

    @pytest.mark.parametrize("j", [-520, -500, 500, 520])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_same_picks_at_extreme_scales(self, j):
        # every row times 2^j: the Gram entries and the value leave the float
        # range, but the swap ratios do not depend on scale, nor may the picks
        x = np.random.default_rng(21).standard_normal((30, 6))
        ref = greedy_local_search(VectorSet(x), 4).indices
        assert ref != tuple(sorted(volume_greedy(VectorSet(x), 4).indices))  # it swaps
        assert greedy_local_search(VectorSet(2.0**j * x), 4).indices == ref

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
    @pytest.mark.parametrize("seed,n,d,k", [(0, 9, 4, 3), (1, 9, 4, 4), (2, 14, 6, 5),
                                            (3, 30, 8, 6)])
    def test_same_local_optimum(self, seed, n, d, k):
        x = np.random.default_rng(seed).standard_normal((n, d))
        ref, cut = scalar_local_search(x, k)
        assert not cut
        sol = greedy_local_search(VectorSet(x), k)
        assert sol.indices == ref
        rows = x[list(ref)]
        assert sol.value == pytest.approx(float(np.linalg.det(rows @ rows.T)), rel=1e-9)

    @pytest.mark.parametrize("seed,n,d,k", [(15, 20, 6, 5), (48, 12, 5, 4),
                                            (124, 16, 4, 3)])
    def test_budget_cut_after_one_round(self, seed, n, d, k):
        # max_rounds=1 allows n*k evaluations; on these inputs the scan runs
        # out of them before it reaches the local optimum
        x = np.random.default_rng(seed).standard_normal((n, d))
        ref, cut = scalar_local_search(x, k, max_rounds=1)
        assert cut and ref != scalar_local_search(x, k)[0]
        assert greedy_local_search(VectorSet(x), k, max_rounds=1).indices == ref

    def test_last_evaluation_inside_budget_counts(self):
        # here the (n*k)-th evaluation is an improving swap: one fewer
        # evaluation would end elsewhere
        x = np.random.default_rng(41).standard_normal((10, 4))
        ref = scalar_local_search(x, 3, budget=30)[0]
        assert scalar_local_search(x, 3, budget=29)[0] != ref
        assert greedy_local_search(VectorSet(x), 3, max_rounds=1).indices == ref

    @pytest.mark.parametrize("seed", range(3))
    def test_same_local_optimum_on_hard_unions(self, seed):
        # the lowerbound-hard shape: capped core-sets of a planted instance
        # with norms spanning 1e6, searched at k = d = 12
        inst = gen_hard_instance(12, 1.0, 1e6, seed, n_override=96)
        x = compose(inst.parts, 12, max_size=12).union.vectors
        ref, cut = scalar_local_search(x, 12)
        assert not cut
        assert greedy_local_search(VectorSet(x), 12).indices == ref

    def test_one_frame_per_round(self, monkeypatch):
        # each round prices its swaps from one frame of the current set: the
        # sets framed run from the seed to the result, one swap apart (rows
        # are compared over their largest entry: the frame sees them scaled)
        x = np.random.default_rng(5).standard_normal((40, 10))
        frame, framed = linalg.gram_schmidt, []

        def key(rows):
            return {tuple(row / np.abs(row).max()) for row in rows}

        def kept(rows):
            framed.append(key(rows))
            return frame(rows)
        monkeypatch.setattr(linalg, "gram_schmidt", kept)
        sol = greedy_local_search(VectorSet(x), 8)
        seed = volume_greedy(VectorSet(x), 8).indices
        assert len(framed) == 5  # four swaps, then a round with none
        assert framed[0] == key(x[list(seed)])
        assert framed[-1] == key(x[list(sol.indices)])
        assert all(len(a - b) == 1 for a, b in zip(framed, framed[1:]))


def exact_det_gram(rows) -> Fraction:
    """det of the Gram of `rows`, exactly: Fractions and Gaussian elimination."""
    rows = [[Fraction(float(v)) for v in row] for row in rows]
    g = [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]
    det = Fraction(1)
    for j in range(len(g)):
        det *= g[j][j]
        for i in range(j + 1, len(g)):
            f = g[i][j] / g[j][j]
            g[i] = [a - f * b for a, b in zip(g[i], g[j])]
    return det


class TestSwapGains:
    @pytest.mark.parametrize("spread", [0.0, 10.0, 30.0])
    def test_against_exact_ratios(self, spread):
        # every row times its own e^u, u uniform in [-spread, spread]
        gen = np.random.default_rng(int(spread))
        for _ in range(20):
            x = gen.standard_normal((8, 5)) * np.exp(gen.uniform(-spread, spread, (8, 1)))
            current = [int(i) for i in gen.permutation(8)[:3]]
            cands = np.array([j for j in range(8) if j not in current])
            gains = detmax._swap_gains(x, current, cands)
            base = exact_det_gram(x[current])
            for slot in range(3):
                for col, c in enumerate(cands):
                    trial = current.copy()
                    trial[slot] = int(c)
                    ratio = exact_det_gram(x[trial]) / base
                    assert abs(Fraction(float(gains[slot, col])) - ratio) <= 1e-12 * ratio

    def test_dependent_set_has_no_gains(self):
        x = np.random.default_rng(0).standard_normal((6, 4))
        x[2] = x[0] - 2.0 * x[1]
        assert detmax._swap_gains(x, [0, 1, 2], np.arange(3, 6)) is None


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

    def test_numerically_rank_deficient_seed(self):
        # rank four plus 1e-8 noise: the greedy seed's Gram has no Cholesky
        # factor (a log-det ridge once hid that and returned a 0.001 sliver)
        with pytest.raises(Degenerate, match="no Cholesky factor"):
            fractional_detmax(VectorSet(rank_four_in_r5()))

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


def detmax_by_numpy(x, iters, logdet=lambda a: float(np.linalg.slogdet(a)[1])):
    """fractional_detmax's Frank-Wolfe from the scalar local-search support,
    with directions from numpy.linalg.inv and log-dets from `logdet`; the
    first strict maximum wins.  Returns the best weights and the log-dets."""
    n, d = x.shape
    s = np.zeros(n)
    s[list(scalar_local_search(x, d)[0])] = 1.0
    a = (x.T * s) @ x
    logdets = [logdet(a)]
    best_s, best = s.copy(), logdets[0]
    for t in range(1, iters + 1):
        q = int(np.argmax(np.einsum("ij,ij->i", x @ np.linalg.inv(a), x)))
        gamma = 2.0 / (t + 2.0)
        s *= 1.0 - gamma
        s[q] += gamma * d
        a = (1.0 - gamma) * a + (gamma * d) * np.outer(x[q], x[q])
        logdets.append(logdet(a))
        if logdets[-1] > best:
            best_s, best = s.copy(), logdets[-1]
        if abs(logdets[-1] - logdets[-2]) < detmax.FW_DETMAX_REL * max(abs(logdets[-2]), 1e-300):
            break
    return best_s, logdets


def round_values(monkeypatch):
    """Round to 0.1 the value of each iterate that _frank_wolfe reads."""
    real = detmax._fw_iterates
    monkeypatch.setattr(detmax, "_fw_iterates",
                        lambda *args: ((s, round(f, 1)) for s, f in real(*args)))


class TestFrankWolfeLoop:
    @pytest.mark.parametrize("seed", range(20))
    def test_detmax_matches_numpy_loop(self, seed):
        x = np.random.default_rng(seed).standard_normal((12, 5))
        ref, logdets = detmax_by_numpy(x, 250)
        if seed == 7:
            assert len(logdets) == 108  # the stop rule ends the run after 107 steps
        assert fractional_detmax(x, iters=250).weights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_small_column_matches_numpy_loop(self, seed):
        # a 1e-5 column gives A a condition number near 1e10; the carried
        # inverse must still pick each step's vertex as numpy's inverse does
        x = np.random.default_rng(seed).standard_normal((12, 5))
        x[:, 4] *= 1e-5
        ref, _ = detmax_by_numpy(x, 250)
        assert fractional_detmax(x, iters=250).weights.tobytes() == ref.tobytes()

    def test_tie_keeps_the_first_maximum(self, monkeypatch):
        # log-dets rounded to 0.1 tie; the run stops on a tie with the maximum
        round_values(monkeypatch)
        x = np.random.default_rng(0).standard_normal((12, 5))
        ref, logdets = detmax_by_numpy(
            x, 250, logdet=lambda a: round(float(np.linalg.slogdet(a)[1]), 1))
        assert logdets[-1] == max(logdets) and logdets.index(max(logdets)) < len(logdets) - 1
        assert fractional_detmax(x, iters=250).weights.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("iters", [0, 1, 40])
    @pytest.mark.parametrize("obj", list(DesignObjective))
    def test_one_factor_per_run(self, monkeypatch, obj, iters):
        # every objective factors the start once and carries its inverse
        calls = []
        real = linalg.cholesky_spd
        monkeypatch.setattr(linalg, "cholesky_spd", lambda a: calls.append(a) or real(a))
        x = np.random.default_rng(2).standard_normal((9, 3))
        detmax._frank_wolfe(x, np.full(9, 6.0 / 9), 6.0, iters, obj)
        assert len(calls) == 1

    @pytest.mark.parametrize("obj", list(DesignObjective))
    def test_singular_iterate_raises(self, obj):
        # rank two, but the rows are 1e-8 apart: the second pivot of every
        # iterate is below 1e-13 of its diagonal entry, so there is no factor
        x = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]])
        with pytest.raises(Degenerate, match="no Cholesky factor"):
            fractional_design(x, obj, 2.0)


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

    def test_gathers_from_the_weight_support(self):
        # weight on 6 of 4,000 rows: the set Grams come from those rows'
        # Gram, not from a 4,000 x 4,000 one (128 MB), and only they are drawn
        import tracemalloc
        x = np.random.default_rng(23).standard_normal((4000, 3))
        support = [3, 700, 701, 2500, 3998, 3999]
        weights = np.zeros(4000)
        weights[support] = 0.5
        frac = FractionalSolution(weights, 3.0)
        tracemalloc.start()
        try:
            res = nikolov_round(VectorSet(x), frac, 3, 200, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22
        assert set(res.best.indices) <= set(support)
        alone = nikolov_round(VectorSet(x[support]), FractionalSolution(np.full(6, 0.5), 3.0),
                              3, 200, seed=4)
        assert res.best.indices == tuple(support[i] for i in alone.best.indices)
        assert (res.best.value, res.mean, res.std) == (alone.best.value, alone.mean, alone.std)

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

    def test_values_match_numpy(self, rng):
        x = rng.standard_normal((7, 3))
        w = rng.uniform(0.5, 2.0, size=7)
        lam = np.linalg.eigvalsh((x.T * w) @ x)
        expect = {DesignObjective.D: float(np.prod(lam)) ** (-1 / 3),
                  DesignObjective.E: 1.0 / float(lam[0]),
                  DesignObjective.A: float(np.sum(1.0 / lam)) / 3}
        for obj, value in expect.items():
            assert eval_design(x, obj, weights=w) == pytest.approx(value, rel=1e-10)

    def test_d_values_use_math_exp(self, rng):
        # np.exp misses math.exp's last bit on a few percent of inputs
        x = rng.standard_normal((7, 3))
        w = rng.uniform(0.0, 2.0, size=(200, 7))
        for s in w:
            logdet = linalg.logdet_spd(linalg.cholesky_spd((x.T * s) @ x))
            expect = math.exp(-logdet / 3)
            assert eval_design(x, DesignObjective.D, weights=s) == expect

    @pytest.mark.parametrize("obj", list(DesignObjective))
    def test_column_scaled_values_match_numpy(self, rng, obj):
        # cond A near 1e14 from one 1e-7 column: every value is finite and
        # agrees with numpy
        x = np.random.default_rng(5).standard_normal((8, 3))
        x[:, 2] *= 1e-7
        for s in rng.uniform(0.1, 2.0, size=(20, 8)):
            assert eval_design(x, obj, weights=s) == pytest.approx(
                design_by_numpy(x, s, obj), rel=1e-9)

    @pytest.mark.parametrize("obj", list(DesignObjective))
    def test_infinite_exactly_without_a_factor(self, obj):
        # rank two, but 1e-8 apart: no Cholesky factor, so +inf under every
        # objective; 1e-3 apart, a factor and a finite value
        x = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-8]])
        assert eval_design(x, obj) == math.inf
        assert eval_design(x, obj, weights=[1.0, 0.0]) == math.inf
        wide = np.array([[1.0, 1.0], [1.0, 1.001]])
        assert eval_design(wide, obj) == pytest.approx(design_by_numpy(wide, np.ones(2), obj),
                                                       rel=1e-9)

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


def design_by_numpy(x, s, obj):
    """f(A), A = sum s vv^T, by numpy.linalg: slogdet for D, the top eigenvalue
    of inv(A) for E, the trace of inv(A) for A."""
    a = (x.T * s) @ x
    if obj is DesignObjective.D:
        return math.exp(-float(np.linalg.slogdet(a)[1]) / len(a))
    inv = np.linalg.inv(a)
    if obj is DesignObjective.E:
        return float(np.linalg.eigvalsh(inv)[-1])
    return float(np.trace(inv)) / len(a)


def design_by_lone_calls(x, obj, budget, iters, value=None):
    """fractional_design's Frank-Wolfe with numpy directions, scoring each
    iterate s with A = sum s vv^T by value(s, A), by default its own
    eval_design call; the first strict minimum wins."""
    if value is None:
        def value(s, a):
            return detmax.eval_design(x, obj, weights=s)
    n = len(x)
    s = np.full(n, budget / n)
    a = (x.T * s) @ x
    fs = [value(s, a)]
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
        fs.append(value(s, a))
        if fs[-1] < best_f:
            best_s, best_f = s.copy(), fs[-1]
    return best_s, fs


class TestDesignBestIterate:
    @pytest.mark.parametrize("obj", list(DesignObjective))
    @pytest.mark.parametrize("row_norms", ["gaussian", "spread", "extreme"])
    def test_matches_lone_scoring(self, obj, row_norms):
        # the loop scores each iterate from its carried inverse or its
        # eigenvalues; the pick must be the one that lone eval_design calls
        # make, also when the rows are scaled by e^u, u uniform on [-4, 4] or
        # u = +-4
        gen = np.random.default_rng(31)
        x = gen.standard_normal((9, 3))
        if row_norms == "spread":
            x *= np.exp(gen.uniform(-4.0, 4.0, size=(9, 1)))
        elif row_norms == "extreme":
            x *= np.exp(gen.choice([-4.0, 4.0], size=(9, 1)))
        for iters in (0, 3, 41):
            ref, _ = design_by_lone_calls(x, obj, 6.0, iters)
            got = fractional_design(x, obj, 6.0, iters=iters).weights
            assert got.tobytes() == ref.tobytes()
            assert got.base is None  # not a view that keeps other weights alive

    @pytest.mark.parametrize("obj", list(DesignObjective))
    def test_ill_conditioned_iterates_are_scored(self, obj):
        # A's condition number is about 1e14: a rule of lambda_min against
        # 1e-12 lambda_max read every iterate +inf and returned the uniform
        # start; the loop scores each iterate from the start's Cholesky factor
        # and rank-one updates, and eval_design reads the same factor
        x = np.random.default_rng(5).standard_normal((8, 3))
        x[:, 2] *= 1e-7
        start = np.full(8, 6.0 / 8)
        assert eval_design(x, obj, weights=start) == pytest.approx(
            design_by_numpy(x, start, obj), rel=1e-9)
        got = fractional_design(x, obj, 6.0, iters=50).weights
        assert design_by_numpy(x, got, obj) < 0.7 * design_by_numpy(x, start, obj)

    @pytest.mark.parametrize("obj", list(DesignObjective))
    @pytest.mark.parametrize("iters", [30, 250])
    def test_best_value_is_eval_design(self, obj, iters):
        # the value the loop carries for its best iterate is the value that
        # eval_design reads from a fresh factor at the returned weights
        for seed in range(5):
            x = np.random.default_rng(seed).standard_normal((12, 5))
            values = [f for _, f in islice(
                detmax._fw_iterates(x, np.full(12, 10.0 / 12), 10.0, obj), iters + 1)]
            best = {DesignObjective.D: math.exp(min(values) / 5),
                    DesignObjective.E: min(values),
                    DesignObjective.A: min(values) / 5}[obj]
            got = fractional_design(x, obj, 10.0, iters=iters).weights
            assert eval_design(x, obj, weights=got) == pytest.approx(best, rel=1e-12)

    def test_tie_keeps_the_first_minimum(self, monkeypatch):
        # D values are log-dets rounded to 0.1, which tie from some iterate on
        round_values(monkeypatch)
        x = np.random.default_rng(32).standard_normal((9, 3))
        ref, fs = design_by_lone_calls(
            x, DesignObjective.D, 6.0, 30,
            value=lambda s, a: -round(float(np.linalg.slogdet(a)[1]), 1))
        assert fs.count(min(fs)) > 1  # a later iterate ties the first minimum
        got = fractional_design(x, DesignObjective.D, 6.0, iters=30).weights
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
