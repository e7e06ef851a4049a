"""Offline determinant maximization and experimental-design objectives.

Exact enumeration, volume-greedy seeding with single-swap local search, a
log-det Frank-Wolfe relaxation for the full-rank case, randomized rounding of
fractional solutions, and the D/E/A design objectives with their shared
1/t scaling law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from . import linalg
from .rng import generator
from .spanner import volume_greedy
from .vectorset import as_vector_set

BRUTE_GUARD = 10**7
SWAP_IMPROVE = 1e-9           # accept a swap only above this relative gain
FW_DETMAX_ITERS = 1000
FW_DETMAX_REL = 1e-9
FW_DESIGN_ITERS = 2000
EPS_RIDGE_REL = 1e-12          # log-det ridge vs max squared norm


class TooLarge(Exception):
    pass


class Degenerate(Exception):
    pass


@dataclass
class Solution:
    """A size-k index multiset with its det_k value."""

    indices: tuple[int, ...]
    value: float


@dataclass
class FractionalSolution:
    weights: np.ndarray
    budget: float

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if float(np.sum(self.weights)) > self.budget + 1e-9:
            raise ValueError("weights exceed budget")


@dataclass
class RoundingResult:
    best: Solution
    mean: float
    std: float
    trials: int


class DesignObjective(Enum):
    D = "D"   # det(A)^(-1/d)
    E = "E"   # ||A^{-1}||_2 = 1/lambda_min
    A = "A"   # tr(A^{-1})/d


def gram_of(x: np.ndarray, indices) -> np.ndarray:
    sub = x[list(indices)]
    return sub @ sub.T


def subset_value(x: np.ndarray, indices) -> float:
    """det_k of the Gram sum of the chosen vectors (= det of their Gram)."""
    return linalg.det_gram(gram_of(x, indices))


def _det3_stack(g: np.ndarray) -> np.ndarray:
    a, b, c = g[:, 0, 0], g[:, 0, 1], g[:, 0, 2]
    d, e, f = g[:, 1, 0], g[:, 1, 1], g[:, 1, 2]
    h, i, j = g[:, 2, 0], g[:, 2, 1], g[:, 2, 2]
    return a * (e * j - f * i) - b * (d * j - f * h) + c * (d * i - e * h)


def _det_stack(g: np.ndarray) -> np.ndarray:
    """Determinants of a stack of small (k <= 4) matrices, vectorized."""
    k = g.shape[1]
    if k == 1:
        return g[:, 0, 0]
    if k == 2:
        return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    if k == 3:
        return _det3_stack(g)
    if k == 4:
        out = np.zeros(g.shape[0])
        sign = 1.0
        for j in range(4):
            cols = [c for c in range(4) if c != j]
            minor = g[:, 1:, :][:, :, cols]
            out += sign * g[:, 0, j] * _det3_stack(minor)
            sign = -sign
        return out
    raise ValueError("stacked determinant only for k <= 4")


def brute_force_detmax(vs, k: int) -> Solution:
    """Exact optimum over all k-subsets; ties go to the lexicographically
    smallest index set (combinations are generated in lex order)."""
    v = as_vector_set(vs)
    n = v.vectors.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    total = math.comb(n, k)
    if total > BRUTE_GUARD:
        raise TooLarge(f"C({n},{k}) = {total} exceeds guard {BRUTE_GUARD}")
    gram = v.vectors @ v.vectors.T
    combos = np.fromiter(
        (i for combo in combinations(range(n), k) for i in combo),
        dtype=np.int64, count=total * k,
    ).reshape(total, k)
    if k <= 4:
        sub = gram[combos[:, :, None], combos[:, None, :]]
        values = _det_stack(sub)
        best = int(np.argmax(values))
        best_idx = combos[best]
        best_val = subset_value(v.vectors, best_idx)
    else:
        best_val = -math.inf
        best_idx = combos[0]
        for row in combos:
            val = linalg.det_gram(gram[np.ix_(row, row)])
            if val > best_val:
                best_val = val
                best_idx = row
    labels = tuple(int(v.labels[i]) for i in best_idx)
    return Solution(labels, max(best_val, 0.0))


def greedy_local_search(vs, k: int, max_rounds: int = 50) -> Solution:
    """Volume-greedy seed followed by first-improvement single swaps.

    A swap is accepted only when the value improves by a factor >= 1 + 1e-9;
    terminates at a local optimum or after max_rounds * n * k evaluations.
    """
    v = as_vector_set(vs)
    x = v.vectors
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    seed_sp = volume_greedy(v, k)
    label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
    current = [label_pos[lbl] for lbl in seed_sp.indices]
    for i in range(n):  # pad when rank < k; padding keeps the value at 0
        if len(current) == k:
            break
        if i not in current:
            current.append(i)
    value = subset_value(x, current)
    budget = max_rounds * n * k
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
                val = subset_value(x, trial)
                if val > value * (1.0 + SWAP_IMPROVE) + 1e-300:
                    current = trial
                    value = val
                    improved = True
                    break
                if evals >= budget:
                    break
            if improved or evals >= budget:
                break
    order = sorted(current)
    labels = tuple(int(v.labels[i]) for i in order)
    return Solution(labels, linalg.det_k(gram_of(x, order), min(k, len(order))))


def fractional_detmax(vs, k: int | None = None,
                      iters: int = FW_DETMAX_ITERS) -> FractionalSolution:
    """Frank-Wolfe maximization of log det(sum s_v vv^T + eps I), sum s = d.

    Implemented for k = d only (the log-det gradient v^T A^{-1} v is exact);
    seeded from the greedy/local-search support with unit mass per pick so the
    best iterate can never fall below the best integral solution found.
    """
    v = as_vector_set(vs)
    x = v.vectors
    n, d = x.shape
    if k is None:
        k = d
    if k != d:
        raise ValueError("fractional relaxation is implemented for k = d only")
    if linalg.gram_schmidt(x).shape[0] < d:
        raise Degenerate(f"rank(V) < d = {d}")
    label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
    seed = greedy_local_search(v, d)
    s = np.zeros(n)
    for lbl in seed.indices:
        s[label_pos[lbl]] += d / k  # = 1 for k = d
    eps = EPS_RIDGE_REL * float(np.max(np.einsum("ij,ij->i", x, x)))
    a = (x.T * s) @ x + eps * np.eye(d)
    logdet = linalg.logdet_spd(a)
    best_s, best_logdet = s.copy(), logdet
    for t in range(1, iters + 1):
        ainv = linalg.inv_spd(a)
        scores = np.einsum("ij,ij->i", x @ ainv, x)
        q = int(np.argmax(scores))
        gamma = 2.0 / (t + 2.0)
        s *= 1.0 - gamma
        s[q] += gamma * d
        a = (1.0 - gamma) * a + (gamma * d) * np.outer(x[q], x[q]) \
            + (gamma * eps) * np.eye(d)
        new_logdet = linalg.logdet_spd(a)
        if new_logdet > best_logdet:
            best_logdet = new_logdet
            best_s = s.copy()
        if abs(new_logdet - logdet) < FW_DETMAX_REL * max(abs(logdet), 1e-300):
            break
        logdet = new_logdet
    return FractionalSolution(best_s, float(d))


def fractional_objective(vs, sol: FractionalSolution) -> float:
    """det_k (k = d) of the weighted Gram sum at the fractional weights."""
    v = as_vector_set(vs)
    a = (v.vectors.T * sol.weights) @ v.vectors
    return linalg.det_k(a, v.dim)


def nikolov_round(vs, sol: FractionalSolution, k: int, trials: int,
                  seed: int) -> RoundingResult:
    """k i.i.d. draws with probability s_v/k per trial; best trial wins.

    Each trial has its own derived Philox stream so trials are independent and
    order-insensitive; the mean uses numpy's pairwise summation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    v = as_vector_set(vs)
    x = v.vectors
    s = sol.weights
    total = float(np.sum(s))
    if abs(total - k) > 1e-6:
        raise ValueError(f"weights must sum to k = {k} (got {total})")
    cum = np.cumsum(s / total)
    cum[-1] = 1.0
    gram = x @ x.T
    values = np.empty(trials)
    best_val = -math.inf
    best_draw: np.ndarray | None = None
    for t in range(trials):
        gen = generator(seed, "trial", t)
        draws = np.searchsorted(cum, gen.random(k), side="right")
        val = linalg.det_gram(gram[np.ix_(draws, draws)])
        values[t] = val
        if val > best_val:
            best_val = val
            best_draw = draws
    assert best_draw is not None
    labels = tuple(sorted(int(v.labels[i]) for i in best_draw))
    mean = float(np.sum(values) / trials)
    std = float(np.std(values, ddof=1)) if trials > 1 else 0.0
    best = Solution(labels, max(best_val, 0.0))
    return RoundingResult(best, mean, std, trials)


def _design_eigs(vs, weights=None, indices=None) -> np.ndarray:
    v = as_vector_set(vs)
    x = v.vectors
    if indices is not None:
        label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
        pos = [label_pos.get(int(i), int(i)) for i in indices]
        a = x[pos].T @ x[pos]
    elif weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        a = (x.T * w) @ x
    else:
        a = x.T @ x
    return linalg.sym_eig(a).eigenvalues


def eval_design(vs, obj: DesignObjective, weights=None, indices=None) -> float:
    """f(sum s_v vv^T) for the chosen design objective; +inf when singular."""
    w = _design_eigs(vs, weights, indices)
    lam_max = max(float(w[0]), 0.0)
    lam = np.maximum(w, 0.0)
    if lam_max == 0.0 or float(lam[-1]) <= 1e-12 * lam_max:
        return math.inf
    if obj is DesignObjective.D:
        return math.exp(-float(np.sum(np.log(lam))) / len(lam))
    if obj is DesignObjective.E:
        return 1.0 / float(lam[-1])
    return float(np.sum(1.0 / lam)) / len(lam)


def fractional_design(vs, obj: DesignObjective, budget: float,
                      iters: int = FW_DESIGN_ITERS) -> FractionalSolution:
    """Frank-Wolfe on the budgeted mass-allocation problem for a regular f.

    Linearization scores: D uses v^T A^{-1} v, A uses v^T A^{-2} v, E uses
    <v, w>^2 with w the minimum eigenvector (a subgradient; no optimality
    claim).  Returns the best iterate encountered.
    """
    v = as_vector_set(vs)
    x = v.vectors
    n, d = x.shape
    if budget <= 0:
        raise ValueError("budget must be positive")
    if linalg.gram_schmidt(x).shape[0] < d:
        raise Degenerate(f"rank(V) < d = {d}")
    s = np.full(n, budget / n)
    a = (x.T * s) @ x
    best_s = s.copy()
    best_f = eval_design(v, obj, weights=s)
    for t in range(1, iters + 1):
        if obj is DesignObjective.E:
            eig = linalg.sym_eig(a)
            wmin = eig.eigenvectors[:, -1]
            scores = (x @ wmin) ** 2
        else:
            ainv = linalg.inv_spd(a)
            xa = x @ ainv
            if obj is DesignObjective.D:
                scores = np.einsum("ij,ij->i", xa, x)
            else:
                scores = np.einsum("ij,ij->i", xa, xa)
        q = int(np.argmax(scores))
        gamma = 2.0 / (t + 2.0)
        s *= 1.0 - gamma
        s[q] += gamma * budget
        a = (1.0 - gamma) * a + (gamma * budget) * np.outer(x[q], x[q])
        f = eval_design(v, obj, weights=s)
        if f < best_f:
            best_f = f
            best_s = s.copy()
    return FractionalSolution(best_s, float(budget))
