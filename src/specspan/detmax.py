"""Offline determinant maximization and experimental-design objectives.

Exact enumeration, volume-greedy seeding with single-swap local search, a
log-det Frank-Wolfe relaxation for the full-rank case, randomized rounding of
fractional solutions, and the D/E/A design objectives with their shared
1/t scaling law.

Enumeration, rounding trials and swap candidates are all scored the same way:
CHUNK index sets at a time, by one stacked Cholesky of their Gram matrices.
Design iterates are scored DESIGN_BLOCK at a time by one stacked Jacobi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, islice

import numpy as np

from . import linalg
from .rng import generator
from .spanner import volume_greedy
from .vectorset import as_vector_set

BRUTE_GUARD = 10**7
CHUNK = 4096                  # subsets scored per stacked Cholesky
DESIGN_BLOCK = 64             # design iterates scored per stacked Jacobi
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


def _set_values(x: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """det of the Gram of each row-index set of `sets` (b, k): one stacked Cholesky."""
    xs = x[sets]
    return linalg.det_gram(xs @ xs.transpose(0, 2, 1))


def brute_force_detmax(vs, k: int) -> Solution:
    """Exact optimum over all k-subsets; ties go to the lexicographically
    smallest index set (combinations come in lex order, the first maximum wins).

    Subsets are scored CHUNK at a time from the n x n Gram matrix, so memory
    beyond that Gram is one chunk of index sets and Gram matrices whatever
    C(n, k) is.
    """
    v = as_vector_set(vs)
    n = v.vectors.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    total = math.comb(n, k)
    if total > BRUTE_GUARD:
        raise TooLarge(f"C({n},{k}) = {total} exceeds guard {BRUTE_GUARD}")
    gram = v.vectors @ v.vectors.T
    combos = chain.from_iterable(combinations(range(n), k))
    best_val, best_idx = -math.inf, ()
    while (sets := np.fromiter(islice(combos, CHUNK * k), dtype=np.int64)).size:
        sets = sets.reshape(-1, k)
        values = linalg.det_gram(gram[sets[:, :, None], sets[:, None, :]])
        i = int(np.argmax(values))
        if values[i] > best_val:
            best_val, best_idx = float(values[i]), sets[i]
    labels = tuple(int(v.labels[i]) for i in best_idx)
    return Solution(labels, max(best_val, 0.0))


def _first_swap(x: np.ndarray, current: list[int], slot: int, cands: np.ndarray,
                bar: float) -> tuple[int, float | None]:
    """First position in `cands` whose swap into `slot` lifts the value above
    `bar`, with that value; (len(cands), None) when none does."""
    for start in range(0, len(cands), CHUNK):
        part = cands[start:start + CHUNK]
        sets = np.tile(current, (len(part), 1))
        sets[:, slot] = part
        values = _set_values(x, sets)
        hit = np.flatnonzero(values > bar)
        if hit.size:
            return start + int(hit[0]), float(values[hit[0]])
    return len(cands), None


def greedy_local_search(vs, k: int, max_rounds: int = 50) -> Solution:
    """Volume-greedy seed followed by first-improvement single swaps.

    A swap is accepted only when the value improves by a factor >= 1 + 1e-9;
    terminates at a local optimum or after max_rounds * n * k evaluations.
    Swap-ins for a slot are scored CHUNK at a time in index order; the first
    improving one wins, as in a one-by-one scan.
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
        taken = set(current)
        cands = np.fromiter((j for j in range(n) if j not in taken), dtype=np.int64)
        for slot in range(k):
            allowed = cands[:budget - evals]
            pos, val = _first_swap(x, current, slot, allowed,
                                   value * (1.0 + SWAP_IMPROVE) + 1e-300)
            evals += min(pos + 1, len(allowed))
            if val is not None:
                current[slot], value, improved = int(allowed[pos]), val, True
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
    low = linalg.cholesky_spd(a)  # one factor per iterate: its log-det, then its inverse
    logdet = linalg.logdet_spd(low)
    best_s, best_logdet = s.copy(), logdet
    for t in range(1, iters + 1):
        ainv = linalg.inv_spd(a, low)
        scores = np.einsum("ij,ij->i", x @ ainv, x)
        q = int(np.argmax(scores))
        gamma = 2.0 / (t + 2.0)
        s *= 1.0 - gamma
        s[q] += gamma * d
        a = (1.0 - gamma) * a + (gamma * d) * np.outer(x[q], x[q]) \
            + (gamma * eps) * np.eye(d)
        low = linalg.cholesky_spd(a)
        new_logdet = linalg.logdet_spd(low)
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

    All trials read one Philox stream: trial t takes its draws t*k to t*k+k-1,
    so results do not depend on CHUNK or THREADS.  The mean uses numpy's
    pairwise summation.  Trials are drawn and scored CHUNK at a time, so beyond
    the per-trial values memory is one chunk whatever `trials` is.
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
    values = np.empty(trials)
    best_val = -math.inf
    best_draw: np.ndarray | None = None
    gen = generator(seed, "trials")
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        draws = np.searchsorted(cum, gen.random((stop - start, k)), side="right")
        chunk = values[start:stop] = _set_values(x, draws)
        i = int(np.argmax(chunk))
        if chunk[i] > best_val:
            best_val, best_draw = float(chunk[i]), draws[i]
    assert best_draw is not None
    labels = tuple(sorted(int(v.labels[i]) for i in best_draw))
    mean = float(np.sum(values) / trials)
    std = float(np.std(values, ddof=1)) if trials > 1 else 0.0
    best = Solution(labels, max(best_val, 0.0))
    return RoundingResult(best, mean, std, trials)


def _design_values(w: np.ndarray, obj: DesignObjective) -> np.ndarray:
    """f at each row of eigenvalues `w` (b, d), sorted descending; +inf when singular."""
    lam = np.maximum(w, 0.0)
    lam_max = lam[:, 0]
    ok = (lam_max > 0.0) & (lam[:, -1] > 1e-12 * lam_max)
    lam, d = lam[ok], w.shape[1]
    vals = np.full(len(w), math.inf)
    if obj is DesignObjective.D:
        # math.exp, not np.exp: the two can differ in the last bit
        vals[ok] = [math.exp(-s / d) for s in np.sum(np.log(lam), axis=1)]
    elif obj is DesignObjective.E:
        vals[ok] = 1.0 / lam[:, -1]
    else:
        vals[ok] = np.sum(1.0 / lam, axis=1) / d
    return vals


def eval_design(vs, obj: DesignObjective, weights=None,
                indices=None) -> float | np.ndarray:
    """f(sum s_v vv^T) for the chosen design objective; +inf when singular.

    `weights` is one weight vector or a stack (b, n) of them; a stack gives
    an array of b values from one stacked sym_eig, each equal to the value of
    its lone call.  `indices` are labels of the vector set.
    """
    v = as_vector_set(vs)
    x = v.vectors
    if indices is not None:
        label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
        unknown = [int(i) for i in indices if int(i) not in label_pos]
        if unknown:
            raise ValueError(f"unknown label {unknown[0]} in indices")
        pos = [label_pos[int(i)] for i in indices]
        a = x[pos].T @ x[pos]
    elif weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim == 2:  # one product per member, so each has its lone call's bits
            a = np.array([(x.T * s) @ x for s in w]).reshape(len(w), v.dim, v.dim)
        else:
            a = (x.T * w) @ x
    else:
        a = x.T @ x
    eigenvalues = linalg.sym_eig(a).eigenvalues
    vals = _design_values(np.atleast_2d(eigenvalues), obj)
    return vals if eigenvalues.ndim == 2 else float(vals[0])


def _design_iterates(x: np.ndarray, obj: DesignObjective, budget: float, iters: int):
    """The Frank-Wolfe weights of fractional_design: the uniform start, then
    one per step."""
    n = x.shape[0]
    s = np.full(n, budget / n)
    a = (x.T * s) @ x
    yield s.copy()
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
        yield s.copy()


def fractional_design(vs, obj: DesignObjective, budget: float,
                      iters: int = FW_DESIGN_ITERS) -> FractionalSolution:
    """Frank-Wolfe on the budgeted mass-allocation problem for a regular f.

    Linearization scores: D uses v^T A^{-1} v, A uses v^T A^{-2} v, E uses
    <v, w>^2 with w the minimum eigenvector (a subgradient; no optimality
    claim).  Returns the best iterate encountered, the first one on ties.
    Iterates are scored DESIGN_BLOCK at a time by one stacked eval_design,
    so beyond the vectors memory is one block whatever `iters` is.
    """
    v = as_vector_set(vs)
    x = v.vectors
    d = x.shape[1]
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be positive and finite (got {budget})")
    if linalg.gram_schmidt(x).shape[0] < d:
        raise Degenerate(f"rank(V) < d = {d}")
    iterates = _design_iterates(x, obj, budget, iters)
    best_s, best_f = None, math.inf
    while (block := np.array(list(islice(iterates, DESIGN_BLOCK)))).size:
        f = eval_design(v, obj, weights=block)
        i = int(np.argmin(f))
        if best_s is None or f[i] < best_f:
            best_s, best_f = block[i].copy(), float(f[i])  # not a view that holds the block
    return FractionalSolution(best_s, float(budget))
