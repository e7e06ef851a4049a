"""Offline determinant maximization and experimental-design objectives.

Exact enumeration, volume-greedy seeding with single-swap local search, a
log-det Frank-Wolfe relaxation for the full-rank case, randomized rounding of
fractional solutions, and the D/E/A design objectives with their shared
1/t scaling law.

Every subset value comes from one scorer: CHUNK index sets at a time, by one
stacked Cholesky of their Gram matrices.  Both relaxations run one
Frank-Wolfe loop that keeps its best iterate itself; it factors the start
once and carries A^-1 and log det A by rank-one updates.  Every design value
reads one Cholesky factor: a matrix without one is singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations, count, islice

import numpy as np

from . import linalg
from .rng import generator
from .spanner import volume_greedy
from .vectorset import as_vector_set

BRUTE_GUARD = 10**7
CHUNK = 4096                  # subsets scored per stacked Cholesky
SWAP_IMPROVE = 1e-9           # accept a swap only above this relative gain
FW_DETMAX_ITERS = 1000
FW_DETMAX_REL = 1e-9
FW_DESIGN_ITERS = 2000


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


def subset_value(x: np.ndarray, indices) -> float:
    """det of the Gram of the chosen rows of x: _set_values on one set."""
    return float(_set_values(x, np.array([indices], dtype=np.int64))[0])


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
    return Solution(labels, subset_value(x, order))


def fractional_detmax(vs, k: int | None = None,
                      iters: int = FW_DETMAX_ITERS) -> FractionalSolution:
    """Frank-Wolfe maximization of log det(sum s_v vv^T), sum s = d.

    Implemented for k = d only (the log-det gradient v^T A^{-1} v is exact);
    seeded from the greedy/local-search support with unit mass per pick so the
    best iterate can never fall below the best integral solution found; a seed
    whose Gram has no Cholesky factor raises Degenerate.  The run stops once
    the log-det moves by less than FW_DETMAX_REL of itself.
    """
    v = as_vector_set(vs)
    n, d = v.vectors.shape
    if k not in (None, d):
        raise ValueError("fractional relaxation is implemented for k = d only")
    label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
    s = np.zeros(n)
    s[[label_pos[lbl] for lbl in greedy_local_search(v, d).indices]] = 1.0
    best_s = _frank_wolfe(v.vectors, s, d, iters, DesignObjective.D, stop_rel=FW_DETMAX_REL)
    return FractionalSolution(best_s, float(d))


def fractional_objective(vs, sol: FractionalSolution) -> float:
    """det_k (k = d) of the weighted Gram sum at the fractional weights, by det_gram."""
    v = as_vector_set(vs)
    return linalg.det_gram((v.vectors.T * sol.weights) @ v.vectors)


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


def _inverse(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(A^-1, log det A) from A's Cholesky factor; None exactly when A has none."""
    if (low := linalg.cholesky_spd(a)) is None:
        return None
    low_inv = linalg.solve_lower(low, np.eye(len(a)))
    return low_inv.T @ low_inv, linalg.logdet_spd(low)


def eval_design(vs, obj: DesignObjective, weights=None, indices=None) -> float:
    """f(A), A = sum s_v vv^T, from _inverse's A^-1 and log det A: D is
    exp(-log det A / d), A is tr A^-1 / d and E is lambda_max(A^-1) by
    sym_eig; +inf exactly when A has no Cholesky factor.

    `weights` is one weight vector; `indices` are labels of the vector set.
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
        a = (x.T * np.asarray(weights, dtype=np.float64)) @ x
    else:
        a = x.T @ x
    if (found := _inverse(a)) is None:
        return math.inf
    inv, logdet = found
    if obj is DesignObjective.D:
        # math.exp, not np.exp: the two can differ in the last bit
        return math.exp(-logdet / len(a))
    if obj is DesignObjective.E:
        return float(linalg.sym_eig(inv).eigenvalues[0])
    return float(np.trace(inv)) / len(a)


def _fw_iterates(x: np.ndarray, s: np.ndarray, budget: float, obj: DesignObjective):
    """Frank-Wolfe on A = sum s_v vv^T, sum s = budget, step g = 2/(t+2), from
    the start `s`: yields each iterate's weights and value, stepping only when
    the next iterate is asked for.  _inverse factors the start (Degenerate
    without a factor); B = A^-1 and log det A are carried through
    A' = (1-g)(A + c qq^T), c = g budget/(1-g), b = Bq, by Sherman-Morrison
    B' = (B - c bb^T/(1 + c q.b))/(1-g) and the determinant lemma
    log det A' = log det A + d log1p(-g) + log1p(c q.b).  D: -log det A and
    scores v^T B v; A: tr B and scores ||Bv||^2; E: lambda_max(B) by sym_eig
    and scores <v, w>^2, w its eigenvector."""
    d = x.shape[1]
    if (start := _inverse((x.T * s) @ x)) is None:
        raise Degenerate(f"the start's Gram has no Cholesky factor (d = {d})")
    inv, logdet = start
    for t in count(1):
        if obj is DesignObjective.E:
            eig = linalg.sym_eig(inv)
            yield s, float(eig.eigenvalues[0])
            scores = (x @ eig.eigenvectors[:, 0]) ** 2
        else:
            yield s, -logdet if obj is DesignObjective.D else float(np.trace(inv))
            xb = x @ inv
            scores = np.einsum("ij,ij->i", xb, x if obj is DesignObjective.D else xb)
        q = int(np.argmax(scores))
        gamma = 2.0 / (t + 2.0)
        s = s * (1.0 - gamma)
        s[q] += gamma * budget
        c, b = gamma * budget / (1.0 - gamma), inv @ x[q]
        cg = c * float(x[q] @ b)
        inv = (inv - (c / (1.0 + cg)) * np.outer(b, b)) / (1.0 - gamma)
        logdet += d * math.log1p(-gamma) + math.log1p(cg)


def _frank_wolfe(x: np.ndarray, s: np.ndarray, budget: float, iters: int,
                 obj: DesignObjective, stop_rel: float = 0.0) -> np.ndarray:
    """Weights of the least-valued _fw_iterates iterate in `iters` steps, the first on ties; a
    positive `stop_rel` stops at the first iterate whose value moves < stop_rel x the previous."""
    best_s, best, prev = s, math.inf, math.nan  # the start has no previous value
    for t, (w, value) in enumerate(_fw_iterates(x, s, budget, obj)):
        if value < best:
            best_s, best = w, value
        if t >= iters or abs(value - prev) < stop_rel * max(abs(prev), 1e-300):
            break
        prev = value
    return best_s


def fractional_design(vs, obj: DesignObjective, budget: float,
                      iters: int = FW_DESIGN_ITERS) -> FractionalSolution:
    """Frank-Wolfe on the budgeted mass-allocation problem for a regular f:
    _frank_wolfe from the uniform start for all `iters` steps (E's score is a
    subgradient; no optimality claim), returning its best iterate.  A start
    without a Cholesky factor (rows of rank < d among them) raises Degenerate."""
    v = as_vector_set(vs)
    x = v.vectors
    n = len(x)
    if not (math.isfinite(budget) and budget > 0):
        raise ValueError(f"budget must be positive and finite (got {budget})")
    best_s = _frank_wolfe(x, np.full(n, budget / n), budget, iters, obj)
    return FractionalSolution(best_s, float(budget))
