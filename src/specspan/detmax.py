"""Offline determinant maximization and experimental-design objectives.

Exact enumeration, volume-greedy seeding with single-swap local search, a
log-det Frank-Wolfe relaxation for the full-rank case, randomized rounding of
fractional solutions, and the D/E/A design objectives with their shared
1/t scaling law.

Brute force and rounding score CHUNK index sets at a time by one stacked
Cholesky of Grams gathered from one Gram (rounding's: of its drawable rows);
subset_value factors the Gram of its rows.  Local search prices every swap of
a round from one Gram-Schmidt frame of the current set.  Both relaxations run
one Frank-Wolfe loop that keeps its best iterate itself; it factors the start
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
    """det of the Gram of the chosen rows of x, by det_gram."""
    rows = x[list(indices)]
    return float(linalg.det_gram(rows @ rows.T))


def _set_values(gram: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """det of the Gram of each index set of `sets` (b, k), gathered from `gram`."""
    return linalg.det_gram(gram[sets[:, :, None], sets[:, None, :]])


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
    while (sets := np.fromiter(islice(combos, CHUNK * k), dtype=np.int64).reshape(-1, k)).size:
        values = _set_values(gram, sets)
        i = int(np.argmax(values))
        if values[i] > best_val:
            best_val, best_idx = float(values[i]), sets[i]
    labels = tuple(int(v.labels[i]) for i in best_idx)
    return Solution(labels, max(best_val, 0.0))


def _swap_gains(x: np.ndarray, current: list[int], cands: np.ndarray) -> np.ndarray | None:
    """det(S - s + c) / det(S) for every slot s of `current` (rows) and every
    candidate c (columns) from one frame Q = gram_schmidt(X_S), on the rows
    times unit_scale(X_S) (exact, so nothing under- or overflows at any row
    scale); None when S is dependent (Q has fewer rows).  Column N_s of
    N = (X_S Q^T)^-1, a lower triangle, is normal in the frame to the other
    rows, with <x_s, N_s> = 1, so the ratio ||Pc||^2 / ||P x_s||^2, P the
    projection off span(S - s), is ||N_s||^2 ||c - Q^T Q c||^2 + <Qc, N_s>^2
    (Fedorov's exchange identity)."""
    x = linalg.unit_scale(x[current]) * x
    q = linalg.gram_schmidt(x[current])
    if len(q) < len(current):
        return None
    inv = linalg.solve_lower(x[current] @ q.T, np.eye(len(q)))
    qc = x[cands] @ q.T
    perp = x[cands] - qc @ q
    return (np.einsum("ij,ij->j", inv, inv)[:, None] * np.einsum("ij,ij->i", perp, perp)
            + (qc @ inv).T ** 2)


def greedy_local_search(vs, k: int, max_rounds: int = 50) -> Solution:
    """Volume-greedy seed followed by first-improvement single swaps.

    Each round prices every swap of the current set S from one frame of S
    (_swap_gains) and takes the first whose gain exceeds 1 + SWAP_IMPROVE,
    slot-major with candidates in index order, as a one-by-one scan would.
    The search ends at a local optimum, when S is dependent, or once
    max_rounds * n * k swaps have been scanned; the value is subset_value's.
    """
    v = as_vector_set(vs)
    x = v.vectors
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    label_pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
    current = [label_pos[lbl] for lbl in volume_greedy(v, k).indices]
    # pad when rank < k: a padded set is dependent, so the search stops at once
    current += [i for i in range(n) if i not in current][:k - len(current)]
    evals, budget = 0, max_rounds * n * k
    while evals < budget:
        cands = np.setdiff1d(np.arange(n), current)
        if (gains := _swap_gains(x, current, cands)) is None:
            break
        hits = np.flatnonzero(gains.ravel()[:budget - evals] > 1.0 + SWAP_IMPROVE)
        if not hits.size:
            break
        slot, pos = divmod(int(hits[0]), len(cands))
        current[slot] = int(cands[pos])
        evals += int(hits[0]) + 1
    order = sorted(current)
    return Solution(tuple(int(v.labels[i]) for i in order), subset_value(x, order))


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
    pairwise summation.  Trials are drawn and scored CHUNK at a time from the
    Gram of the rows of positive weight, the only ones drawn (for a log-det
    Frank-Wolfe solution at most d + iters of them, whatever n is).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    v = as_vector_set(vs)
    s = sol.weights
    total = float(np.sum(s))
    if abs(total - k) > 1e-6:
        raise ValueError(f"weights must sum to k = {k} (got {total})")
    support = np.flatnonzero(s > 0.0)
    xs = v.vectors[support]
    gram = xs @ xs.T
    cum = np.cumsum(s[support] / total)
    cum[-1] = 1.0
    values = np.empty(trials)
    best_val = -math.inf
    best_draw: np.ndarray | None = None
    gen = generator(seed, "trials")
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        draws = np.searchsorted(cum, gen.random((stop - start, k)), side="right")
        chunk = values[start:stop] = _set_values(gram, draws)
        i = int(np.argmax(chunk))
        if chunk[i] > best_val:
            best_val, best_draw = float(chunk[i]), draws[i]
    assert best_draw is not None
    labels = tuple(sorted(int(v.labels[support[i]]) for i in best_draw))
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
