"""Shared oracles for the test suite.

Oracles deliberately go through numpy.linalg (or plain enumeration) so they
stay independent of the package's own factorization code paths.
"""

import math
from itertools import combinations

import numpy as np
import pytest


def principal_minor_detk(a: np.ndarray, k: int) -> float:
    """Brute-force det_k: sum of all k x k principal minors via numpy."""
    d = a.shape[0]
    total = 0.0
    for rows in combinations(range(d), k):
        total += float(np.linalg.det(a[np.ix_(rows, rows)]))
    return total


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    r = rank if rank is not None else d
    g = rng.standard_normal((r, d))
    return g.T @ g


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def rank_four_in_r5() -> np.ndarray:
    """12 rows in R^5 of rank four up to 1e-8 noise."""
    g = np.random.default_rng(0)
    return (g.standard_normal((12, 4)) @ g.standard_normal((4, 5))
            + 1e-8 * g.standard_normal((12, 5)))


def enumerate_lp_vertices(c, a_eq, b_eq, a_ub, b_ub):
    """Optimal value of a small LP by enumerating basic feasible points.

    Tries every choice of active constraints that pins down x, keeps the
    feasible ones, and minimizes c @ x over them.  Assumes the optimum is
    attained at such a point (bounded, feasible LP).
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rhs = []
    eq_count = 0
    if a_eq is not None and len(a_eq):
        for row, b in zip(np.atleast_2d(a_eq), np.atleast_1d(b_eq)):
            rows.append(np.asarray(row, float))
            rhs.append(float(b))
            eq_count += 1
    if a_ub is not None and len(a_ub):
        for row, b in zip(np.atleast_2d(a_ub), np.atleast_1d(b_ub)):
            rows.append(np.asarray(row, float))
            rhs.append(float(b))
    m = len(rows)
    a = np.array(rows)
    b = np.array(rhs)
    best = math.inf
    best_x = None
    for active in combinations(range(m), n):
        if not set(range(eq_count)).issubset(active):
            continue
        sub = a[list(active)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        x = np.linalg.solve(sub, b[list(active)])
        ok = np.allclose(a[:eq_count] @ x, b[:eq_count], atol=1e-8) if eq_count else True
        if ok and np.all(a[eq_count:] @ x <= b[eq_count:] + 1e-8):
            val = float(c @ x)
            if val < best:
                best = val
                best_x = x
    return best_x, best


@pytest.fixture
def rng():
    return np.random.default_rng(20240613)
