"""Small dense linear programming for directional domination and coverage.

The kernel is a two-phase tableau simplex with Bland's anti-cycling rule;
free variables are split into nonnegative parts before solving.  Two LPs sit
on it: the directional-domination check (min t with <x,v> = 1 and
|<x,u>| <= t) and its dual, the minimum-l1 representation of v over U, whose
norm is 1/t*.  Sized for desk-scale problems (tens of variables and
constraints), deterministic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .vectorset import as_matrix

PIVOT_EPS = 1e-11
RATIO_PIVOT_REL = 1e-9         # pivot floor relative to the entering column
REDUCED_COST_NOISE_REL = 1e-9  # a ray this flat is rounding noise, not unbounded
PHASE1_TOL = 1e-8
COVER_SLACK_REL = 1e-9  # relative slack on the 1/sqrt(alpha) threshold


class Infeasible(Exception):
    pass


class Unbounded(Exception):
    pass


class ZeroVector(Exception):
    pass


def _leaving_row(tableau: np.ndarray, basis: list[int], enter: int) -> int:
    """Ratio test with Bland's tie-break; -1 when no row bounds the step.

    A pivot must clear both PIVOT_EPS and RATIO_PIVOT_REL times the largest
    entry of the column, so rounding noise left by earlier pivots never
    becomes a pivot.
    """
    m = len(basis)
    column = tableau[:m, enter].tolist()
    rhs = tableau[:m, -1].tolist()
    floor = max(PIVOT_EPS, RATIO_PIVOT_REL * max(map(abs, column), default=0.0))
    best_ratio = math.inf
    leave = -1
    for i, coef in enumerate(column):
        if coef > floor:
            ratio = rhs[i] / coef
            if ratio < best_ratio - PIVOT_EPS or (
                abs(ratio - best_ratio) <= PIVOT_EPS
                and (leave < 0 or basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
    return leave


def _simplex(tableau: np.ndarray, basis: list[int], ncols: int) -> None:
    """Run simplex on `tableau` in place with Bland's rule.

    tableau rows: m constraint rows then one objective row (reduced costs,
    negated objective value in the last column).  `ncols` excludes the RHS.
    A column with no leaving row is a ray; it proves unboundedness only when
    its reduced cost is above noise level, and is skipped otherwise.
    """
    m = tableau.shape[0] - 1
    cap = 10_000 + 200 * (m + ncols)  # Bland terminates; cap guards fp stalls
    for _ in range(cap):
        obj = tableau[m, :ncols]
        enter = leave = -1
        for j in np.flatnonzero(obj < -PIVOT_EPS):
            leave = _leaving_row(tableau, basis, int(j))
            if leave >= 0:
                enter = int(j)
                break
            noise = REDUCED_COST_NOISE_REL * max(1.0, float(np.max(np.abs(obj))))
            if obj[j] < -noise:
                raise Unbounded("objective unbounded below")
        if enter < 0:
            return
        piv = tableau[leave, enter]
        tableau[leave] /= piv
        col = tableau[:, enter].copy()
        col[leave] = 0.0
        tableau -= np.outer(col, tableau[leave])
        tableau[:, enter] = 0.0
        tableau[leave, enter] = 1.0
        basis[leave] = enter
    raise RuntimeError("simplex pivot cap breached; this is an internal failure")


def solve_lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None) -> tuple[np.ndarray, float]:
    """Minimize c @ x subject to a_eq @ x == b_eq and a_ub @ x <= b_ub.

    Variables are free; they are split into positive/negative parts for the
    standard-form simplex.  Returns (x, value).  Raises Infeasible/Unbounded.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    rows = []
    rhs = []
    is_eq = []
    if a_eq is not None and len(a_eq):
        for row, b in zip(np.atleast_2d(np.asarray(a_eq, dtype=np.float64)),
                          np.atleast_1d(np.asarray(b_eq, dtype=np.float64))):
            rows.append(row)
            rhs.append(float(b))
            is_eq.append(True)
    if a_ub is not None and len(a_ub):
        for row, b in zip(np.atleast_2d(np.asarray(a_ub, dtype=np.float64)),
                          np.atleast_1d(np.asarray(b_ub, dtype=np.float64))):
            rows.append(row)
            rhs.append(float(b))
            is_eq.append(False)
    m = len(rows)
    if m == 0:
        if np.any(c):
            raise Unbounded("no constraints")
        return np.zeros(n), 0.0

    n_slack = sum(1 for e in is_eq if not e)
    width = 2 * n + n_slack
    a_std = np.zeros((m, width))
    b_std = np.zeros(m)
    slack_at = 0
    slack_col = {}
    for i, (row, b, eq) in enumerate(zip(rows, rhs, is_eq)):
        a_std[i, :n] = row
        a_std[i, n:2 * n] = -row
        if not eq:
            a_std[i, 2 * n + slack_at] = 1.0
            slack_col[i] = 2 * n + slack_at
            slack_at += 1
        b_std[i] = b
        if b < 0.0:
            a_std[i] *= -1.0
            b_std[i] *= -1.0

    c_std = np.concatenate([c, -c, np.zeros(width - 2 * n)])
    z = _two_phase(a_std, b_std, c_std, slack_col)
    x = z[:n] - z[n:2 * n]
    return x, float(c @ x)


def _two_phase(a_std: np.ndarray, b_std: np.ndarray, c_std: np.ndarray,
               slack_col: dict[int, int]) -> np.ndarray:
    """Minimize c_std @ z subject to a_std @ z == b_std, z >= 0 (b_std >= 0).

    `slack_col` maps a row to a column holding a unit entry in that row only,
    usable as a ready basic variable; every other row gets an artificial.
    Rows found redundant in phase 1 are dropped.  Returns the optimal z.
    """
    m, width = a_std.shape
    # Phase 1: artificials wherever the row has no ready identity column.
    basis: list[int] = []
    art_cols: list[int] = []
    extra = []
    for i in range(m):
        j = slack_col.get(i)
        if j is not None and a_std[i, j] == 1.0:
            basis.append(j)
        else:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            basis.append(width + len(extra) - 1)
            art_cols.append(width + len(extra) - 1)
    full = np.hstack([a_std] + ([np.array(extra).T] if extra else []))
    total = full.shape[1]

    if art_cols:
        tab = np.zeros((m + 1, total + 1))
        tab[:m, :total] = full
        tab[:m, -1] = b_std
        for j in art_cols:
            tab[m, j] = 1.0
        for i, bv in enumerate(basis):
            if bv in art_cols:
                tab[m] -= tab[i]
        _simplex(tab, basis, total)
        if -tab[m, -1] > PHASE1_TOL * (1.0 + float(np.max(np.abs(b_std)))):
            raise Infeasible("phase-1 optimum is positive")
        # drive leftover artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] in art_cols:
                pivot_j = -1
                for j in range(width):
                    if abs(tab[i, j]) > PIVOT_EPS:
                        pivot_j = j
                        break
                if pivot_j < 0:
                    drop_rows.append(i)
                    continue
                piv = tab[i, pivot_j]
                tab[i] /= piv
                col = tab[:, pivot_j].copy()
                col[i] = 0.0
                tab -= np.outer(col, tab[i])
                tab[:, pivot_j] = 0.0
                tab[i, pivot_j] = 1.0
                basis[i] = pivot_j
        if drop_rows:
            keep = [i for i in range(m) if i not in drop_rows]
            tab = tab[keep + [m]]
            basis = [basis[i] for i in keep]
            m = len(keep)
        tab = np.hstack([tab[:, :width], tab[:, -1:]])
    else:
        tab = np.zeros((m + 1, width + 1))
        tab[:m, :width] = a_std
        tab[:m, -1] = b_std

    # Phase 2 objective row: reduced costs.
    tab[m, :width] = c_std
    tab[m, -1] = 0.0
    for i, bv in enumerate(basis):
        if c_std[bv] != 0.0:
            tab[m] -= c_std[bv] * tab[i]
    _simplex(tab, basis, width)

    z = np.zeros(width)
    for i, bv in enumerate(basis):
        z[bv] = tab[i, -1]
    return z


def l1_representation(u, v) -> np.ndarray:
    """Minimum-l1 coefficients: argmin ||c||_1 subject to u.T @ c == v.

    Solves min 1^T z over [u.T, -u.T] z = v, z >= 0 (len(v) equality rows,
    2 len(u) columns) and returns c = z+ - z-.  Raises Infeasible when v is
    outside span(u).
    """
    u = as_matrix(u)
    v = np.asarray(v, dtype=np.float64)
    m = u.shape[0]
    a_std = np.hstack([u.T, -u.T])
    b_std = v.copy()
    flip = b_std < 0.0
    a_std[flip] *= -1.0
    b_std[flip] *= -1.0
    z = _two_phase(a_std, b_std, np.ones(2 * m), {})
    return z[:m] - z[m:]


@dataclass
class DominationQuery:
    """Is candidate v already dominated in every direction by the set U?"""

    v: np.ndarray
    spanner_vectors: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=np.float64)
        self.spanner_vectors = as_matrix(self.spanner_vectors) if len(self.spanner_vectors) else \
            np.zeros((0, self.v.shape[0]))
        if self.alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        if len(self.spanner_vectors) and self.spanner_vectors.shape[1] != self.v.shape[0]:
            raise ValueError("dimension mismatch between v and spanner vectors")


@dataclass
class DominationResult:
    status: str                       # "covered" | "witness"
    margin: float                     # optimal t* = max_u |<x, u>|
    witness: np.ndarray | None = field(default=None)

    @property
    def covered(self) -> bool:
        return self.status == "covered"


def cover_threshold(alpha: float) -> float:
    """t* at or above this certifies coverage (relative slack included)."""
    return (1.0 - COVER_SLACK_REL) / math.sqrt(alpha)


def domination_check(query: DominationQuery) -> DominationResult:
    """Solve min t s.t. <x,v> = 1, |<x,u>| <= t for all u in the spanner.

    The polytope {x : <x,v> > sqrt(alpha)|<x,u>| for all u} is nonempty exactly
    when t* < 1/sqrt(alpha); the optimal x is then the strongest witness.
    """
    v = query.v
    us = query.spanner_vectors
    alpha = query.alpha
    nrm2 = float(np.dot(v, v))
    if math.sqrt(nrm2) <= 1e-12:
        raise ZeroVector("candidate vector has (near-)zero norm")
    if len(us) == 0:
        return DominationResult("witness", 0.0, v / nrm2)

    d = v.shape[0]
    nu = us.shape[0]
    c = np.zeros(d + 1)
    c[d] = 1.0
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = v
    b_eq = np.array([1.0])
    a_ub = np.zeros((2 * nu, d + 1))
    a_ub[:nu, :d] = us
    a_ub[nu:, :d] = -us
    a_ub[:, d] = -1.0
    b_ub = np.zeros(2 * nu)
    x_ext, _ = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
    x = x_ext[:d]
    inner = float(np.dot(x, v))
    if inner <= 0.0:  # cannot happen for a correct solve; guard division
        raise RuntimeError("simplex returned an infeasible point")
    x = x / inner
    margin = float(np.max(np.abs(us @ x))) if nu else 0.0
    if margin >= cover_threshold(alpha):
        return DominationResult("covered", margin)
    return DominationResult("witness", margin, x)
