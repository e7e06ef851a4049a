"""Small dense linear programming for directional domination and coverage.

One kernel, `solve_lp`, runs a two-phase tableau simplex with Bland's
anti-cycling rule on a standard-form LP (min c @ z with a @ z = b, z >= 0).
Two LPs are built on it: the directional-domination check (min t with
<x,v> = 1 and |<x,u>| <= t, x and t split into nonnegative parts) and its
dual, the minimum-l1 representation of v over U, whose norm is 1/t*.  The
domination check scales v and U by the power of two that takes |v| nearest
1; the l1 LP scales v by its own such power and each row of U by the power
of two of its largest entry.  Scaling is exact, so the kernel's absolute
tolerances see the same problem at every input scale and row norms many
orders apart.  Sized for desk-scale problems, deterministic by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
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
        _pivot(tableau, basis, leave, enter)
    raise RuntimeError("simplex pivot cap breached; this is an internal failure")


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Make column `col` basic in `row`."""
    tableau[row] /= tableau[row, col]
    entries = tableau[:, col].copy()
    entries[row] = 0.0
    tableau -= np.outer(entries, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def solve_lp(a, b, c, ready: dict[int, int]) -> np.ndarray:
    """Minimize c @ z subject to a @ z == b and z >= 0; returns the optimal z.

    Rows with b < 0 are negated first.  `ready` maps a row to a column holding
    a unit entry in that row only, usable as a ready basic variable; every
    other row gets an artificial.  Rows found redundant in phase 1 are
    dropped.  Raises Infeasible or Unbounded.
    """
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0
    m, width = a.shape
    # Phase 1: artificials wherever the row has no ready identity column.
    basis = [ready.get(i, -1) for i in range(m)]
    art_rows = [i for i in range(m) if basis[i] < 0 or a[i, basis[i]] != 1.0]
    tab = np.zeros((m + 1, width + len(art_rows) + 1))
    tab[:m, :width] = a
    tab[:m, -1] = b
    for j, i in enumerate(art_rows, start=width):
        tab[i, j] = tab[m, j] = 1.0
        basis[i] = j
    if art_rows:
        for i in art_rows:
            tab[m] -= tab[i]
        _simplex(tab, basis, tab.shape[1] - 1)
        if -tab[m, -1] > PHASE1_TOL * (1.0 + float(np.max(np.abs(b)))):
            raise Infeasible("phase-1 optimum is positive")
        # drive leftover artificials out of the basis; drop redundant rows
        keep = []
        for i in range(m):
            if basis[i] >= width:
                pivots = np.flatnonzero(np.abs(tab[i, :width]) > PIVOT_EPS)
                if len(pivots) == 0:
                    continue
                _pivot(tab, basis, i, int(pivots[0]))
            keep.append(i)
        tab = np.hstack([tab[keep + [m], :width], tab[keep + [m], -1:]])
        basis = [basis[i] for i in keep]
        m = len(keep)

    # Phase 2 objective row: reduced costs.
    tab[m, :width] = c
    tab[m, -1] = 0.0
    for i, bv in enumerate(basis):
        if c[bv] != 0.0:
            tab[m] -= c[bv] * tab[i]
    _simplex(tab, basis, width)

    z = np.zeros(width)
    for i, bv in enumerate(basis):
        z[bv] = tab[i, -1]
    return z


def l1_representation(u, v) -> np.ndarray:
    """Minimum-l1 coefficients: argmin ||c||_1 subject to u.T @ c == v.

    Row u_j enters the tableau times s_j = linalg.row_scales(u)[j], the power
    of two that takes its largest entry into [0.5, 1), and v times
    s_v = unit_scale(v), so every row is near unit size however far apart
    the norms are; c = s (z+ - z-) / s_v, and the costs of z are s_j / min s:
    exact powers of two, the least 1, so the longest rows, which carry most
    of a representation, are not priced below the simplex's absolute
    tolerances.  Raises Infeasible for v outside span(u).
    """
    u = as_matrix(u)
    v = np.asarray(v, dtype=np.float64)
    s = linalg.row_scales(u)
    s_v = linalg.unit_scale(v)
    ut = (s[:, None] * u).T
    w = s / s.min(initial=math.inf)
    m = u.shape[0]
    z = solve_lp(np.hstack([ut, -ut]), s_v * v, np.concatenate([w, w]), {})
    return (z[:m] - z[m:]) * s / s_v


@dataclass
class DominationResult:
    status: str                       # "covered" | "witness"
    margin: float                     # optimal t* = max_u |<x, u>|
    witness: np.ndarray | None = field(default=None)

    @property
    def covered(self) -> bool:
        return self.status == "covered"


def check_alpha(alpha: float) -> None:
    """The one alpha rule of every public entry point: 1 <= alpha < inf."""
    if not 1.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 1")


def cover_threshold(alpha: float) -> float:
    """t* at or above this certifies coverage (relative slack included)."""
    return (1.0 - COVER_SLACK_REL) / math.sqrt(alpha)


def domination_check(v, spanner_vectors, alpha: float) -> DominationResult:
    """Solve min t s.t. <x,v> = 1, |<x,u>| <= t for all u in the spanner.

    The polytope {x : <x,v> > sqrt(alpha)|<x,u>| for all u} is nonempty exactly
    when t* < 1/sqrt(alpha); the optimal x is then the strongest witness.
    """
    check_alpha(alpha)
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    us = as_matrix(spanner_vectors) if len(spanner_vectors) else np.zeros((0, d))
    if us.shape[1] != d:
        raise ValueError("dimension mismatch between v and spanner vectors")
    if not np.any(v):
        raise ZeroVector("candidate vector is zero")
    # t* is scale-free and x scales inversely, so solve at |v| ~ 1
    scale = linalg.unit_scale(v)
    v = scale * v
    us = scale * us
    if len(us) == 0:
        return DominationResult("witness", 0.0, v / float(np.dot(v, v)) * scale)

    # Columns x+, t+, x-, t-, then one slack per row <x,u> - t <= 0 and
    # -<x,u> - t <= 0; row 0 is <x,v> = 1.
    nu = us.shape[0]
    half = np.zeros((1 + 2 * nu, d + 1))
    half[0, :d] = v
    half[1:nu + 1, :d] = us
    half[nu + 1:, :d] = -us
    half[1:, d] = -1.0
    a = np.hstack([half, -half, np.vstack([np.zeros(2 * nu), np.eye(2 * nu)])])
    b = np.zeros(1 + 2 * nu)
    b[0] = 1.0
    c = np.zeros(a.shape[1])
    c[d] = 1.0
    c[2 * d + 1] = -1.0
    try:
        z = solve_lp(a, b, c, {i: 2 * d + 1 + i for i in range(1, 2 * nu + 1)})
    except (Infeasible, Unbounded):
        # A numerical failure: the LP is bounded (t >= 0) and feasible (v != 0).
        res = _settle_failed_solve(v, us, alpha)
        if res is None:
            raise
    else:
        x = z[:d] - z[d + 1:2 * d + 1]
        inner = float(np.dot(x, v))
        if inner <= 0.0:  # cannot happen for a correct solve; guard division
            raise RuntimeError("simplex returned an infeasible point")
        x = x / inner
        margin = float(np.max(np.abs(us @ x)))
        res = (DominationResult("covered", margin) if margin >= cover_threshold(alpha)
               else DominationResult("witness", margin, x))
    if res.witness is not None:
        res.witness = res.witness * scale
    return res


def _settle_failed_solve(v: np.ndarray, us: np.ndarray,
                         alpha: float) -> DominationResult | None:
    """The answer to a query whose simplex failed, or None when unsettled.

    Out of span(U), v's residual r against U's frame gives the feasible point
    x = r/<r,v>; its margin is measured, not assumed.  Otherwise the l1 LP in
    the frame gives t* = 1/||c||_1, which settles a covered query; a witness
    would need that LP's dual.
    """
    basis = linalg.gram_schmidt(us)
    r = linalg.project_orth(v, basis)
    rv = float(np.dot(r, v))
    margin = float(np.max(np.abs(us @ r))) / rv if rv > 0.0 else math.inf
    threshold = cover_threshold(alpha)
    if margin < threshold:
        return DominationResult("witness", margin, r / rv)
    try:
        c = l1_representation(us @ basis.T, basis @ v)
    except (Infeasible, Unbounded):
        return None
    margin = 1.0 / float(np.sum(np.abs(c)))
    return DominationResult("covered", margin) if margin >= threshold else None
