"""Dense real linear algebra kernel.

Jacobi symmetric eigendecomposition of one matrix, the exact powers of two
that bring a vector or a matrix's largest row near unit norm (unit_scale) or
each row's largest entry into [0.5, 1) (row_scales), one Gram-Schmidt step
(deflate: a row is dropped by its own norm) and Gram-Schmidt on it,
projection, det_k, the eigenvalue-tail order check, and a Cholesky factor (of
one matrix, or of a whole stack one column step at a time) with forward
substitution.  The factor has two readers: inv_spd, the one inverse (with
log det) of a positive-definite matrix, and Gram determinants; a stack member
gets the bits of its lone call.
Factorization algorithms are implemented here directly on float64 arrays;
numpy supplies array arithmetic only.  The Jacobi rotations run on Python
floats, entry by entry; numpy validates its input and runs its stop test
once per sweep.

Tolerances are module-level constants; override by assignment before use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EIG_OFFDIAG_REL = 1e-12   # Jacobi stop: off-diagonal Frobenius vs ||A||_F
EIG_SWEEP_CAP = 100       # sweep limit; breaching it is an internal failure
PSD_CLAMP_REL = 1e-8      # eigenvalue clamp window for nominally-PSD input
GS_DROP_REL = 1e-10       # Gram-Schmidt drop rule vs the row's own norm (a sine)
DEFAULT_ORDER_TOL = 1e-9  # default slack for preceq_k
CHOL_PIVOT_REL = 1e-13    # Cholesky fails at a pivot at or below this x its own diagonal


def as_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector has non-finite entries")
    return out


def as_sym_matrix(a) -> np.ndarray:
    """Validate and return an exactly-symmetric float64 copy of the square matrix `a`."""
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size and np.max(np.abs(m - m.T)) > 1e-8 * max(np.max(np.abs(m)), 1.0):
        raise ValueError("matrix is not symmetric")
    # mirror the upper triangle so symmetry is exact bit-for-bit
    return np.where(np.tri(m.shape[0], k=-1, dtype=bool), m.T, m)


def frob_norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.sum(a * a)))


def vec_norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


class EigDecomp(NamedTuple):
    eigenvalues: np.ndarray   # sorted descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues


def sym_eig(a) -> EigDecomp:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps rotate every (p, q) pair in fixed order until the off-diagonal
    Frobenius norm falls below EIG_OFFDIAG_REL * ||A||_F, on A times the exact
    power of two unit_scale(A), so no square overflows or underflows.
    Deterministic; the argument is not changed.
    """
    m = as_sym_matrix(a)
    scale = unit_scale(m)
    m *= scale
    vecs = _jacobi(m)
    w = np.diag(m) / scale
    order = np.argsort(-w, kind="stable")
    return EigDecomp(w[order], vecs[:, order])


def _jacobi(m: np.ndarray) -> np.ndarray:
    """Diagonalize the exactly-symmetric `m` in place; returns the rotations.

    Rotations run on Python floats: row i of `m`, extended by column i of the
    rotation product, is one list, rotated entry by entry (c*a - s*b and
    s*a + c*b).  The sweep test runs in numpy on `m`, which is rewritten from
    the lists after each sweep.
    """
    d = m.shape[0]
    rows = [r + e for r, e in zip(m.tolist(), np.eye(d).tolist())]
    target = EIG_OFFDIAG_REL * frob_norm(m)
    for _ in range(EIG_SWEEP_CAP):
        off = math.sqrt(2.0 * float(np.sum(np.triu(m, k=1) ** 2)))
        if off <= target:
            break
        skip = off / (d * d) * 1e-2  # tiny pivots cannot reduce `off` usefully
        for p in range(d - 1):
            for q in range(p + 1, d):
                rp, rq = rows[p], rows[q]
                apq = rp[q]
                if abs(apq) <= skip:
                    continue
                app, aqq = rp[p], rq[q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # m is exactly symmetric, so rows p and q are also its columns p and q
                newp = [c * a - s * b for a, b in zip(rp, rq)]
                newq = [s * a + c * b for a, b in zip(rp, rq)]
                newp[p], newq[q] = app - t * apq, aqq + t * apq
                newp[q] = newq[p] = 0.0
                rows[p], rows[q] = newp, newq
                for row, x, y in zip(rows, newp, newq):
                    row[p], row[q] = x, y
        m[...] = [r[:d] for r in rows]
    else:  # the cap ran out; the last sweep may still have converged
        if math.sqrt(2.0 * float(np.sum(np.triu(m, k=1) ** 2))) > target:
            raise RuntimeError("Jacobi sweep cap breached; this is an internal failure")
    return np.array([r[d:] for r in rows]).reshape(d, d).T


def _clamped_psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    lam_max = max(float(w[0]), 0.0)
    if float(w[-1]) < -PSD_CLAMP_REL * lam_max - 1e-300:
        raise ValueError(
            f"matrix is not PSD within tolerance (lambda_min={w[-1]:.3e}, "
            f"lambda_max={lam_max:.3e})"
        )
    return np.maximum(w, 0.0)


def det_k(a, k: int) -> float:
    """k-th elementary symmetric polynomial of the eigenvalues of PSD `a`.

    Equals the sum of all k x k principal minors; all terms are nonnegative so
    the one-pass recurrence below has no cancellation.
    """
    w, _ = sym_eig(a)
    d = w.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for dimension {d}")
    lam = _clamped_psd_eigenvalues(w)
    e = np.zeros(k + 1)
    e[0] = 1.0
    for i, x in enumerate(lam):
        top = min(i + 1, k)
        for j in range(top, 0, -1):
            e[j] += x * e[j - 1]
    return float(e[k])


def preceq_k(a, b, k: int, tol: float = DEFAULT_ORDER_TOL) -> bool:
    """A <=_k B: the d-k+1 smallest eigenvalues of B-A sum to >= 0 (within tol)."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    am = as_sym_matrix(a)
    bm = as_sym_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    d = am.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for dimension {d}")
    w, _ = sym_eig(bm - am)
    tail = float(np.sum(w[k - 1:]))
    return tail >= -tol * (1.0 + frob_norm(am) + frob_norm(bm))


def project_orth(v, basis) -> np.ndarray:
    """Component of v orthogonal to the span of an orthonormal basis (rows)."""
    vv = as_vector(v)
    b = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    if b.size == 0:
        return vv.copy()
    return vv - b.T @ (b @ vv)


def unit_scale(x) -> float:
    """The power of two nearest 1/|x| for a vector, 1/(largest row norm) for a
    matrix; 1 for zero input.  Scaling by it is exact.

    The largest row and its norm (math.hypot) are taken on the rows times 2^-e,
    e the exponent of the largest entry, and e is added back: nothing under- or
    overflows on finite input.  The factor is capped at 2^1023 (subnormal input).
    """
    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    e = math.frexp(float(np.abs(a).max(initial=0.0)))[1]
    s = np.ldexp(a, -e)
    if len(s) > 1:
        s = s[(s * s).sum(axis=1).argmax()]
    norm = math.hypot(*s.ravel().tolist())
    return 2.0 ** -max(round(math.log2(norm)) + e, -1023) if norm > 0.0 else 1.0


def row_scales(x) -> np.ndarray:
    """Per row, the power of two that takes its largest entry into [0.5, 1), at most 2^1022."""
    top = np.abs(np.atleast_2d(np.asarray(x, dtype=np.float64))).max(axis=1, initial=0.0)
    return np.ldexp(1.0, -np.maximum(np.frexp(top)[1], -1022))


def deflate(resid: np.ndarray, basis: list[np.ndarray], j: int, norm: float) -> bool:
    """One Gram-Schmidt step, in place: row j of `resid` (residuals against
    the frame `basis`) gets a second pass against it and is kept when its
    residual is above GS_DROP_REL * `norm`, its own norm before any step: the
    sine of the row to the span before it.  A kept row's unit vector joins
    `basis` and is taken out of every row of `resid`.  Returns whether it was.
    """
    r = resid[j]
    b = np.array(basis).reshape(len(basis), len(r))
    r -= (b @ r) @ b
    rn = vec_norm(r)
    if not rn > GS_DROP_REL * norm:
        return False
    unit = r / rn
    resid -= np.outer(resid @ unit, unit)
    basis.append(unit)
    return True


def gram_schmidt(vs) -> np.ndarray:
    """Orthonormal rows spanning the rows of `vs`: one deflate step per row in
    order, on the rows times row_scales(vs); a row is dropped by its own norm."""
    x = np.atleast_2d(np.asarray(vs, dtype=np.float64))
    resid = row_scales(x)[:, None] * x
    basis: list[np.ndarray] = []
    for j, norm in enumerate(np.sqrt(np.einsum("ij,ij->i", resid, resid))):
        deflate(resid, basis, j, float(norm))
    return np.array(basis).reshape(len(basis), x.shape[1])


# -- Cholesky helpers (internal fast paths; PSD input assumed) --------------

def cholesky_spd(a) -> np.ndarray | None:
    """Lower Cholesky factor of a positive-definite matrix, or of each matrix
    of a stack (b, k, k), one column step at a time across the stack.

    A matrix fails at a pivot at or below CHOL_PIVOT_REL * its own diagonal
    entry (for a Gram, the squared sine of a row to the span of the rows
    before it, so row scales do not matter): a lone matrix then gives None, a
    member of a stack an all-zero factor.  A lone matrix runs the same steps
    and gets the bits it would get in any stack.
    """
    m = np.asarray(a, dtype=np.float64)
    d = m.shape[-1]
    low = np.zeros_like(m)
    pivots = np.empty(m.shape[:-1])
    with np.errstate(invalid="ignore", divide="ignore"):  # failed rows are discarded
        for j in range(d):
            row_t = low[..., j, :j, None]
            s = pivots[..., j] = m[..., j, j] - (row_t.swapaxes(-1, -2) @ row_t)[..., 0, 0]
            piv = low[..., j, j] = np.sqrt(s)
            if j + 1 < d:
                low[..., j + 1:, j] = ((m[..., j + 1:, j] - (low[..., j + 1:, :j] @ row_t)[..., 0])
                                       / piv[..., None])
    ok = np.all(pivots > CHOL_PIVOT_REL * np.diagonal(m, axis1=-2, axis2=-1), axis=-1)
    if m.ndim == 2:
        return low if ok else None
    low[~ok] = 0.0
    return low


def solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution, L y = b (b may be a matrix)."""
    y = np.array(b, dtype=np.float64)
    for i in range(low.shape[0]):  # the first row's empty dot is an exact 0
        y[i] = (y[i] - low[i, :i] @ y[:i]) / low[i, i]
    return y


def inv_spd(a) -> tuple[np.ndarray, float] | None:
    """(A^-1, log det A) of a positive-definite matrix from its Cholesky factor
    L: A^-1 = L^-T L^-1, L^-1 by forward substitution; None exactly when
    cholesky_spd has no factor."""
    if (low := cholesky_spd(a)) is None:
        return None
    low_inv = solve_lower(low, np.eye(len(low)))
    return low_inv.T @ low_inv, 2.0 * float(np.sum(np.log(np.diag(low))))


def det_gram(g) -> float | np.ndarray:
    """Determinant of a PSD Gram matrix, or of each matrix in a stack of shape
    (b, k, k); 0.0 where numerically singular."""
    m = np.asarray(g, dtype=np.float64)
    low = cholesky_spd(m if m.ndim == 3 else m[None])
    # float_power is libm pow, as Python's float ** 2 is; squaring can differ by an ulp
    dets = np.float_power(np.prod(np.diagonal(low, axis1=1, axis2=2), axis=1), 2.0)
    return dets if m.ndim == 3 else float(dets[0])

