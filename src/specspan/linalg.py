"""Dense real linear algebra kernel.

Jacobi symmetric eigendecomposition (of one matrix, or of a whole stack one
rotation at a time), Gram-Schmidt, orthogonal projection, the
elementary-symmetric determinant det_k, the eigenvalue-tail order check
between symmetric matrices, and a Cholesky factor (of one matrix, or of a
whole stack one column step at a time) with solves and Gram determinants for
positive-definite systems; a stack member gets the bits of its lone call.
Factorization algorithms are implemented here directly on float64 arrays;
numpy supplies array arithmetic only.

Tolerances are module-level constants; override by assignment before use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EIG_OFFDIAG_REL = 1e-12   # Jacobi stop: off-diagonal Frobenius vs ||A||_F
EIG_SWEEP_CAP = 100       # sweep limit; breaching it is an internal failure
PSD_CLAMP_REL = 1e-8      # eigenvalue clamp window for nominally-PSD input
GS_DROP_REL = 1e-10       # Gram-Schmidt drop rule vs max input norm
DEFAULT_ORDER_TOL = 1e-9  # default slack for preceq_k


def as_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector has non-finite entries")
    return out


def as_sym_matrix(a, stack: bool = False) -> np.ndarray:
    """Validate and return an exactly-symmetric float64 copy of `a`, a square
    matrix or, with `stack`, a stack (b, d, d) of them."""
    m = np.array(a, dtype=np.float64)
    if m.ndim != 2 + stack or m.shape[-1] != m.shape[-2]:
        kind = "a stack (b, d, d) of square matrices" if stack else "a square matrix"
        raise ValueError(f"expected {kind}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if m.size:
        scale = np.max(np.abs(m), axis=(-2, -1))
        skew = np.max(np.abs(m - m.swapaxes(-1, -2)), axis=(-2, -1))
        if np.any(skew > 1e-8 * np.maximum(scale, 1.0)):
            raise ValueError("matrix is not symmetric")
    # mirror the upper triangle so symmetry is exact bit-for-bit
    iu = np.triu_indices(m.shape[-1], k=1)
    m[..., iu[1], iu[0]] = m[..., iu[0], iu[1]]
    return m


def frob_norm(a: np.ndarray) -> float:
    return math.sqrt(float(np.sum(a * a)))


def vec_norm(v: np.ndarray) -> float:
    return math.sqrt(float(np.dot(v, v)))


class EigDecomp(NamedTuple):
    eigenvalues: np.ndarray   # sorted descending
    eigenvectors: np.ndarray  # orthonormal columns, aligned with eigenvalues


def sym_eig(a) -> EigDecomp:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix, or of each
    matrix of a stack (b, d, d).

    Sweeps rotate every (p, q) pair in fixed order until the off-diagonal
    Frobenius norm falls below EIG_OFFDIAG_REL * ||A||_F.  Deterministic.  A
    stack runs the same sweeps over all its members at once (eigenvalues
    (b, d), eigenvectors (b, d, d)); each member gets the bits of its lone call.
    """
    if np.ndim(a) == 3:
        m = as_sym_matrix(a, stack=True)
        vecs = _jacobi_stack(m)
    else:
        m = as_sym_matrix(a)
        vecs = _jacobi(m)
    w = np.diagonal(m, axis1=-2, axis2=-1).copy()
    order = np.argsort(-w, axis=-1, kind="stable")
    return EigDecomp(np.take_along_axis(w, order, axis=-1),
                     np.take_along_axis(vecs, order[..., None, :], axis=-1))


def _jacobi(m: np.ndarray) -> np.ndarray:
    """Diagonalize the exactly-symmetric `m` in place; returns the rotations."""
    d = m.shape[0]
    vecs = np.eye(d)
    target = EIG_OFFDIAG_REL * frob_norm(m)
    for _ in range(EIG_SWEEP_CAP):
        off = math.sqrt(2.0 * float(np.sum(np.triu(m, k=1) ** 2)))
        if off <= target:
            return vecs
        skip = off / (d * d) * 1e-2  # tiny pivots cannot reduce `off` usefully
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = m[p, p], m[q, q]
                tau = (aqq - app) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                colp = m[:, p].copy()
                colq = m[:, q].copy()
                # m is exactly symmetric, so the row pass equals the column pass
                m[:, p] = m[p, :] = c * colp - s * colq
                m[:, q] = m[q, :] = s * colp + c * colq
                m[p, p] = app - t * apq
                m[q, q] = aqq + t * apq
                m[p, q] = 0.0
                m[q, p] = 0.0
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - s * vq
                vecs[:, q] = s * vp + c * vq
    if math.sqrt(2.0 * float(np.sum(np.triu(m, k=1) ** 2))) > target:
        raise RuntimeError("Jacobi sweep cap breached; this is an internal failure")
    return vecs


def _jacobi_stack(m: np.ndarray) -> np.ndarray:
    """_jacobi over a stack (b, d, d), one rotation at a time across the
    members that take it; a converged or skipped member is not touched."""
    b, d = m.shape[0], m.shape[-1]
    vecs = np.broadcast_to(np.eye(d), m.shape).copy()

    def off_norms() -> np.ndarray:
        # summed over each member's d*d entries, as np.sum does for a lone matrix
        return np.sqrt(2.0 * np.sum((np.triu(m, k=1) ** 2).reshape(b, d * d), axis=1))

    target = EIG_OFFDIAG_REL * np.sqrt(np.sum((m * m).reshape(b, d * d), axis=1))
    live = np.ones(b, dtype=bool)
    for _ in range(EIG_SWEEP_CAP):
        off = off_norms()
        live &= off > target
        if not live.any():
            return vecs
        skip = off / (d * d) * 1e-2
        for p in range(d - 1):
            for q in range(p + 1, d):
                sel = np.flatnonzero(live & (np.abs(m[:, p, q]) > skip))
                if not sel.size:
                    continue
                apq, app, aqq = m[sel, p, q], m[sel, p, p], m[sel, q, q]  # copies
                with np.errstate(over="ignore"):  # tau * tau -> inf, as with Python floats
                    tau = (aqq - app) / (2.0 * apq)
                    # _jacobi's two branches in one: -1/x is -(1/x) exactly
                    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                c_, s_ = c[:, None], s[:, None]
                colp, colq = m[sel, :, p], m[sel, :, q]
                m[sel, :, p] = m[sel, p, :] = c_ * colp - s_ * colq
                m[sel, :, q] = m[sel, q, :] = s_ * colp + c_ * colq
                m[sel, p, p] = app - t * apq
                m[sel, q, q] = aqq + t * apq
                m[sel, p, q] = 0.0
                m[sel, q, p] = 0.0
                vp, vq = vecs[sel, :, p], vecs[sel, :, q]
                vecs[sel, :, p] = c_ * vp - s_ * vq
                vecs[sel, :, q] = s_ * vp + c_ * vq
    if np.any(live & (off_norms() > target)):
        raise RuntimeError("Jacobi sweep cap breached; this is an internal failure")
    return vecs


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


def gram_schmidt(vs) -> np.ndarray:
    """Orthonormalize rows of `vs`; near-dependent vectors are dropped.

    Modified Gram-Schmidt with one re-orthogonalization pass.  A vector whose
    residual norm is <= GS_DROP_REL * (max input norm) is dropped.
    """
    x = np.atleast_2d(np.asarray(vs, dtype=np.float64))
    if x.size == 0:
        return np.zeros((0, x.shape[1] if x.ndim == 2 else 0))
    max_norm = max(vec_norm(row) for row in x)
    if max_norm == 0.0:
        return np.zeros((0, x.shape[1]))
    basis: list[np.ndarray] = []
    for row in x:
        r = row.astype(np.float64, copy=True)
        for _ in range(2):
            for b in basis:
                r -= np.dot(r, b) * b
        nrm = vec_norm(r)
        if nrm > GS_DROP_REL * max_norm:
            basis.append(r / nrm)
    if not basis:
        return np.zeros((0, x.shape[1]))
    return np.array(basis)


# -- Cholesky helpers (internal fast paths; PSD input assumed) --------------

def cholesky_spd(a, rel_tol: float = 1e-13) -> np.ndarray | None:
    """Lower Cholesky factor of a positive-definite matrix, or of each matrix
    of a stack (b, k, k), one column step at a time across the stack.

    A matrix fails when a pivot falls at or below rel_tol * its max diagonal,
    which doubles as a singular/indefinite detector for Gram matrices: a lone
    matrix then gives None, a member of a stack an all-zero factor.  A lone
    matrix runs the same steps and gets the bits it would get in any stack.
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
    diag_max = np.diagonal(m, axis1=-2, axis2=-1).max(axis=-1, initial=0.0)
    ok = pivots.min(axis=-1, initial=np.inf) > rel_tol * diag_max
    if m.ndim == 2:
        return low if ok else None
    low[~ok] = 0.0
    return low


def solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution, L y = b (b may be a matrix)."""
    d = low.shape[0]
    y = np.array(b, dtype=np.float64)
    for i in range(d):
        if i:
            y[i] -= low[i, :i] @ y[:i]
        y[i] /= low[i, i]
    return y


def solve_spd(a, b, low: np.ndarray | None = None) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A with Cholesky factor `low`."""
    if low is None:
        low = cholesky_spd(a)
    if low is None:
        raise ValueError("matrix is not positive definite")
    y = solve_lower(low, b)
    d = low.shape[0]
    x = y
    for i in range(d - 1, -1, -1):
        if i + 1 < d:
            x[i] -= low[i + 1:, i] @ x[i + 1:]
        x[i] /= low[i, i]
    return x


def inv_spd(a, low: np.ndarray | None = None) -> np.ndarray:
    return solve_spd(a, np.eye(np.asarray(a).shape[0]), low)


def det_gram(g) -> float | np.ndarray:
    """Determinant of a PSD Gram matrix, or of each matrix in a stack of shape
    (b, k, k); 0.0 where numerically singular."""
    m = np.asarray(g, dtype=np.float64)
    low = cholesky_spd(m if m.ndim == 3 else m[None])
    # float_power is libm pow, as Python's float ** 2 is; squaring can differ by an ulp
    dets = np.float_power(np.prod(np.diagonal(low, axis1=1, axis2=2), axis=1), 2.0)
    return dets if m.ndim == 3 else float(dets[0])


def logdet_spd(low: np.ndarray | None) -> float:
    """log det A from A's Cholesky factor `low`; -inf when the factor failed (None)."""
    if low is None:
        return -math.inf
    return 2.0 * float(np.sum(np.log(np.diag(low))))
