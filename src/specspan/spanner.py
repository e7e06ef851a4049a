"""Spectral spanner construction and verification.

The greedy build repeatedly finds a vector whose squared projection along some
direction beats every chosen vector by a factor alpha, then adds the input
vector with the largest projection along that direction.  It keeps one span
frame per build, which its coverage screen reads.  Every verifier settles
coverage by one minimum-l1 representation of v over U (Elfving's theorem),
with its own span frame of U computed once per call: the per-direction (weak)
property, exact per-vector certificates, and the k-order variant that mixes a
volume-greedy stage with a spanner built in the projected frame.  One
scale-free rule decides which rows are zero, for the build and every verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .lp import Infeasible, check_alpha, cover_threshold, domination_check, l1_representation
from .vectorset import VectorSet, as_matrix, as_vector_set

ZERO_NORM_REL = 1e-12        # a row this far below the largest row norm is zero
SCREEN_SLACK = 1e-6          # safety margin of the l1 coverage pre-screen
SPAN_RESIDUAL_REL = 1e-9     # in-span test for the pre-screen
NOT_IN_SPAN_REL = 1e-7
DOMINANCE_TOL = 1e-9

STAGE_VOLUME = "volume_greedy"
STAGE_DSPANNER = "d_spanner"


class NotInSpan(Exception):
    """Target vector has a significant component outside span(U)."""


@dataclass
class SpannerParams:
    """Build parameters; alpha defaults to alpha_scale * dim * (1 + ln dim)^2."""

    alpha: float | None = None
    alpha_scale: float = 1.0

    def resolve_alpha(self, dim: int) -> float:
        if self.alpha is not None:
            check_alpha(self.alpha)
            return float(self.alpha)
        if not 0.0 <= self.alpha_scale < math.inf:
            raise ValueError("alpha_scale must be finite and >= 0")
        return max(1.0, self.alpha_scale * dim * (1.0 + math.log(max(dim, 1))) ** 2)

    def resolve_m(self, k: int, dim: int) -> int:
        # 2k(1 + ceil(log2(k+1))) keeps m^(2k/m) <= 4; bit_length is the exact ceil
        return min(dim, 2 * k * (1 + k.bit_length()))


@dataclass
class Spanner:
    """A built spanner; each fact is stored once.  The d-stage trace keeps
    every d-stage pick with its witness (ambient frame), also a pick that
    repeats a volume pick, which `indices` lists once."""

    indices: list[int]                     # original labels, selection order
    vectors: np.ndarray                    # aligned (size, d) selected vectors
    stage_tags: list[str]                  # aligned; STAGE_VOLUME or STAGE_DSPANNER
    alpha: float                           # alpha used by the d-spanner stage
    dspanner_vectors: np.ndarray           # full d-stage pick trace
    dspanner_witnesses: np.ndarray         # aligned witnesses (ambient frame)

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class CoverageCertificate:
    """Distribution over spanner vectors dominating one input vector."""

    vector_index: int
    support: list[tuple[int, float]]       # (spanner label, probability)
    delta: float
    status: str = "pass"                   # "pass" | "fail"

    def passes(self, alpha: float) -> bool:
        """The coverage rule of every verifier: delta = 1/||c||_1^2 against
        cover_threshold(alpha)^2."""
        return self.delta >= cover_threshold(alpha) ** 2


def _nonzero_rows(x: np.ndarray) -> np.ndarray:
    """Mask of the rows above ZERO_NORM_REL times the largest row norm.

    Norms are taken on the rows scaled by linalg.unit_scale, so no square
    underflows or overflows.  A row of subnormal norm is zero: its witness
    would overflow.
    """
    scale = linalg.unit_scale(x)
    norms = np.sqrt(np.einsum("ij,ij->i", scale * x, scale * x))
    top = float(norms.max(initial=0.0))
    return norms > max(ZERO_NORM_REL * top, np.finfo(np.float64).tiny * scale)


def _ingest(vs) -> tuple[np.ndarray, np.ndarray]:
    """Drop (near-)zero vectors and exact duplicates, keeping lowest labels."""
    v = as_vector_set(vs)
    if len(v) == 0:
        raise ValueError("empty vector set")
    x = v.vectors
    keep = _nonzero_rows(x)
    if not keep.any():
        raise ValueError("vector set is all zeros")
    seen: dict[bytes, int] = {}
    positions: list[int] = []
    for i in np.flatnonzero(keep):
        key = x[i].tobytes()
        if key not in seen:
            seen[key] = i
            positions.append(int(i))
    return x[positions], v.labels[positions]


def _coverage_screen(x: np.ndarray, u: np.ndarray, basis: np.ndarray,
                     alpha: float) -> np.ndarray:
    """Rows of x certified covered by a cheap l1-representation bound.

    By LP duality t*(v, U) = 1 / min{sum |c| : sum c_u u = v}, so any
    representation with small enough l1 norm certifies coverage without
    touching the LP.  The min-l2 representation comes from the build's frame
    `basis` B (orthonormal rows spanning U), where U has full column rank r:
    C = (X B^T) G^-1 Ut^T with Ut = U B^T and G^-1 the linalg.inv_spd of the
    r x r Ut^T Ut.  Soundness rests on the residual and l1 tests of the
    returned C alone; a poor frame certifies nothing and leaves every row to
    the LP.  Conservative near the threshold.
    """
    ut = u @ basis.T
    if (found := linalg.inv_spd(ut.T @ ut)) is None:
        return np.zeros(x.shape[0], dtype=bool)
    coeffs = (x @ basis.T) @ found[0] @ ut.T
    resid = coeffs @ u - x
    x_norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    r_norms = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    in_span = r_norms <= SPAN_RESIDUAL_REL * x_norms
    l1 = np.sum(np.abs(coeffs), axis=1)
    return in_span & (l1 <= math.sqrt(alpha) * (1.0 - SCREEN_SLACK))


def build_d_spanner(vs, alpha: float, max_size: int | None = None) -> Spanner:
    """Greedy spectral spanner for the full-dimensional order.

    Scans the input from index 0, adds argmax_u <u, x>^2 for the witness
    direction x of the first uncovered vector, and rescans until every vector
    is covered.  Coverage is monotone in U, so a covered vector is never
    tested again.  One span frame serves the build: one linalg.deflate step
    per pick, in pick order, keeps the rows' residuals against span(U) and an
    orthonormal basis of span(U).  A cheap
    dual-feasibility screen reads that basis and sees only the uncovered rows
    whose residual is at most NOT_IN_SPAN_REL of the row: no other row can
    pass it.  The LP gives every row the screen leaves the verdict the screen
    would, so the screen moves no pick.  The rows are scaled by one power of
    two (linalg.unit_scale), which is exact and leaves every pick; the
    witnesses are scaled back.
    """
    check_alpha(alpha)
    x, labels = _ingest(vs)
    n, d = x.shape
    scale = linalg.unit_scale(x)
    xs = scale * x
    norms = np.sqrt(np.einsum("ij,ij->i", xs, xs))
    resid = xs.copy()
    basis: list[np.ndarray] = []  # orthonormal rows spanning span(U)
    covered = np.zeros(n, dtype=bool)
    picks: list[int] = []
    wits: list[np.ndarray] = []
    while max_size is None or len(picks) < max_size:
        in_span = ~covered & (np.sqrt(np.einsum("ij,ij->i", resid, resid))
                              <= NOT_IN_SPAN_REL * norms)
        if in_span.any():
            covered[in_span] = _coverage_screen(xs[in_span], xs[picks],
                                                np.array(basis), alpha)
        for i in np.flatnonzero(~covered):
            res = domination_check(xs[i], xs[picks], alpha)
            if res.covered:
                covered[i] = True
                continue
            j = int(np.argmax((xs @ res.witness) ** 2))
            picks.append(j)
            wits.append(scale * res.witness)
            covered[j] = True  # a member of U always has t* >= 1 >= 1/sqrt(alpha)
            linalg.deflate(resid, basis, j, float(norms[j]))
            break
        else:
            break

    sp = Spanner(
        indices=[int(labels[j]) for j in picks],
        vectors=x[picks],
        stage_tags=[STAGE_DSPANNER] * len(picks),
        alpha=float(alpha),
        dspanner_vectors=x[picks],
        dspanner_witnesses=np.array(wits).reshape(-1, d),
    )
    ok, worst = check_witness_dominance(sp)
    if not ok:
        raise RuntimeError(f"witness diagonal dominance violated (slack {worst:.3e})")
    return sp


def check_witness_dominance(sp: Spanner, tol: float = DOMINANCE_TOL) -> tuple[bool, float]:
    """|<u_j, x_i>| <= |<u_i, x_i>|/sqrt(alpha) for all j < i over d-stage picks."""
    u = sp.dspanner_vectors
    slacks, ok = [], True
    for i in range(1, len(u)):
        xi = sp.dspanner_witnesses[i]
        bound = abs(float(u[i] @ xi)) / math.sqrt(sp.alpha)
        slacks.append(float(np.max(np.abs(u[:i] @ xi))) - bound)
        ok = ok and not slacks[-1] > tol * max(1.0, bound)
    return ok, max(slacks, default=0.0)


def verify_weak(vs, sp, alpha: float) -> tuple[bool, tuple[int, np.ndarray] | None]:
    """Check every input vector is dominated in every direction.

    A vector is covered when its minimum-l1 representation over U has norm
    at most 1/cover_threshold(alpha): by LP duality domination_check's
    t* = 1/||c||_1, so the threshold is the same.  Any other vector goes to
    domination_check, which settles it and supplies the witness.  Returns
    (True, None) or (False, (label, x)) for the first violating vector and
    its witness direction.
    """
    check_alpha(alpha)
    v = as_vector_set(vs)
    u = sp.vectors if isinstance(sp, Spanner) else as_matrix(sp)
    x = v.vectors
    coefficients = _certifier(u)
    limit = 1.0 / cover_threshold(alpha)
    for i in np.flatnonzero(_nonzero_rows(x)):
        try:
            if float(np.sum(coefficients(x[i]))) <= limit:
                continue
        except NotInSpan:
            pass
        res = domination_check(x[i], u, alpha)
        if not res.covered:
            return False, (int(v.labels[i]), res.witness)
    return True, None


def _certifier(u: np.ndarray):
    """|c| of the minimum-l1 representation U^T c = v, for any v.

    U's span frame and its exact-member map are computed once.  An exact
    member of U gets a point mass on its first copy; anything else gets the
    l1 LP in the frame, where U has full rank.  Raises NotInSpan.
    """
    basis = linalg.gram_schmidt(u)
    ut = u @ basis.T
    first: dict[bytes, int] = {}
    for j, row in enumerate(u + 0.0):  # + 0.0 makes -0.0 and 0.0 one key
        first.setdefault(row.tobytes(), j)

    def coefficients(v: np.ndarray) -> np.ndarray:
        c = np.zeros(len(u))
        j = first.get((v + 0.0).tobytes())
        if j is not None:
            c[j] = 1.0
            return c
        vt = basis @ v
        scale = linalg.unit_scale(v)  # the residual test is scale-free
        resid = scale * (v - basis.T @ vt)
        if linalg.vec_norm(resid) > NOT_IN_SPAN_REL * linalg.vec_norm(scale * v):
            raise NotInSpan("vector has a component outside span(U)")
        try:
            return np.abs(l1_representation(ut, vt))
        except Infeasible as exc:
            raise NotInSpan("no representation of the vector over U") from exc
    return coefficients


def _certificate(c: np.ndarray, alpha: float, vector_index: int = -1,
                 labels=None) -> CoverageCertificate:
    """The certificate p_j = c_j / ||c||_1 of the coefficient magnitudes c."""
    labels = range(len(c)) if labels is None else labels
    l1 = float(np.sum(c))
    delta = min(1.0, 1.0 / l1 ** 2)
    support = [(labels[j], float(c[j] / l1)) for j in np.flatnonzero(c)]
    cert = CoverageCertificate(vector_index, support, delta)
    cert.status = "pass" if cert.passes(alpha) else "fail"
    return cert


def strong_certificate(v, spanner_vectors, alpha: float,
                       vector_index: int = -1,
                       labels=None) -> CoverageCertificate:
    """Optimal distribution mu on U with delta * vv^T <= E_mu[uu^T], exactly.

    By Elfving's theorem, min_mu v^T M(mu)^+ v = ||c||_1^2 for the minimum-l1
    representation U^T c = v, attained at p_j = |c_j| / ||c||_1; for that p
    Cauchy-Schwarz gives delta = 1/||c||_1^2 (capped at 1).  The support
    lists the spanner vectors with p_j > 0; an exact member of U gets a point
    mass on its first copy, and v = 0 the uniform distribution.  Status is
    "pass" when delta >= cover_threshold(alpha)^2, the rule of every verifier,
    and "fail" otherwise.
    """
    check_alpha(alpha)
    u = as_matrix(spanner_vectors)
    if len(u) == 0:
        raise NotInSpan("empty spanner cannot certify anything")
    v = np.asarray(v, dtype=np.float64)
    if not np.any(v):
        p = np.full(len(u), 1.0 / len(u))
        labels = range(len(u)) if labels is None else labels
        return CoverageCertificate(vector_index, list(zip(labels, p.tolist())), 1.0, "pass")
    return _certificate(_certifier(u)(v), alpha, vector_index, labels)


def certify_all(vs, sp: Spanner, alpha: float) -> list[CoverageCertificate]:
    """strong_certificate over the spanner of every row the build keeps."""
    check_alpha(alpha)
    v = as_vector_set(vs)
    coefficients = _certifier(sp.vectors)
    return [_certificate(coefficients(v.vectors[i]), alpha, int(v.labels[i]), sp.indices)
            for i in np.flatnonzero(_nonzero_rows(v.vectors))]


def volume_greedy(vs, m: int) -> Spanner:
    """Greedy volume maximization: repeatedly take the largest residual norm.

    One linalg.deflate step per pick, in greedy order; rows within its drop
    rule are skipped, and the greedy stops when none is left (rank).  Ties
    break to the lowest index at relative tolerance 1e-9.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    v = as_vector_set(vs)
    resid = linalg.unit_scale(v.vectors) * v.vectors  # exact; keeps every pick
    norms = np.sqrt(np.einsum("ij,ij->i", resid, resid))
    basis: list[np.ndarray] = []
    picks: list[int] = []
    while len(picks) < m:
        rn = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        rn[rn <= linalg.GS_DROP_REL * norms] = 0.0
        if not rn.any():
            break
        j = int(np.argmax(rn >= rn.max() * (1.0 - 1e-9)))
        if linalg.deflate(resid, basis, j, float(norms[j])):
            picks.append(j)
    return Spanner(
        indices=[int(v.labels[j]) for j in picks],
        vectors=v.vectors[picks],
        stage_tags=[STAGE_VOLUME] * len(picks),
        alpha=1.0,
        dspanner_vectors=np.zeros((0, v.dim)),
        dspanner_witnesses=np.zeros((0, v.dim)),
    )


def build_k_spanner(vs, k: int, params: SpannerParams | None = None,
                    max_size: int | None = None) -> Spanner:
    """Spanner for the k-order: volume-greedy stage plus a projected spanner.

    With m = min(d, ceil(2k(1 + ceil(log2(k+1))))), runs volume_greedy for m
    picks, projects the input onto their span, and builds a d-spanner in that
    frame.  Degenerates to a plain d-spanner when m <= 2k or m >= d (then
    A <= B already implies A <=_k B).  It lists the volume picks, then the
    new d-stage picks; each trace witness is lifted to ambient coordinates.
    `max_size` caps both stages together (below 1: the empty spanner).
    """
    v = as_vector_set(vs)
    d = v.dim
    if not 1 <= k <= d:
        raise ValueError(f"k={k} out of range for dimension {d}")
    params = params or SpannerParams()
    m = params.resolve_m(k, d)
    if m <= 2 * k or m >= d or (max_size is not None and max_size < 1):
        alpha = params.resolve_alpha(d)
        return build_d_spanner(v, alpha, max_size=max_size)

    vol = volume_greedy(v, m if max_size is None else min(m, max_size))
    basis = linalg.gram_schmidt(vol.vectors)
    alpha = params.resolve_alpha(len(basis))
    proj = VectorSet(v.vectors @ basis.T, v.labels)
    sub_cap = None if max_size is None else max(0, max_size - vol.size)
    sub = build_d_spanner(proj, alpha, max_size=sub_cap)
    pos = {int(lbl): i for i, lbl in enumerate(v.labels)}
    indices = list(dict.fromkeys(vol.indices + sub.indices))
    return Spanner(
        indices=indices,
        vectors=v.vectors[[pos[lbl] for lbl in indices]],
        stage_tags=vol.stage_tags + [STAGE_DSPANNER] * (len(indices) - vol.size),
        alpha=alpha,
        dspanner_vectors=v.vectors[[pos[lbl] for lbl in sub.indices]],
        dspanner_witnesses=np.array([basis.T @ w for w in sub.dspanner_witnesses]
                                    ).reshape(-1, d),
    )


def projection_domination_holds(vs, m: int, k: int, tol: float = 1e-7) -> bool:
    """Orthogonal-component bound behind the volume-greedy stage.

    For U from volume_greedy(V, m) with m > 2k, every v satisfies
    proj_perp(v) proj_perp(v)^T <=_k 2 m^(2k/m) * mean_u uu^T.  Every vector
    is scaled by the input's linalg.unit_scale first, as in verify_k_spanner.
    """
    v = as_vector_set(vs)
    x = linalg.unit_scale(v.vectors) * v.vectors  # exact; keeps every pick
    vol = volume_greedy(x, m)
    mm = vol.size
    if mm == 0:
        return False
    basis = linalg.gram_schmidt(vol.vectors)
    gamma = 2.0 * mm ** (2.0 * k / mm)
    mean_outer = vol.vectors.T @ vol.vectors / mm
    rhs = gamma * mean_outer
    for row in x:
        perp = linalg.project_orth(row, basis)
        if not linalg.preceq_k(np.outer(perp, perp), rhs, k, tol):
            return False
    return True


def verify_k_spanner(vs, sp: Spanner, k: int, alpha: float,
                     tol: float = 1e-7) -> bool:
    """Check vv^T <=_k alpha * E_mu[uu^T] with the explicit mixture.

    The distribution mirrors the construction: a uniform part over the
    volume-greedy picks handles the component orthogonal to their span, a
    domination certificate in the projected frame handles the rest, and the
    two are mixed with the constants the chain of inequalities dictates.  A
    plain d-spanner has no volume stage: its frame is the identity and the
    uniform part has weight 0.  Every vector is scaled by the input's
    linalg.unit_scale first: the slack of preceq_k is not scale-covariant.
    """
    check_alpha(alpha)
    v = as_vector_set(vs)
    d = v.dim
    scale = linalg.unit_scale(v.vectors)
    u0 = scale * sp.vectors[[t == STAGE_VOLUME for t in sp.stage_tags]]
    dsp_vecs = scale * sp.dspanner_vectors
    m = len(u0)
    if m:
        basis = linalg.gram_schmidt(u0)
        gamma = 2.0 * m ** (2.0 * k / m)
        mean_u0 = u0.T @ u0 / m
    else:
        basis, gamma, mean_u0 = np.eye(d), 0.0, np.zeros((d, d))
    coefficients = _certifier(dsp_vecs @ basis.T)

    for i in np.flatnonzero(_nonzero_rows(v.vectors)):
        vec = scale * v.vectors[i]
        vpar_t = basis @ vec
        if linalg.vec_norm(vpar_t) <= 1e-12 * linalg.vec_norm(vec):
            mix = mean_u0
        else:
            try:
                cert = _certificate(coefficients(vpar_t), alpha)
            except NotInSpan:
                return False
            delta = max(cert.delta, 1e-12)
            e_nu = sum(prob * np.outer(dsp_vecs[pos], dsp_vecs[pos])
                       for pos, prob in cert.support)
            c1 = 2.0 * gamma * (1.0 + 2.0 / delta)
            c2 = 4.0 / delta
            mix = (c1 * mean_u0 + c2 * e_nu) / (c1 + c2)
        if not linalg.preceq_k(np.outer(vec, vec), alpha * mix, k, tol):
            return False
    return True
