"""Adversarial and sanity-check instance generators.

The hard input plants one hidden-axis vector inside each of d-m rotated
near-orthogonal clouds and pairs them with m huge axis singletons; any
polynomial-size core-set is overwhelmingly likely to drop the planted vectors,
collapsing the determinant by the gap the lower-bound experiment measures.
Also here: unit-sphere sampling, Haar rotations via Gram-Schmidt QR, and the
random +-1 family on which small spanners are impossible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .coreset import PartitionedInput, compose
from .rng import derive_seed, generator
from .vectorset import VectorSet

PM1_COUNT_GUARD = 10**4      # desk-scale stand-in for exp(d^0.5 / 8)
# Candidate rows the +-1 generator may draw before it gives up.  Sized from
# d=64, count=200 (the acceptance scale), which needs about 24k-48k draws over
# seeds: 2e5 leaves a margin of more than 4x, yet a packing that cannot grow
# (d=4, count=50 stalls at 8 rows) still fails well under a second.
PM1_DRAW_BUDGET = 200_000
PM1_BLOCK = 512              # candidates screened per vectorised block
DEFAULT_M_SCALAR = 1e6


class DimensionTooSmall(Exception):
    pass


class SamplingFailed(Exception):
    pass


def sample_sphere(count: int, dim: int, seed: int) -> VectorSet:
    """Unit vectors via normalized i.i.d. standard Gaussians."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gen = generator(seed, "sphere")
    g = gen.standard_normal((count, dim))
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    while np.any(norms == 0.0):  # probability-zero guard
        bad = norms == 0.0
        g[bad] = gen.standard_normal((int(np.sum(bad)), dim))
        norms = np.sqrt(np.einsum("ij,ij->i", g, g))
    return VectorSet(g / norms[:, None])


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    Gram-Schmidt QR of an i.i.d. Gaussian matrix; the triangular factor's
    diagonal is positive by construction, which is the standard recipe.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    gen = generator(seed, "rotation")
    while True:
        g = gen.standard_normal((dim, dim))
        basis = linalg.gram_schmidt(g.T)  # rows = orthonormalized columns of g
        if basis.shape[0] == dim:
            return basis.T


@dataclass
class HardInstance:
    d: int
    m: int
    beta: float
    big_m: float
    n_per_set: int
    parts: PartitionedInput          # X_1..X_{d-m} then Y_1..Y_m
    planted: list[int]               # global labels of Q e_{m+i}
    seed: int
    rotation: np.ndarray = field(repr=False)
    max_pair_inner: float = 0.0      # max |<p, q>| over distinct rows of G

    @property
    def x_sets(self) -> list[VectorSet]:
        return self.parts.parts[: self.d - self.m]

    @property
    def y_sets(self) -> list[VectorSet]:
        return self.parts.parts[self.d - self.m:]


def gen_hard_instance(d: int, beta: float, big_m: float = DEFAULT_M_SCALAR,
                      seed: int = 0, n_override: int | None = None) -> HardInstance:
    """Rotated planted-vector instance.

    One cloud G of unit vectors is sampled in dimension m+1; for each i a
    Householder reflection inside span{e_1..e_m, e_{m+i}} sends a uniformly
    chosen member to e_{m+i}; a single Haar rotation then hides the axes.
    """
    if d < 8:
        raise DimensionTooSmall("d must be >= 8")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if big_m <= 0:
        raise ValueError("M must be positive")
    m = int(math.ceil(d / math.log(d)))
    n = int(n_override) if n_override is not None else int(round(d ** (beta + 2)))
    g = sample_sphere(n, m + 1, derive_seed(seed, "G")).vectors
    inners = np.abs(g @ g.T)
    np.fill_diagonal(inners, 0.0)
    max_pair = float(np.max(inners)) if n > 1 else 0.0
    q = random_rotation(d, derive_seed(seed, "Q"))
    plant_gen = generator(seed, "plants")
    planted_rows = plant_gen.integers(0, n, size=d - m)

    parts: list[VectorSet] = []
    planted_labels: list[int] = []
    next_label = 0
    for i in range(d - m):
        axis = m + i
        emb = np.zeros((n, d))
        emb[:, :m] = g[:, :m]
        emb[:, axis] = g[:, m]
        pi = int(planted_rows[i])
        w = emb[pi].copy()
        w[axis] -= 1.0
        wn2 = float(np.dot(w, w))
        if wn2 > 1e-24:
            emb = emb - np.outer((emb @ w) * (2.0 / wn2), w)
        emb[pi, :] = 0.0
        emb[pi, axis] = 1.0  # exact planted direction before rotation
        rotated = emb @ q.T
        labels = np.arange(next_label, next_label + n)
        planted_labels.append(int(labels[pi]))
        next_label += n
        parts.append(VectorSet(rotated, labels))
    for j in range(m):
        y = (big_m * q[:, j]).reshape(1, d)
        parts.append(VectorSet(y, np.array([next_label])))
        next_label += 1

    inst = HardInstance(
        d=d, m=m, beta=float(beta), big_m=float(big_m), n_per_set=n,
        parts=PartitionedInput(parts), planted=planted_labels, seed=seed,
        rotation=q, max_pair_inner=max_pair,
    )
    _check_residual_property(inst)
    return inst


def _check_residual_property(inst: HardInstance) -> None:
    """Per-instance check of the hidden-axis leakage bound.

    Every non-planted vector's total squared mass along the hidden axes must
    not exceed the squared worst pairwise inner product of the source cloud.
    """
    q = inst.rotation
    hidden = q[:, inst.m: inst.d]  # columns Q e_{m+1} .. Q e_d
    bound = inst.max_pair_inner ** 2 + 1e-9
    for xs, planted in zip(inst.x_sets, inst.planted):
        mass = np.einsum("ij,ij->i", xs.vectors @ hidden, xs.vectors @ hidden)
        keep = xs.labels != planted
        if np.any(mass[keep] > bound):
            worst = float(np.max(mass[keep]))
            raise RuntimeError(
                f"hidden-axis leakage {worst:.3e} exceeds bound {bound:.3e}"
            )


def gen_pm1_lowerbound(d: int, count: int, seed: int) -> VectorSet:
    """+-1 vectors with all pairwise |<u,v>| <= sqrt(d^1.5 / 2).

    Sequential rejection: uniform +-1 rows are drawn from one Philox stream,
    and a row is accepted only if it meets the bound against every row
    accepted before it; the first `count` accepted rows are returned, in
    acceptance order.  The bound instantiates the pairwise condition at
    epsilon = 1/2.  The lower-bound argument uses only that condition (an
    excluded v has <v,v>^2 = d^2 > sqrt(d) max_u <u,v>^2), not independence of
    the rows; a batch of 200 i.i.d. rows at d = 64 would meet it only with
    probability ~e^(-680).  Candidates are screened in blocks of PM1_BLOCK, but
    acceptance stays in draw order, so the output depends only on
    (d, count, seed).

    Raises SamplingFailed when PM1_DRAW_BUDGET candidates are drawn and the
    greedy packing has stalled below `count` rows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > PM1_COUNT_GUARD:
        raise ValueError(f"count exceeds desk-scale guard {PM1_COUNT_GUARD}")
    bound = math.sqrt(d ** 1.5 / 2.0)
    gen = generator(seed, "pm1")
    accepted = np.empty((count, d))
    n_acc = 0
    drawn = 0
    while drawn < PM1_DRAW_BUDGET:
        block = min(PM1_BLOCK, PM1_DRAW_BUDGET - drawn)
        cand = 2.0 * gen.integers(0, 2, size=(block, d)) - 1.0
        drawn += block
        # test against the rows kept before this block at once, then against
        # the ones this block keeps, in draw order; +-1 entries keep every
        # inner product an exact integer
        kept_before = n_acc
        screened = np.all(np.abs(cand @ accepted[:n_acc].T) <= bound, axis=1)
        for row in cand[screened]:
            if np.any(np.abs(accepted[kept_before:n_acc] @ row) > bound):
                continue
            accepted[n_acc] = row
            n_acc += 1
            if n_acc == count:
                return VectorSet(accepted)
    raise SamplingFailed(
        f"greedy packing stalled at {n_acc} rows after {drawn} draws "
        f"(pairwise bound {bound:.3f}, d={d}, count={count})"
    )


@dataclass
class LowerboundReport:
    survived: list[bool]            # per X_i: planted vector in its core-set?
    coreset_sizes: list[int]
    objective: float                # best core-set solution value
    planted_value: float            # M^(2m), the planted reference
    ratio: float
    m: int
    seed: int
    timings_ms: dict[str, float]


def lowerbound_experiment(inst: HardInstance, coreset_size_cap: int,
                          seed: int = 0) -> LowerboundReport:
    """Capped spanner core-set per set, then a greedy d-subset on the union.

    The reference is the planted solution value M^(2m); the full-data optimum
    is never brute-forced.
    """
    comp = compose(inst.parts, inst.d, max_size=coreset_size_cap)
    x_spanners = comp.spanners[: inst.d - inst.m]
    planted_value = inst.big_m ** (2 * inst.m)
    return LowerboundReport(
        survived=[planted in sp.indices for sp, planted in zip(x_spanners, inst.planted)],
        coreset_sizes=comp.sizes,
        objective=comp.solution.value,
        planted_value=planted_value,
        ratio=comp.solution.value / planted_value,
        m=inst.m,
        seed=seed,
        timings_ms={**comp.timings_ms, "total": sum(comp.timings_ms.values())},
    )
