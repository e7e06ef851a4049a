"""Composable core-set pipeline: partition, per-part spanners, union, solve.

Each machine's core-set is exactly its k-spanner.  `compose` is the one path
from parts to a solved union; the pipeline, its streaming variant and the
lower-bound experiment all go through it.  The pipeline compares the union's
solution against the same solver on the full data.
The report carries the certified lower bound (e * alpha)^(-k) next to the
measured ratio, plus communication and timing accounting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import detmax
from .rng import derive_seed, generator
from .spanner import Spanner, SpannerParams, build_k_spanner
from .util import ordered_map
from .vectorset import VectorSet, as_vector_set

REPORT_VERSION = "2"  # JSON report layout shared with the CLI


class PartitionScheme(Enum):
    ROUND_ROBIN = "rr"
    HASH = "hash"
    FROM_FILE = "file"


class Solver(Enum):
    BRUTE = "brute"
    GREEDY_LOCAL = "greedy"
    FW_ROUND = "fw-round"


class BadPartColumn(Exception):
    pass


@dataclass
class PartitionedInput:
    parts: list[VectorSet]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for p in self.parts:
            for lbl in p.labels:
                if int(lbl) in seen:
                    raise ValueError(f"label {int(lbl)} appears in two parts")
                seen.add(int(lbl))

    @property
    def union(self) -> VectorSet:
        return VectorSet.concat(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass
class PipelineReport:
    coreset_sizes: list[int]
    union_size: int
    objective: float
    reference_kind: str
    reference_value: float
    ratio: float
    guarantee: float
    comm_bytes: int
    timings_ms: dict[str, float]
    seed: int
    config: dict = field(default_factory=dict)
    peak_retained: int | None = None

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "coreset_sizes": list(self.coreset_sizes),
            "union_size": self.union_size,
            "objective": self.objective,
            "reference": {"kind": self.reference_kind, "value": self.reference_value},
            "ratio": self.ratio,
            "guarantee": self.guarantee,
            "comm_bytes": self.comm_bytes,
            "timings_ms": self.timings_ms,
            "seed": self.seed,
            "version": REPORT_VERSION,
        }
        if self.peak_retained is not None:
            out["peak_retained"] = self.peak_retained
        return out


def partition(vs, p: int, scheme: PartitionScheme = PartitionScheme.ROUND_ROBIN,
              seed: int = 0, part_ids=None) -> PartitionedInput:
    """Split a vector set into p machines, deterministically per scheme+seed."""
    v = as_vector_set(vs)
    n = len(v)
    if p < 1:
        raise ValueError("p must be >= 1")
    if scheme is PartitionScheme.FROM_FILE:
        if part_ids is None:
            raise BadPartColumn("no part column available")
        ids = np.asarray(part_ids)
        if ids.shape != (n,) or np.any(ids < 0) or not np.issubdtype(ids.dtype, np.integer):
            raise BadPartColumn("part column must hold one nonnegative integer per row")
        groups = sorted(set(int(i) for i in ids))
        return PartitionedInput(
            [v.subset(np.flatnonzero(ids == g)) for g in groups]
        )
    if scheme is PartitionScheme.ROUND_ROBIN:
        assign = np.arange(n) % p
    else:
        assign = generator(seed, "partition").integers(0, p, size=n)
    return PartitionedInput(
        [v.subset(np.flatnonzero(assign == i)) for i in range(p)]
    )


def solve(vs: VectorSet, k: int, solver: Solver, trials: int,
          round_seed: int) -> detmax.Solution:
    """Offline detmax by `solver`; `round_seed` seeds fw-round's rounding."""
    if solver is Solver.BRUTE:
        return detmax.brute_force_detmax(vs, k)
    if solver is Solver.GREEDY_LOCAL:
        return detmax.greedy_local_search(vs, k)
    if k != vs.dim:
        raise detmax.Degenerate(
            f"fw-round requires k equal to the dimension ({vs.dim})")
    frac = detmax.fractional_detmax(vs, k)
    return detmax.nikolov_round(vs, frac, k, trials, round_seed).best


@dataclass
class Composition:
    """Per-part spanners, their union and the solve on it."""
    spanners: list[Spanner | None]   # None for an empty part
    union: VectorSet                 # spanner rows in (part, selection) order
    solution: detmax.Solution
    alpha: float                     # largest alpha any part was built with
    timings_ms: dict[str, float]

    @property
    def sizes(self) -> list[int]:
        return [sp.size if sp is not None else 0 for sp in self.spanners]


def compose(pinput: PartitionedInput, k: int,
            params: SpannerParams | None = None,
            solver: Solver = Solver.GREEDY_LOCAL,
            seed: int = 0, trials: int = 1000,
            max_size: int | None = None) -> Composition:
    """Per-part k-spanners, union in (part, local) order, offline solve.

    The composed core-set is only as good as its weakest part, so the alpha
    reported is the largest one a non-empty part was built with.  A union of
    fewer than k rows raises detmax.Degenerate, a guard for every solver.
    """
    params = params or SpannerParams()
    full = pinput.union
    if k > full.dim:
        raise ValueError(f"k={k} exceeds dimension {full.dim}")
    t0 = time.perf_counter()
    spanners = ordered_map(
        lambda part: build_k_spanner(part, k, params=params, max_size=max_size)
        if len(part) else None,
        pinput.parts,
    )
    t_span = time.perf_counter()
    label_pos = {int(lbl): i for i, lbl in enumerate(full.labels)}
    union = full.subset([label_pos[lbl] for sp in spanners if sp is not None
                         for lbl in sp.indices])
    if len(union) < k:
        raise detmax.Degenerate(f"core-set union of size {len(union)} is smaller than k={k}")
    sol = solve(union, k, solver, trials, derive_seed(seed, "round"))
    t_solve = time.perf_counter()
    alpha = max((sp.alpha for sp in spanners if sp is not None),
                default=params.resolve_alpha(full.dim))
    return Composition(
        spanners=spanners, union=union, solution=sol, alpha=alpha,
        timings_ms={"spanner": (t_span - t0) * 1e3,
                    "solve": (t_solve - t_span) * 1e3},
    )


def run_pipeline(pinput: PartitionedInput, k: int,
                 params: SpannerParams | None = None,
                 solver: Solver = Solver.GREEDY_LOCAL,
                 seed: int = 0, trials: int = 1000) -> PipelineReport:
    """compose(), then the same solver on the full data as the reference."""
    t0 = time.perf_counter()
    comp = compose(pinput, k, params, solver, seed, trials)
    full = pinput.union
    t_ref0 = time.perf_counter()
    ref = solve(full, k, solver, trials,
                derive_seed(derive_seed(seed, "reference"), "round"))
    t_ref = time.perf_counter()
    sol = comp.solution
    ratio = (sol.value / ref.value if ref.value > 0
             else (1.0 if sol.value <= 0 else math.inf))
    sizes = comp.sizes
    return PipelineReport(
        coreset_sizes=sizes,
        union_size=len(comp.union),
        objective=sol.value,
        reference_kind=solver.value if solver is not Solver.BRUTE else "brute",
        reference_value=ref.value,
        ratio=ratio,
        guarantee=(math.e * comp.alpha) ** (-k),
        comm_bytes=8 * full.dim * sum(sizes),
        timings_ms={
            **comp.timings_ms,
            "reference": (t_ref - t_ref0) * 1e3,
            "total": (t_ref - t0) * 1e3,
        },
        seed=seed,
        config={
            "k": k,
            "alpha": comp.alpha,
            "solver": solver.value,
            "parts": len(pinput),
            "n": len(full),
            "d": full.dim,
            "union_labels": [int(lbl) for lbl in comp.union.labels],
        },
    )


def stream_pipeline(vs, block_size: int, k: int,
                    params: SpannerParams | None = None,
                    solver: Solver = Solver.GREEDY_LOCAL,
                    seed: int = 0, trials: int = 1000) -> PipelineReport:
    """One-pass variant: run_pipeline with contiguous blocks as the parts.

    peak_retained is what a single pass would hold at once: the core-sets of
    the blocks before a block plus that block, or the final union.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    v = as_vector_set(vs)
    n = len(v)
    blocks = [v.subset(np.arange(start, min(start + block_size, n)))
              for start in range(0, n, block_size)]
    report = run_pipeline(PartitionedInput(blocks), k, params=params,
                          solver=solver, seed=seed, trials=trials)
    kept = 0
    peak = report.union_size
    for block, size in zip(blocks, report.coreset_sizes):
        peak = max(peak, kept + len(block))
        kept += size
    report.peak_retained = peak
    report.config["block_size"] = block_size
    return report
