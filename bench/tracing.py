"""Span tracing of specspan's public functions, installed from outside.

The package has no instrumentation of its own, so the traced run replaces
each traced function with a wrapper at every place it is bound: the module
that defines it and every specspan module that imported it by name
(``from .lp import domination_check`` and the like).  Each wrapper records a
span (name, start, end, parent span, job index, and an optional value taken
from the arguments or the result).  Spans started inside a
``util.ordered_map`` worker thread take the enclosing map span as parent.

A layer's self time is its span duration minus the part of that interval its
child spans cover, so the per-layer ``self_s`` figures split the traced time
without double counting; time in parallel worker threads adds up per thread.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs traced in the traced run.  A function that a later
# version of the package no longer has is skipped and reads zero calls.
TRACED = {
    "linalg": ("sym_eig", "det_k", "preceq_k", "gram_schmidt", "pinv_quadform",
               "pinv_psd", "cholesky_spd", "inv_spd", "min_l2_coefficients"),
    "lp": ("solve_lp", "domination_check"),
    "spanner": ("build_d_spanner", "verify_weak", "strong_certificate",
                "certify_all", "volume_greedy", "build_k_spanner", "verify_k_spanner"),
    "detmax": ("subset_value", "brute_force_detmax", "greedy_local_search",
               "fractional_detmax", "nikolov_round", "eval_design", "fractional_design"),
    "coreset": ("partition", "run_pipeline"),
    "util": ("ordered_map",),
    "hardgen": ("sample_sphere", "random_rotation", "gen_hard_instance",
                "lowerbound_experiment"),
    "formats": ("read_vector_file", "write_report"),
    "cli": ("main",),
}

PART = "util.ordered_map.part"


def _tableau_cells(args, kwargs):
    """Cells of the phase-1 simplex tableau solve_lp builds for these shapes."""
    names = ("c", "a_eq", "b_eq", "a_ub", "b_ub")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    n = len(bound["c"])
    m_eq = len(bound["a_eq"]) if bound.get("a_eq") is not None else 0
    m_ub = len(bound["a_ub"]) if bound.get("a_ub") is not None else 0
    negative_ub = (sum(1 for b in bound["b_ub"] if b < 0.0)
                   if m_ub and bound.get("b_ub") is not None else 0)
    rows = m_eq + m_ub
    artificials = m_eq + negative_ub
    return (rows + 1) * (2 * n + m_ub + artificials + 1)


# Values recorded on a span, by span name: f(args, kwargs, result).
SPAN_VALUES = {
    "lp.solve_lp": lambda a, kw, r: _tableau_cells(a, kw),
    "lp.domination_check": lambda a, kw, r: r.covered,
    "spanner.build_d_spanner": lambda a, kw, r: r.size,
    "coreset.run_pipeline": lambda a, kw, r: r.union_size,
    "hardgen.lowerbound_experiment":
        lambda a, kw, r: sum(r.survived) / max(len(r.survived), 1),
    "formats.read_vector_file": lambda a, kw, r: len(r[0]),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "value", "workers")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.value = None
        self.workers = 0


class Tracer:
    """Collects spans in memory while installed; see install()/uninstall()."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        saved = None
        if parent is not None:  # pool thread: adopt the enclosing map span
            saved = stack[:]
            stack[:] = [parent]
        span = Span(name, stack[-1] if stack else None, self.job)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if saved is not None:
                stack[:] = saved
        value_of = SPAN_VALUES.get(name)
        if value_of is not None:
            span.value = value_of(args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_ordered_map(self, fn, thread_count):
        def traced_map(func, items):
            items = list(items)
            stack = self._stack()
            span = Span("util.ordered_map", stack[-1] if stack else None, self.job)
            span.workers = max(1, min(thread_count(), len(items)))
            self.spans.append(span)

            def part(item):
                return self._call(PART, func, (item,), {}, parent=span)

            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(part, items)
            finally:
                span.end = time.perf_counter()
                stack.pop()
        traced_map.__wrapped__ = fn
        return traced_map

    def install(self) -> None:
        """Replace every traced function at every specspan binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        util = importlib.import_module("specspan.util")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "specspan" or key.startswith("specspan."))]
        for mod_name, fnames in TRACED.items():
            home = importlib.import_module(f"specspan.{mod_name}")
            for fname in fnames:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue
                name = f"{mod_name}.{fname}"
                wrapper = (self._wrap_ordered_map(orig, util.thread_count)
                           if name == "util.ordered_map" else self._wrap(name, orig))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def covered_time(spans, job, t0, t1) -> float:
    """Wall time of job `job` inside [t0, t1] covered by its root spans."""
    return _union_length([(s.start, s.end) for s in spans
                          if s.job == job and s.parent is None], t0, t1)


def layer_metrics(spans, jobs) -> dict:
    """Per-job layer metrics over the spans of `jobs`.

    Holds `<name>.calls` and `<name>.self_s` for every traced function (zero
    when it was not called) plus the derived counts and ratios.
    """
    jobs = set(jobs)
    chosen = [s for s in spans if s.job in jobs]
    per = max(len(jobs), 1)
    children = defaultdict(list)
    for s in chosen:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in chosen:
        kids = children.get(id(s), ())
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - _union_length(
            [(k.start, k.end) for k in kids], s.start, s.end)
    out = {}
    for name in [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]:
        out[f"{name}.calls"] = calls[name] / per
        out[f"{name}.self_s"] = self_s[name] / per

    def values(name):  # a call that raised has no value
        return [s.value for s in chosen if s.name == name and s.value is not None]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    build_lps = sum(1 for s in chosen if s.name == "lp.domination_check"
                    and s.parent is not None and s.parent.name == "spanner.build_d_spanner")
    maps = [m for m in chosen if m.name == "util.ordered_map"]
    parts = {id(m): [k.end - k.start for k in children.get(id(m), ())] for m in maps}
    capacity = sum(m.workers * (m.end - m.start) for m in maps)
    out.update({
        "lp.solve_lp.tableau_cells": sum(values("lp.solve_lp")) / per,
        "lp.domination_check.covered_frac": mean(values("lp.domination_check")),
        "spanner.picks_per_lp":
            sum(values("spanner.build_d_spanner")) / build_lps if build_lps else 0.0,
        "coreset.union_size_mean": mean(values("coreset.run_pipeline")),
        "util.ordered_map.parallel_eff":
            sum(sum(p) for p in parts.values()) / capacity if capacity > 0 else 0.0,
        "util.ordered_map.part_skew":
            mean([max(p) / mean(p) for p in parts.values() if p and sum(p) > 0]),
        "hardgen.planted_survival_frac": mean(values("hardgen.lowerbound_experiment")),
        "formats.read_vector_file.rows": sum(values("formats.read_vector_file")) / per,
    })
    return out
