"""Span recorder around calls into supcenter's public functions.

``install`` replaces each traced function with a timing wrapper in every
loaded ``supcenter`` module namespace that holds a reference to it:
``centers``, ``stability``, ``construct``, ``sampling``, ``instances`` and
``cli`` bind functions with ``from ... import``, so patching only the
defining module would miss their calls.  ``uninstall`` puts the originals
back.

A span is (name, start, end, parent, phase); the parent is the innermost
span open when the call began.  A layer's self time is the duration of its
spans minus the time their child spans cover.  Counts are read from public
return values only.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from supcenter.tolerances import DEDUP_TOL


def _lp_rows(lp_program) -> int:
    return sum(0 if a is None else int(np.shape(a)[0]) for a in (lp_program.a_ub, lp_program.a_eq))


def dup_pairs(verts: np.ndarray) -> int:
    """Pairs of listed vertices within DEDUP_TOL in every coordinate."""
    if verts.shape[0] < 2:
        return 0
    gaps = np.max(np.abs(verts[:, None, :] - verts[None, :, :]), axis=2)
    return int(np.count_nonzero(np.triu(gaps <= DEDUP_TOL, k=1)))


def _count_solve(rec, args, kwargs, sol):
    rec.add("lp.solve.pivots", sol.iterations)
    rec.maximum("lp.solve.rows_max", _lp_rows(args[0] if args else kwargs["lp"]))


def _count_enumerate(rec, args, kwargs, verts):
    rec.add("constraints.enumerate_vertices.vertices", verts.shape[0])
    rec.add("constraints.enumerate_vertices.dup_pairs", dup_pairs(verts))


def _count_modulus(rec, args, kwargs, report):
    rec.add("stability.p1_modulus.probes", len(report.probes))


def _count_dump(rec, args, kwargs, text):
    rec.add("reportio.dump_report.bytes", len(text.encode("utf-8")))


# module -> {function: counter read from its return value}
TRACED = {
    "lp": {"solve": _count_solve, "distance_to_polytope": None},
    "constraints": {"enumerate_vertices": _count_enumerate},
    "centers": {"restricted_radius": None, "center_set": None, "near_center_set": None,
                "subspace_problem": None},
    "stability": {"p1_modulus": _count_modulus, "worst_near_center_distance": None},
    "construct": {"finite_reduction": None, "admissible_slack": None,
                  "repair_near_center": None},
    "garkavi": {"build_model": None, "subspace_gauge_distance": None, "metric_projection": None,
                "half_ball_check": None, "gauge_norm": None},
    "instances": {"load_corpus": None},
    "reportio": {"dump_report": _count_dump},
}

# the root span the benchmark opens around each timed operation
OP = "op"


class Recorder:
    def __init__(self):
        self.phase = "setup"
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- counters, kept per phase
    def add(self, metric: str, value) -> None:
        self.counts[(self.phase, metric)] += value

    def maximum(self, metric: str, value) -> None:
        key = (self.phase, metric)
        self.counts[key] = max(self.counts[key], value)

    # -- spans
    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.phase)

    def op(self, fn):
        """Run one timed operation inside its root span."""
        return self.call(OP, fn)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result
        return traced

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a span wrapper adds to one call, timed on a no-op."""
        def noop():
            return None
        traced = self._wrap("calibration", noop, None)
        mark = len(self.spans)
        t = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - t
        t = perf_counter()
        for _ in range(calls):
            traced()
        wrapped = perf_counter() - t
        del self.spans[mark:]
        return max(wrapped - plain, 0.0) / calls

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "supcenter" or key.startswith("supcenter."))]
        for short, functions in TRACED.items():
            home = sys.modules[f"supcenter.{short}"]
            for fname, counter in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries
    def summarize(self, phase: str, per: float) -> dict[str, float]:
        """Calls, seconds and layer self time of one phase's closed spans,
        divided by ``per``; max counters are not divided."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        # totals first, divided once, so that counts per round come out exact
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name.split('.')[0]}.self_s"] += end - start - child_time[idx]
            out["trace.spans"] += 1
        for (ph, metric), value in self.counts.items():
            if ph == phase:
                out[metric] = value
        return {metric: value if metric.endswith("_max") else value / per
                for metric, value in out.items()}

    def dump(self, t0: float) -> dict:
        """Closed spans as rows [name index, start, end, parent, phase index],
        times in seconds since t0."""
        names = sorted({s[0] for s in self.spans})
        phases = sorted({s[4] for s in self.spans})
        ni = {n: i for i, n in enumerate(names)}
        pi = {p: i for i, p in enumerate(phases)}
        return {"names": names, "phases": phases,
                "columns": ["name", "start", "end", "parent", "phase"],
                "rows": [[ni[s[0]], s[1] - t0, s[2] - t0, s[3], pi[s[4]]] for s in self.spans]}


COUNTERS = ("lp.solve.pivots", "lp.solve.rows_max", "constraints.enumerate_vertices.vertices",
            "constraints.enumerate_vertices.dup_pairs", "stability.p1_modulus.probes",
            "reportio.dump_report.bytes")


def metric_names() -> set[str]:
    """Every per-layer metric the recorder and run.py can report."""
    names = {"trace.spans", "trace.round_s", "trace.wrapper_s", *COUNTERS}
    for layer, functions in [*TRACED.items(), (OP, {})]:
        names.add(f"{layer}.self_s")
        for fname in functions:
            names.update({f"{layer}.{fname}.calls", f"{layer}.{fname}.s"})
    names.update({f"{OP}.calls", f"{OP}.s"})
    return names
