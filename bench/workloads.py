"""The three workloads: seeded inputs, timed operations and their checks.

Each workload builds one round: a list of operations made from ``--seed``
and the bundled corpus.  A run repeats that round unchanged, so every round
attempts the same operations and produces the same report stream.  Each
operation returns its result and the payload that goes through
``reportio.dump_report``; its check runs after the timed phase, against
HiGHS (``highs.py``) or a property the method must have, and returns a
failure message or None.

The program's functions are always reached through their module
(``centers.center_set``), never bound to a local name, so the span recorder
sees every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import highs
from spans import dup_pairs
from supcenter import centers, construct, garkavi, instances
from supcenter import stability as modulus
from supcenter.errors import ModelBuildError

# the acceptance gate's repair budgets
BUDGETS = (0.2, 0.1, 0.05)
SLACK_TABLE = Path(__file__).resolve().parent / "slack_table.json"

# operations that fail their check on every run because of a known program
# fault: the vertex dedup key np.round(v / DEDUP_TOL) puts equal vertices that
# straddle a half-integer into different buckets, so this center polytope
# lists two points twice each, about 5.6e-16 apart
KNOWN_FAULTS = {("center_vertices", "13-random-d3m2")}


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], tuple[object, object]]    # -> (result, report payload)
    check: Callable[[object], str | None]       # result -> failure message or None


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    min_ops: int          # enough operations per run for the tail percentile
    tail_pct: float       # highest percentile with at least ten operations beyond it


class References:
    """HiGHS radii, computed once per (instance, constraint mode) at check time."""

    def __init__(self):
        self._radius: dict[tuple[str, str], float] = {}

    def radius(self, inst, mode: str) -> float:
        key = (inst.name, mode)
        if key not in self._radius:
            self._radius[key] = highs.radius(inst.family.values, highs.ConstraintSet.of(inst, mode))
        return self._radius[key]


# ---------------------------------------------------------------- stability

def _center_vertices(inst, directions, refs: References) -> Op:
    def run():
        report = centers.center_set(inst.problem())
        verts = report.center_polytope.vertices()
        return (report.radius, verts), {"instance": inst.name, "radius": report.radius,
                                        "vertices": verts}

    def check(result):
        radius, verts = result
        r_ref = refs.radius(inst, inst.constraint)
        if abs(radius - r_ref) > 1e-7:
            return f"radius {radius!r} vs HiGHS {r_ref!r}"
        if verts.shape[0] == 0:
            return "empty vertex list"
        cset = highs.ConstraintSet.of(inst)
        worst = max(cset.violation(inst.family.values, radius, v) for v in verts)
        if worst > 1e-7:
            return f"vertex violates the center polytope by {worst!r}"
        dups = dup_pairs(verts)
        if dups:
            return f"{dups} vertex pairs within DEDUP_TOL"
        for c in directions:
            ref, _ = highs.maximize(inst.family.values, cset, radius, c)
            got = float(np.max(verts @ c))
            if abs(got - ref) > 1e-6 * (1.0 + abs(ref)):
                return f"support {got!r} vs HiGHS {ref!r}: vertex list incomplete"
        return None

    return Op("center_vertices", inst.name, run, check)


def _p1_modulus(inst, eps: float) -> Op:
    def run():
        problem = inst.problem()
        center = centers.center_set(problem)
        report = modulus.p1_modulus(problem, eps, eps, center=center)
        return report, {"instance": inst.name, "report": report}

    def check(report):
        if report.degenerate or not 0.0 < report.delta_star <= report.delta_max:
            return f"delta_star {report.delta_star!r} outside (0, {report.delta_max!r}]"
        worst = [p.worst for p in sorted(report.probes, key=lambda p: p.delta)]
        if any(b < a - 1e-9 for a, b in zip(worst, worst[1:])):
            return f"probe worst-distances not nondecreasing in delta: {worst}"
        return None

    return Op("p1_modulus", f"{inst.name}@{eps}", run, check)


def _admissible_slack(inst, eps: float, refs: References) -> Op:
    def run():
        choice = construct.admissible_slack(inst.family, inst.subspace, eps)
        return choice, {"instance": inst.name, "eps": eps, "slack": choice}

    def check(choice):
        if not 0.0 < choice.value <= eps:
            return f"slack {choice.value!r} outside (0, {eps}]"
        r_ref = refs.radius(inst, "ball")
        if abs(choice.radius - r_ref) > 1e-7:
            return f"radius {choice.radius!r} vs HiGHS {r_ref!r}"
        if choice.alpha > choice.radius + 1e-7:
            return f"reduced optimum {choice.alpha!r} above the radius {choice.radius!r}"
        return None

    return Op("admissible_slack", f"{inst.name}@{eps}", run, check)


# p1_modulus and admissible_slack of this instance take 6 to 15 s each, three
# quarters of a round with them; its center vertex list keeps the exhaustive
# enumeration route in the workload
CENTER_LIST_ONLY = {"15-random-d5m4"}


def stability(seed: int) -> Plan:
    """Every center instance, under its own constraint mode: the center
    vertex list, p1_modulus and admissible_slack (the vertex list alone for
    CENTER_LIST_ONLY).  Instance i of the sorted corpus takes budget
    BUDGETS[i % 3], so all three budgets are exercised and a round's work
    does not depend on the seed."""
    rng = np.random.default_rng(seed)
    refs = References()
    corpus = instances.load_corpus("center")
    ops = []
    for i, inst in enumerate(corpus):
        eps = BUDGETS[i % len(BUDGETS)]
        directions = rng.normal(size=(4, inst.family.dim))
        ops.append(_center_vertices(inst, directions, refs))
        if inst.name not in CENTER_LIST_ONLY:
            ops += [_p1_modulus(inst, eps), _admissible_slack(inst, eps, refs)]
    ops = [ops[k] for k in rng.permutation(len(ops))]
    # the same warm-up for every seed, so that set-up time does not depend on it
    warmup = _center_vertices(corpus[0], np.ones((1, corpus[0].family.dim)), refs)
    return Plan(ops=ops, warmup=warmup, min_ops=100, tail_pct=90.0)


# ------------------------------------------------------------------- repair

def load_slack_table() -> dict:
    return json.loads(SLACK_TABLE.read_text(encoding="utf-8"))["slack"]


def _repair(inst, rows: np.ndarray, g: np.ndarray, eps: float, delta: float,
            r_ref: float) -> Op:
    def run():
        h = construct.repair_near_center(construct.RepairInput(g=g, eps=eps, delta=delta),
                                         inst.family, inst.subspace)
        return h, {"instance": inst.name, "eps": eps, "repaired": h}

    def check(h):
        moved = float(np.max(np.abs(g - h)))
        if moved > eps + 1e-9:
            return f"moved {moved!r} > eps {eps}"
        if float(np.max(np.abs(h))) > 1.0 + 1e-9:
            return "repair left the unit ball"
        if rows.shape[0] and float(np.max(np.abs(rows @ h))) > 1e-9:
            return "repair left the kernel"
        r_h = float(np.max(np.abs(inst.family.values - h)))
        if r_h > r_ref + 1e-8:
            return f"r(h, F) = {r_h!r} > HiGHS radius {r_ref!r}"
        return None

    return Op("repair", f"{inst.name}@{eps}", run, check)


EXTREME_POINTS = 8   # HiGHS vertices of each near-center polytope
NEAR_CENTERS = 20    # mixtures of them per (instance, eps)


def near_centers(rng: np.random.Generator, inst, cset: highs.ConstraintSet, radius: float,
                 delta: float) -> list[np.ndarray]:
    """Dirichlet mixtures of HiGHS extreme points of cent_{B_Y}(F, delta)."""
    values = inst.family.values
    width = radius + delta
    pts = np.array([highs.maximize(values, cset, width, rng.normal(size=cset.dim))[1]
                    for _ in range(EXTREME_POINTS)])
    out = []
    for _ in range(NEAR_CENTERS):
        g = rng.dirichlet(np.ones(EXTREME_POINTS)) @ pts
        if cset.violation(values, width, g) > 1e-9:
            raise RuntimeError(f"{inst.name}: generated near-center leaves the polytope")
        out.append(g)
    return out


def repair(seed: int) -> Plan:
    """repair_near_center on the kernel-ball problem of every center
    instance, at each budget, for NEAR_CENTERS seeded near-centers per pair.
    The admitted slack is read from slack_table.json."""
    rng = np.random.default_rng(seed)
    table = load_slack_table()
    ops = []
    for inst in instances.load_corpus("center"):
        cset = highs.ConstraintSet.of(inst, "ball")
        r_ref = highs.radius(inst.family.values, cset)
        for eps in BUDGETS:
            delta = table[inst.name][repr(eps)]
            ops += [_repair(inst, cset.rows, g, eps, delta, r_ref)
                    for g in near_centers(rng, inst, cset, r_ref, delta)]
    ops = [ops[k] for k in rng.permutation(len(ops))]
    return Plan(ops=ops, warmup=ops[0], min_ops=1000, tail_pct=99.0)


# ------------------------------------------------------------------- renorm

# 200 operations per round: the n = 5 queries are 7 % of them, so the p95
# falls among them, and the median falls among 166 n = 4 queries
N5_QUERIES = 14
N4_QUERIES = 166
HALF_BALL = 14
THETA_ZERO = 6


def _projection(model, x: np.ndarray, lam: float, eps: float) -> Op:
    def run():
        poly = garkavi.metric_projection(model, x, eps)
        verts = poly.vertices()
        return (poly, verts), {"n": model.n, "x": x, "eps": eps, "vertices": verts}

    def check(result):
        poly, verts = result
        # P_Y(x, eps) = {y in Y : -facets.y <= d(x, Y) + eps - facets.x}
        dist = float(np.max(poly.b_ub - poly.a_ub @ x)) - eps
        if abs(dist - abs(lam)) > 1e-7:
            return f"d(x, Y) = {dist!r}, expected |lambda| = {abs(lam)!r}"
        if verts.shape[0] == 0:
            return "empty vertex list"
        if float(np.max(np.abs(verts[:, 0]))) > 1e-9:
            return "projection vertex outside Y"
        for y in verts:
            g = highs.gauge(model.hull_points, x - y)
            if g > abs(lam) + eps + 1e-7:
                return f"gauge(x - y) = {g!r} > d(x, Y) + eps = {abs(lam) + eps!r}"
        return None

    return Op(f"projection_n{model.n}", f"n{model.n}@{eps}", run, check)


def _half_ball(model, seed: int) -> Op:
    def run():
        report = garkavi.half_ball_check(model, 1, seed=seed)
        return report, report

    def check(report):
        if len(report.samples) != 2 or not report.passed:
            return f"half-ball identity failed: {report.samples}"
        return None

    return Op("half_ball", f"n{model.n}", run, check)


def _theta_zero(n: int, seed: int) -> Op:
    def run():
        try:
            garkavi.build_model(n, seed=seed, theta=0.0)
        except ModelBuildError as exc:
            return exc.certificate, {"n": n, "seed": seed, "certificate": exc.certificate}
        return None, {"n": n, "seed": seed, "certificate": None}

    def check(certificate):
        if certificate != "disjoint":
            return f"theta = 0 build ended with certificate {certificate!r}, expected 'disjoint'"
        return None

    return Op("theta_zero", f"n{n}", run, check)


def _query_point(rng: np.random.Generator, model) -> tuple[np.ndarray, float]:
    """x = y + lambda x0 with y in Y."""
    x = np.zeros(model.n)
    x[1:] = rng.uniform(-0.5, 0.5, model.n - 1)
    lam = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    return x + lam * model.x0, lam


def renorm(seed: int) -> Plan:
    """The renormed-ball models at n = 4 and n = 5 from the corpus: seeded
    projection queries at both sizes, half-ball certificates at n = 4 and
    the expected theta = 0 build failure."""
    rng = np.random.default_rng(seed)
    models = {inst.n: garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma,
                                          theta=inst.theta)
              for inst in instances.load_corpus("renorm") if inst.n in (4, 5)}
    ops = []
    for n, count in ((5, N5_QUERIES), (4, N4_QUERIES)):
        for _ in range(count):
            x, lam = _query_point(rng, models[n])
            ops.append(_projection(models[n], x, lam, float(rng.choice(BUDGETS))))
    ops += [_half_ball(models[4], int(rng.integers(2**31))) for _ in range(HALF_BALL)]
    ops += [_theta_zero(4, int(rng.integers(2**31))) for _ in range(THETA_ZERO)]
    x, lam = _query_point(rng, models[4])
    warmup = _projection(models[4], x, lam, BUDGETS[0])
    ops = [ops[k] for k in rng.permutation(len(ops))]
    return Plan(ops=ops, warmup=warmup, min_ops=200, tail_pct=95.0)


WORKLOADS = {"stability": stability, "renorm": renorm, "repair": repair}

# speed-probe mix per workload, (small, tall) pivots of speed.kernel: about
# three quarters of the probe's time on the tableau shape that dominates the
# workload's operations, chosen by how closely the probe's slow-down on a
# loaded host followed that of the operations
PROBE_MIX = {"stability": (24, 2), "repair": (24, 2), "renorm": (8, 6)}
