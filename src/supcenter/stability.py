"""Near-center stability certificates.

The central quantity is the worst sup-norm distance from the near-center set
cent_V(B, delta) back to the true center set.  Because that distance is a
convex function and the near-center set is a polytope, the worst case sits at
a vertex, so the certificate is exact at desk scale.  The stability modulus
delta*(eps) is the largest slack whose worst distance stays below eps
(property (P1) of the pair (V, B), quantified).

Every functional is finitely supported, so V is a product of factors (see
constraints.factors): the coupled support blocks and one interval per
off-support coordinate.  A near-center set is V plus a band, the product of
V's factors each cut by its slice of the band; so is the set it is measured
against.  The sup-norm distance to a product is the max of the factor
distances and the vertices of a product are the tuples of factor vertices,
so the worst distance is the max of the factor worst distances.
A factor that is a line (an interval is the line of its one column) has it
in closed form, from the ends of the near set and of the base on that line.
In every wider factor, each vertex distance is a sup-norm distance against
one fixed polytope, by an LP (lp.distance_to_polytope).  A point of that
polytope bounds the distance of every vertex, so the search keeps the points
it has and measures only the vertices whose bound can still decide the
worst distance or its witness (see _farthest_vertex).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import lp
from .centers import CenterProblem, CenterReport, _check_slack, near_center_set
from .constraints import Polytope, _factor_vertices
from .errors import LPNumericalError
from .space import band
from .tolerances import DEFAULT_TOL, MODULUS_CONFIRM_STEP, MODULUS_MAX_STEPS, MODULUS_RESOLUTION

logger = logging.getLogger(__name__)


def _farthest_vertex(verts: np.ndarray, target: Polytope,
                     known: list[np.ndarray]) -> tuple[float, np.ndarray | None]:
    """Largest distance from a vertex to target, with the first vertex within
    DEFAULT_TOL of it, so rounding cannot choose among tied vertices.

    known is a nonempty list of points of target.  Each bounds the distance of
    every vertex, d(v, target) <= |v - p|_inf, and UB(v) is the least of these
    bounds, taken for all vertices in one broadcast.  The distances are taken
    in decreasing UB order (a stable sort), and each nearest point at a positive
    distance joins known, where it bounds every later search against the same
    target.  The search stops at the first vertex whose UB is below the best
    distance solved so far minus 2 * DEFAULT_TOL.  Every vertex left then lies
    more than DEFAULT_TOL below the maximum, with DEFAULT_TOL to spare for the
    rounding of the distances and of the points in known, so none of them
    can be the maximum or the first vertex within DEFAULT_TOL of it.  Each
    distance taken is the one a scan of every vertex takes for that vertex, so
    (worst, witness) are the scan's, bit for bit.
    """
    bound = np.abs(verts[:, None, :] - np.array(known)[None, :, :]).max(axis=2).min(axis=1)
    dists = np.full(len(verts), -np.inf)
    worst = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] < worst - 2.0 * DEFAULT_TOL:
            break
        dist, point = lp.distance_to_polytope(verts[i], target)
        dists[i] = dist
        if dist > 0.0:
            known.append(point)
        worst = max(worst, dist)
    if worst <= 0.0:
        return 0.0, None
    return worst, verts[np.argmax(dists >= worst - DEFAULT_TOL)]


def _product_search(feasible: Polytope, base: Polytope, representative: np.ndarray):
    """The search (lower, upper) -> (worst, witness): the largest distance
    from a vertex of the near set feasible.with_band(lower, upper) to base, a
    band cut of feasible (V), with a witness.  representative is a point of
    base.  The search reads the held splits of V and base (Polytope.split);
    each factor of base is the fixed target of every distance taken in it,
    so its own split and line, held on first use, serve every probe.  No
    probe builds its near set whole.

    The worst distance w is the max of the factor worst distances w_f, each
    taken on V's factor cut by its slice of the band, near:
    - a factor that is a line (Polytope.line; an interval is the line of its
      one column) is the segment v0 + t dv, t in [lo, hi], of near.line():
      V's held (v0, dv) with the ends of near's rows, which refuses crossed
      ends.  base's factor has V's equalities, so it lies on the same line,
      over its own [l0, u0], read once.  V's chart (Polytope.chart) makes
      |dv|_inf = 1, so the distance of v0 + t dv to base's factor is the
      distance of t to [l0, u0], and w_f = max(l0 - lo, hi - u0, 0), with no
      enumeration and no LP; its vertices are the ends, lo first;
    - every factor wider than a line runs _farthest_vertex on the vertices
      of near, with its own known list, seeded by representative[cols] and
      kept across calls.  Its vertices take the unsplit route of
      enumerate_vertices, on the chart that V's sub-polytope holds.

    The witness is a vertex of the near set, None when w is 0.  The deciding
    factor is the first factor whose worst equals w, and it takes its own
    witness: the first of its vertices within DEFAULT_TOL of w_f.  Every
    other factor takes its first vertex.
    """
    parts = feasible.split()
    targets = [target for _, target in base.split()]
    # base's ends [l0, u0] on each line factor of V, None on a wider factor
    ends = [sub.line() and target.line()[2:] for (_, sub), target in zip(parts, targets)]
    known = [[representative[cols]] for cols, _ in parts]

    def search(lower: np.ndarray, upper: np.ndarray) -> tuple[float, np.ndarray | None]:
        worsts, owns, firsts = [], [], []
        for (cols, sub), target, base_ends, points in zip(parts, targets, ends, known):
            near = sub.with_band(lower[cols], upper[cols])
            if base_ends is not None:
                v0, dv, lo, hi = near.line()
                l0, u0 = base_ends
                worst = max(l0 - lo, hi - u0, 0.0)
                t = lo if max(l0 - lo, lo - u0) >= worst - DEFAULT_TOL else hi
                own, first = v0 + t * dv, v0 + lo * dv
            else:
                verts = _factor_vertices(near)
                worst, own = _farthest_vertex(verts, target, points)
                first = verts[0]
            worsts.append(worst)
            owns.append(own)
            firsts.append(first)
        worst = max(worsts)
        if worst <= 0.0:
            return 0.0, None
        deciding = worsts.index(worst)
        witness = np.empty(base.dim)
        for k, (cols, _) in enumerate(parts):
            witness[cols] = owns[k] if k == deciding else firsts[k]
        return worst, witness

    return search


def worst_near_center_distance(problem: CenterProblem, delta: float,
                               center: CenterReport) -> tuple[float, np.ndarray | None]:
    """Largest distance from cent_V(B, delta) to cent_V(B), with a witness;
    center is the problem's solved center_set, and delta a finite slack >= 0.

    Exact over the vertices of the near-center polytope; the maximum of a
    convex function over a polytope is attained at one of them.  The search
    works factor by factor on V cut by the near-center band (see
    _product_search).
    """
    _check_slack(delta)
    search = _product_search(problem.feasible, center.center_polytope, center.representative)
    return search(*band(problem.family, center.radius + delta))


@dataclass(frozen=True)
class ModulusProbe:
    delta: float
    worst: float
    witness: tuple[float, ...] | None


@dataclass(frozen=True)
class ModulusReport:
    eps: float
    delta_max: float
    delta_star: float
    probes: tuple[ModulusProbe, ...]
    degenerate: bool  # no probed slack worked, which finite compactness forbids


def p1_modulus(problem: CenterProblem, eps: float, delta_max: float, center: CenterReport,
               resolution: float = MODULUS_RESOLUTION, base_slack: float = 0.0) -> ModulusReport:
    """Largest slack delta in (0, delta_max] with worst distance <= eps;
    center is the problem's solved center_set.

    The worst distance w(delta) is measured from cent_V(B, base_slack + delta)
    to cent_V(B, base_slack), which for the default base_slack = 0 is the
    center set itself, read as center.center_polytope; only a positive
    base_slack builds its base (near_center_set).  Each probe is a band of V,
    searched factor by factor (_product_search).  w is continuous,
    nondecreasing and piecewise linear in delta, since the near-center set is
    a polytope whose right-hand side is affine in delta.  After a probe at
    delta_max (accepted outright when it passes) and a degeneracy probe at
    resolution * delta_max, regula falsi with the Illinois change solves
    w(delta) = eps + DEFAULT_TOL on that bracket; a secant step between two
    probes on one linear piece lands on the root.  Each step stays
    MODULUS_CONFIRM_STEP * delta_max (h) inside the bracket, and the search
    ends when the failing end is within h of the passing one, so the result
    is confirmed by a failed probe at most h above it.  After
    MODULUS_MAX_STEPS steps without that, LPNumericalError is raised.  A zero
    modulus is reported with the degenerate flag set: in finite dimension the
    modulus must be positive, so a zero is a diagnostic, not an answer.
    eps and delta_max must be positive and finite, and resolution must lie
    in (0, 1); anything else, nan included, raises ValueError.
    """
    if not (0.0 < eps < np.inf and 0.0 < delta_max < np.inf):
        raise ValueError(f"eps and delta_max must be positive and finite, got {eps}, {delta_max}")
    if not 0.0 < resolution < 1.0:
        raise ValueError(f"resolution must lie in (0, 1), got {resolution}")
    base = (center.center_polytope if base_slack == 0.0
            else near_center_set(problem, base_slack, radius=center.radius))
    # the representative lies in the center set, so in base for any base_slack;
    # the nearest points the probes find join it, factor by factor
    search = _product_search(problem.feasible, base, center.representative)
    probes: list[ModulusProbe] = []
    # worst(delta) often equals eps up to rounding (at delta = eps in
    # particular), so each comparison allows DEFAULT_TOL
    target = eps + DEFAULT_TOL

    def excess(delta: float) -> float:
        # the band of near_center_set(problem, base_slack + delta, center.radius)
        worst, witness = search(*band(problem.family, center.radius + (base_slack + delta)))
        probes.append(ModulusProbe(delta=delta, worst=worst,
                                   witness=None if witness is None else tuple(witness)))
        return worst - target

    def report(delta_star: float, degenerate: bool = False) -> ModulusReport:
        return ModulusReport(eps=eps, delta_max=delta_max, delta_star=delta_star,
                             probes=tuple(probes), degenerate=degenerate)

    hi = delta_max
    f_hi = excess(hi)
    if f_hi <= 0.0:
        return report(delta_max)
    lo = resolution * delta_max
    f_lo = excess(lo)
    if f_lo > 0.0:
        logger.warning("stability modulus degenerate at eps=%g: even delta=%g fails", eps, lo)
        return report(0.0, degenerate=True)
    h = MODULUS_CONFIRM_STEP * delta_max
    kept = 0  # +1 after lo was kept by the last step, -1 after hi was
    for _ in range(MODULUS_MAX_STEPS):
        # both tests: one of lo + h, hi - h may round back onto the other end
        if lo + h >= hi or hi - h <= lo:
            return report(lo)
        delta = min(max(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo + h), hi - h)
        f = excess(delta)
        if f <= 0.0:
            lo, f_lo = delta, f
            if kept < 0:
                f_hi *= 0.5  # Illinois: hi kept twice in a row
            kept = -1
        else:
            hi, f_hi = delta, f
            if kept > 0:
                f_lo *= 0.5
            kept = 1
    raise LPNumericalError(
        f"stability modulus at eps={eps:g} not confirmed within {MODULUS_MAX_STEPS} "
        f"secant steps (bracket [{lo!r}, {hi!r}])")
