"""Near-center stability certificates.

The central quantity is the worst sup-norm distance from the near-center set
cent_V(B, delta) back to the true center set.  Because that distance is a
convex function and the near-center set is a polytope, the worst case sits at
a vertex, so the certificate is exact at desk scale.  The stability modulus
delta*(eps) is the largest slack whose worst distance stays below eps
(property (P1) of the pair (V, B), quantified).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import lp
from .centers import CenterProblem, CenterReport, center_set, near_center_set
from .constraints import Polytope
from .errors import LPNumericalError
from .space import FunctionFamily, farthest_radius
from .tolerances import DEFAULT_TOL

logger = logging.getLogger(__name__)


def _farthest_vertex(verts: np.ndarray, target: Polytope,
                     tol: float) -> tuple[float, np.ndarray | None]:
    """Largest distance from a vertex to target, with the first vertex that
    comes within tol of it, so rounding cannot choose among tied vertices."""
    dists = [lp.distance_to_polytope(v, target, tol=tol)[0] for v in verts]
    worst = max(dists, default=0.0)
    if worst <= 0.0:
        return 0.0, None
    return worst, next(v for v, dist in zip(verts, dists) if dist >= worst - tol)


def worst_near_center_distance(problem: CenterProblem, delta: float,
                               center: CenterReport | None = None,
                               tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray | None]:
    """Largest distance from cent_V(B, delta) to cent_V(B), with a witness.

    Exact over the vertices of the near-center polytope; the maximum of a
    convex function over a polytope is attained at one of them.
    """
    if center is None:
        center = center_set(problem, tol=tol)
    verts = near_center_set(problem, delta, tol=tol, radius=center.radius).vertices(tol)
    return _farthest_vertex(verts, center.center_polytope, tol)


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


def p1_modulus(problem: CenterProblem, eps: float, delta_max: float,
               center: CenterReport | None = None, tol: float = DEFAULT_TOL,
               resolution: float = 1e-4, base_slack: float = 0.0) -> ModulusReport:
    """Largest slack delta in (0, delta_max] with worst distance <= eps.

    The worst distance is measured from cent_V(B, base_slack + delta) to
    cent_V(B, base_slack), which for the default base_slack = 0 is the center
    set itself.  Bisection on the monotone map delta -> worst distance,
    resolved to resolution * delta_max.  A zero modulus is reported with the
    degenerate flag set: in finite dimension the modulus must be positive, so
    a zero is a diagnostic, not an answer.
    """
    if eps <= 0 or delta_max <= 0:
        raise ValueError("eps and delta_max must be positive")
    if center is None:
        center = center_set(problem, tol=tol)
    base = near_center_set(problem, base_slack, tol=tol, radius=center.radius)
    probes: list[ModulusProbe] = []

    def probe(delta: float) -> float:
        near = near_center_set(problem, base_slack + delta, tol=tol, radius=center.radius)
        worst, witness = _farthest_vertex(near.vertices(tol), base, tol)
        probes.append(ModulusProbe(delta=delta, worst=worst,
                                   witness=None if witness is None else tuple(witness)))
        return worst

    step = resolution * delta_max
    # worst(delta) often equals eps up to rounding (at delta = eps in
    # particular), so each comparison allows tol
    if probe(delta_max) <= eps + tol:
        return ModulusReport(eps=eps, delta_max=delta_max, delta_star=delta_max,
                             probes=tuple(probes), degenerate=False)
    lo = step
    if probe(lo) > eps + tol:
        logger.warning("stability modulus degenerate at eps=%g: even delta=%g fails", eps, lo)
        return ModulusReport(eps=eps, delta_max=delta_max, delta_star=0.0,
                             probes=tuple(probes), degenerate=True)
    hi = delta_max
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if probe(mid) <= eps + tol:
            lo = mid
        else:
            hi = mid
    return ModulusReport(eps=eps, delta_max=delta_max, delta_star=lo,
                         probes=tuple(probes), degenerate=False)


@dataclass(frozen=True)
class SequenceStep:
    n: int
    slack: float
    radius_at_point: float
    distance: float
    bound: float


@dataclass(frozen=True)
class SequenceReport:
    steps: tuple[SequenceStep, ...]
    bounds_nonincreasing: bool
    all_within_bound: bool

    @property
    def passed(self) -> bool:
        return self.bounds_nonincreasing and self.all_within_bound


def sequence_criterion_check(problem: CenterProblem, trials: int, seed: int,
                             mode: str = "random", tol: float = DEFAULT_TOL) -> SequenceReport:
    """Minimizing sequences converge to the center set.

    Draws v_n with r(v_n, B) <= rad + 1/n (a random point, or the worst
    vertex in 'witness' mode) and certifies d(v_n, cent) against the vertex
    bound for slack 1/n, which must itself be nonincreasing in n.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if mode not in ("random", "witness"):
        raise ValueError(f"mode must be 'random' or 'witness', got {mode!r}")
    rng = np.random.default_rng(seed)
    center = center_set(problem, tol=tol)
    steps = []
    for n in range(1, trials + 1):
        slack = 1.0 / n
        verts = near_center_set(problem, slack, tol=tol, radius=center.radius).vertices(tol)
        bound, witness = _farthest_vertex(verts, center.center_polytope, tol)
        if mode == "witness" and witness is not None:
            point = witness
        else:
            weights = rng.dirichlet(np.ones(verts.shape[0]))
            point = weights @ verts
        dist, _ = lp.distance_to_polytope(point, center.center_polytope, tol=tol)
        steps.append(SequenceStep(n=n, slack=slack,
                                  radius_at_point=farthest_radius(point, problem.family),
                                  distance=dist, bound=bound))
    bounds = [s.bound for s in steps]
    nonincreasing = all(b1 >= b2 - tol * 100.0 for b1, b2 in zip(bounds, bounds[1:]))
    within = all(s.distance <= s.bound + tol * 100.0 for s in steps)
    return SequenceReport(steps=tuple(steps), bounds_nonincreasing=nonincreasing,
                          all_within_bound=within)


def rcp_check(feasible: Polytope, families: list[FunctionFamily], tol: float = DEFAULT_TOL) -> bool:
    """Restricted center property over a list of families: every center set
    along V must be certifiably nonempty.  LP failures name the family."""
    for idx, family in enumerate(families):
        try:
            problem = CenterProblem(family=family, feasible=feasible)
            report = center_set(problem, tol=tol)
        except LPNumericalError as exc:
            raise LPNumericalError(f"family {idx}: {exc}") from exc
        if not report.center_polytope.contains(report.representative, tol * 100.0):
            return False
        logger.info("family %d: restricted radius %.12g", idx, report.radius)
    return True
