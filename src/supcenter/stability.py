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
from .tolerances import DEFAULT_TOL, MODULUS_CONFIRM_STEP, MODULUS_MAX_STEPS

logger = logging.getLogger(__name__)


def _farthest_vertex(verts: np.ndarray, target: Polytope) -> tuple[float, np.ndarray | None]:
    """Largest distance from a vertex to target, with the first vertex within
    DEFAULT_TOL of it, so rounding cannot choose among tied vertices."""
    dists = [lp.distance_to_polytope(v, target)[0] for v in verts]
    worst = max(dists, default=0.0)
    if worst <= 0.0:
        return 0.0, None
    return worst, next(v for v, dist in zip(verts, dists) if dist >= worst - DEFAULT_TOL)


def worst_near_center_distance(problem: CenterProblem, delta: float,
                               center: CenterReport | None = None) -> tuple[float, np.ndarray | None]:
    """Largest distance from cent_V(B, delta) to cent_V(B), with a witness.

    Exact over the vertices of the near-center polytope; the maximum of a
    convex function over a polytope is attained at one of them.
    """
    if center is None:
        center = center_set(problem)
    verts = near_center_set(problem, delta, radius=center.radius).vertices()
    return _farthest_vertex(verts, center.center_polytope)


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
               center: CenterReport | None = None,
               resolution: float = 1e-4, base_slack: float = 0.0) -> ModulusReport:
    """Largest slack delta in (0, delta_max] with worst distance <= eps.

    The worst distance w(delta) is measured from cent_V(B, base_slack + delta)
    to cent_V(B, base_slack), which for the default base_slack = 0 is the
    center set itself.  w is continuous, nondecreasing and piecewise linear in
    delta, since the near-center set is a polytope whose right-hand side is
    affine in delta.  After a probe at delta_max (accepted outright when it
    passes) and a degeneracy probe at resolution * delta_max, regula falsi
    with the Illinois change solves w(delta) = eps + DEFAULT_TOL on that
    bracket; a secant step between two probes on one linear piece lands on
    the root.  Each step stays MODULUS_CONFIRM_STEP * delta_max (h) inside
    the bracket, and the search ends when the failing end is within h of the
    passing one, so the result is confirmed by a failed probe at most h above
    it.  After MODULUS_MAX_STEPS steps without that, LPNumericalError is
    raised.  A zero modulus is reported with the degenerate flag set: in
    finite dimension the modulus must be positive, so a zero is a diagnostic,
    not an answer.
    """
    if eps <= 0 or delta_max <= 0:
        raise ValueError("eps and delta_max must be positive")
    if center is None:
        center = center_set(problem)
    base = near_center_set(problem, base_slack, radius=center.radius)
    probes: list[ModulusProbe] = []
    # worst(delta) often equals eps up to rounding (at delta = eps in
    # particular), so each comparison allows DEFAULT_TOL
    target = eps + DEFAULT_TOL

    def excess(delta: float) -> float:
        near = near_center_set(problem, base_slack + delta, radius=center.radius)
        worst, witness = _farthest_vertex(near.vertices(), base)
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
