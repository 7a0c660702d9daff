"""Restricted Chebyshev radii, center sets and near-center sets.

For a constraint set V and a finite family B, the restricted radius is
rad_V(B) = inf_{v in V} r(v, B); the center set is the slab S_rad(B)
intersected with V, and the near-center set relaxes the slab by a slack
delta.  All three are H-polytopes here; V is a kernel ball lam * B_Y or
the unbounded kernel Y, and the slab, a box, bounds every set.  The radius
is solved once, in center_set, and then handed on: near_center_set, the
perturbation step, the stability modulus and the repair require the solved
radius and never solve it again.  V is a product of factors (the support
blocks and one interval per free coordinate), and the radius is the max of
the factor radii: in closed form on a factor that is a line, by one epigraph
LP on a wider one (constraints.sup_center).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import Polytope, Subspace, sup_center
from .errors import DimensionMismatchError, LPNumericalError, PreconditionError
from .space import FunctionFamily, _hausdorff_points, as_vector, band, farthest_radius
from .tolerances import (CENTER_FLOOR, CERTIFY_SLACK_FACTOR, DEFAULT_TOL, IDENTITY_SET_TOL,
                         THRESHOLD_MARGIN)


@dataclass(frozen=True)
class CenterProblem:
    """A family to approximate and the feasible polytope to approximate from."""

    family: FunctionFamily
    feasible: Polytope

    def __post_init__(self):
        if self.family.dim != self.feasible.dim:
            raise DimensionMismatchError(
                f"family dim {self.family.dim} != constraint dim {self.feasible.dim}")

    @property
    def dim(self) -> int:
        return self.family.dim


@dataclass(frozen=True)
class CenterReport:
    radius: float
    representative: np.ndarray
    center_polytope: Polytope
    mode: str = "pointwise"


def ball_problem(family: FunctionFamily, y: Subspace, lam: float = 1.0) -> CenterProblem:
    """Problem with V = lam * (unit ball of the kernel subspace).  At lam = 1
    V is the ball y holds (Subspace.ball), whose split, charts and lines serve
    every problem on y; any other lam builds its box afresh.  A lam that is
    not positive and finite raises ValueError."""
    if not 0 < lam < np.inf:
        raise ValueError(f"ball scale must be positive and finite, got {lam}")
    feasible = y.ball() if lam == 1.0 else Polytope.box(y.dim, lam, y.rows())
    return CenterProblem(family=family, feasible=feasible)


def subspace_problem(family: FunctionFamily, y: Subspace) -> CenterProblem:
    """Problem with V = the whole kernel subspace: Y's equalities, no
    inequality rows, as y holds it (Subspace.kernel).  V is unbounded, yet
    every program over it is well posed: the band rows bound the epigraph
    variable below, t >= (max_f f_i - min_f f_i) / 2 >= 0, and the band is a
    box, so every center set, near-center set and modulus target over Y is a
    bounded polytope."""
    return CenterProblem(family=family, feasible=y.kernel())


def center_set(problem: CenterProblem) -> CenterReport:
    """Restricted center set as a polytope, with a minimizer attached.

    The radius is the max of the factor radii of V (constraints.sup_center).
    The representative takes each factor's own minimizer: on a factor that is
    a line, the least t among the minimizers within DEFAULT_TOL, t being one
    coordinate of the factor; on a wider factor, whichever optimum the
    deterministic pivot rule of the epigraph LP lands on.  The polytope is
    the canonical answer, and it must hold the representative.
    """
    radius, rep = sup_center(problem.family.values, problem.feasible)
    poly = near_center_set(problem, 0.0, radius)
    if poly.violation(rep) > DEFAULT_TOL * CERTIFY_SLACK_FACTOR + CENTER_FLOOR:
        raise LPNumericalError("radius minimizer violates its own center polytope")
    return CenterReport(radius=radius, representative=rep, center_polytope=poly)


def restricted_radius(problem: CenterProblem) -> float:
    """rad_V(B), the radius of center_set."""
    return center_set(problem).radius


def _check_slack(delta: float) -> None:
    """Refuse a slack that is not a finite number >= 0 (nan included)."""
    if not 0.0 <= delta < np.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {delta}")


def near_center_set(problem: CenterProblem, delta: float, radius: float) -> Polytope:
    """cent_V(B, delta): all v in V with r(v, B) <= radius + delta, where
    radius is the solved rad_V(B) and delta a finite slack >= 0.  center_set
    builds its center polytope here at delta = 0, so a caller holding the
    CenterReport reads center_polytope instead.

    The set is V plus a band, V.with_band(lower, upper): its split and its
    charts are V's, formed once by V and held (see Polytope), each factor
    cut by its slice of the band.  Nothing is formed when the set
    is built.  The stability search takes its probes as bands of V and builds
    no near-center set per probe (stability._product_search).  A radius that
    is not finite (nan included) raises ValueError."""
    _check_slack(delta)
    if not -np.inf < radius < np.inf:
        raise ValueError(f"radius must be finite, got {radius}")
    return problem.feasible.with_band(*band(problem.family, radius + delta))


@dataclass(frozen=True)
class ScalingIdentityReport:
    """Vertex-set Hausdorff gaps for the ball-scaling identities."""

    lam: float
    delta: float
    radius_gap: float
    center_gap: float
    near_gap: float
    tol: float
    passed: bool


def check_scaling_identity(y: Subspace, family: FunctionFamily, lam: float,
                           delta: float | None = None) -> ScalingIdentityReport:
    """Certify cent_{lam B_Y}(B) = lam cent_{B_Y}(B / lam), and the
    delta-version for near-center sets, each gap within IDENTITY_SET_TOL.  A
    lam that is not positive and finite raises ValueError."""
    if not 0 < lam < np.inf:
        raise ValueError(f"scale must be positive and finite, got {lam}")
    direct = ball_problem(family, y, lam)
    shrunk = ball_problem(FunctionFamily(family.values / lam), y)
    c_direct = center_set(direct)
    c_shrunk = center_set(shrunk)
    radius_gap = abs(c_direct.radius - lam * c_shrunk.radius)

    left = c_direct.center_polytope.vertices()
    right = lam * c_shrunk.center_polytope.vertices()
    center_gap = _hausdorff_points(left, right)

    if delta is None:
        delta = 0.25 * max(c_direct.radius, DEFAULT_TOL)
    near_left = near_center_set(direct, delta, radius=c_direct.radius).vertices()
    near_right = lam * near_center_set(shrunk, delta / lam, radius=c_shrunk.radius).vertices()
    near_gap = _hausdorff_points(near_left, near_right)

    passed = all(gap <= IDENTITY_SET_TOL for gap in (radius_gap, center_gap, near_gap))
    return ScalingIdentityReport(lam=lam, delta=float(delta), radius_gap=radius_gap,
                                 center_gap=center_gap, near_gap=near_gap,
                                 tol=IDENTITY_SET_TOL, passed=passed)


@dataclass(frozen=True)
class ThresholdReport:
    """Behaviour of centers when the ball grows past the data magnitude."""

    tau: float
    lam: float
    inclusion_gap: float          # how far cent_Y vertices stick out of cent_{lam B_Y}
    equality_checked: bool
    equality_gap: float | None    # reverse direction, only meaningful above tau
    tol: float
    passed: bool


def check_threshold_equality(y: Subspace, family: FunctionFamily,
                             lam: float | None = None) -> ThresholdReport:
    """Certify cent_Y(B) subset of cent_{lam B_Y}(B) for lam >= tau and equality
    strictly above tau, where tau = max_b |b|_inf + rad_Y(B), each gap within
    IDENTITY_SET_TOL.

    The equality direction is only asserted for lam > tau by a clear margin;
    at lam = tau the identity is too fragile in floating point.
    """
    free_centers = center_set(subspace_problem(family, y))
    tau = float(np.max(np.abs(family.values))) + free_centers.radius
    if lam is None:
        lam = tau + 1.0
    if lam < tau - DEFAULT_TOL:
        raise PreconditionError(f"scale {lam} below threshold {tau}: inclusion not guaranteed")

    scaled_centers = center_set(ball_problem(family, y, lam))

    inclusion_gap = max(
        (scaled_centers.center_polytope.violation(v) for v in free_centers.center_polytope.vertices()),
        default=0.0,
    )
    equality_checked = lam > tau + THRESHOLD_MARGIN
    equality_gap = None
    if equality_checked:
        equality_gap = max(
            (free_centers.center_polytope.violation(v) for v in scaled_centers.center_polytope.vertices()),
            default=0.0,
        )
    passed = inclusion_gap <= IDENTITY_SET_TOL and (
        not equality_checked or equality_gap <= IDENTITY_SET_TOL)
    return ThresholdReport(tau=tau, lam=float(lam), inclusion_gap=float(inclusion_gap),
                           equality_checked=equality_checked,
                           equality_gap=None if equality_gap is None else float(equality_gap),
                           tol=IDENTITY_SET_TOL, passed=passed)


def perturbation_slack_bound(radius: float, gamma: float, eps: float) -> float:
    """Largest admissible slack min{R, eps*gamma / (6R + 4*gamma)} for the
    near-center perturbation step; construct.admissible_slack takes its gap
    formula from here, with R = alpha and gamma = beta."""
    if not (0 < radius < np.inf and 0 < gamma < np.inf and 0 < eps < np.inf):
        raise ValueError("radius, gamma and eps must all be positive and finite")
    return min(radius, eps * gamma / (6.0 * radius + 4.0 * gamma))


def perturb_toward_center(v, v_prime, family: FunctionFamily, feasible: Polytope,
                          gamma: float, delta: float, radius: float, eps: float) -> np.ndarray:
    """Blend a (gamma+delta)-near-center toward a (gamma/2)-near-center.

    Returns v~ = (1 - lam) v + lam v' with lam = 2 delta / (2 delta + gamma);
    certifies r(v~, B) <= rad + gamma and that the move stays below
    lam (3 rad + 2 gamma) (< eps whenever delta respects the slack bound).
    radius is the solved rad = rad_V(B) and eps the move budget: delta must
    lie below perturbation_slack_bound(radius, gamma, eps).
    """
    v = as_vector(v, family.dim)
    v_prime = as_vector(v_prime, family.dim)
    if gamma <= 0 or delta <= 0:
        raise PreconditionError(f"gamma and delta must be positive, got {gamma}, {delta}")
    if delta >= radius:
        raise PreconditionError(f"slack bound violated: delta = {delta} >= rad = {radius}")
    bound = perturbation_slack_bound(radius, gamma, eps)
    if delta >= bound:
        raise PreconditionError(
            f"slack bound violated: delta = {delta} >= min(rad, eps*gamma/(6 rad + 4 gamma)) = {bound}")
    if not feasible.contains(v, DEFAULT_TOL * CERTIFY_SLACK_FACTOR):
        raise PreconditionError("v must lie in the constraint set V")
    if not feasible.contains(v_prime, DEFAULT_TOL * CERTIFY_SLACK_FACTOR):
        raise PreconditionError("v' must lie in the constraint set V")
    rv = farthest_radius(v, family)
    if rv > radius + gamma + delta + DEFAULT_TOL * CERTIFY_SLACK_FACTOR:
        raise PreconditionError(
            f"v not admissible: r(v, B) = {rv} > rad + gamma + delta = {radius + gamma + delta}")
    rvp = farthest_radius(v_prime, family)
    if rvp > radius + gamma / 2.0 + DEFAULT_TOL * CERTIFY_SLACK_FACTOR:
        raise PreconditionError(
            f"v' not admissible: r(v', B) = {rvp} > rad + gamma/2 = {radius + gamma / 2.0}")

    lam = 2.0 * delta / (2.0 * delta + gamma)
    blended = (1.0 - lam) * v + lam * v_prime
    achieved = farthest_radius(blended, family)
    if achieved > radius + gamma + DEFAULT_TOL * CERTIFY_SLACK_FACTOR:
        raise LPNumericalError(
            f"perturbation certificate failed: r(v~, B) = {achieved} > rad + gamma")
    move = float(np.max(np.abs(v - blended)))
    move_bound = lam * (3.0 * radius + 2.0 * gamma)
    if move > move_bound + DEFAULT_TOL * CERTIFY_SLACK_FACTOR:
        raise LPNumericalError(
            f"perturbation certificate failed: |v - v~| = {move} > {move_bound}")
    if move >= eps:
        raise LPNumericalError(f"perturbation moved {move}, expected strictly below {eps}")
    return blended

