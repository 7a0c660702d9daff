"""Constructive centers and near-center repair for kernel-ball constraints.

The constraint set is the unit ball of Y = (joint kernel of finitely many
finitely-supported functionals).  Restricting attention to the support points
turns the problem into a small compact one: the kernel ball restricted to
the support columns, a unit box with one balance equality per functional and
one coordinate per support point, which the subspace holds
(Subspace.support).  It is solved once per family for its optimum alpha, and
the full radius R = max(alpha, off-support term) follows in closed form, so
alpha <= R by construction.  The minimizer extends to an explicit center
by clamping, and a near-center g can be repaired into an exact center at
sup-distance <= eps by projecting onto the reduced center set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import lp
from .centers import (CenterProblem, CenterReport, center_set, near_center_set,
                      perturbation_slack_bound)
from .constraints import Subspace
from .errors import ConstructionError, DimensionMismatchError, PreconditionError
from .space import FunctionFamily, as_vector, band, farthest_radius, sup_norm
from .stability import p1_modulus
from .tolerances import CERTIFY_SLACK_FACTOR, DEFAULT_TOL, GAP_FORMULA_FLOOR, REGIME_TOL

# regimes of the reduced problem relative to the full radius
MATCHED = "matched"   # R == alpha: the support already forces the radius
GAP = "gap"           # R > alpha: slack beta = R - alpha left off support


@dataclass(frozen=True)
class SupportReduction:
    """The kernel-ball problem restricted to the support columns.

    slots[i] is the ambient index of reduced coordinate i: each support point
    once, in order of first appearance.  problem is the reduced CenterProblem
    (unit box on the slots, one balance equality per functional: the box the
    subspace holds, Subspace.support) and center its solved CenterReport,
    both None when there are no functionals; alpha is the reduced optimum
    and radius the full kernel-ball radius R, read off in closed form; both
    are computed once here and read wherever needed.
    """

    slots: tuple[int, ...]
    problem: CenterProblem | None
    center: CenterReport | None
    alpha: float
    radius: float

    @property
    def size(self) -> int:
        return len(self.slots)

    @property
    def regime(self) -> str:
        return MATCHED if self.radius - self.alpha <= REGIME_TOL else GAP


def finite_reduction(family: FunctionFamily, y: Subspace) -> SupportReduction:
    """Solve the reduced problem for alpha and read R off in closed form:
    r(v, B) is a max over coordinates and each off-support i is free in
    [-1, 1], so R = max(alpha, max_i r_i) with r_i = max(hi_i - t_i, t_i - lo_i),
    lo_i, hi_i = min_f f_i, max_f f_i and t_i = clip((lo_i + hi_i)/2, -1, 1).
    The slots, the off-support columns and the reduced box are y's own
    (Subspace.support), so the box keeps its split and lines across calls."""
    if family.dim != y.dim:
        raise DimensionMismatchError(f"family dim {family.dim} != subspace dim {y.dim}")
    support = y.support()
    off = family.values if support is None else family.values[:, support.off]
    lo, hi = off.min(axis=0), off.max(axis=0)
    mid = np.clip(0.5 * (lo + hi), -1.0, 1.0)
    off_radius = float(np.max(np.maximum(hi - mid, mid - lo), initial=0.0))
    if support is None:
        return SupportReduction(slots=(), problem=None, center=None, alpha=0.0, radius=off_radius)

    problem = CenterProblem(family=FunctionFamily(family.values[:, support.slots]),
                            feasible=support.box)
    center = center_set(problem)
    alpha = max(center.radius, 0.0)
    return SupportReduction(slots=support.slots, problem=problem, center=center, alpha=alpha,
                            radius=max(alpha, off_radius))


def _certify_center(h: np.ndarray, family: FunctionFamily, y: Subspace, radius: float,
                    lower: np.ndarray, upper: np.ndarray) -> None:
    slack = DEFAULT_TOL * CERTIFY_SLACK_FACTOR
    outside = np.abs(h) > 1.0 + slack
    if outside.any():
        i = int(outside.argmax())
        raise ConstructionError(f"|h[{i}]| = {abs(h[i])} > 1", point_index=i)
    below, above = h < lower - slack, h > upper + slack
    if (below | above).any():
        i = int((below | above).argmax())
        if below[i]:
            raise ConstructionError(
                f"h[{i}] = {h[i]} < max_f f - R = {lower[i]}", point_index=i)
        raise ConstructionError(
            f"h[{i}] = {h[i]} > min_f f + R = {upper[i]}", point_index=i)
    res = y.residuals(h)
    if res.size and np.max(np.abs(res)) > DEFAULT_TOL:
        raise ConstructionError(f"functional residuals {res} exceed {DEFAULT_TOL}")
    r_h = farthest_radius(h, family)
    if r_h > radius + slack:
        raise ConstructionError(f"r(h, B) = {r_h} > R = {radius}")


def constructive_center(family: FunctionFamily, y: Subspace,
                        reduction: SupportReduction) -> np.ndarray:
    """Explicit point of cent_{B_Y}(B) built from the reduced minimizer, where
    reduction is finite_reduction(family, y).

    Interpolate the reduced minimizer on the support points (zero elsewhere),
    clamp from above by min_f f + R and from below by max_f f - R.  The
    clamps never move the support values, so membership in the kernel ball
    survives.
    """
    radius = reduction.radius
    g = np.zeros(family.dim)
    if reduction.size:
        g[list(reduction.slots)] = reduction.center.representative
    lower, upper = band(family, radius)
    h0 = np.minimum(g, upper)
    h = np.maximum(h0, lower)
    _certify_center(h, family, y, radius, lower, upper)
    return h


@dataclass(frozen=True)
class RepairInput:
    """A near-center g with its admitted slack delta and repair target eps."""

    g: np.ndarray
    eps: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))
        if not 0 < self.eps < np.inf:
            raise PreconditionError(f"eps must be positive and finite, got {self.eps}")
        if not 0 < self.delta <= self.eps:
            raise PreconditionError(
                f"slack must satisfy 0 < delta <= eps, got delta={self.delta}, eps={self.eps}")


@dataclass(frozen=True)
class SlackChoice:
    """Slack selected for a repair, with the regime that produced it."""

    value: float
    regime: str
    origin: str
    alpha: float
    beta: float
    radius: float


# admissible_slack and repair_near_center solve finite_reduction when no
# reduction is given, as the benchmark's slack table and its stability and
# repair workloads call them.  The reduced box comes from y.support(), split
# and with its lines after the first call on y; the family's reduced radius,
# center set and support projection are solved on every call
def admissible_slack(family: FunctionFamily, y: Subspace, eps: float,
                     reduction: SupportReduction | None = None) -> SlackChoice:
    """Slack delta such that any g in cent_{B_Y}(B, delta) repairs within eps.

    Matched regime (R == alpha): the stability modulus of the reduced compact
    problem.  Gap regime (R > alpha): half the explicit perturbation bound
    min{alpha, eps*beta/(6 alpha + 4 beta)} (perturbation_slack_bound) when
    alpha > GAP_FORMULA_FLOOR, otherwise the modulus of the relaxed
    inclusion, cent(beta + delta) against cent(beta), found by the same
    secant search (the bound degenerates with alpha).
    """
    if not 0 < eps < np.inf:
        raise PreconditionError(f"eps must be positive and finite, got {eps}")
    if reduction is None:
        reduction = finite_reduction(family, y)
    alpha, radius, regime = reduction.alpha, reduction.radius, reduction.regime
    beta = radius - alpha

    if reduction.size == 0:
        # no support constraints: every clamped repair is already exact
        return SlackChoice(value=eps, regime=regime, origin="trivial",
                           alpha=alpha, beta=beta, radius=radius)

    if regime == MATCHED:
        base_slack, origin = 0.0, "modulus"
    elif alpha > GAP_FORMULA_FLOOR:
        bound = perturbation_slack_bound(alpha, beta, eps)
        return SlackChoice(value=min(0.5 * bound, eps), regime=GAP, origin="formula",
                           alpha=alpha, beta=beta, radius=radius)
    else:
        base_slack, origin = beta, "relaxed-modulus"
    report = p1_modulus(reduction.problem, eps, delta_max=eps, center=reduction.center,
                        base_slack=base_slack)
    if report.degenerate:
        raise ConstructionError(
            f"reduced stability modulus degenerate at eps={eps}; cannot pick a slack")
    return SlackChoice(value=min(report.delta_star, eps), regime=regime, origin=origin,
                       alpha=alpha, beta=beta, radius=radius)


def repair_near_center(inp: RepairInput, family: FunctionFamily, y: Subspace,
                       reduction: SupportReduction | None = None) -> np.ndarray:
    """Move a delta-near-center g onto cent_{B_Y}(B) without traveling more
    than eps in sup norm.

    Project the support values of g onto the reduced center set (matched
    regime) or its beta-relaxation (gap regime), re-embed, and clamp inside
    the band [max_f f - R, min_f f + R] intersected with [g - eps, g + eps]
    and [-1, 1].  The reduced center set is the center_polytope the
    reduction already holds; only the gap regime builds its relaxation
    (near_center_set).
    """
    g = as_vector(inp.g, family.dim)
    slack = DEFAULT_TOL * CERTIFY_SLACK_FACTOR
    if reduction is None:
        reduction = finite_reduction(family, y)
    radius = reduction.radius

    if sup_norm(g) > 1.0 + slack:
        raise PreconditionError(f"g not in the unit ball: |g| = {sup_norm(g)}")
    res = y.residuals(g)
    if res.size and np.max(np.abs(res)) > slack:
        raise PreconditionError(f"g not in the kernel: residuals {res}")
    r_g = farthest_radius(g, family)
    if r_g > radius + inp.delta + slack:
        raise PreconditionError(
            f"g not admissible: r(g, B) = {r_g} > R + delta = {radius + inp.delta}")

    g_prime = np.zeros(family.dim)
    if reduction.size:
        target = (reduction.center.center_polytope if reduction.regime == MATCHED else
                  near_center_set(reduction.problem, radius - reduction.alpha, reduction.alpha))
        slots = list(reduction.slots)
        dist, z = lp.distance_to_polytope(g[slots], target)
        if dist > inp.eps + slack:
            raise ConstructionError(
                f"support projection moved {dist} > eps = {inp.eps}; slack delta too large")
        g_prime[slots] = z

    lower_band, upper_band = band(family, radius)
    f1 = np.maximum.reduce([lower_band, g - inp.eps, np.full(family.dim, -1.0)])
    f2 = np.minimum.reduce([upper_band, g + inp.eps, np.full(family.dim, 1.0)])
    if np.any(f1 > f2 + slack):
        i = int(np.argmax(f1 - f2))
        raise ConstructionError(
            f"empty clamp band at point {i}: [{f1[i]}, {f2[i]}]", point_index=i)
    h1 = np.maximum(f1, g_prime)
    h2 = np.minimum(h1, f2)

    _certify_center(h2, family, y, radius, lower_band, upper_band)
    moved = float(np.max(np.abs(g - h2)))
    if moved > inp.eps + slack:
        raise ConstructionError(f"repair moved {moved} > eps = {inp.eps}")
    return h2


def simplex_mode(vertex_count: int, problem: CenterProblem) -> CenterReport:
    """Affine functions on a simplex, identified with their vertex values.

    With finitely many extreme points the sup norm over the simplex equals
    the max over vertices, so this is the same computation with a mode tag.
    """
    if vertex_count != problem.dim:
        raise DimensionMismatchError(
            f"vertex count {vertex_count} != problem dimension {problem.dim}")
    report = center_set(problem)
    return replace(report, mode="simplex-vertices")
