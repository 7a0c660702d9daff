"""Renormed-ball model with the half-ball projection property.

Classical construction (Garkavi's example, desk scale): inside R^n with the
sup norm, fix the hyperplane Y = ker(first coordinate) and a norm-one
functional Phi on Y.  A slab U inside the unit ball of Y, a small cube
V = x0 + B_gamma around the unit vector x0, and their reflections generate a
symmetric convex body B = conv(U, V, -V) whose Minkowski gauge renorms the
space.  Under the gauge, the nearest-point map onto Y at x0 is exactly
B_gamma, and near-projections are uniformly close to exact ones (the
"half-ball" identity P_Y(x, eps) = {y : d(y, P_Y(x)) <= eps}).

In finite dimension the slab must stop strictly short of the critical level
alpha = min(Phi over the certificate ball): the infimum is attained, so the
verbatim threshold would touch the ball.  The builder therefore shrinks the
slab to alpha - theta and certifies disjointness by an infeasibility LP;
theta = 0 reproduces the failure on purpose.

The model's programs are the package's own, and what the construction fixes
is read off it.  The hull points of B sit at x0-levels -1, 0 and 1, so
gauge(z) >= |z_0|, and gauge(x0) = 1 is certified: the distance to Y is |x_0|,
attained at x - x_0 * x0 (Ascoli's formula for a hyperplane, Singer 1970),
and the extremes of the certificate ball, a box in Y, sit at its corners.
The half-ball forward gap is witnessed by the exact projection's vertices
over the section facets, with the epigraph LP (lp.epigraph_lp) only for a
vertex whose witness misses; the backward gap takes the gauges of all its
candidates in one broadcast; and the replay crossing of a ray with a gauge
level set is read off the facets in closed form.

Every projection is a level section of B: for a level l >= |x_0|,
P_Y(x, l) = {y in Y : x - y in l B} = x - l (B cap {z_0 = c}) with
c = x_0 / l.  B's facets are known in closed form by the Cayley trick (Huber,
Rambau and Santos, J. Eur. Math. Soc. 2000): every facet other than
z_0 = +-1 meets level 0 and one of the levels +-1, so it lifts a facet normal
of the Minkowski sum U + B_gamma (_ball_facets).  Every hull point is a
vertex of B: the cube's corners are those of its face z_0 = 1, and a point
at level 0 that draws on the levels +-1 draws on B_gamma, inside U, so it is
no vertex of U.  For |c| <= 1, B cap {z_0 = c} = c x0 + (1 - |c|) U +
|c| B_gamma, so B cap Y is the slab U, whose rows and vertices the model
takes.  For 0 < |c| < 1 the section's vertices are c x0 + (1 - |c|) u +
|c| gamma sigma over the pairs of a vertex u of U and a corner sign sigma
whose normal cones meet (the face rule of Minkowski sums, Ziegler, Lectures
on Polytopes, 1995); build_model forms those pairs once from U's tight rows
and holds them (GarkaviModel.level_section), and at c = +-1 the section is
+-V.  A projection reads its vertices off the held pairs and is one
polytope on the model's held rows of Y with its own right-hand side, which
certifies the vertices against its facet rows.  U and B_gamma are
symmetric, so P_Y(x, eps) = x_Y + |x_0| B_gamma + eps U with
x_Y = x - x_0 x0, and the gauge decomposition splits x / gauge(x) by the
identity at its level, with no LP, certified against the slab and cube
rows.  The set gaps of half_ball_check compute nothing from the identity:
they measure it from the facets, so that they stay a check (the replay
measures a certified split).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass

import numpy as np

from . import lp
from .constraints import Functional, Polytope, merge_rows
from .errors import EnumerationError, LPNumericalError, ModelBuildError
from .space import _hausdorff_points, as_vector
from .tolerances import (DEFAULT_THETA, EDGE_INCIDENCE_TOL, GAUGE_CERTIFY_TOL, GAUGE_SPLIT_TOL,
                         HULL_MARGIN_FLOOR, MODEL_DIM_LIMIT, NULL_DIRECTION_TOL, SET_TOL)

# default radius of the cube V = x0 + B_gamma, inside the allowed (0, 1/12)
DEFAULT_GAMMA = 1.0 / 16.0
# the near-projection slacks eps of half_ball_check
HALF_BALL_EPS = (0.2, 0.1)


@dataclass(eq=False)
class GarkaviModel:
    n: int
    seed: int
    gamma: float
    theta: float
    phi: Functional
    phi_row: np.ndarray      # Phi as a dense row of length n
    x0: np.ndarray
    y0: np.ndarray
    alpha: float
    slab: Polytope           # U
    cube: Polytope           # V = x0 + B_gamma
    small_ball: Polytope     # B_gamma
    kernel: Polytope         # Y, without inequality rows
    ball_facets: np.ndarray     # rows a with B = {z : a.z <= 1}, one per facet
    projection_rows: np.ndarray  # -ball_facets: P_Y(x, l) = {y in Y : -a.y <= l - a.x}
    section_facets: np.ndarray  # rows s with B cap Y = U = {y in Y : s.y <= 1}
    section_vertices: np.ndarray  # the vertices of U
    hull_points: np.ndarray     # slab vertices, cube vertices, reflected cube vertices
    # the pairs (u, sigma) of a vertex of U and a corner sign whose normal
    # cones meet (_pairs), as u and (0, sigma) row by row
    pair_u: np.ndarray
    pair_sign: np.ndarray
    split_cone: Polytope        # the gauge decompositions, see _split_cone
    certificates: dict[str, float]
    c_lower: float           # c_lower * |x|_inf <= gauge(x)
    c_upper: float           # gauge(x) <= c_upper * |x|_inf

    def level_section(self, c: float) -> np.ndarray:
        """The vertices of B cap {z_0 = c} for |c| <= 1, unmerged.

        For |c| < 1 the section is c x0 + (1 - |c|) U + |c| B_gamma, whose
        vertices are c x0 + (1 - |c|) u + |c| gamma sigma over the held
        pairs; for c = +-1 it is +-V, whose corners hull_points holds.
        """
        c = float(c)
        if abs(c) == 1.0:
            corners = 2 ** (self.n - 1)
            start = len(self.section_vertices) + (0 if c > 0.0 else corners)
            return self.hull_points[start:start + corners]
        return c * self.x0 + (1.0 - abs(c)) * self.pair_u + abs(c) * self.gamma * self.pair_sign


def build_model(n: int, seed: int = 0, gamma: float = DEFAULT_GAMMA,
                theta: float = DEFAULT_THETA) -> GarkaviModel:
    """Construct and certify the renormed-ball model in dimension n, from 3
    to MODEL_DIM_LIMIT.

    The certificate ball y0 + [-gamma, gamma]^(n-1) in Y takes its margins
    from its corners, the disjointness of the slab is certified by an
    infeasibility LP, the origin inside B by its hull facets and inside
    B cap Y = U by the slab rows; a failed certificate raises ModelBuildError
    naming it (build with theta = 0 to see the attained-infimum failure).
    The gauges of c_upper and of x0 are certified decompositions
    (gauge_decomposition), and every hull point sits at an x0-level
    |z_0| <= 1, so that with gauge(x0) = 1 the distance to Y is |x_0|
    (subspace_gauge_distance).  _ball_facets gives B's facets in closed form
    and _certify_facets checks them (certificate "facets"; a failed rank
    test raises EnumerationError).  _pairs forms the section pairs, and a
    vertex of U or a corner sign in no pair fails the build (certificate
    "edges").  None of these checks adds a key to certificates.
    """
    if not 3 <= n <= MODEL_DIM_LIMIT:
        raise ValueError(f"the model needs dimension 3 to {MODEL_DIM_LIMIT}, got {n}")
    if not 0 < gamma < 1.0 / 12.0:
        raise ValueError(f"gamma must sit in (0, 1/12), got {gamma}")
    if not theta >= 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.3, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    weights = raw / np.sum(np.abs(raw))
    phi = Functional(support=tuple(range(1, n)), weights=tuple(weights))

    x0 = np.zeros(n)
    x0[0] = 1.0
    y0 = np.zeros(n)
    y0[1:] = (1.0 - 2.0 * gamma) * np.sign(weights)

    certificates: dict[str, float] = {}

    # the certificate ball around y0 is the box y0 + [-gamma, gamma]^(n-1) in
    # Y, so each linear extreme over it sits at a corner
    eye = np.eye(n)
    box_rows = np.stack([eye[1:], -eye[1:]], axis=1).reshape(-1, n)  # e_1, -e_1, e_2, ...

    # certificate: the ball stays strictly inside the unit ball of Y
    max_norm = float(np.max(np.abs(y0[1:])) + gamma)
    certificates["interior-margin"] = 1.0 - max_norm
    if certificates["interior-margin"] <= 0:
        raise ModelBuildError(
            f"certificate ball around y0 leaves the unit ball (max norm {max_norm})",
            certificate="interior")

    # certificate: Phi stays strictly above 3/4 on the ball, and alpha < 1
    phi_row = phi.dense(n)
    alpha = float(phi_row @ (y0 - gamma * np.sign(phi_row)))  # min Phi over the ball
    certificates["level-margin"] = alpha - 0.75
    certificates["alpha-below-one"] = 1.0 - alpha
    if certificates["level-margin"] <= 0:
        raise ModelBuildError(f"Phi dips to {alpha} <= 3/4 on the certificate ball",
                              certificate="level")
    if certificates["alpha-below-one"] <= 0:
        raise ModelBuildError(f"alpha = {alpha} not strictly below 1", certificate="alpha")

    shrink = alpha - theta
    certificates["shrink-positive"] = shrink
    if shrink <= 0:
        raise ModelBuildError(f"slab level alpha - theta = {shrink} not positive",
                              certificate="shrink")
    certificates["gamma-inside-slab"] = shrink - gamma
    if certificates["gamma-inside-slab"] <= 0:
        raise ModelBuildError(
            f"B_gamma must sit inside the slab: gamma = {gamma} >= alpha - theta = {shrink}",
            certificate="gamma-slab")

    # certificate: the shrunk slab misses the ball around y0 (infeasibility LP)
    kernel = Polytope(a_eq=eye[:1], b_eq=np.zeros(1))
    slab = kernel.with_rows(np.vstack([box_rows, phi_row, -phi_row]),
                            np.concatenate([np.ones(2 * (n - 1)), [shrink, shrink]]))
    meet = slab.with_rows(box_rows, gamma + box_rows @ y0)
    feas = lp.solve(lp.LinearProgram(c=np.zeros(n), a_ub=meet.a_ub, b_ub=meet.b_ub,
                                     a_eq=meet.a_eq, b_eq=meet.b_eq))
    certificates["disjoint"] = theta
    if feas.status != lp.INFEASIBLE:
        raise ModelBuildError(
            "slab meets the certificate ball (the critical level is attained); "
            "a positive shrink theta is required in finite dimension",
            certificate="disjoint")

    cube = Polytope(a_ub=box_rows, b_ub=np.full(2 * (n - 1), gamma),
                    a_eq=eye[:1], b_eq=np.ones(1))
    small_ball = kernel.with_rows(box_rows, np.full(2 * (n - 1), gamma))

    # the cube's corners x0 + gamma (0, signs), in the order of cube.vertices()
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n - 1)))
    corner_signs = np.pad(signs, ((0, 0), (1, 0)))
    slab_verts, cube_verts = slab.vertices(), x0 + gamma * corner_signs
    hull_points = np.vstack([slab_verts, cube_verts, -cube_verts])
    # B within the slab |z_0| <= 1 gives gauge(z) >= |z_0|: the lower half of
    # the closed form d(x, Y) = |x_0|, whose upper half is gauge(x0) = 1
    level = float(np.max(np.abs(hull_points[:, 0])))
    if level > 1.0 + GAUGE_CERTIFY_TOL:
        raise ModelBuildError(f"a hull point of B sits at x0-level {level}, past 1",
                              certificate="hull-level")
    ball_facets = _ball_facets(n, gamma, shrink, phi_row)
    certificates["ball-interior"] = float(np.min(1.0 / np.linalg.norm(ball_facets, axis=1)))
    if certificates["ball-interior"] <= HULL_MARGIN_FLOOR:
        raise ModelBuildError("origin is not interior to the renormed ball",
                              certificate="ball-interior")
    try:
        _certify_facets(hull_points, ball_facets)
    except np.linalg.LinAlgError as exc:
        raise EnumerationError(f"rank test of the renormed ball: {exc}") from exc
    section_facets = slab.a_ub / slab.b_ub[:, None]
    # U's vertex normal cones cover Y, so every vertex of U and every corner
    # sign lies in some pair: a cheap guard against a missing one
    on_u, on_sign = _pairs(slab_verts, section_facets, corner_signs)
    if len(np.unique(on_u)) < len(slab_verts) or len(np.unique(on_sign)) < len(signs):
        raise ModelBuildError("a vertex of U or a corner of the cube lies in no section pair",
                              certificate="edges")
    projection_rows = -ball_facets
    pair_u, pair_sign = slab_verts[on_u], corner_signs[on_sign]
    for held in (phi_row, ball_facets, projection_rows, section_facets, pair_u, pair_sign):
        held.setflags(write=False)
    model = GarkaviModel(n=n, seed=seed, gamma=gamma, theta=theta, phi=phi, phi_row=phi_row,
                         x0=x0, y0=y0, alpha=alpha, slab=slab, cube=cube, small_ball=small_ball,
                         kernel=kernel, ball_facets=ball_facets, projection_rows=projection_rows,
                         section_facets=section_facets, section_vertices=slab_verts,
                         hull_points=hull_points, pair_u=pair_u, pair_sign=pair_sign,
                         split_cone=_split_cone(slab, cube), certificates=certificates,
                         c_lower=0.0, c_upper=0.0)
    certificates["section-interior"] = float(np.min(slab.b_ub / np.linalg.norm(slab.a_ub, axis=1)))
    if certificates["section-interior"] <= HULL_MARGIN_FLOOR:
        raise ModelBuildError("origin is not interior to B cap Y", certificate="section-interior")

    # norm-equivalence constants and the unit certificate for x0
    max_point_norm = float(np.max(np.abs(hull_points)))
    model.c_lower = 1.0 / max_point_norm
    model.c_upper = float(sum(gauge_norm(model, eye[j]) for j in range(n)))
    g_x0 = gauge_norm(model, x0)
    certificates["x0-gauge-gap"] = abs(g_x0 - 1.0)
    if certificates["x0-gauge-gap"] > GAUGE_CERTIFY_TOL:
        raise ModelBuildError(f"gauge of x0 is {g_x0}, expected 1", certificate="x0-gauge")
    return model


def _ball_facets(n: int, gamma: float, shrink: float, phi_row: np.ndarray) -> np.ndarray:
    """B's facet rows a.z <= 1, one per facet, in the order of merge_rows.

    B_gamma lies inside U, so no facet has a_0 = 0, and each facet other than
    z_0 = +-1 meets level 0 and one of the levels +-1: it is a facet of the
    Cayley polytope of U and B_gamma (Huber, Rambau and Santos, J. Eur. Math.
    Soc. 2000), (+-(1 - gamma |a|_1), a) for a facet normal a of U + B_gamma
    scaled to h_U(a) = 1.  Those normals are the rays of the common
    refinement of the normal fans of U and of the box: with w_j = |Phi_j|,
    a = +-e_i / h_i for h_i = min(1, (s + 1 - w_i) / w_i), and
    a = +-Phi_{J^c} / (s + w_J), Phi with the coordinates in J set to 0, for
    every J of at most n - 3 coordinates with w_J < (1 - s) / 2 (then U's face
    Phi.y = s, y_j = -sign(Phi_j) on J has the right dimension).  gamma
    enters only in the lift, so no step compares cube corners 2 gamma apart.
    """
    eye, w = np.eye(n), np.abs(phi_row)
    normals = [eye[1:] / np.minimum(1.0, (shrink + 1.0 - w[1:]) / w[1:])[:, None]]
    for size in range(n - 2):
        for cut in map(list, itertools.combinations(range(1, n), size)):
            w_cut = float(w[cut].sum())
            if w_cut < (1.0 - shrink) / 2.0:
                a = phi_row.copy()
                a[cut] = 0.0
                normals.append(a / (shrink + w_cut))
    a = np.vstack(normals)
    lift = (1.0 - gamma * np.abs(a).sum(axis=1))[:, None] * eye[0]
    return merge_rows(np.vstack([eye[:1], -eye[:1], a + lift, a - lift, -a + lift, -a - lift]))


def _tight(points: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gaps a.z - 1 of points z against rows a.z <= 1, and which points
    lie on which rows: |a.z - 1| within EDGE_INCIDENCE_TOL * |a|_1, the most
    a.z reaches on |z|_inf <= 1."""
    gap = points @ rows.T - 1.0
    return gap, np.abs(gap) <= EDGE_INCIDENCE_TOL * np.abs(rows).sum(axis=1)


def _pairs(vertices: np.ndarray, rows: np.ndarray,
           signs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, sigma) of a vertex u of U = {y in Y : s.y <= 1} and a
    corner sign sigma of the box whose normal cones meet, as index arrays
    into vertices and signs, u by u.

    By the face rule of Minkowski sums (Ziegler, Lectures on Polytopes, 1995,
    7.1) these give the vertices of (1 - |c|) U + |c| B_gamma.  The open
    normal cone of u holds the positive combinations of its tight rows, and
    the corner's is the open orthant of sigma.  Every tight row but Phi's has
    one nonzero entry, so a combination can take sign sigma_i in coordinate
    i exactly when some tight row has that sign there.
    """
    tight = _tight(vertices, rows)[1]
    rows, signs = rows[:, 1:], signs[:, 1:]
    low, high = tight @ (rows < 0.0), tight @ (rows > 0.0)
    meet = np.where(signs > 0.0, high[:, None, :], low[:, None, :]).all(axis=2)
    return np.nonzero(meet)


def _certify_facets(points: np.ndarray, facets: np.ndarray) -> None:
    """B's facet rows a.z <= 1 against its hull points, by the incidence rule
    of _tight: no point past a row, and each row tight on n affinely
    independent points, which on a.z = 1 (off the origin) is rank n.  A miss
    raises ModelBuildError (certificate "facets")."""
    gap, tight = _tight(points, facets)
    if np.any((gap > 0.0) & ~tight):
        raise ModelBuildError(f"a hull point lies past a facet row of B by {gap.max()!r}",
                              certificate="facets")
    rank = np.linalg.matrix_rank(points * tight.T[:, :, None])
    if np.any(rank < points.shape[1]):
        raise ModelBuildError(f"a facet row of B is tight on hull points of rank {rank.min()}, "
                              f"fewer than n = {points.shape[1]}", certificate="facets")


def _gauge_facets(model: GarkaviModel, x):
    """Gauge of each point of an (..., n) array via the facet description: max
    over facets of a.x, each a.x an elementwise sum, so a point's gauge has
    the same bits alone or in a batch."""
    x = np.asarray(x, dtype=float)
    return np.maximum(np.max((model.ball_facets * x[..., None, :]).sum(axis=-1), axis=-1), 0.0)


def gauge_norm(model: GarkaviModel, x) -> float:
    """Minkowski gauge of the renormed ball, the certified value of
    gauge_decomposition; _gauge_facets is the facet route."""
    return gauge_decomposition(model, x)[0]


def gauge_decomposition(model: GarkaviModel, x):
    """Gauge value plus the witness decomposition (u, v_plus, v_minus, p, q, r).

    x = u + v_plus - v_minus with u in p*slab, v_plus in q*cube and v_minus
    in r*cube, and p + q + r = gauge(x) minimal.  With g = _gauge_facets(x),
    z = x / g lies on B at level c = clip(z_0, -1, 1), and _level_split puts
    z - c x0 in (1 - |c|) U + |c| B_gamma: so p = g (1 - |c|), and the cube
    part goes whole to v_plus (q = g |c|) when c >= 0, else to v_minus
    (r = g |c|).  _certify_decomposition checks the split within
    GAUGE_SPLIT_TOL * |x|_inf.  x = 0 gives zeros; a non-finite x raises
    ValueError.  When that bar falls below the least normal float, x / |x|_inf
    is split instead and its parts and gauge are scaled back by |x|_inf, the
    gauge being positively homogeneous; B lies in the unit cube, so the
    gauge is at least |x|_inf and a nonzero x never has gauge 0.
    """
    x = as_vector(x, model.n)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the point must be finite, got {x}")
    size = float(np.abs(x).max())
    zero = np.zeros(model.n)
    if size == 0.0:
        return 0.0, (zero, zero, zero, 0.0, 0.0, 0.0)
    if GAUGE_SPLIT_TOL * size < sys.float_info.min:
        value, parts = gauge_decomposition(model, x / size)
        return size * value, tuple(size * part for part in parts)
    value = float(_gauge_facets(model, x))
    z = x / value
    c = min(max(float(z[0]), -1.0), 1.0)
    u, w = _level_split(model, z, c)
    cube, scale = value * (c * model.x0 + w), value * abs(c)
    if c >= 0.0:
        parts = (value * u, cube, zero, value * (1.0 - abs(c)), scale, 0.0)
    else:
        parts = (value * u, zero, -cube, value * (1.0 - abs(c)), 0.0, scale)
    _certify_decomposition(model, x, value, parts, GAUGE_SPLIT_TOL * size)
    return value, parts


def _level_split(model: GarkaviModel, z: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """z - z_0 x0 as u + w with u in (1 - |c|) U and w in |c| B_gamma.  Each
    w_j lies in a box (|w_j| <= |c| gamma, |z_j - w_j| <= 1 - |c|) and only
    U's Phi row couples them, so w is taken between the box corners that
    minimize and maximize Phi.w, where Phi.w comes nearest Phi.z."""
    z_y = np.concatenate(([0.0], z[1:]))
    a, b = 1.0 - abs(c), abs(c) * model.gamma
    lo, hi = np.maximum(z_y - a, -b), np.minimum(z_y + a, b)
    lo[0] = hi[0] = 0.0
    phi = model.phi_row
    w_min, w_max = np.where(phi > 0.0, lo, hi), np.where(phi > 0.0, hi, lo)
    low, high = float(phi @ w_min), float(phi @ w_max)
    t = (min(max(float(phi @ z_y), low), high) - low) / (high - low) if high > low else 0.0
    w = w_min + t * (w_max - w_min)
    return z_y - w, w


def _split_cone(slab: Polytope, cube: Polytope) -> Polytope:
    """The (u, v_plus, v_minus, p, q, r) with u in p*slab, v_plus in q*cube,
    v_minus in r*cube and p, q, r >= 0: each polytope's own rows,
    inequalities and equalities, homogenized as [A | -b * scale]."""
    n = slab.dim
    ub, eq = [np.hstack([np.zeros((3, 3 * n)), -np.eye(3)])], []
    for k, poly in enumerate((slab, cube, cube)):
        for a, b, blocks in ((poly.a_ub, poly.b_ub, ub), (poly.a_eq, poly.b_eq, eq)):
            block = np.zeros((a.shape[0], 3 * n + 3))
            block[:, k * n:(k + 1) * n] = a
            block[:, 3 * n + k] = -b
            blocks.append(block)
    a_ub, a_eq = np.vstack(ub), np.vstack(eq)
    return Polytope(a_ub=a_ub, b_ub=np.zeros(len(a_ub)), a_eq=a_eq, b_eq=np.zeros(len(a_eq)))


def _certify_decomposition(model: GarkaviModel, x: np.ndarray, value: float, parts,
                           bar: float) -> None:
    """Primal certificate of a gauge decomposition, against the facet value
    as its dual one: x = u + v_plus - v_minus, the parts in model.split_cone,
    and p + q + r = value, each within bar; a miss, or a NaN, raises
    LPNumericalError."""
    u, vp, vm, p, q, r = parts
    miss = float(np.max([np.abs(u + vp - vm - x).max(), abs(p + q + r - value),
                         model.split_cone.violation(np.concatenate([u, vp, vm, (p, q, r)]))]))
    if not miss <= bar:
        raise LPNumericalError(f"gauge decomposition misses its certificate by {miss!r}")


def subspace_gauge_distance(model: GarkaviModel, x) -> tuple[float, np.ndarray]:
    """min over y in Y of gauge(x - y), with a nearest point, in closed form.

    Y = ker x* for x*(z) = z_0, which attains its norm at x0: build_model
    certifies gauge(x0) = 1 and |z_0| <= 1 on B, so gauge(z) >= |z_0| with
    equality at z = x_0 * x0.  Hence d(x, Y) = |x_0|, attained at
    x - x_0 * x0 (Ascoli's formula).  A non-finite x raises ValueError.
    """
    x = as_vector(x, model.n)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"the point must be finite, got {x}")
    return abs(float(x[0])), np.concatenate(([0.0], x[1:]))


def _projection(model: GarkaviModel, x: np.ndarray, level: float) -> Polytope:
    """{y in Y : gauge(x - y) <= level} for a level >= |x_0|, one row
    a.(x - y) <= level per facet, carrying its vertices.  With c = x_0 / level
    they are x - level * s for the vertices s of the section of B at x0-level
    c, read off the held pairs or cube corners (GarkaviModel.level_section),
    with y_0 set to 0; level 0 is the single point x_Y.  The rows are the
    model's projection_rows with the right-hand side level - a.x, on Y's held
    equality.  The polytope certifies the vertices against its rows
    (EnumerationError on a miss).
    """
    if level > 0.0:
        verts = x - level * model.level_section(x[0] / level)
        verts[:, 0] = 0.0
    else:
        verts = np.concatenate(([0.0], x[1:]))[None]
    kernel = model.kernel
    return Polytope._checked(model.projection_rows, level - model.ball_facets @ x,
                             kernel.a_eq, kernel.b_eq, vertices=verts)


def metric_projection(model: GarkaviModel, x, eps: float = 0.0) -> Polytope:
    """P_Y(x, eps): the y in Y with gauge(x - y) <= d(x, Y) + eps, with
    d(x, Y) = |x_0| from subspace_gauge_distance.  A non-finite x or eps, or
    a negative eps, raises ValueError."""
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    x = as_vector(x, model.n)
    dist, _ = subspace_gauge_distance(model, x)
    return _projection(model, x, dist + eps)


@dataclass(frozen=True)
class HalfBallSample:
    x: tuple[float, ...]
    eps: float
    distance: float
    forward_gap: float   # near-projections past the eps-fattened exact set
    backward_gap: float  # fattened exact set past the near-projection set
    covariance_gap: float


@dataclass(frozen=True)
class HalfBallReport:
    samples: tuple[HalfBallSample, ...]
    replay_rows: tuple[tuple[float, float, float], ...]  # (eta, bound, achieved)
    tol: float

    @property
    def passed(self) -> bool:
        ok_sets = all(s.forward_gap <= self.tol and s.backward_gap <= self.tol
                      and s.covariance_gap <= self.tol for s in self.samples)
        ok_replay = all(achieved <= bound + self.tol for _, bound, achieved in self.replay_rows)
        return ok_sets and ok_replay


def half_ball_check(model: GarkaviModel, samples: int, seed: int = 0) -> HalfBallReport:
    """Certify the half-ball identity P_Y(x, eps) = {y : d(y, P_Y(x)) <= eps}
    on sampled points, for each eps in HALF_BALL_EPS, the translation/scale
    covariance of projections, and the decomposition bound
    d(y, B_gamma) <= gauge(y - x0) - 1.

    d(x, Y) is read off once per sample and d(x0, Y) once per call
    (subspace_gauge_distance); the exact, near and covariance projections are
    all built from these.  The forward gap of a near vertex v is min over p
    in P_Y(x) of gauge(v - p) - eps, taken by _forward_gap from the exact
    vertices as witnesses and by the epigraph LP only where no witness comes
    within eps.  Empty vertex lists raise EnumerationError.
    """
    rng = np.random.default_rng(seed)
    n = model.n
    dist_x0, _ = subspace_gauge_distance(model, model.x0)
    rows = []
    for _ in range(samples):
        y_part = np.zeros(n)
        y_part[1:] = rng.uniform(-0.5, 0.5, n - 1)
        lam = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
        x = y_part + lam * model.x0
        dist, _ = subspace_gauge_distance(model, x)
        exact = _projection(model, x, dist)
        exact_verts = exact.vertices()
        for eps in HALF_BALL_EPS:
            near_verts = _projection(model, x, dist + eps).vertices()
            forward = _forward_gap(model, near_verts, exact, exact_verts, eps) - eps
            # every candidate p + eps*b in one batch
            candidates = exact_verts[:, None, :] + eps * model.section_vertices
            gauges = _gauge_facets(model, x - candidates)
            backward = max(0.0, float(np.max(gauges - dist - eps)))
            # covariance: P_Y(y + lam x0, eps) = y + lam P_Y(x0, eps/|lam|)
            base = _projection(model, model.x0, dist_x0 + float(eps) / abs(lam))
            mapped = y_part + lam * base.vertices()
            covariance_gap = _hausdorff_points(near_verts, mapped)
            rows.append(HalfBallSample(x=tuple(x), eps=float(eps), distance=dist,
                                       forward_gap=max(forward, 0.0),
                                       backward_gap=max(backward, 0.0),
                                       covariance_gap=covariance_gap))

    replay_rows = []
    for eps in HALF_BALL_EPS:
        for _ in range(max(2, samples // 2)):
            eta_target = 1.0 + float(rng.uniform(0.2, 1.0)) * eps
            direction = np.zeros(n)
            direction[1:] = rng.uniform(-1.0, 1.0, n - 1)
            if np.max(np.abs(direction)) < NULL_DIRECTION_TOL:
                direction[1] = 1.0
            replay_rows.append(_decomposition_replay(model, direction, eta_target))
    return HalfBallReport(samples=tuple(rows), replay_rows=tuple(replay_rows), tol=SET_TOL)


def _forward_gap(model: GarkaviModel, near_verts: np.ndarray, exact: Polytope,
                 exact_verts: np.ndarray, eps: float) -> float:
    """max over near vertices v of min over p in exact of gauge(v - p).

    v - p stays in Y, so its gauge is max over the section facets s of
    s.(v - p).  Every exact vertex lies in the exact projection, so the least
    gauge over exact_verts is an upper bound, reached when the half-ball
    identity holds (v = p + eps * b for a vertex p and some b in the section
    ball).  A v whose bound exceeds eps + SET_TOL gets the epigraph LP over
    the whole exact projection instead.
    """
    if not len(near_verts) or not len(exact_verts):
        raise EnumerationError("a projection of the half-ball check has no vertices")
    diffs = near_verts[:, None, :] - exact_verts[None, :, :]
    dists = np.min(np.max(diffs @ model.section_facets.T, axis=2), axis=1)
    for i in np.flatnonzero(dists > eps + SET_TOL):
        dists[i] = lp.epigraph_lp(-model.section_facets, near_verts[i], exact)[0]
    return float(np.max(dists))


def _replay_crossing(model: GarkaviModel, direction: np.ndarray, eta: float) -> float:
    """First t >= 0 with gauge(t * direction - x0) = eta, for eta > 1.

    gauge(t d - x0) = max_a (t a.d - a.x0) is convex in t and equals
    gauge(x0) = 1 at t = 0, so a facet reaches eta at (eta + a.x0) / (a.d)
    when a.d > 0 and never otherwise; the first crossing is the least of these.
    """
    slopes = model.ball_facets @ direction
    rising = slopes > 0.0
    return float(np.min((eta + model.ball_facets[rising] @ model.x0) / slopes[rising]))


def _decomposition_replay(model: GarkaviModel, direction: np.ndarray,
                          eta_target: float) -> tuple[float, float, float]:
    """Walk out of B_gamma along a ray until gauge(y - x0) = eta, then recover
    a point of B_gamma within eta - 1 from the gauge decomposition."""
    y = _replay_crossing(model, direction, eta_target) * direction
    eta, (_, _, vm, _, _, r) = gauge_decomposition(model, y - model.x0)
    # y - x0 sits at x0-level -1, so its cube part goes whole to v_minus:
    # q = 0 and r = 1 up to rounding, and the division is safe
    if r <= 0.5:
        raise LPNumericalError("decomposition lost the mandatory reflected-cube part")
    y_near = model.x0 - vm / r
    achieved = float(_gauge_facets(model, y - y_near))
    if model.small_ball.violation(y_near) > GAUGE_CERTIFY_TOL:
        raise LPNumericalError("recovered point left B_gamma")
    return (eta, eta - 1.0, achieved)


@dataclass(frozen=True)
class TrendRow:
    n: int
    radius: float
    phi_at_center: float
    alpha: float


def center_trend(n_values: tuple[int, ...], seed: int = 0) -> tuple[TrendRow, ...]:
    """Gauge-norm Chebyshev data for the two-point family {0, x0 + y0} over Y
    across dimensions, each model built at the default gamma and theta.
    Reported as a trend only: the interesting failure is
    infinite-dimensional, so no pass/fail is attached."""
    rows = []
    for n in n_values:
        model = build_model(n, seed=seed)
        targets = np.vstack([np.zeros(n), model.x0 + model.y0])
        radius, center = lp.epigraph_lp(model.ball_facets, targets, model.kernel)
        rows.append(TrendRow(n=n, radius=radius,
                             phi_at_center=model.phi(center), alpha=model.alpha))
    return tuple(rows)
