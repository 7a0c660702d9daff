"""Independent oracles the package's own solver is tested against.

The grid oracle walks an explicit mesh on the constraint set and never calls
the package's LP; scipy's HiGHS solver provides a second, independent LP
route.  Between them every radius has two derivations that share no code
with the implementation under test.  The package takes the radius and the
sup-norm distance factor by factor, in closed form on a line; its former
route, one epigraph LP over the whole polytope, stays as
reference_center_set and reference_distance_to_polytope.  Those, and the
renormed-ball references below that take an epigraph LP, solve it by
reference_epigraph_lp, in the ambient layout with the equalities as rows,
which the package's epigraph_lp replaced by its program on the polytope's
chart.  Vertex lists are checked against an exhaustive active-set search,
which shares no code with the package's double description.  The simplex
pivot rule has a scalar reference, reference_bland_loop, that the package's
vectorized rule must match pivot for pivot.  The stability modulus has a
bisection reference,
reference_bisection_modulus, whose final bracket the package's secant search
must land in; it measures each probe with reference_farthest_vertex, one
distance per vertex, which the package's bound-ordered search must match bit
for bit.  The renormed-ball model's forward gap, which the package
takes from exact-vertex witnesses, has two LP routes: reference_forward_gap,
one epigraph LP per near vertex over the whole exact projection, and the
convex-weights route hull_gauge_distance.  Its closed-form replay crossing
has a bisection reference, reference_replay_crossing, and its gauge
decomposition, which the package splits at the point's level in closed form,
has two references: the LP reference_gauge_decomposition, one program over
the homogenized slab and cube rows per point, and the package's former route,
reference_triangulation_decomposition, barycentric weights in the simplex of
Qhull's triangulation of B that the point's ray leaves through.  Its closed forms have LP references too: the distance
to Y, |x_0|, has reference_subspace_gauge_distance, one epigraph LP over the
ball facets, and the corners of the certificate ball have
reference_extreme_values, one LP per direction.  Its edge graph, which the
package finds by a rank test on common facets, has the face-lattice
reference reference_edges, pair by pair.  Its facets, which the package
takes from the distinct columns of the edge incidence, and its section
B cap Y, which the package takes from the slab, keep their former routes as
references: reference_ball_facets merges Qhull's per-simplex rows, and
reference_section merges the Qhull facets of the level-0 section.  Vertex
enumeration has a reference that takes each polytope whole, with no split
into factors: reference_enumerate_vertices, whose candidates come from the
package's former route, an interior-point LP and Qhull's hull of the polar
dual (_polar_dual_candidates), whose filter scores one candidate at a time by
reference_violation and whose merge is reference_merge_rows, the greedy scan
over every kept row.  Handed the package's own candidates of a polytope of
one factor, it must match the package's whole-array filter and merge bit for
bit; with its own, the package's lists must match it in count and within
1e-12, and both must match HiGHS's support values (highs_support).  The stability modulus
takes each probe's worst distance factor by factor, and must match the
full-space scan reference_farthest_vertex over the reference vertices.
The report writer, which walks a report once, keeps its former route as
reference_dump_report: a plain-value copy of the report (reference_jsonable)
handed to json.dumps, whose text it must match byte for byte.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from supcenter import lp
from supcenter.centers import CenterReport, near_center_set
from supcenter.constraints import merge_rows
from supcenter.errors import (InfeasiblePolytopeError, LPNumericalError,
                             UnboundedPolytopeError)
from supcenter.garkavi import _level_section
from supcenter.space import as_vector
from supcenter.tolerances import (CENTER_FLOOR, CERTIFY_SLACK_FACTOR, DEDUP_TOL, DEFAULT_TOL,
                                  EQ_CONSISTENT_TOL, MODULUS_RESOLUTION, NULL_ROW_TOL, PIVOT_EPS,
                                  VERTEX_FILTER_TOL)

GRID_STEP = 0.01
# mesh covering radius (half-diagonal, d <= 3) plus the boundary shrink;
# stays below the 0.02 agreement tolerance with room to spare
GRID_ERROR = 0.018


def kernel_basis(rows, n):
    """Orthonormal basis of the joint kernel (columns), via SVD."""
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    if rows.shape[0] == 0:
        return np.eye(n)
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vh[rank:].T


def grid_radius(values, rows, step=GRID_STEP):
    """Restricted radius over the unit kernel ball by exhaustive mesh search.

    One-sided: every mesh point is feasible, so the result is >= the true
    radius and exceeds it by at most GRID_ERROR (mesh covering radius plus
    the boundary shrink that keeps mesh points inside the ball).
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    q = kernel_basis(rows, n)
    d = q.shape[1]
    if d == 0:
        v = np.zeros(n)
        return float(np.max(np.abs(values - v)))
    bound = np.sqrt(n) + step
    axis = np.arange(-bound, bound + 0.5 * step, step)
    best = np.inf
    if d == 1:
        chunks = [axis[:, None]]
    else:
        tail = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1)
        tail = tail.reshape(-1, d - 1)
        tail_sq = np.sum(tail * tail, axis=1)

        def slices():
            # q is orthonormal, so |s|_2 = |v|_2 <= sqrt(n) on the ball: a mesh
            # point with |s|^2 > n + step would fail the mask below anyway
            for s0 in axis:
                inside = tail[tail_sq <= n - s0 * s0 + step]
                yield np.hstack([np.full((inside.shape[0], 1), s0), inside])

        chunks = slices()
    for s in chunks:
        v = s @ q.T
        mask = np.max(np.abs(v), axis=1) <= 1.0
        if not np.any(mask):
            continue
        v = v[mask]
        obj = np.max(np.abs(v[:, None, :] - values[None, :, :]), axis=(1, 2))
        best = min(best, float(np.min(obj)))
    return best


def scipy_radius(values, rows, lam=1.0, box=None, a_extra=None, b_extra=None):
    """Restricted radius via scipy's HiGHS LP (independent solver route)."""
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    a_ub, b_ub = [], []
    eye = np.eye(n)
    for f in values:
        for j in range(n):
            a_ub.append(np.append(eye[j], -1.0))
            b_ub.append(f[j])
            a_ub.append(np.append(-eye[j], -1.0))
            b_ub.append(-f[j])
    if a_extra is not None:
        for row, rhs in zip(np.asarray(a_extra, dtype=float), np.asarray(b_extra, dtype=float)):
            a_ub.append(np.append(row, 0.0))
            b_ub.append(rhs)
    bound = lam if box is None else box
    bounds = [(-bound, bound)] * n + [(0, None)]
    a_eq = b_eq = None
    rows = np.asarray(rows, dtype=float).reshape(-1, n)
    if rows.shape[0]:
        a_eq = np.hstack([rows, np.zeros((rows.shape[0], 1))])
        b_eq = np.zeros(rows.shape[0])
    res = linprog(np.append(np.zeros(n), 1.0), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(res.fun), res.x[:n]


def global_center(values):
    """Unrestricted Chebyshev radius and one center over the whole space.

    Coordinate-wise midpoint of the family envelope; the radius is half the
    widest coordinate spread.
    """
    values = np.asarray(values, dtype=float)
    hi = values.max(axis=0)
    lo = values.min(axis=0)
    return float(np.max(hi - lo) / 2.0), (hi + lo) / 2.0


def tied_slot_alpha(values, functionals):
    """Optimum of the support reduction in the tied-slot layout, via HiGHS.

    The supports are concatenated functional by functional, so a point shared
    by two functionals occupies two slots, and a tie row holds each repeat
    equal to the slot of the point's first appearance.
    """
    slots = [k for mu in functionals for k in mu.support]
    m = len(slots)
    rows = []
    offset = 0
    for mu in functionals:
        row = np.zeros(m)
        row[offset:offset + len(mu.support)] = mu.weights
        rows.append(row)
        offset += len(mu.support)
    first = {}
    for i, k in enumerate(slots):
        if k in first:
            row = np.zeros(m)
            row[first[k]], row[i] = 1.0, -1.0
            rows.append(row)
        else:
            first[k] = i
    return scipy_radius(np.asarray(values, dtype=float)[:, slots], np.array(rows))[0]


def scipy_solve(lp_problem):
    """Drive scipy on the package's own LinearProgram statement (every
    variable free)."""
    c = np.asarray(lp_problem.c, dtype=float)
    res = linprog(c, A_ub=lp_problem.a_ub, b_ub=lp_problem.b_ub,
                  A_eq=lp_problem.a_eq, b_eq=lp_problem.b_eq,
                  bounds=[(None, None)] * c.size, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    value = res.fun if res.status == 0 else None
    return status, value, res.x if res.status == 0 else None


def highs_distance(x, poly):
    """Sup-norm distance from x to the H-polytope poly via HiGHS: min t with
    |v - x| <= t coordinatewise and v in poly."""
    x = np.asarray(x, dtype=float)
    n = x.size
    eye, col = np.eye(n), np.ones((n, 1))
    a_ub = np.vstack([np.hstack([eye, -col]), np.hstack([-eye, -col]),
                      np.hstack([poly.a_ub, np.zeros((poly.a_ub.shape[0], 1))])])
    b_ub = np.concatenate([x, -x, poly.b_ub])
    a_eq = b_eq = None
    if poly.a_eq.shape[0]:
        a_eq = np.hstack([poly.a_eq, np.zeros((poly.a_eq.shape[0], 1))])
        b_eq = poly.b_eq
    res = linprog(np.append(np.zeros(n), 1.0), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(res.fun)


def epigraph_program(rows, targets, poly):
    """lp.epigraph_lp's program in the package's former layout: min t over
    the ambient (v, t), with poly's rows, one folded epigraph row
    g.v - t <= min_j g.target_j per row g of rows, and poly's equalities as
    equality rows."""
    rows = np.asarray(rows, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n = rows.shape[1]
    mi = poly.a_ub.shape[0]
    a_ub = np.zeros((mi + rows.shape[0], n + 1))
    a_ub[:mi, :n] = poly.a_ub
    a_ub[mi:, :n] = rows
    a_ub[mi:, n] = -1.0
    b_ub = np.concatenate([poly.b_ub, (rows @ targets.T).min(axis=1)])
    a_eq = np.hstack([poly.a_eq, np.zeros((poly.a_eq.shape[0], 1))])
    return lp.LinearProgram(c=np.eye(n + 1)[n], a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=poly.b_eq)


def reference_epigraph_lp(rows, targets, poly):
    """min t over v in poly with g.(v - target) <= t for every row g of rows
    and every target, as (t, v): epigraph_program, in the ambient layout the
    package solved before it posed the program on poly's chart, by lp.solve."""
    sol = lp.solve(epigraph_program(rows, targets, poly))
    if sol.status == lp.INFEASIBLE:
        raise InfeasiblePolytopeError("the polytope of the epigraph LP is empty")
    if sol.status != lp.OPTIMAL:
        raise LPNumericalError(f"epigraph LP ended with status {sol.status}")
    return float(sol.value), sol.x[:-1]


def reference_center_set(problem):
    """Restricted center set by one epigraph LP over the whole of V, the
    package's route before the radius took each factor of V on its own."""
    eye = np.eye(problem.dim)
    radius, rep = reference_epigraph_lp(np.vstack([eye, -eye]), problem.family.values,
                                        problem.feasible)
    poly = near_center_set(problem, 0.0, radius)
    if poly.violation(rep) > DEFAULT_TOL * CERTIFY_SLACK_FACTOR + CENTER_FLOOR:
        raise LPNumericalError("radius minimizer violates its own center polytope")
    return CenterReport(radius=radius, representative=rep, center_polytope=poly)


def reference_distance_to_polytope(x, poly):
    """Sup-norm distance from x to a polytope, with a nearest point, by one
    epigraph LP over the whole polytope, the package's route before the
    distance took each factor on its own."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if poly.dim != n:
        raise ValueError(f"point dim {n} does not match polytope dim {poly.dim}")
    eye = np.eye(n)
    dist, v = reference_epigraph_lp(np.vstack([eye, -eye]), x, poly)
    return max(dist, 0.0), v


def highs_support(poly, direction):
    """max direction.v over the H-polytope poly via HiGHS."""
    direction = np.asarray(direction, dtype=float)
    a_eq = poly.a_eq if poly.a_eq.shape[0] else None
    b_eq = poly.b_eq if poly.a_eq.shape[0] else None
    res = linprog(-direction, A_ub=poly.a_ub, b_ub=poly.b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * direction.size, method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(-res.fun)


def active_set_vertices(a, b, tol=1e-9, merge_tol=1e-7):
    """Vertices of the full-dimensional {z : a z <= b}, by solving every square
    subsystem of d rows and keeping the feasible solutions.

    Exponential in the number of rows: desk-scale systems only.  The
    subsystems are taken in itertools.combinations order, in batches,
    and a solution within merge_tol (sup distance) of one already found is
    dropped.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, d = a.shape
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    row_norms = np.linalg.norm(a, axis=1)
    subsets = itertools.combinations(range(m), d)
    pts = []
    while True:
        idx = np.array(list(itertools.islice(subsets, 20000)), dtype=np.intp).reshape(-1, d)
        if idx.shape[0] == 0:
            break
        sub = a[idx]
        gate = np.prod(row_norms[idx], axis=1) + 1e-30
        solvable = np.abs(np.linalg.det(sub)) > 1e-10 * gate
        z = np.linalg.solve(sub[solvable], b[idx[solvable]][..., None])[..., 0]
        feasible = np.max(z @ a.T - b, axis=1, initial=-np.inf) <= tol * scale * 10.0
        for point in z[feasible]:
            if all(np.max(np.abs(point - p)) > merge_tol for p in pts):
                pts.append(point)
    return np.array(pts) if pts else np.zeros((0, d))


def min_row_gap(rows):
    """Smallest sup distance between two distinct rows (inf for fewer than two)."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] < 2:
        return float("inf")
    gaps = np.max(np.abs(rows[:, None, :] - rows[None, :, :]), axis=2)
    return float(np.min(gaps[np.triu_indices(rows.shape[0], k=1)]))


def _reference_tolerant_ranks(column):
    # values chained by gaps of at most DEDUP_TOL share a rank, so last-ulp
    # noise cannot reorder rows that agree in this column
    order = np.argsort(column, kind="stable")
    ranks = np.empty(column.size, dtype=np.int64)
    ranks[order] = np.concatenate([[0], np.cumsum(np.diff(column[order]) > DEDUP_TOL)])
    return ranks


def reference_merge_rows(rows):
    """constraints.merge_rows as a greedy scan over all rows: each row in
    lexicographic order of the tolerant ranks is compared with every row kept
    so far, and dropped when one lies within DEDUP_TOL (sup distance)."""
    rows = np.asarray(rows, dtype=float)
    keys = [_reference_tolerant_ranks(col) for col in rows.T]
    kept = []
    for row in rows[np.lexsort(keys[::-1])]:
        if not kept or np.min(np.max(np.abs(np.array(kept) - row), axis=1)) > DEDUP_TOL:
            kept.append(row)
    return np.array(kept)


def reference_violation(poly, v):
    """Largest violation of poly by the point v, from one matrix-vector
    product per row block."""
    worst = 0.0
    if poly.a_ub.shape[0]:
        worst = max(worst, float(np.max(poly.a_ub @ v - poly.b_ub)))
    if poly.a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(poly.a_eq @ v - poly.b_eq))))
    return worst


# thresholds of the polar-dual route, relative to the rhs scale 1 + max|b|:
# an inscribed sup-ball radius below -INSCRIBED_TOL is empty, within it of
# zero possibly flat, and a row whose minimum is within TIGHT_ROW_TOL of its
# rhs is tight; relative to the largest polar point, a polar facet whose
# offset is within POLAR_ORIGIN_TOL of zero passes through the origin
INSCRIBED_TOL = 1e-7
TIGHT_ROW_TOL = 1e-8
POLAR_ORIGIN_TOL = 1e-9


def _polar_dual_candidates(a_ub, b_ub, a_eq, b_eq, depth=0):
    """Vertex candidates of {v : a_ub v <= b_ub, a_eq v = b_eq}, the
    package's route before the double description: on the affine hull of the
    equalities, the two ends of an interval in dimension 1, and from
    dimension 2 up an inscribed sup-ball LP for an interior point and Qhull's
    hull of the polar points a_i / (b_i - a_i z0), whose facets are the
    vertices.  A polytope whose inscribed radius is near zero has its rows
    that stay tight (one LP each) promoted to equalities, and is enumerated
    again; with none tight it is only thin and takes the hull."""
    dim = a_ub.shape[1]
    if a_eq.shape[0]:
        v0 = np.linalg.lstsq(a_eq, b_eq, rcond=None)[0]
        if np.max(np.abs(a_eq @ v0 - b_eq)) > EQ_CONSISTENT_TOL * (1.0 + np.max(np.abs(b_eq))):
            raise InfeasiblePolytopeError("equality system is inconsistent")
        _, sv, vh = np.linalg.svd(a_eq)
        basis = vh[int(np.sum(sv > DEFAULT_TOL * sv[0])):].T
    else:
        v0, basis = np.zeros(dim), np.eye(dim)
    d = basis.shape[1]
    if d == 0:
        return v0[None]
    a, b = a_ub @ basis, b_ub - a_ub @ v0
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    live = np.linalg.norm(a, axis=1) > NULL_ROW_TOL
    if np.any(b[~live] < -DEFAULT_TOL * scale):
        raise InfeasiblePolytopeError("a constraint excludes the whole affine hull")
    a, b = a[live], b[live]
    if d == 1:
        col = a[:, 0]
        upper = min((bi / ai for ai, bi in zip(col, b) if ai > 0), default=np.inf)
        lower = max((bi / ai for ai, bi in zip(col, b) if ai < 0), default=-np.inf)
        if lower - upper > DEFAULT_TOL * scale:
            raise InfeasiblePolytopeError("interval bounds cross")
        if not (np.isfinite(lower) and np.isfinite(upper)):
            raise UnboundedPolytopeError("interval is unbounded on one side")
        return v0 + np.array([[lower], [upper]]) @ basis.T
    if np.linalg.matrix_rank(a) < d:
        if a.shape[0] and lp.solve(lp.LinearProgram(c=np.zeros(d), a_ub=a,
                                                    b_ub=b)).status == lp.INFEASIBLE:
            raise InfeasiblePolytopeError("polytope is empty")
        raise UnboundedPolytopeError("inequality rows do not span the free dimensions")
    c = np.zeros(d + 1)
    c[d] = -1.0
    sol = lp.solve(lp.LinearProgram(c=c, a_ub=np.hstack([a, np.abs(a).sum(axis=1)[:, None]]),
                                    b_ub=b))
    if sol.status == lp.UNBOUNDED:
        raise UnboundedPolytopeError("polytope holds sup-balls of every radius")
    assert sol.status == lp.OPTIMAL, f"interior-point LP ended with status {sol.status}"
    rho, z0 = -sol.value, sol.x[:d]
    if rho < -INSCRIBED_TOL * scale:
        raise InfeasiblePolytopeError("polytope is empty: its inscribed radius is negative")
    if rho <= INSCRIBED_TOL * scale:
        tight = []
        for i in range(a.shape[0]):
            s = lp.solve(lp.LinearProgram(c=a[i], a_ub=a, b_ub=b))
            if s.status == lp.INFEASIBLE:
                raise InfeasiblePolytopeError("polytope is empty")
            if s.status == lp.OPTIMAL and b[i] - s.value <= TIGHT_ROW_TOL * scale:
                tight.append(i)
        if tight:
            assert depth <= d, "implicit-equality recursion did not terminate"
            loose = np.setdiff1d(np.arange(a.shape[0]), tight)
            pts = _polar_dual_candidates(a[loose], b[loose], a[tight], b[tight], depth + 1)
            return v0 + pts @ basis.T
        assert rho > 0.0, "flat polytope without implicit equalities"
    polar = a / (b - a @ z0)[:, None]
    eqs = ConvexHull(polar).equations  # [normal | offset].p <= 0
    if np.any(-eqs[:, d] <= POLAR_ORIGIN_TOL * float(np.max(np.abs(polar)))):
        raise UnboundedPolytopeError("polar facet through the origin: unbounded direction")
    return v0 + (z0 + eqs[:, :d] / -eqs[:, d:]) @ basis.T


def reference_enumerate_vertices(poly, raw=None):
    """Vertices of poly taken whole, with no split into factors: the
    candidates raw, by default those of the polar-dual route
    (_polar_dual_candidates), filtered one at a time through
    reference_violation and merged by reference_merge_rows."""
    if raw is None:
        raw = _polar_dual_candidates(poly.a_ub, poly.b_ub, poly.a_eq, poly.b_eq)
    scale = 1.0 + float(np.max(np.abs(raw)))
    bar = max(VERTEX_FILTER_TOL * scale, DEFAULT_TOL * CERTIFY_SLACK_FACTOR)
    return reference_merge_rows(np.array([v for v in raw if reference_violation(poly, v) <= bar]))


def _reference_pivot(tab, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def reference_bland_loop(tab, basis, ncols, tol, windows=None):
    """Bland's rule as scalar loops, a drop-in for lp._bland_loop.

    The entering column is the first with reduced cost below -tol, found
    column by column.  Over the rows with a pivot-column entry above
    PIVOT_EPS, the least ratio max(rhs, 0) / col is found first; the leaving
    row is then, among the rows whose ratio is within PIVOT_EPS of it, the
    one whose basic variable has the smallest index.  Returns the iteration
    count, or -(iterations + 1) when the program is unbounded, and raises
    after lp.LP_MAX_ITER pivots.  When windows
    is a list, the ratios within PIVOT_EPS of the least are appended to it,
    one list per ratio test.
    """
    m = tab.shape[0] - 1
    for it in range(lp.LP_MAX_ITER):
        obj = tab[-1, :ncols]
        entering = -1
        for j in range(ncols):
            if obj[j] < -tol:
                entering = j
                break
        if entering < 0:
            return it
        col = tab[:m, entering]
        ratios = {i: max(tab[i, -1], 0.0) / col[i] for i in range(m) if col[i] > PIVOT_EPS}
        best = np.inf
        for ratio in ratios.values():
            if ratio < best:
                best = ratio
        leave = -1
        window = []
        for i, ratio in ratios.items():
            if ratio <= best + PIVOT_EPS:
                window.append(ratio)
                if leave < 0 or basis[i] < basis[leave]:
                    leave = i
        if windows is not None:
            windows.append(window)
        if leave < 0:
            return -(it + 1)
        _reference_pivot(tab, leave, entering)
        basis[leave] = entering
    raise LPNumericalError(f"simplex exceeded {lp.LP_MAX_ITER} iterations")


def reference_farthest_vertex(verts, target):
    """Largest distance from a vertex to target, with the first vertex within
    DEFAULT_TOL of it, so rounding cannot choose among tied vertices."""
    dists = [lp.distance_to_polytope(v, target)[0] for v in verts]
    worst = max(dists, default=0.0)
    if worst <= 0.0:
        return 0.0, None
    return worst, next(v for v, dist in zip(verts, dists) if dist >= worst - DEFAULT_TOL)


def reference_bisection_modulus(problem, eps, delta_max, center, resolution=MODULUS_RESOLUTION):
    """Bracket (lo, hi) of the stability modulus from plain bisection on the
    worst near-center distance, resolved to hi - lo <= resolution * delta_max.

    lo passes (worst distance <= eps + DEFAULT_TOL) and hi fails, except that
    (delta_max, delta_max) means delta_max itself passes and (0, lo) that
    even the first probe lo = resolution * delta_max fails.
    """
    base = near_center_set(problem, 0.0, radius=center.radius)

    def passes(delta):
        verts = near_center_set(problem, delta, radius=center.radius).vertices()
        return reference_farthest_vertex(verts, base)[0] <= eps + DEFAULT_TOL

    step = resolution * delta_max
    if passes(delta_max):
        return delta_max, delta_max
    lo, hi = step, delta_max
    if not passes(lo):
        return 0.0, lo
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def hull_gauge_distance(model, x, verts):
    """min over p in conv(verts) of gauge(x - p), for x and verts inside Y, via
    HiGHS: one convex weight per vertex, and the gauge of the difference as
    the max over the section facets."""
    s = model.section_facets
    k = verts.shape[0]
    a_ub = np.hstack([-(s @ verts.T), -np.ones((s.shape[0], 1))])
    a_eq = np.append(np.ones(k), 0.0)[None, :]
    res = linprog(np.append(np.zeros(k), 1.0), A_ub=a_ub, b_ub=-(s @ x), A_eq=a_eq,
                  b_eq=np.ones(1), bounds=[(0, None)] * k + [(None, None)], method="highs")
    assert res.status == 0, f"oracle LP failed: {res.message}"
    return float(res.fun)


def reference_forward_gap(model, near_verts, exact):
    """max over the near vertices v of min over p in the polytope exact of
    gauge(v - p), one epigraph LP over the section facets per vertex."""
    return max(reference_epigraph_lp(-model.section_facets, v, exact)[0] for v in near_verts)


def reference_replay_crossing(model, direction, eta):
    """First t with gauge(t * direction - x0) = eta, by doubling an upper
    bracket and bisecting it 200 times on the facet gauge."""
    def value(t):
        return max(float(np.max(model.ball_facets @ (t * direction - model.x0))), 0.0)

    hi = 1.0
    while value(hi) < eta:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if value(mid) < eta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_gauge_decomposition(model, x):
    """Gauge value plus a witness decomposition (u, v_plus, v_minus, p, q, r)
    by one LP.

    x = u + v_plus - v_minus with u in p*slab, v_plus in q*cube and v_minus
    in r*cube, and p + q + r minimal.  Each part takes its polytope's own
    rows, inequalities and equalities, homogenized as [A | -b * scale].
    """
    x = as_vector(x, model.n)
    n = model.n
    nv = 3 * n + 3  # u, v_plus, v_minus, p, q, r
    eye = np.eye(n)
    ub = []
    eq = [np.hstack([eye, eye, -eye, np.zeros((n, 3))])]  # u + v' - v'' = x
    for k, poly in enumerate((model.slab, model.cube, model.cube)):
        for a, b, blocks in ((poly.a_ub, poly.b_ub, ub), (poly.a_eq, poly.b_eq, eq)):
            block = np.zeros((a.shape[0], nv))
            block[:, k * n:(k + 1) * n] = a
            block[:, 3 * n + k] = -b
            blocks.append(block)
    # p, q, r >= 0, explicitly: the homogenized rows imply it only up to the
    # pivot tolerance, and a tiny gamma then lets the LP run unbounded
    ub.append(np.hstack([np.zeros((3, 3 * n)), -np.eye(3)]))
    a_eq = np.vstack(eq)
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[:n] = x
    a_ub = np.vstack(ub)
    c = np.zeros(nv)
    c[3 * n:] = 1.0
    sol = lp.solve(lp.LinearProgram(c=c, a_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]),
                                    a_eq=a_eq, b_eq=b_eq))
    if sol.status != lp.OPTIMAL:
        raise LPNumericalError(f"gauge LP ended with status {sol.status}")
    value = max(float(sol.value), 0.0)
    u, vp, vm = sol.x[:n], sol.x[n:2 * n], sol.x[2 * n:3 * n]
    p, q, r = (float(w) for w in sol.x[3 * n:])
    return value, (u, vp, vm, p, q, r)


def reference_triangulation_decomposition(model, points):
    """Gauge value and decomposition (u, v_plus, v_minus, p, q, r) of each
    point from Qhull's triangulation of B, one hull for all of them.

    The triangulation's flat simplices are dropped (each shares its row with
    one of the same facet that is not).  A point's value is the largest
    simplex row value; the simplices within 1e-9 |x|_inf of it are tried from
    the largest down, and the first whose barycentric weights are all at
    least -1e-9 |x|_inf is split by where its points come from: slab vertices
    give (u, p), cube vertices (v_plus, q), reflected cube vertices
    (v_minus, r).  x = 0 gives zeros.
    """
    hull = ConvexHull(model.hull_points)
    rows = hull.equations[:, :-1] / -hull.equations[:, -1:]
    simplices = hull.simplices
    solid = np.linalg.det(model.hull_points[simplices].transpose(0, 2, 1)) != 0.0
    rows, simplices = rows[solid], simplices[solid]
    n_slab = len(model.section_vertices)
    n_cube = (len(model.hull_points) - n_slab) // 2
    part = np.repeat(np.eye(3), [n_slab, n_cube, n_cube], axis=0)
    out = []
    for x in points:
        x = as_vector(x, model.n)
        bar = 1e-9 * float(np.abs(x).max())
        if bar == 0.0:
            out.append((0.0, (np.zeros(model.n), np.zeros(model.n), np.zeros(model.n),
                              0.0, 0.0, 0.0)))
            continue
        values = rows @ x
        value = float(values.max())
        tied = np.flatnonzero(values >= value - bar)
        tied = tied[np.argsort(-values[tied], kind="stable")]
        corners = model.hull_points[simplices[tied]]
        weights = np.linalg.solve(corners.transpose(0, 2, 1), x[:, None])[:, :, 0]
        inside = np.flatnonzero(weights.min(axis=1) >= -bar)
        if not inside.size:
            raise LPNumericalError("no simplex of the hull triangulation holds the gauge ray")
        k = inside[0]
        onehot = part[simplices[tied[k]]]
        p, q, r = (float(s) for s in weights[k] @ onehot)
        u, vp, minus_vm = (onehot * weights[k][:, None]).T @ corners[k]
        out.append((value, (u, vp, -minus_vm, p, q, r)))
    return out


def reference_subspace_gauge_distance(model, x):
    """min over y in Y of gauge(x - y), with a nearest point, by one epigraph
    LP over the ball facets."""
    x = as_vector(x, model.n)
    # gauge(x - y) = max_a a.(x - y) = max_a (-a).(y - x)
    dist, y = reference_epigraph_lp(-model.ball_facets, x, model.kernel)
    return max(dist, 0.0), y


def reference_extreme_values(poly, direction):
    """max of direction.x over poly, as minus the minimum of -direction.x."""
    sol = lp.solve(lp.LinearProgram(c=-direction, a_ub=poly.a_ub, b_ub=poly.b_ub,
                                    a_eq=poly.a_eq, b_eq=poly.b_eq))
    if sol.status != lp.OPTIMAL:
        raise LPNumericalError(f"extreme-value LP ended with status {sol.status}")
    return -float(sol.value)


def reference_edges(model):
    """Edges of the renormed ball B, pair by pair over its vertices: the
    facets of model.ball_facets tight at the midpoint of two vertices are the
    facets holding both, the vertices on all of them span the least face
    holding both, and the pair is an edge when that face has no third vertex."""
    verts = model.vertices
    points = model.hull_points[verts]
    on = np.abs(points @ model.ball_facets.T - 1.0) <= 1e-9
    edges = []
    for a, b in itertools.combinations(range(len(verts)), 2):
        tight = np.abs(model.ball_facets @ ((points[a] + points[b]) / 2.0) - 1.0) <= 1e-9
        if tight.any() and np.count_nonzero(np.all(on[:, tight], axis=1)) == 2:
            edges.append((verts[a], verts[b]))
    return np.array(edges)


def _qhull_rows(points):
    """Qhull's rows a.z <= 1 of conv(points), one per simplex, and their
    least offset."""
    hull = ConvexHull(points)
    offsets = -hull.equations[:, -1]
    return hull.equations[:, :-1] / offsets[:, None], float(np.min(offsets))


def reference_ball_facets(model):
    """The facets of B as merge_rows over Qhull's per-simplex rows."""
    return merge_rows(_qhull_rows(model.hull_points)[0])


def reference_section(model):
    """B cap Y as the level-0 section polytope of B, carrying the level-0
    section of the edge graph as its vertices: those vertices, the merged
    Qhull facets of their hull in Y (first coordinate 0), and the origin's
    least distance to those facets."""
    section = model.kernel.with_rows(
        model.ball_facets, np.ones(len(model.ball_facets)),
        vertices=_level_section(model.hull_points, model.vertices, model.edges, 0.0))
    verts = section.vertices()
    rows, margin = _qhull_rows(verts[:, 1:])
    in_y = merge_rows(rows)
    return verts, np.hstack([np.zeros((len(in_y), 1)), in_y]), margin


def reference_jsonable(obj):
    """Recursively convert reports (dataclasses, numpy, containers) to plain
    JSON-ready python values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} cannot enter a report")
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return reference_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: reference_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        # surface computed pass/fail properties alongside the stored fields
        if hasattr(type(obj), "passed") and isinstance(getattr(type(obj), "passed"), property):
            out["passed"] = bool(obj.passed)
        return out
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [reference_jsonable(x) for x in seq]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def reference_dump_report(obj):
    """Canonical JSON text by json.dumps over a plain-value copy of the
    report.  A 0-d array cannot enter this route (its .tolist() is a scalar,
    which the copy tries to iterate)."""
    return json.dumps(reference_jsonable(obj), sort_keys=True, indent=2) + "\n"
