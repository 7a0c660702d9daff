"""Dense simplex solver.

Desk-scale instances only (tens of variables and constraints), so a plain
tableau with Bland's anti-cycling rule is enough: deterministic pivoting,
guaranteed termination, no sparse machinery.  Every variable is free and is
split into positive parts, and a caller writes any bound as an ordinary row,
which keeps the standard-form conversion tiny at the cost of a slightly wider
tableau.

Phase 1 is the auxiliary problem with a single artificial (Chvatal, Linear
Programming, 1983, ch. 3): every inequality slack starts basic, and the rows
with a negative right-hand side share one artificial column, which enters with
one pivot at the most negative row and so makes every right-hand side
nonnegative.  Equality rows, flipped to a nonnegative right-hand side, keep an
artificial each.  Phase 1 minimizes the sum of the artificials.

Bland's rule is taken with whole-array numpy steps, not per-column or per-row
Python loops.  The entering column is the first with reduced cost below
-DEFAULT_TOL (times 1 + max|c| in phase 2), an argmax on the mask.  The
leaving row is, among the rows with col > PIVOT_EPS whose ratio
max(rhs, 0) / col is within PIVOT_EPS of the least, the one whose basic
variable has the smallest index (Bland, Math. Oper. Res. 1977).  The pivot
update and the phase-2 objective row are computed in a fixed order, so every
tableau holds the same bits and every report the same bytes.

The gauge distances of the renormed-ball model, and the restricted radius
and the sup-norm distance to a polytope on each factor of their polytope
that is wider than a line (see constraints.sup_center), share one program
shape, built in one place by epigraph_lp: min t over v in a polytope with
g.(v - target) <= t for every row g of a fixed matrix and every target.  The
targets fold into one row per g, g.v - t <= min over targets of g.target, so
the program has as many epigraph rows as the matrix has, however many
targets there are.  The program is posed on the polytope's chart
(constraints.Polytope.chart), v = v0 + basis z, so its equalities hold by
construction and reach the simplex as no rows at all, and t is shifted by
the least t0 >= 0 that makes every epigraph row feasible at z = 0: phase 1
runs only for the polytope's own rows that v0 violates.  On a factor whose
chart has one column (a line, see constraints.Polytope.line) the same
program is min over t of max_k (a_k t + b_k), the d = 1 case that
line_minimax solves with no simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InfeasiblePolytopeError, LPNumericalError
from .tolerances import (
    CERTIFY_FLOOR,
    DEFAULT_TOL,
    DRIVE_OUT_EPS,
    FEAS_FACTOR,
    LP_MAX_ITER,
    PIVOT_EPS,
)

if TYPE_CHECKING:  # pragma: no cover
    from .constraints import Polytope

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """min c.x over free x subject to A_ub x <= b_ub and A_eq x = b_eq."""

    c: np.ndarray
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None


@dataclass
class LPSolution:
    status: str
    value: float | None = None
    x: np.ndarray | None = None
    iterations: int = 0


def _as_matrix(a, b, n):
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.size, n):
        raise ValueError(f"constraint shape {a.shape} does not match rhs {b.size} / vars {n}")
    return a, b


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * tab[row]
    # kill residual round-off in the pivot column
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _bland_loop(tab, basis, ncols, tol):
    """Run simplex pivots on tableau (obj row last), at most LP_MAX_ITER.
    Returns iterations."""
    m = tab.shape[0] - 1
    obj = tab[-1, :ncols]  # views: _pivot updates tab in place
    rhs = tab[:m, -1]
    for it in range(LP_MAX_ITER):
        below = obj < -tol
        entering = int(below.argmax())  # Bland: smallest eligible index
        if not below[entering]:
            return it
        col = tab[:m, entering]
        rows = (col > PIVOT_EPS).nonzero()[0]
        ratios = np.maximum(rhs[rows], 0.0) / col[rows]
        tied = rows[ratios <= ratios.min(initial=np.inf) + PIVOT_EPS]
        if tied.size == 0:
            return -(it + 1)  # unbounded marker
        leave = int(tied[basis[tied].argmin()])
        _pivot(tab, leave, entering)
        basis[leave] = entering
    raise LPNumericalError(f"simplex exceeded {LP_MAX_ITER} iterations")


def solve(lp: LinearProgram) -> LPSolution:
    """Solve the program; status is 'optimal', 'infeasible' or 'unbounded'.

    Identical inputs pivot identically, so outputs are reproducible bit for
    bit.  Numerical trouble raises LPNumericalError instead of returning a
    silently wrong answer.
    """
    c = np.asarray(lp.c, dtype=float)
    n = c.size
    a_ub, b_ub = _as_matrix(lp.a_ub, lp.b_ub, n)
    a_eq, b_eq = _as_matrix(lp.a_eq, lp.b_eq, n)

    mi, me = a_ub.shape[0], a_eq.shape[0]
    m = mi + me

    # standard form: split x = u - w and add one slack per inequality row;
    # each equality row, flipped to a nonnegative rhs, gets an artificial, and
    # the inequality rows with a negative rhs share one more (the last column)
    nsplit = 2 * n
    ncore = nsplit + mi
    total = ncore + me + 1
    neg = b_ub < 0
    tab = np.zeros((m + 1, total + 1))
    tab[:mi, :n] = a_ub
    tab[mi:m, :n] = a_eq * np.where(b_eq < 0, -1.0, 1.0)[:, None]
    tab[mi:m, -1] = np.abs(b_eq)
    tab[:m, n:nsplit] = -tab[:m, :n]
    basis = np.arange(nsplit, nsplit + m)
    tab[np.arange(m), basis] = 1.0
    tab[:mi, total - 1][neg] = -1.0
    tab[:mi, -1] = b_ub
    # phase-2 cost of each core column, and a zero under the rhs column
    cost = np.concatenate([c, -c, np.zeros(mi + 1)])

    scale_b = 1.0 + float(np.abs(tab[:m, -1]).max(initial=0.0))
    feas_tol = DEFAULT_TOL * scale_b * FEAS_FACTOR

    # phase 1: minimize the sum of the artificials.  The shared one enters at
    # the most negative row, which leaves every rhs nonnegative.
    iterations = 0
    if me or neg.any():
        tab[-1, ncore:total] = 1.0
        tab[-1] -= tab[mi:m].sum(axis=0)
        if neg.any():
            row = int(np.argmin(b_ub))
            _pivot(tab, row, total - 1)
            basis[row] = total - 1
            iterations = 1
        it = _bland_loop(tab, basis, total, DEFAULT_TOL)
        if it < 0:
            raise LPNumericalError("phase-1 objective unbounded; inconsistent tableau")
        iterations += it
        phase1 = -tab[-1, -1]
        if phase1 > feas_tol:
            return LPSolution(status=INFEASIBLE, iterations=iterations)
        # drive surviving artificials out of the basis on their first usable
        # core column, or drop their rows as redundant
        keep = np.ones(m, dtype=bool)
        for i in np.flatnonzero(basis >= ncore).tolist():
            usable = np.flatnonzero(np.abs(tab[i, :ncore]) > DRIVE_OUT_EPS)
            if usable.size:
                _pivot(tab, i, int(usable[0]))
                basis[i] = usable[0]
            else:
                keep[i] = False
        if not keep.all():
            rows = np.concatenate([np.flatnonzero(keep), [m]])
            tab = tab[rows]
            basis = basis[keep]
            m = basis.size

    # phase 2.  The objective row is the cost row less each basic row times
    # its cost, subtracted in row order: an ordered reduce holds the same
    # bits as a loop of row updates, where a matrix product would not
    tab = np.hstack([tab[:, :ncore], tab[:, -1:]])
    terms = np.empty_like(tab)
    terms[0] = cost
    np.multiply(cost[basis, None], tab[:m], out=terms[1:])
    tab[-1] = np.subtract.reduce(terms)
    it = _bland_loop(tab, basis, ncore, DEFAULT_TOL * (1.0 + float(np.abs(cost).max())))
    if it < 0:
        iterations += -it
        return LPSolution(status=UNBOUNDED, iterations=iterations)
    iterations += it

    x_std = np.zeros(ncore)
    x_std[basis] = tab[:m, -1]
    x = x_std[:n] - x_std[n:nsplit]

    # certify feasibility of the reported point
    certify_tol = max(feas_tol, CERTIFY_FLOOR * scale_b)
    if mi and (a_ub @ x - b_ub).max() > certify_tol:
        raise LPNumericalError("simplex returned an infeasible point (inequalities)")
    if me and np.abs(a_eq @ x - b_eq).max() > certify_tol:
        raise LPNumericalError("simplex returned an infeasible point (equalities)")

    value = float(c @ x)
    return LPSolution(status=OPTIMAL, value=value, x=x, iterations=iterations)


def epigraph_lp(rows, targets, poly: "Polytope") -> tuple[float, np.ndarray]:
    """min t subject to v in poly and g.(v - target) <= t for every row g of
    rows and every target, as (t, v).

    The targets fold into one row per g: g.v - t <= min_j g.target_j.  With
    rows [I; -I] these rows are the band between the targets' envelopes, and
    t is the sup-norm distance from v to the farthest target.

    The program is solved on poly's chart (v0, basis), v = v0 + basis z, in
    the d + 1 free variables (z, s) with t = t0 + s: the rows a_ub basis z <=
    b_ub - a_ub v0 and (g basis) z - s <= r_g + t0, r_g = min_j g.target_j -
    g.v0, and no equality rows.  t0 = max(0, -min_g r_g) makes every epigraph
    row feasible at z = 0, so phase 1 runs only for the rows of poly that v0
    violates.  The point v0 + basis z is certified against poly's own rows,
    equalities included, within max(DEFAULT_TOL * FEAS_FACTOR, CERTIFY_FLOOR)
    * (1 + max|b|), b being poly's right-hand sides and the min_j g.target_j,
    the bar solve puts on the same program posed with equality rows; a miss
    raises LPNumericalError.  Raises InfeasiblePolytopeError when poly is
    empty and LPNumericalError when the LP ends in any other way without an
    optimum.
    """
    rows = np.asarray(rows, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    v0, basis = poly.chart()
    mi, d = poly.a_ub.shape[0], basis.shape[1]
    bound = (rows @ targets.T).min(axis=1)
    rhs = bound - rows @ v0
    t0 = max(0.0, -float(rhs.min()))
    a_ub = np.zeros((mi + rows.shape[0], d + 1))
    a_ub[:mi, :d] = poly.a_ub @ basis
    a_ub[mi:, :d] = rows @ basis
    a_ub[mi:, d] = -1.0
    b_ub = np.concatenate([poly.b_ub - poly.a_ub @ v0, rhs + t0])
    c = np.zeros(d + 1)
    c[d] = 1.0
    sol = solve(LinearProgram(c=c, a_ub=a_ub, b_ub=b_ub))
    if sol.status == INFEASIBLE:
        raise InfeasiblePolytopeError("the polytope of the epigraph LP is empty")
    if sol.status != OPTIMAL:
        raise LPNumericalError(f"epigraph LP ended with status {sol.status}")
    v = v0 + basis @ sol.x[:d]
    scale_b = 1.0 + float(np.abs(np.concatenate([poly.b_ub, poly.b_eq, bound])).max())
    if poly.violation(v) > max(DEFAULT_TOL * FEAS_FACTOR, CERTIFY_FLOOR) * scale_b:
        raise LPNumericalError("the epigraph LP's point leaves its polytope")
    return t0 + float(sol.value), v


def line_minimax(slopes, offsets, lower: float, upper: float) -> float:
    """The least t in [lower, upper] at which max_k (slopes[k] t + offsets[k])
    is within DEFAULT_TOL of its least value there: the d = 1 case of
    fixed-dimension LP (Megiddo, J. ACM, 1984).

    slopes and offsets are float arrays.  The max is convex and piecewise
    linear, so the least t where it is least is a finite end or a crossing of
    two lines of different slopes; a crossing outside [lower, upper] is
    clipped onto the end it passes.  The candidates are scored in one
    broadcast.  An infinite end needs a line that grows toward it.
    """
    rise = slopes[:, None] - slopes
    steeper = rise > 0.0
    cross = ((offsets - offsets[:, None])[steeper] / rise[steeper]).clip(lower, upper)
    cands = np.concatenate([[end for end in (lower, upper) if math.isfinite(end)], cross])
    values = (cands[:, None] * slopes + offsets).max(axis=1)
    return float(cands[values <= values.min() + DEFAULT_TOL].min())


def distance_to_polytope(x, poly: "Polytope") -> tuple[float, np.ndarray]:
    """Sup-norm distance from x to a polytope, with a nearest point, from
    constraints.sup_center: in closed form on the factors of poly that are
    lines, by epigraph_lp on the others.

    A point of poly is measured like any other, so its distance is 0 up to
    the solver's rounding; raises InfeasiblePolytopeError when the polytope
    is empty.
    """
    from .constraints import sup_center  # constraints imports this module

    x = np.asarray(x, dtype=float)
    n = x.size
    if poly.dim != n:
        raise ValueError(f"point dim {n} does not match polytope dim {poly.dim}")
    dist, v = sup_center(x, poly)
    return max(dist, 0.0), v
