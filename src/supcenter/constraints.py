"""Finitely supported functionals, their kernels, and H-polytopes.

A constraint subspace is the joint kernel of finitely many functionals of
total-variation norm one.  Feasible regions are kept in H-representation
(equalities plus <= inequalities).

A polytope whose rows fall into blocks on disjoint columns is the product of
those blocks: one factor per connected component of the nonzeros of its rows
(see factors).  Every functional here is finitely supported, so a center-type
polytope is the coupled support block times one interval per off-support
coordinate.  The vertices of a product are the tuples of factor vertices
(Ziegler, Lectures on Polytopes, 1995), so enumerate_vertices enumerates each
factor once and takes the product, merged once.  One chart parametrizes
the flat of every polytope's equalities (_chart, held by Polytope.chart).  A
factor whose chart has one column is a line (Polytope.line; an interval is
the line of its one column) and reads its two ends off it.  Any other factor
is enumerated on its chart: by double description from dimension 2 up
(_double_description), and as the point its equalities pin in dimension 0.
The restricted radius and the sup-norm distance, maxima over coordinates,
split the same way (sup_center): a factor that is a line takes a 1-D
minimax, a wider one the epigraph LP.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from . import lp
from .errors import (
    EnumerationError,
    InfeasiblePolytopeError,
    LPNumericalError,
    UnboundedPolytopeError,
)
from .space import as_vector
from .tolerances import (CENTER_FLOOR, CERTIFY_SLACK_FACTOR, DEDUP_TOL, DEFAULT_TOL,
                         EQ_CONSISTENT_TOL, NULL_ROW_TOL, RAY_ZERO_TOL, VERTEX_FILTER_TOL)


@dataclass(frozen=True)
class Functional:
    """Finitely supported functional sum_i w_i * delta_{k_i} with sum |w_i| = 1.

    Pass normalize=True to rescale arbitrary nonzero weights onto the unit
    total-variation sphere (plumbing convenience); by default the weights are
    required to be normalized already.
    """

    support: tuple[int, ...]
    weights: tuple[float, ...]
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool):
        support = tuple(int(i) for i in self.support)
        weights = tuple(float(w) for w in self.weights)
        if len(support) != len(weights) or not support:
            raise ValueError("support and weights must be nonempty and equally long")
        if len(set(support)) != len(support):
            raise ValueError("support indices must be distinct")
        if any(i < 0 for i in support):
            raise IndexError(f"negative support index in {support}")
        if not all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if any(w == 0.0 for w in weights):
            raise ValueError("weights must be nonzero")
        tv = sum(abs(w) for w in weights)
        if normalize:
            weights = tuple(w / tv for w in weights)
        elif abs(tv - 1.0) > DEFAULT_TOL:
            raise ValueError(f"weights must have total variation 1, got {tv!r}")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    def __call__(self, v) -> float:
        v = as_vector(v)
        if max(self.support) >= v.size:
            raise IndexError(f"support {self.support} out of range for dimension {v.size}")
        return float(sum(w * v[i] for i, w in zip(self.support, self.weights)))

    def dense(self, dim: int) -> np.ndarray:
        if max(self.support) >= dim:
            raise IndexError(f"support {self.support} out of range for dimension {dim}")
        row = np.zeros(dim)
        row[list(self.support)] = self.weights
        return row


@dataclass(frozen=True)
class Support:
    """The columns a subspace's functionals touch: slots, each support point
    once in order of first appearance; off, the other columns in order; and
    box, the unit box on the slots cut by the functionals' rows there."""

    slots: tuple[int, ...]
    off: np.ndarray
    box: Polytope


@dataclass(frozen=True)
class Subspace:
    """Joint kernel of finitely many functionals inside dimension ``dim``.
    Its dense rows are formed once, read-only; residuals(v) is rows() @ v.

    The polytopes that the functionals alone decide are formed on first use
    and held, as a Polytope holds its split: support() the reduced unit box
    on the support columns, ball() the unit ball B_Y and kernel() Y itself.
    Each then holds its own split, charts and lines, so the questions asked of
    one subspace form them once.  Equality and hash ignore what is held."""

    dim: int
    functionals: tuple[Functional, ...] = ()
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _support: Support | None = field(default=None, init=False, repr=False, compare=False)
    _ball: Polytope | None = field(default=None, init=False, repr=False, compare=False)
    _kernel: Polytope | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("ambient dimension must be positive")
        object.__setattr__(self, "functionals", tuple(self.functionals))
        for mu in self.functionals:
            if max(mu.support) >= self.dim:
                raise IndexError(f"functional support {mu.support} exceeds dimension {self.dim}")
        rows = np.array([mu.dense(self.dim) for mu in self.functionals]).reshape(-1, self.dim)
        rows.setflags(write=False)
        object.__setattr__(self, "_rows", rows)

    def rows(self) -> np.ndarray:
        return self._rows

    def residuals(self, v) -> np.ndarray:
        return self._rows @ as_vector(v, self.dim)

    def support(self) -> Support | None:
        """The support columns and the reduced unit box on them, held; None
        when there are no functionals."""
        if self._support is None and self.functionals:
            slots = tuple(dict.fromkeys(k for mu in self.functionals for k in mu.support))
            off = np.delete(np.arange(self.dim), slots)
            off.setflags(write=False)
            box = Polytope.box(len(slots), 1.0, self._rows[:, slots])
            object.__setattr__(self, "_support", Support(slots, off, box))
        return self._support

    def ball(self) -> Polytope:
        """The unit ball B_Y: the unit box cut by the rows, held."""
        if self._ball is None:
            object.__setattr__(self, "_ball", Polytope.box(self.dim, 1.0, self._rows))
        return self._ball

    def kernel(self) -> Polytope:
        """Y itself: the rows as equalities, no inequality rows, held."""
        if self._kernel is None:
            kernel = Polytope(a_eq=self._rows, b_eq=np.zeros(len(self.functionals)), dim=self.dim)
            object.__setattr__(self, "_kernel", kernel)
        return self._kernel


class Polytope:
    """H-polytope {v : a_ub v <= b_ub, a_eq v = b_eq}.

    A caller that knows the vertices another way (the renormed-ball
    projections read them off the model's edge graph) passes them as
    vertices: each row is certified against the polytope's own rows by the
    feasibility filter of vertex enumeration (_feasible), a miss or an empty
    list raises EnumerationError, and the rows are merged by merge_rows into
    a read-only array that vertices() returns instead of enumerating.  A
    polytope built without them enumerates as before and costs no more.

    The constructor copies the arrays it is given and makes them read-only,
    so what is derived from them alone is formed on first use and held for
    the life of the object: split() holds the factors and their
    sub-polytopes, chart() the chart of the equalities (_chart), and line()
    the ends of a one-column chart.  Vertex enumeration reads a line's ends
    off line().  A call that raises holds nothing, so an empty polytope
    raises on every call.  with_rows makes a new polytope, which forms its
    own on first use.

    A band cut, V.with_band(lower, upper), is V plus a band: it keeps
    (V, lower, upper) and takes what V's equalities decide from V, by one
    route.  Its split is V's, each sub-polytope cut by its slice of the band,
    and its chart V's, formed once by V on first use and held; its line is
    V's (v0, dv) with its own ends.

    Polytopes derived from checked arrays (with_rows, with_band, split) are
    built by _checked, which neither checks nor copies them.
    """

    __slots__ = ("a_ub", "b_ub", "a_eq", "b_eq", "_vertices", "_parts", "_held_line",
                 "_held_chart", "_band")

    def __init__(self, a_ub=None, b_ub=None, a_eq=None, b_eq=None, dim: int | None = None,
                 vertices=None):
        if dim is None:
            for a in (a_ub, a_eq):
                if a is not None:
                    dim = np.atleast_2d(np.asarray(a)).shape[1]
                    break
        if dim is None:
            raise ValueError("cannot infer ambient dimension")
        # copies: _init makes its arrays read-only, and the caller's stay theirs
        arrays = (*lp._as_matrix(a_ub, b_ub, dim), *lp._as_matrix(a_eq, b_eq, dim))
        self._init(*(arr.copy() for arr in arrays), vertices)

    def _init(self, a_ub, b_ub, a_eq, b_eq, vertices=None, band=None):
        """Set every slot from float arrays of matching shapes; the one place
        that does."""
        for arr in (a_ub, b_ub, a_eq, b_eq):
            arr.setflags(write=False)
        self.a_ub, self.b_ub, self.a_eq, self.b_eq = a_ub, b_ub, a_eq, b_eq
        self._vertices = self._parts = self._held_chart = None
        self._held_line = ()  # () until line() has run: it may hold None
        self._band = band  # (V, lower, upper) for a band cut of V (with_band)
        if vertices is not None:
            raw = np.asarray(vertices, dtype=float)
            if not len(raw) or not np.all(_feasible(self, raw)):
                raise EnumerationError("a given vertex fails the feasibility filter")
            self._vertices = merge_rows(raw)
            self._vertices.setflags(write=False)

    @classmethod
    def _checked(cls, a_ub, b_ub, a_eq, b_eq, vertices=None, band=None) -> "Polytope":
        """A polytope on arrays that _as_matrix has already checked, or that
        are derived from checked ones, with no second pass (see _init)."""
        poly = cls.__new__(cls)
        poly._init(a_ub, b_ub, a_eq, b_eq, vertices, band)
        return poly

    @property
    def dim(self) -> int:
        return self.a_ub.shape[1]

    @classmethod
    def box(cls, dim: int, radius: float, a_eq=None) -> "Polytope":
        """The cube [-radius, radius]^dim, cut by a_eq v = 0 when rows are given.
        A radius that is not finite (nan included) raises ValueError."""
        if not -np.inf < radius < np.inf:
            raise ValueError(f"box radius must be finite, got {radius}")
        eye = np.eye(dim)
        b_eq = None if a_eq is None else np.zeros(len(a_eq))
        return cls(a_ub=np.vstack([eye, -eye]), b_ub=np.full(2 * dim, float(radius)),
                   a_eq=a_eq, b_eq=b_eq, dim=dim)

    def with_rows(self, a_ub, b_ub, vertices=None) -> "Polytope":
        """New polytope with extra inequality rows appended, and the given
        vertices, if any, certified against them."""
        a_extra, b_extra = lp._as_matrix(a_ub, b_ub, self.dim)
        return Polytope._checked(np.vstack([self.a_ub, a_extra]),
                                 np.concatenate([self.b_ub, b_extra]),
                                 self.a_eq, self.b_eq, vertices)

    def with_band(self, lower, upper) -> "Polytope":
        """This polytope cut by the band lower <= v <= upper: the rows of
        with_rows([I; -I], [upper; -lower]).  The cut holds the band as it
        reads off those rows, so the caller's arrays stay theirs (see the
        class docstring)."""
        mi, n = self.a_ub.shape[0], self.dim
        eye = np.eye(n)
        b_ub = np.concatenate([self.b_ub, as_vector(upper, n), -as_vector(lower, n)])
        return Polytope._checked(np.vstack([self.a_ub, eye, -eye]), b_ub, self.a_eq, self.b_eq,
                                 band=(self, -b_ub[mi + n:], b_ub[mi:mi + n]))

    def violation(self, v) -> float:
        return float(_violations(self, as_vector(v, self.dim)[None])[0])

    def contains(self, v, tol: float = DEFAULT_TOL) -> bool:
        return self.violation(v) <= tol

    def vertices(self) -> np.ndarray:
        return enumerate_vertices(self) if self._vertices is None else self._vertices

    def split(self) -> list[tuple[np.ndarray, "Polytope"]]:
        """Each factor's columns (see factors) with its sub-polytope, the
        polytope itself when it is one factor.  Formed on the first call and
        held; each sub-polytope holds its own one-factor split.  A band cut
        takes V's split and cuts each sub-polytope by its slice of the band."""
        if self._parts is None:
            # a lone factor is self, and is not held, so the object holds no cycle
            if self._band is None:
                parts = factors(self)
                self._parts = ([(parts[0].cols, None)] if len(parts) == 1 else
                               [(part.cols, _factor_polytope(self, part)) for part in parts])
            else:
                base, lower, upper = self._band
                self._parts = [(cols, None if sub is base else
                                sub.with_band(lower[cols], upper[cols]))
                               for cols, sub in base.split()]
        return [(cols, sub or self) for cols, sub in self._parts]

    def chart(self):
        """_chart(self), formed on the first call and held: a band cut's is
        V's, since V's equalities are its own arrays."""
        if self._held_chart is None:
            self._held_chart = _chart(self) if self._band is None else self._band[0].chart()
        return self._held_chart

    def line(self):
        """(v0, dv, lower, upper) when the chart has one column dv, with the
        ends of this polytope's rows on it (_line_ends), else None; formed on
        the first call and held."""
        if self._held_line == ():
            v0, basis = self.chart()
            self._held_line = _line_ends(self, v0, basis[:, 0]) if basis.shape[1] == 1 else None
        return self._held_line

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, ineqs={self.a_ub.shape[0]}, "
                f"eqs={self.a_eq.shape[0]})")


def _pivot(t: np.ndarray, i: int, j: int, det: float) -> np.ndarray:
    """t after an integer pivot on (i, j), det being the pivot before it:
    row i stays, every other row k becomes (t[k] t[i, j] - t[k, j] t[i]) / det,
    and each entry stays a minor of the first t (Bareiss, Math. Comp. 22, 1968)."""
    out = (t * t[i, j] - np.outer(t[:, j], t[i])) / det
    out[i] = t[i]
    return out


def _chart(poly: Polytope):
    """The flat of poly's equalities as a chart (v0, basis), its points
    v0 + basis z (Polytope.chart holds it).  As in the simplex's dictionary
    form (Chvatal, Linear Programming, 1983), one dependent column per
    independent row is solved for the free ones, on which basis is the
    identity and v0 is 0.

    The tableau [a_eq, b_eq] is pivoted by _pivot.  Elimination with complete
    pivoting, the last column first among equal entries, picks the
    independent rows and the first dependent columns; a pivot of at most
    DEFAULT_TOL * max|a_eq| (after division) adds no rank.  Then while a
    coefficient of basis exceeds 1 in magnitude, the largest is pivoted on,
    swapping its free and dependent columns and multiplying |det| of the
    dependent block by it, so the loop ends on a block of locally maximal
    volume (Goreinov and Tyrtyshnikov, Contemp. Math. 280, 2001) with every
    entry of basis in [-1, 1], or should rounding bring back a block it has
    left.  Each coefficient is one division of two minors (Cramer's rule), so
    a line, one free column dv, has |dv|_inf = 1 and exact data stays exact:
    with weights (1/2, -1/2), v = (t, t).  Repeated rows add no rank, so a
    line given with a row twice has the same chart.  v0 must meet the
    equalities within EQ_CONSISTENT_TOL * (1 + max|b_eq|), or
    InfeasiblePolytopeError is raised."""
    a, b = poly.a_eq, poly.b_eq
    m, n = a.shape
    t, rows, dep, det = np.column_stack([a, b]), [], [], 1.0
    bar = DEFAULT_TOL * float(np.max(np.abs(a), initial=0.0))
    for _ in range(min(m, n)):
        mag = np.abs(t[:, :n])
        mag[rows] = 0.0
        k = int(mag.T[::-1].argmax())  # by columns from the last, rows from the first
        i, j = k % m, n - 1 - k // m
        if mag[i, j] <= bar * abs(det):
            break
        t, det, rows, dep = _pivot(t, i, j, det), t[i, j], rows + [i], dep + [j]
    t, free, seen = t[rows], [j for j in range(n) if j not in dep], set()
    while True:
        diag = t[np.arange(len(dep)), dep]
        coef = t[:, free] / diag[:, None]
        if not (dep and free) or np.abs(coef).max() <= 1.0 or frozenset(dep) in seen:
            break
        seen.add(frozenset(dep))
        i, j = divmod(int(np.abs(coef).argmax()), len(free))
        t, det = _pivot(t, i, free[j], det), t[i, free[j]]
        dep[i], free[j] = free[j], dep[i]
    v0, basis = np.zeros(n), np.eye(n)[:, free]
    basis[dep] = -coef
    if b.any():
        v0[dep] = t[:, n] / diag
    if np.max(np.abs(a @ v0 - b), initial=0.0) > EQ_CONSISTENT_TOL * (
            1.0 + float(np.max(np.abs(b), initial=0.0))):
        raise InfeasiblePolytopeError("equality system is inconsistent")
    return v0, basis


def _ends(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The ends (l, u) of {z : a z <= b} for a column a, infinite on a side
    no row bounds.  A row with |a| <= NULL_ROW_TOL is zero on the line, as
    on a wider chart (_enumerate_reduced), and holds when 0 <= b within
    DEFAULT_TOL * (1 + max|b|); that row, or ends that cross by more, raise
    InfeasiblePolytopeError."""
    bar = DEFAULT_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    lower, upper = -np.inf, np.inf
    # plain floats: the rows number in the tens, where numpy calls cost more
    for a_i, b_i in zip(a.tolist(), b.tolist()):
        if a_i > NULL_ROW_TOL:
            upper = min(upper, b_i / a_i)
        elif a_i < -NULL_ROW_TOL:
            lower = max(lower, b_i / a_i)
        elif b_i < -bar:
            raise InfeasiblePolytopeError("a zero row has a negative right-hand side")
    if lower - upper > bar:
        raise InfeasiblePolytopeError("interval bounds cross: polytope is empty")
    return lower, upper


def _double_description(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of the bounded {z : a z <= b} in d >= 2 columns by double
    description (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and
    Prodon, 1996).  Of the rows with bitwise equal a only the least b is
    kept; the polytope is the t = 1 slice of the cone {(t, z) : b t - a z >= 0,
    t >= 0}, whose rows are scaled to unit norm.  The first d + 1 independent
    rows bound a simplicial cone whose rays are the columns of their inverse;
    each other row cuts it in turn: the rays on its positive side or on it
    stay, and each adjacent pair of a positive and a negative ray adds the
    ray where their segment crosses it.  Two rays are adjacent when no third ray is
    tight on every row both are (one product of the tight-row incidence).
    RAY_ZERO_TOL is the one zero test.  The vertices are z / t over the rays
    with t > 0; none raises InfeasiblePolytopeError, a ray at t = 0 or rows of
    rank below d UnboundedPolytopeError (unless one LP finds them empty)."""
    d, least = a.shape[1], {}
    for k, (key, rhs) in enumerate(zip(map(bytes, a), b.tolist())):
        least[key] = min(least.get(key, (rhs, k)), (rhs, k))
    keep = [k for _, k in least.values()]
    h = np.hstack([b[keep, None], -a[keep]])
    h = np.vstack([h / np.sqrt(np.square(h).sum(axis=1))[:, None], np.eye(1, d + 1)])
    picked, span = [], np.zeros((d + 1, d + 1))
    for i, row in enumerate(h):
        rest = row - (span @ row) @ span
        size = float(np.sqrt(rest @ rest))
        if size > RAY_ZERO_TOL:
            span[len(picked)] = rest / size
            picked.append(i)
            if len(picked) > d:
                break
    else:  # the rows leave a line free
        feasibility = lp.LinearProgram(c=np.zeros(d), a_ub=a, b_ub=b)
        if a.shape[0] and lp.solve(feasibility).status == lp.INFEASIBLE:
            raise InfeasiblePolytopeError("polytope is empty")
        raise UnboundedPolytopeError("inequality rows do not span the free dimensions")
    try:
        rays = np.linalg.inv(h[picked]).T  # ray j is tight on every picked row but row j
    except np.linalg.LinAlgError as exc:
        raise EnumerationError(f"initial cone of the double description: {exc}") from exc
    rays /= np.sqrt(np.square(rays).sum(axis=1))[:, None]
    tight = np.zeros((d + 1, len(h)))  # 1.0 where a ray is tight on a row cut so far
    tight[:, picked] = 1.0 - np.eye(d + 1)
    for i in sorted(set(range(len(h))) - set(picked)):
        s = rays @ h[i]
        stay = s >= -RAY_ZERO_TOL
        tight[:, i] = np.abs(s) <= RAY_ZERO_TOL
        if stay.all():
            continue
        p, q = np.nonzero((s > RAY_ZERO_TOL)[:, None] & ~stay)
        common = tight[p] * tight[q]
        adjacent = (common @ tight.T == common.sum(axis=1)[:, None]).sum(axis=1) == 2
        p, q, common = p[adjacent], q[adjacent], common[adjacent]
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        rays = np.vstack([rays[stay], new / np.sqrt(np.square(new).sum(axis=1))[:, None]])
        common[:, i] = 1.0
        tight = np.vstack([tight[stay], common])
    if not np.any(rays[:, 0] > RAY_ZERO_TOL):
        raise InfeasiblePolytopeError("polytope is empty: no ray of its cone has t > 0")
    if np.any(rays[:, 0] <= RAY_ZERO_TOL):
        raise UnboundedPolytopeError("a ray of the cone at t = 0: unbounded direction")
    return rays[:, 1:] / rays[:, :1]


def _violations(poly: Polytope, points: np.ndarray) -> np.ndarray:
    """Largest violation of poly by each row of points (0 inside it), from one
    product with the inequality rows and one with the equality rows, reduced
    by np.maximum.reduce: np.max without its Python wrapper, for single points."""
    return np.maximum(
        np.maximum.reduce(points @ poly.a_ub.T - poly.b_ub, axis=1, initial=0.0),
        np.maximum.reduce(np.abs(points @ poly.a_eq.T - poly.b_eq), axis=1, initial=0.0))


def _feasible(poly: Polytope, raw: np.ndarray) -> np.ndarray:
    """Which vertex candidates pass the feasibility filter: a violation of
    poly of at most VERTEX_FILTER_TOL * (1 + max|candidate|), and always of
    DEFAULT_TOL * CERTIFY_SLACK_FACTOR, scored all at once by _violations."""
    scale = 1.0 + float(np.max(np.abs(raw)))
    bar = max(VERTEX_FILTER_TOL * scale, DEFAULT_TOL * CERTIFY_SLACK_FACTOR)
    return _violations(poly, raw) <= bar


def _enumerate_reduced(poly: Polytope) -> np.ndarray:
    """Vertex candidates of a polytope that is no line (see _factor_vertices)
    on its chart (Polytope.chart): the point its equalities pin in dimension
    0, and the double description from dimension 2 up."""
    v0, basis = poly.chart()
    if basis.shape[1] == 0:
        if _violations(poly, v0[None])[0] <= DEFAULT_TOL * CERTIFY_SLACK_FACTOR:
            return v0.reshape(1, -1)
        raise InfeasiblePolytopeError("equality system pins an infeasible point")
    a = poly.a_ub @ basis
    b = poly.b_ub - poly.a_ub @ v0
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    live = np.linalg.norm(a, axis=1) > NULL_ROW_TOL
    if np.any(b[~live] < -DEFAULT_TOL * scale):
        raise InfeasiblePolytopeError("a constraint excludes the whole affine hull")
    return v0 + _double_description(a[live], b[live]) @ basis.T


def _tolerant_ranks(rows: np.ndarray) -> np.ndarray:
    # per column, values chained by gaps of at most DEDUP_TOL share a rank, so
    # last-ulp noise cannot reorder rows that agree in that column
    order = rows.argsort(axis=0, kind="stable")
    cols = np.arange(rows.shape[1])
    ordered = rows[order, cols]
    ranks = np.zeros(rows.shape, dtype=np.int64)
    ranks[order[1:], cols] = (ordered[1:] - ordered[:-1] > DEDUP_TOL).cumsum(axis=0)
    return ranks


def merge_rows(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order, each dropped when it lies within DEDUP_TOL
    (sup distance) of a row already kept.  Used for vertex lists, and to
    order the facet rows of the renormed ball, one per facet.

    Two rows within DEDUP_TOL share every tolerant rank: in each column the
    sorted values between them step by gaps no larger than their difference.
    So after the lexsort on the ranks, rows that can merge sit in one run of
    equal keys, a row alone in its run is kept, and the greedy scan runs only
    inside runs of two or more rows; when no two adjacent keys agree, the
    sorted rows are returned at once.  The ranks only decide order and runs;
    every returned row is an input row, unchanged.  On lists of a few dozen
    rows the Python wrappers of np.diff and np.flatnonzero cost more than the
    arithmetic, so steps are slices and runs come from np.nonzero.
    """
    rows = np.asarray(rows, dtype=float)
    ranks = _tolerant_ranks(rows)
    order = np.lexsort(ranks.T[::-1])
    rows, ranks = rows[order], ranks[order]
    change = (ranks[1:] != ranks[:-1]).any(axis=1)
    if change.all():
        return rows
    bounds = np.nonzero(np.concatenate(([True], change, [True])))[0]
    keep = np.ones(len(rows), dtype=bool)
    for run in np.nonzero(bounds[1:] - bounds[:-1] > 1)[0]:
        lo, hi = bounds[run], bounds[run + 1]
        kept = [lo]
        for i in range(lo + 1, hi):
            if np.min(np.max(np.abs(rows[kept] - rows[i]), axis=1)) > DEDUP_TOL:
                kept.append(i)
            else:
                keep[i] = False
    return rows[keep]


@dataclass(frozen=True)
class Factor:
    """One factor of a polytope: the columns cols of one connected component
    of the nonzeros of its rows, and the indices of the inequality rows (ub)
    and equality rows (eq) that touch them."""

    cols: np.ndarray
    ub: np.ndarray
    eq: np.ndarray


def _factor_polytope(poly: Polytope, part: Factor) -> Polytope:
    """The factor part of poly, which has no band: its rows on its columns,
    holding its own one-factor split, which factors would return for it."""
    # poly's arrays are checked already, so _checked takes the slices as they are
    sub = Polytope._checked(poly.a_ub.take(part.ub, 0).take(part.cols, 1), poly.b_ub[part.ub],
                            poly.a_eq.take(part.eq, 0).take(part.cols, 1), poly.b_eq[part.eq])
    sub._parts = [(np.arange(part.cols.size), None)]
    return sub


def _row_masks(a: np.ndarray) -> list[int]:
    """Each row's nonzero columns as the bits of an int (bit j for column j)."""
    packed = np.packbits(a != 0.0, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _joined(comps: list[int], masks: list[int], every: int) -> list[int]:
    """comps, disjoint column masks, with each row mask of masks joined in:
    the row and every component it meets become one.  [every] as soon as one
    component holds every column, since no later row can split it."""
    for mask in masks:
        if mask:
            rest = []
            for c in comps:
                if c & mask:
                    mask |= c
                else:
                    rest.append(c)
            comps = rest + [mask]
            if mask == every:
                return comps
    return comps


def factors(poly: Polytope) -> list[Factor]:
    """poly as a product: one Factor per connected component of the columns,
    two columns being joined when a row has nonzeros in both, in the order of
    their least column.

    The equality rows are joined first: they couple the support blocks, and
    when they join every column, as a row with every entry nonzero does, the
    polytope is a single factor and its inequality rows are not read.  A
    single factor holds every row, zero rows included, and its vertices take
    the route of an unsplit polytope.
    Otherwise a row with no nonzero belongs to no factor and is checked here,
    as the unsplit route checks it: an inequality row 0 <= b holds when
    b >= -DEFAULT_TOL * (1 + max|b_ub|), an equality row 0 = b when
    |b| <= EQ_CONSISTENT_TOL * (1 + max|b_eq|), and else
    InfeasiblePolytopeError is raised.  A column that no row touches is a
    factor with no rows, whose enumeration raises UnboundedPolytopeError.

    The components are unions of row masks, ints with one bit per column, in
    plain Python: the rows number in the tens, where each numpy call would
    cost more than the whole search.
    """
    n = poly.dim
    every = (1 << n) - 1
    eq = _row_masks(poly.a_eq)
    comps = _joined([], eq, every)
    ub = [] if comps == [every] else _row_masks(poly.a_ub)
    comps = _joined(comps, ub, every)
    touched = sum(comps)  # the components are disjoint
    comps += [1 << j for j in range(n) if not touched >> j & 1]
    if len(comps) == 1:
        return [Factor(cols=np.arange(n), ub=np.arange(poly.a_ub.shape[0]),
                       eq=np.arange(len(eq)))]
    zero_ub = [b for m, b in zip(ub, poly.b_ub.tolist()) if not m]
    if zero_ub and min(zero_ub) < -DEFAULT_TOL * (1.0 + float(np.max(np.abs(poly.b_ub)))):
        raise InfeasiblePolytopeError("a zero inequality row has a negative right-hand side")
    zero_eq = [abs(b) for m, b in zip(eq, poly.b_eq.tolist()) if not m]
    if zero_eq and max(zero_eq) > EQ_CONSISTENT_TOL * (1.0 + float(np.max(np.abs(poly.b_eq)))):
        raise InfeasiblePolytopeError("equality system is inconsistent")
    comps.sort(key=lambda c: c & -c)
    return [Factor(cols=np.array([j for j in range(n) if c >> j & 1]),
                   ub=np.array([i for i, m in enumerate(ub) if m & c], dtype=np.intp),
                   eq=np.array([i for i, m in enumerate(eq) if m & c], dtype=np.intp))
            for c in comps]


def _line_ends(poly: Polytope, v0: np.ndarray, dv: np.ndarray):
    """(v0, dv, lower, upper): the line v0 + t dv of poly's one-column chart,
    V's for a band cut, with the ends of poly's inequality rows on it
    (_ends), so an empty line raises InfeasiblePolytopeError."""
    lower, upper = _ends(poly.a_ub @ dv, poly.b_ub - poly.a_ub @ v0)
    return v0, dv, lower, upper


def sup_center(targets, poly: Polytope) -> tuple[float, np.ndarray]:
    """min over v in poly of max over the targets of |v - target|_inf, with a
    minimizer: the restricted radius of a family of targets (centers.
    center_set), and for one target the sup-norm distance to poly
    (lp.distance_to_polytope).

    With lo and hi the least and the largest target values in each
    coordinate, the objective is max_j max(v_j - lo_j, hi_j - v_j), a max over
    coordinates, so over a product (see factors) it is the max of the factor
    values and each factor takes its own minimizer:
    - a factor that is a line v0 + t dv (see Polytope.line; an interval is the
      line of its one column) is the minimax of the lines dv_j t + v0_j - lo_j and
      hi_j - v0_j - dv_j t, solved by lp.line_minimax.  Its minimizer is the
      least t among the minimizers within DEFAULT_TOL, a vertex of the
      factor's own center set, and its value is read off that point, so the
      value is that point's sup gap exactly.  The point must lie in the
      factor within DEFAULT_TOL * CERTIFY_SLACK_FACTOR + CENTER_FLOOR, the
      bar of center_set's own certificate, or LPNumericalError is raised;
    - every other factor takes lp.epigraph_lp with the rows [I; -I], posed
      on the factor's held chart (Polytope.chart), so its equalities reach
      the simplex as no rows.  A polytope of one such factor reaches it with
      the same arrays as a polytope taken whole.
    The split and each factor's line are poly's held ones (Polytope.split,
    Polytope.line), formed by the first call on poly, so a polytope measured
    against again and again, as the stability search does, is split once.
    Raises InfeasiblePolytopeError when poly is empty, on every call.
    """
    targets = np.atleast_2d(targets)
    value, point = -np.inf, np.empty(poly.dim)
    for cols, sub in poly.split():
        part_targets = targets if sub is poly else targets[:, cols]
        line = sub.line()
        if line is None:
            eye = np.eye(sub.dim)
            part_value, point[cols] = lp.epigraph_lp(np.vstack([eye, -eye]), part_targets,
                                                          sub)
        else:
            v0, dv, lower, upper = line
            lo, hi = part_targets.min(axis=0), part_targets.max(axis=0)
            t = lp.line_minimax(np.concatenate([dv, -dv]), np.concatenate([v0 - lo, hi - v0]),
                                lower, upper)
            v = v0 + t * dv
            if _violations(sub, v[None])[0] > DEFAULT_TOL * CERTIFY_SLACK_FACTOR + CENTER_FLOOR:
                raise LPNumericalError("the closed-form minimizer leaves its polytope")
            point[cols] = v
            part_value = float(np.maximum(v - lo, hi - v).max())
        value = max(value, part_value)
    return value, point


def _line_candidates(line) -> np.ndarray:
    """The vertex candidates of a line (v0, dv, lower, upper) (see
    Polytope.line): its ends v0 + lower dv and v0 + upper dv, lower first.
    An infinite end raises UnboundedPolytopeError."""
    v0, dv, lower, upper = line
    if not (-np.inf < lower and upper < np.inf):
        raise UnboundedPolytopeError("line is unbounded on one side")
    return v0 + np.array([[lower], [upper]]) * dv


def _kept(poly: Polytope, raw: np.ndarray) -> np.ndarray:
    """The candidates raw that pass the feasibility filter (_feasible)."""
    keep = raw[_feasible(poly, raw)]
    if not keep.size:
        raise EnumerationError("all candidate vertices failed the feasibility filter")
    return keep


def _factor_vertices(poly: Polytope) -> np.ndarray:
    """Vertices of a polytope taken whole, merged once by merge_rows: a line
    (Polytope.line) its held ends (_line_candidates), any other polytope the
    candidates of _enumerate_reduced, each kept by the feasibility filter.
    The kept rows are the raw candidates themselves."""
    line = poly.line()
    return merge_rows(_kept(poly, _enumerate_reduced(poly) if line is None
                            else _line_candidates(line)))


def _product_factor_vertices(poly: Polytope) -> np.ndarray:
    """The vertex list of one factor of a product, which enumerate_vertices
    merges once as a whole.  A line keeps its ends that pass the filter,
    lower first and unmerged: its chart makes |dv|_inf = 1, so upper - lower is
    their sup distance, and they count as one vertex, the first kept, when
    it is at most DEDUP_TOL.  Any other factor, whose double description can
    return near-duplicates, is merged on its own (_factor_vertices)."""
    line = poly.line()
    if line is None:
        return _factor_vertices(poly)
    keep = _kept(poly, _line_candidates(line))
    return keep[:1] if line[3] - line[2] <= DEDUP_TOL else keep


def enumerate_vertices(poly: Polytope) -> np.ndarray:
    """All vertices of a bounded polytope, merged by merge_rows and sorted.

    The split is poly's held one (Polytope.split).  A polytope of one factor
    is enumerated whole (_factor_vertices).  Otherwise each factor's list is
    formed (_product_factor_vertices), and the product of the lists is
    scattered into the columns and merged once by merge_rows, which sorts
    it; no two rows of a factor list lie within DEDUP_TOL, so neither do two
    tuples.  A factor that is a line reads its ends off its held line, so the
    list of a polytope whose factors are all lines runs no double
    description.  An empty factor makes the product empty, so
    InfeasiblePolytopeError from any factor wins over UnboundedPolytopeError
    from another.

    Raises InfeasiblePolytopeError / UnboundedPolytopeError for empty or
    unbounded systems.
    """
    parts = poly.split()
    if len(parts) == 1:
        verts = _factor_vertices(poly)
    else:
        lists, unbounded = [], None
        for _, sub in parts:
            try:
                lists.append(_product_factor_vertices(sub))
            except UnboundedPolytopeError as exc:
                unbounded = unbounded or exc
        if unbounded is not None:
            raise unbounded
        picks = np.indices([len(v) for v in lists]).reshape(len(lists), -1)
        product = np.empty((picks.shape[1], poly.dim))
        for (cols, _), factor_verts, pick in zip(parts, lists, picks):
            product[:, cols] = factor_verts[pick]
        verts = merge_rows(product)
    verts.setflags(write=False)
    return verts
