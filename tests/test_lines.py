"""The radius and the sup-norm distance on a factor that is a line, in closed
form, against the whole-polytope epigraph LP they replaced
(reference_center_set, reference_distance_to_polytope).

Both routes round, and on a line whose data is far from exact their rounding
grows with the block's conditioning: on a drawn grid line the two can differ
by a few times 1e-15 while each is off the exact rational optimum by as much.
So the routes are held to agree within 1e-15 (1 + |x|) where the data stays
exact, on the corpus and on drawn lines whose equality weights are signed
powers of two (every cofactor ratio, bound and grid target then stays a
dyadic rational with few bits), and within DEFAULT_TOL (1 + |x|), the LP's
own optimality tolerance, on drawn lines with any grid weights.  The tie rule
of the closed form, the least t within DEFAULT_TOL of the least value, is
tested on its own.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import supcenter as sc
from supcenter import constraints as con
from supcenter import garkavi, lp
from supcenter.errors import InfeasiblePolytopeError, LPNumericalError
from supcenter.tolerances import (CENTER_FLOOR, CERTIFY_SLACK_FACTOR, DEDUP_TOL, DEFAULT_TOL,
                                  EQ_CONSISTENT_TOL)

from oracles import (reference_center_set, reference_distance_to_polytope,
                     reference_enumerate_vertices)

BAR = DEFAULT_TOL * CERTIFY_SLACK_FACTOR + CENTER_FLOOR
EXACT = 1e-15
EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8.0)
TENTHS = st.integers(-10, 10).map(lambda k: k / 10.0)
POWERS_OF_TWO = st.sampled_from([1.0, 0.5, 0.25, 0.125, -1.0, -0.5, -0.25, -0.125])


def agree(closed, reference, scale, tol):
    """Within tol (1 + |x|), |x| being the largest magnitude among the data
    (targets and right-hand sides) and the two values."""
    assert abs(closed - reference) <= tol * (1.0 + max(scale, abs(closed), abs(reference))), (
        closed, reference)


def data_scale(targets, poly):
    return float(max(np.max(np.abs(targets)), np.max(np.abs(poly.b_ub), initial=0.0),
                     np.max(np.abs(poly.b_eq), initial=0.0)))


def check_center(problem, tol=EXACT):
    """center_set against the reference LP: the radius, and the
    representative inside V and inside its own center polytope, where it
    attains the radius."""
    ours, ref = sc.center_set(problem), reference_center_set(problem)
    scale = data_scale(problem.family.values, problem.feasible)
    agree(ours.radius, ref.radius, scale, tol)
    assert problem.feasible.violation(ours.representative) <= BAR
    assert ours.center_polytope.violation(ours.representative) <= BAR
    agree(sc.farthest_radius(ours.representative, problem.family), ours.radius, scale, EXACT)
    return ours


def check_distance(x, poly, tol=EXACT):
    """distance_to_polytope against the reference LP: the distance, and the
    nearest point inside poly at a sup gap equal to the distance.  A factor
    wider than a line takes the epigraph LP on its chart, which pivots by
    another path than the reference's ambient layout, so a polytope with one
    must match the chart LP on the whole polytope within tol, and the
    reference within DEFAULT_TOL, the bar of the chart-against-reference
    tests (tests/test_lp.py)."""
    dist, point = lp.distance_to_polytope(x, poly)
    ref, _ = reference_distance_to_polytope(x, poly)
    scale = data_scale(x, poly)
    if all(sub.line() is not None for _, sub in poly.split()):
        agree(dist, ref, scale, tol)
    else:
        eye = np.eye(poly.dim)
        agree(dist, max(lp.epigraph_lp(np.vstack([eye, -eye]), x, poly)[0], 0.0), scale, tol)
        agree(dist, ref, scale, DEFAULT_TOL)
    assert poly.violation(point) <= BAR
    agree(float(np.max(np.abs(x - point))), dist, scale, EXACT)
    return dist, point


def box_line(draw, a_eq):
    """The line a_eq v = a_eq p in the box [-s, s]^k, for a grid point p that
    lies in the box or, half the time, anywhere in [-2, 2]^k, so that the
    line may miss the box; None when a_eq leaves no line or splits."""
    k = a_eq.shape[1]
    side = draw(st.sampled_from([0.5, 1.0, 2.0]))
    reach = side if draw(st.booleans()) else 2.0
    through = np.array(draw(st.lists(st.integers(-8, 8), min_size=k, max_size=k))) / 8.0 * reach
    eye = np.eye(k)
    poly = sc.Polytope(a_ub=np.vstack([eye, -eye]), b_ub=np.full(2 * k, side), a_eq=a_eq,
                       b_eq=a_eq @ through, dim=k)
    assume(k == 1 or np.linalg.matrix_rank(a_eq) == k - 1)
    assume(len(con.factors(poly)) == 1)
    return poly


@st.composite
def grid_lines(draw, weights=EIGHTHS):
    """A line of k = 1 to 3 columns whose k - 1 equality rows have any weights
    on the grid of multiples of 1/8 (or of the given weights), zeros included."""
    k = draw(st.sampled_from([2, 3, 1]))
    rows = st.lists(st.lists(weights, min_size=k, max_size=k), min_size=k - 1, max_size=k - 1)
    return box_line(draw, np.array(draw(rows), dtype=float).reshape(k - 1, k))


@st.composite
def exact_lines(draw):
    """A line of the package's shapes with weights that are signed powers of
    two: one functional on two columns, or a chain of two functionals on
    three columns that share the middle one."""
    w = [draw(POWERS_OF_TWO) for _ in range(4)]
    if draw(st.booleans()):
        a_eq = np.array([[w[0], w[1]]])
    else:
        a_eq = np.array([[w[0], w[1], 0.0], [0.0, w[2], w[3]]])
    return box_line(draw, a_eq)


def check_line(poly, data, tol):
    k = poly.dim
    values = np.array(data.draw(st.lists(st.lists(EIGHTHS, min_size=k, max_size=k),
                                         min_size=1, max_size=3)), dtype=float)
    x = np.array(data.draw(st.lists(EIGHTHS, min_size=k, max_size=k)), dtype=float)
    problem = sc.CenterProblem(family=sc.FunctionFamily(values), feasible=poly)
    try:
        reference_center_set(problem)
    except InfeasiblePolytopeError:
        for route in (lambda: sc.center_set(problem), lambda: lp.distance_to_polytope(x, poly)):
            with pytest.raises(InfeasiblePolytopeError):
                route()
        return
    assert poly.line() is not None
    center = check_center(problem, tol)
    # on a line the value is read off the point: the representative attains
    # the radius and the nearest point the distance exactly
    assert sc.farthest_radius(center.representative, problem.family) == center.radius
    dist, point = check_distance(x, poly, tol)
    assert float(np.max(np.abs(x - point))) == dist
    # the line given with a repeated row measures the same bytes
    repeated = sc.CenterProblem(family=problem.family, feasible=_repeated_row(poly))
    again = sc.center_set(repeated)
    assert np.float64(again.radius).tobytes() == np.float64(center.radius).tobytes()
    assert again.representative.tobytes() == center.representative.tobytes()
    got_dist, got_point = lp.distance_to_polytope(x, repeated.feasible)
    assert np.float64(got_dist).tobytes() == np.float64(dist).tobytes()
    assert got_point.tobytes() == point.tobytes()


@settings(max_examples=150)
@given(poly=exact_lines(), data=st.data())
def test_exact_lines_match_the_lp_to_rounding(poly, data):
    check_line(poly, data, EXACT)


@settings(max_examples=150)
@given(poly=grid_lines(), data=st.data())
def test_grid_lines_match_the_lp_within_its_tolerance(poly, data):
    check_line(poly, data, DEFAULT_TOL)


def _repeated_row(poly):
    """poly with its first equality row given twice, poly itself when it has
    no equality row."""
    if not poly.a_eq.shape[0]:
        return poly
    return sc.Polytope(a_ub=poly.a_ub, b_ub=poly.b_ub, a_eq=np.vstack([poly.a_eq, poly.a_eq[:1]]),
                       b_eq=np.concatenate([poly.b_eq, poly.b_eq[:1]]))


@settings(max_examples=150)
@given(poly=grid_lines(TENTHS), data=st.data())
def test_decimal_lines_match_the_lp_within_its_tolerance(poly, data):
    # binary floats round multiples of 1/10, so a direction entry whose exact
    # value is 0 can come out near 1e-16: a row that meets the line in such
    # an entry is zero on it (NULL_ROW_TOL), not a bound far off
    check_line(poly, data, DEFAULT_TOL)


def test_a_rounded_zero_entry_of_the_direction_bounds_nothing():
    # columns 1 and 2 are proportional, so the equalities fix v0 = -1 and
    # the direction's entry 0 is 0; in floats it comes out near 1e-16, where
    # the box row on v0, with its right-hand side rounded near 0, would
    # bound t far off and leave the line empty
    a_eq = np.array([[0.6, 0.4, 0.3], [-1.0, 0.8, 0.6]])
    poly = sc.Polytope(a_ub=np.vstack([np.eye(3), -np.eye(3)]), b_ub=np.ones(6), a_eq=a_eq,
                       b_eq=a_eq @ np.array([-1.0, 0.4, -1.6]))
    _, dv, lower, upper = poly.line()
    assert abs(dv[0]) < 1e-15 and lower < upper
    family = sc.FunctionFamily([[0.0, 0.0, 0.0], [0.5, -0.5, 0.25]])
    check_center(sc.CenterProblem(family=family, feasible=poly), DEFAULT_TOL)
    check_distance(np.zeros(3), poly, DEFAULT_TOL)


def check_vertices(poly):
    """The vertex list read off the line against the polar-dual route that
    takes poly whole (reference_enumerate_vertices): equal counts, within
    DEDUP_TOL, or the same refusal of an empty line.  The line given with its
    first equality row twice is the same line, with the same chart, and
    lists the same bytes."""
    polys = [poly, _repeated_row(poly)]
    try:
        reference = reference_enumerate_vertices(poly)
    except InfeasiblePolytopeError:
        for p in polys:
            with pytest.raises(InfeasiblePolytopeError):
                con.enumerate_vertices(p)
        return
    assert poly.line() is not None
    verts = con.enumerate_vertices(poly)
    assert reference.shape == verts.shape
    assert np.max(np.abs(reference - verts)) <= DEDUP_TOL
    for got, want in zip(polys[1].chart(), poly.chart()):
        assert got.tobytes() == want.tobytes()
    assert con.enumerate_vertices(polys[1]).tobytes() == verts.tobytes()


def check_chart(poly):
    """poly's held chart (v0, basis): one column per free dimension of the
    equalities, the identity on as many free coordinates, where v0 is 0,
    every entry of basis in [-1, 1], and v0 + basis z on the equalities
    within EQ_CONSISTENT_TOL (1 + max|b_eq|) for z in the unit cube."""
    v0, basis = poly.chart()
    n, d = basis.shape
    assert d == n - (np.linalg.matrix_rank(poly.a_eq) if poly.a_eq.size else 0)
    for c in range(d):
        assert np.any((basis == np.eye(d)[c]).all(axis=1) & (v0 == 0.0)), c
    assert np.all(np.abs(basis) <= 1.0)
    z = np.vstack([np.zeros(d), np.eye(d), -np.eye(d),
                   np.random.default_rng(5).uniform(-1.0, 1.0, (4, d))])
    bar = EQ_CONSISTENT_TOL * (1.0 + float(np.max(np.abs(poly.b_eq), initial=0.0)))
    assert np.all(np.abs((v0 + z @ basis.T) @ poly.a_eq.T - poly.b_eq) <= bar)


@settings(max_examples=150)
@given(poly=st.one_of(exact_lines(), grid_lines()), repeat=st.booleans())
def test_drawn_charts_are_unit_bounded_and_on_the_equalities(poly, repeat):
    check_chart(_repeated_row(poly) if repeat else poly)


def _corpus_and_renorm_polytopes():
    for inst in sc.load_corpus("center"):
        problem = inst.problem()
        center = sc.center_set(problem)
        polys = [problem.feasible, center.center_polytope, inst.subspace.kernel(),
                 sc.near_center_set(problem, 0.1, center.radius)]
        if inst.subspace.functionals:
            polys.append(sc.finite_reduction(inst.family, inst.subspace).problem.feasible)
        for poly in polys:
            yield poly
            yield from (sub for _, sub in poly.split() if sub is not poly)
    for inst in sc.load_corpus("renorm"):
        model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
        for poly in (model.slab, model.cube, model.small_ball, model.kernel, model.split_cone,
                     garkavi.metric_projection(model, model.x0, 0.1)):
            yield poly
            yield from (sub for _, sub in poly.split() if sub is not poly)


def test_corpus_and_renorm_charts_are_unit_bounded_and_on_the_equalities():
    seen = 0
    for poly in _corpus_and_renorm_polytopes():
        check_chart(poly)
        seen += 1
    assert seen > 100


@settings(max_examples=150)
@given(poly=exact_lines())
def test_exact_lines_enumerate_as_the_oracle(poly):
    check_vertices(poly)


@settings(max_examples=150)
@given(poly=grid_lines())
def test_grid_lines_enumerate_as_the_oracle(poly):
    check_vertices(poly)


@pytest.mark.parametrize("inst", [i for i in sc.load_corpus("center") if i.subspace.functionals],
                         ids=lambda inst: inst.name)
def test_corpus_radius_and_support_projection_match_the_lp(inst):
    # the kernel-ball problem, its support reduction, and the support
    # projection of repair from a point outside the reduced center set
    check_center(inst.problem())
    reduction = sc.finite_reduction(inst.family, inst.subspace)
    center = check_center(reduction.problem)
    target = sc.near_center_set(reduction.problem, 0.0, radius=center.radius)
    for x in (np.full(reduction.size, 0.9), np.linspace(-1.0, 1.0, reduction.size)):
        check_distance(x, target)


def test_two_line_blocks_of_disjoint_supports():
    # 03's support reduction is the product of two lines, each solved on its
    # own; the representative is each block's least minimizer
    inst = next(i for i in sc.load_corpus("center") if i.name == "03-disjoint-supports")
    reduction = sc.finite_reduction(inst.family, inst.subspace)
    feasible = reduction.problem.feasible
    assert [part.cols.tolist() for part in con.factors(feasible)] == [[0, 1], [2, 3]]
    assert all(sub.line() is not None for _, sub in feasible.split())
    center = check_center(reduction.problem)
    target = sc.near_center_set(reduction.problem, 0.0, radius=center.radius)
    dist, point = check_distance(np.array([0.9, -0.9, 0.9, -0.9]), target)
    assert dist > 0.0


@pytest.mark.parametrize("b0", [0.5, 1.5])
def test_direction_with_a_zero_entry(b0):
    # v0 + v1 + v2 = b0 and v1 + v2 = 0 fix v0 = b0: the line's direction is
    # (0, 1, -1), and the box rows on column 0 are zero rows in t, which
    # hold for b0 = 0.5 and exclude every t for b0 = 1.5
    eye = np.eye(3)
    poly = sc.Polytope(a_ub=np.vstack([eye, -eye]), b_ub=np.ones(6),
                       a_eq=[[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]], b_eq=[b0, 0.0])
    x = np.array([0.0, 1.0, 1.0])
    if b0 > 1.0:
        for route in (poly.line, lambda: lp.distance_to_polytope(x, poly)):
            with pytest.raises(InfeasiblePolytopeError):
                route()
        return
    v0, dv, lower, upper = poly.line()
    assert dv.tolist() == [0.0, 1.0, -1.0]
    assert (v0[0], lower, upper) == (0.5, -1.0, 1.0)
    family = sc.FunctionFamily([[0.0, 0.5, 0.0], [1.0, 0.0, 0.0]])
    check_center(sc.CenterProblem(family=family, feasible=poly))
    check_distance(x, poly)


def test_line_of_one_point():
    # v0 + v1 = 2 inside [-1, 1]^2 leaves t_lo = t_hi = 1
    poly = sc.Polytope(a_ub=np.vstack([np.eye(2), -np.eye(2)]), b_ub=np.ones(4),
                       a_eq=[[0.5, 0.5]], b_eq=[1.0])
    _, _, lower, upper = poly.line()
    assert lower == upper == 1.0
    problem = sc.CenterProblem(family=sc.FunctionFamily([[0.0, 0.0], [0.5, -0.5]]), feasible=poly)
    center = check_center(problem)
    assert center.radius == 1.5 and center.representative.tolist() == [1.0, 1.0]
    dist, point = check_distance(np.array([0.0, 0.0]), poly)
    assert dist == 1.0 and point.tolist() == [1.0, 1.0]


def test_minimax_takes_the_least_minimizer():
    # max(t, -t, 1) is least, 1, on [-1, 1]: the least t is -1, a crossing of
    # a flat line with a falling one, where rising meets falling at 0
    assert lp.line_minimax(np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                           -5.0, 5.0) == -1.0
    # max(1, 0.5 DEFAULT_TOL - t) is least just right of -1, and the end -1,
    # within DEFAULT_TOL of that, is the least minimizer
    assert lp.line_minimax(np.array([0.0, -1.0]), np.array([1.0, 0.5 * DEFAULT_TOL]),
                           -1.0, 1.0) == -1.0
    # on [2, 3] the crossing at 0 is outside, so the nearer end is the answer
    assert lp.line_minimax(np.array([1.0, -1.0]), np.zeros(2), 2.0, 3.0) == 2.0
    # infinite ends are no candidates; the crossing is
    assert lp.line_minimax(np.array([1.0, -1.0]), np.array([0.0, 3.0]),
                           -np.inf, np.inf) == 1.5


def test_minimax_of_flat_lines_is_the_lower_end():
    assert lp.line_minimax(np.zeros(3), np.array([1.0, 3.0, 2.0]), -2.0, 5.0) == -2.0
    assert lp.line_minimax(np.zeros(1), np.zeros(1), 0.25, 0.25) == 0.25


def test_empty_line_raises_as_the_lp_does():
    # v0 = v1 on the box [-1, 1]^2 with v0 >= 1.5: no t is left
    poly = sc.Polytope(a_ub=np.vstack([np.eye(2), -np.eye(2), [[-1.0, 0.0]]]),
                       b_ub=[1.0, 1.0, 1.0, 1.0, -1.5], a_eq=[[0.5, -0.5]], b_eq=[0.0])
    problem = sc.CenterProblem(family=sc.FunctionFamily([[0.0, 0.0]]), feasible=poly)
    for route in (lambda: sc.center_set(problem), lambda: reference_center_set(problem),
                  lambda: lp.distance_to_polytope(np.zeros(2), poly),
                  lambda: reference_distance_to_polytope(np.zeros(2), poly)):
        with pytest.raises(InfeasiblePolytopeError):
            route()


def test_wider_block_reaches_the_lp_with_the_same_arrays(monkeypatch):
    # 08's support block has dimension 2: a polytope of that one factor is
    # handed to the epigraph LP whole, so its pivots and bits are those of the
    # LP on the whole polytope, posed on the same chart with no equality rows
    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = sc.finite_reduction(inst.family, inst.subspace).problem
    assert problem.feasible.line() is None
    seen = []
    real = lp.solve

    def solve(prob):
        sol = real(prob)
        seen.append((prob.a_ub.tobytes(), prob.b_ub.tobytes(), prob.a_eq,
                     sol.iterations, sol.x.tobytes()))
        return sol

    monkeypatch.setattr(lp, "solve", solve)
    eye = np.eye(problem.dim)
    ours = sc.center_set(problem)
    radius, rep = lp.epigraph_lp(np.vstack([eye, -eye]), problem.family.values, problem.feasible)
    assert seen[0] == seen[1]
    assert seen[0][2] is None
    assert ours.radius == radius
    assert ours.representative.tobytes() == rep.tobytes()


def test_closed_form_point_is_certified(monkeypatch):
    # a minimizer off its polytope is refused, not returned
    monkeypatch.setattr(lp, "line_minimax", lambda *args: 10.0)
    poly = sc.Polytope.box(2, 1.0, [[0.5, -0.5]])
    with pytest.raises(LPNumericalError):
        lp.distance_to_polytope(np.array([2.0, 2.0]), poly)


@pytest.mark.parametrize("rhs, empty", [(-1.0, True), (-1.5 * DEFAULT_TOL, False), (0.0, False)])
def test_interval_checks_zero_rows(rhs, empty):
    # a zero row holds when 0 <= rhs within DEFAULT_TOL * (1 + max|b|), here
    # 2 * DEFAULT_TOL, as in factors, and is never divided by: in _ends, and
    # in the line of the interval polytope on those rows
    a = np.array([[0.0], [1.0], [-1.0]])
    b = np.array([rhs, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (lambda: con._ends(a[:, 0], b),
                      lambda: sc.Polytope(a_ub=a, b_ub=b).line()[2:]):
            if empty:
                with pytest.raises(InfeasiblePolytopeError):
                    route()
            else:
                assert route() == (-1.0, 1.0)
