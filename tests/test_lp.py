import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcenter as sc
from supcenter import cli, garkavi, lp
from supcenter.constraints import Polytope
from supcenter.errors import InfeasiblePolytopeError, LPNumericalError
from supcenter.tolerances import DEFAULT_TOL, PIVOT_EPS

from oracles import (epigraph_program, reference_bland_loop, reference_center_set,
                     reference_enumerate_vertices, reference_epigraph_lp,
                     reference_gauge_decomposition, scipy_solve)


def random_feasible_lp(rng, n, m, with_eq=False, with_bounds=False):
    """LP that is feasible by construction (rhs built around a known point)."""
    x0 = rng.uniform(-1, 1, n)
    a_ub = rng.uniform(-1, 1, (m, n))
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, m)
    a_eq = b_eq = None
    if with_eq:
        a_eq = rng.uniform(-1, 1, (1, n))
        b_eq = a_eq @ x0
    eye = np.eye(n)
    if with_bounds:
        # -2 <= x_j <= 2 as the rows -x_j <= 2, x_j <= 2, variable by variable
        a_ub = np.vstack([a_ub, np.stack([-eye, eye], axis=1).reshape(2 * n, n)])
        b_ub = np.concatenate([b_ub, np.full(2 * n, 2.0)])
    else:
        # cap the box so the problem stays bounded
        a_ub = np.vstack([a_ub, eye, -eye])
        b_ub = np.concatenate([b_ub, np.full(2 * n, 3.0)])
    return lp.LinearProgram(c=rng.uniform(-1, 1, n), a_ub=a_ub, b_ub=b_ub,
                            a_eq=a_eq, b_eq=b_eq)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        prob = random_feasible_lp(rng, n, m, with_eq=trial % 3 == 0,
                                  with_bounds=trial % 2 == 0)
        ours = lp.solve(prob)
        status, value, _ = scipy_solve(prob)
        assert ours.status == status == lp.OPTIMAL, f"trial {trial}"
        assert ours.value == pytest.approx(value, abs=1e-7), f"trial {trial}"


def test_infeasible_detected():
    # x <= -1 and x >= 1 cannot both hold
    prob = lp.LinearProgram(c=np.ones(1), a_ub=np.array([[1.0], [-1.0]]),
                            b_ub=np.array([-1.0, -1.0]))
    assert lp.solve(prob).status == lp.INFEASIBLE


def test_unbounded_detected():
    prob = lp.LinearProgram(c=np.array([-1.0]), a_ub=np.array([[-1.0]]),
                            b_ub=np.array([0.0]))
    assert lp.solve(prob).status == lp.UNBOUNDED


def test_equality_only_system():
    # x >= 0 as the rows -x_j <= 0
    prob = lp.LinearProgram(c=np.array([1.0, 1.0]), a_ub=-np.eye(2), b_ub=np.zeros(2),
                            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    sol = lp.solve(prob)
    assert sol.status == lp.OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_solution_is_bitwise_deterministic():
    rng = np.random.default_rng(99)
    prob = random_feasible_lp(rng, 4, 6)
    first = lp.solve(prob)
    for _ in range(3):
        again = lp.solve(prob)
        assert again.value == first.value
        assert np.array_equal(again.x, first.x)


def test_iteration_cap_raises_instead_of_returning_garbage(monkeypatch):
    rng = np.random.default_rng(5)
    prob = random_feasible_lp(rng, 5, 10)
    monkeypatch.setattr(lp, "LP_MAX_ITER", 1)
    with pytest.raises(LPNumericalError):
        lp.solve(prob)


def test_distance_to_polytope_inside_and_outside():
    box = Polytope.box(2, 1.0)
    dist, point = lp.distance_to_polytope(np.array([0.2, -0.3]), box)
    assert dist == 0.0
    assert np.array_equal(point, np.array([0.2, -0.3]))
    dist, point = lp.distance_to_polytope(np.array([2.0, 0.0]), box)
    assert dist == pytest.approx(1.0, abs=1e-9)
    assert point[0] == pytest.approx(1.0, abs=1e-9)


def test_distance_to_empty_polytope_raises():
    empty = Polytope(a_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-1.0, -1.0]))
    with pytest.raises(InfeasiblePolytopeError):
        lp.distance_to_polytope(np.zeros(1), empty)


def test_epigraph_lp_matches_per_target_layout():
    # the folded rows, one per g, against HiGHS on one block of rows per target
    rng = np.random.default_rng(17)
    for trial in range(40):
        n, k, j = int(rng.integers(2, 6)), int(rng.integers(2, 7)), int(rng.integers(1, 5))
        rows = rng.uniform(-1, 1, (k, n))
        targets = rng.uniform(-2, 2, (j, n))
        poly = Polytope.box(n, float(rng.uniform(0.5, 2.0)))
        if trial % 2:
            row = rng.uniform(-1, 1, (1, n))
            poly = Polytope(a_ub=poly.a_ub, b_ub=poly.b_ub, a_eq=row, b_eq=np.zeros(1))
        value, v = lp.epigraph_lp(rows, targets, poly)
        epigraph = np.hstack([rows, -np.ones((k, 1))])
        per_target = lp.LinearProgram(
            c=np.eye(n + 1)[n],
            a_ub=np.vstack([np.hstack([poly.a_ub, np.zeros((2 * n, 1))]), *[epigraph] * j]),
            b_ub=np.concatenate([poly.b_ub, *(rows @ t for t in targets)]),
            a_eq=None if trial % 2 == 0 else np.hstack([poly.a_eq, np.zeros((1, 1))]),
            b_eq=None if trial % 2 == 0 else poly.b_eq)
        status, ref, _ = scipy_solve(per_target)
        assert status == lp.OPTIMAL, f"trial {trial}"
        assert value == pytest.approx(ref, abs=1e-9), f"trial {trial}"
        assert np.max(rows @ v - (rows @ targets.T).min(axis=1)) <= value + 1e-9


def check_epigraph(rows, targets, poly):
    """epigraph_lp, on poly's chart, against its program in the ambient
    layout with equality rows, solved by lp.solve (reference_epigraph_lp)
    and by HiGHS: the values within 1e-9 (1 + |t|), both points in poly
    within DEFAULT_TOL (1 + max|b|), and the chart's point at its value."""
    value, v = lp.epigraph_lp(rows, targets, poly)
    ref, w = reference_epigraph_lp(rows, targets, poly)
    status, highs, _ = scipy_solve(epigraph_program(rows, targets, poly))
    assert status == lp.OPTIMAL
    bar = 1e-9 * (1.0 + abs(value))
    assert abs(value - ref) <= bar and abs(value - highs) <= bar, (value, ref, highs)
    scale = 1.0 + float(np.abs(np.concatenate([poly.b_ub, poly.b_eq])).max(initial=0.0))
    assert poly.violation(v) <= DEFAULT_TOL * scale
    assert poly.violation(w) <= DEFAULT_TOL * scale
    assert np.max(rows @ v - (rows @ np.atleast_2d(targets).T).min(axis=1)) <= value + bar
    return value, v


def _wider(poly):
    """(cols, sub) for each factor of poly wider than a line."""
    return [(cols, sub) for cols, sub in poly.split() if sub.line() is None]


@pytest.mark.parametrize("name", ["08-three-point-functional", "14-random-d4m3",
                                  "15-random-d5m4"])
def test_chart_epigraph_matches_the_ambient_layout_on_the_corpus_blocks(name):
    # the radius LP of each block wider than a line, and the distance LP from
    # every near-set vertex at delta 0.05 and 0.2 to the block of the center set
    inst = next(i for i in sc.load_corpus("center") if i.name == name)
    problem = inst.problem()
    (cols, block), = _wider(problem.feasible)
    eye = np.eye(cols.size)
    band_rows = np.vstack([eye, -eye])
    check_epigraph(band_rows, problem.family.values[:, cols], block)
    center = sc.center_set(problem)
    (cols, target), = _wider(center.center_polytope)
    for delta in (0.05, 0.2):
        for vertex in sc.near_center_set(problem, delta, center.radius).vertices():
            check_epigraph(band_rows, vertex[cols], target)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), eqs=st.integers(1, 3),
       cuts=st.integers(0, 3), members=st.integers(1, 3), band_rows=st.booleans())
def test_chart_epigraph_matches_the_ambient_layout_on_drawn_blocks(seed, n, eqs, cuts,
                                                                  members, band_rows):
    # a box cut by 1 to 3 equalities through a point p of it, and by up to 3
    # rows through p that the chart's origin may violate, against members
    # targets, with the rows [I; -I] or drawn rows
    eqs = min(eqs, n - 1)
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.5, 0.5, n)
    a_eq = rng.uniform(-1.0, 1.0, (eqs, n))
    cut = rng.uniform(-1.0, 1.0, (cuts, n))
    eye = np.eye(n)
    poly = Polytope(a_ub=np.vstack([eye, -eye, cut]),
                    b_ub=np.concatenate([np.ones(2 * n), cut @ p + rng.uniform(0.0, 0.2, cuts)]),
                    a_eq=a_eq, b_eq=a_eq @ p)
    rows = np.vstack([eye, -eye]) if band_rows else rng.uniform(-1.0, 1.0, (2 * n, n))
    check_epigraph(rows, rng.uniform(-2.0, 2.0, (members, n)), poly)


def test_chart_epigraph_of_a_point():
    # n independent equalities pin one point: the chart has no column, the
    # program has t alone, and its value is the point's farthest target
    a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 0.25]])
    p = np.array([0.25, -0.5, 0.75])
    poly = Polytope.box(3, 1.0, a_eq)
    poly = Polytope(a_ub=poly.a_ub, b_ub=poly.b_ub, a_eq=a_eq, b_eq=a_eq @ p)
    assert poly.chart()[1].shape == (3, 0)
    eye = np.eye(3)
    targets = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.5]])
    value, v = check_epigraph(np.vstack([eye, -eye]), targets, poly)
    assert np.allclose(v, p, rtol=0.0, atol=1e-15)
    assert value == pytest.approx(float(np.abs(targets - v).max()), abs=1e-15)
    outside = Polytope(a_ub=poly.a_ub, b_ub=np.full(6, 0.6), a_eq=a_eq, b_eq=a_eq @ p)
    for route in (lp.epigraph_lp, reference_epigraph_lp):
        with pytest.raises(InfeasiblePolytopeError):
            route(np.vstack([eye, -eye]), targets, outside)


def test_chart_epigraph_certifies_its_point(monkeypatch):
    # a solve whose z leaves the polytope is refused, not returned: the point
    # v0 + basis z is measured against the polytope's own rows
    real = lp.solve

    def solve(prob):
        sol = real(prob)
        sol.x[:-1] += 0.5
        return sol

    monkeypatch.setattr(lp, "solve", solve)
    poly = Polytope.box(3, 1.0, [[1.0, -1.0, 0.5]])
    eye = np.eye(3)
    with pytest.raises(LPNumericalError, match="leaves its polytope"):
        lp.epigraph_lp(np.vstack([eye, -eye]), np.full(3, 0.9), poly)


def _negative_rhs_program(rng, n, m):
    # rhs built around a point away from the origin, so many rows read b < 0
    x0 = rng.uniform(1.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    a_ub = rng.uniform(-1, 1, (m, n))
    return x0, a_ub, a_ub @ x0 + rng.uniform(0.1, 1.0, m)


def _capped(a_ub, b_ub, n):
    eye = np.eye(n)
    return np.vstack([a_ub, eye, -eye]), np.concatenate([b_ub, np.full(2 * n, 5.0)])


def _infeasible(rng, n, m):
    # a.x <= -s and -a.x <= -s cannot both hold
    _, a_ub, b_ub = _negative_rhs_program(rng, n, m)
    a, s = rng.uniform(-1, 1, n), rng.uniform(0.1, 1.0)
    a_ub, b_ub = _capped(np.vstack([a_ub, a, -a]), np.concatenate([b_ub, [-s, -s]]), n)
    return lp.LinearProgram(c=rng.uniform(-1, 1, n), a_ub=a_ub, b_ub=b_ub)


def _unbounded(rng, n, m):
    # every row is nonincreasing along d, and the objective falls along it
    x0, a_ub, _ = _negative_rhs_program(rng, n, m)
    d = rng.normal(size=n)
    a_ub -= np.outer(np.maximum(a_ub @ d, 0.0) / (d @ d) + 0.1, d)
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, m)
    return lp.LinearProgram(c=-d, a_ub=a_ub, b_ub=b_ub)


def _negative_rhs_equalities(rng, n, m):
    x0, a_ub, b_ub = _negative_rhs_program(rng, n, m)
    a_eq = rng.uniform(-1, 1, (2, n))
    a_eq *= -np.sign(a_eq @ x0)[:, None]  # both rows read b_eq < 0
    a_ub, b_ub = _capped(a_ub, b_ub, n)
    return lp.LinearProgram(c=rng.uniform(-1, 1, n), a_ub=a_ub, b_ub=b_ub,
                            a_eq=a_eq, b_eq=a_eq @ x0)


def _duplicate_equality(rng, n, m):
    x0, a_ub, b_ub = _negative_rhs_program(rng, n, m)
    a_eq = rng.uniform(-1, 1, (1, n))
    a_eq = np.vstack([a_eq, a_eq])
    a_ub, b_ub = _capped(a_ub, b_ub, n)
    return lp.LinearProgram(c=rng.uniform(-1, 1, n), a_ub=a_ub, b_ub=b_ub,
                            a_eq=a_eq, b_eq=a_eq @ x0)


def _nonnegative_rhs(rng, n, m):
    a_ub, b_ub = _capped(rng.uniform(-1, 1, (m, n)), rng.uniform(0.0, 1.0, m), n)
    return lp.LinearProgram(c=rng.uniform(-1, 1, n), a_ub=a_ub, b_ub=b_ub)


@pytest.mark.parametrize("build, status", [
    (_infeasible, lp.INFEASIBLE),
    (_unbounded, lp.UNBOUNDED),
    (_negative_rhs_equalities, lp.OPTIMAL),
    (_duplicate_equality, lp.OPTIMAL),
    (_nonnegative_rhs, lp.OPTIMAL),
], ids=["infeasible", "unbounded", "negative-rhs-equalities", "duplicate-equality",
        "nonnegative-rhs"])
def test_phase_one_paths_match_highs(build, status):
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(2, 6))
        prob = build(rng, n, int(rng.integers(2, 9)))
        ours = lp.solve(prob)
        theirs, value, _ = scipy_solve(prob)
        assert ours.status == theirs == status, f"trial {trial}"
        if status == lp.OPTIMAL:
            assert ours.value == pytest.approx(value, abs=1e-7), f"trial {trial}"


def test_kernel_ball_radius_lp_pivots(monkeypatch):
    # the radius LP in its per-member layout, one [I; -I] block per member:
    # 20 rows with a negative rhs and 2 equality rows, so with an artificial
    # per row phase 1 would need at least 22 pivots to drive them all out
    inst = next(i for i in sc.load_corpus("center") if i.name == "15-random-d5m4")
    problem = inst.problem()
    values, poly = problem.family.values, problem.feasible
    m, n = values.shape
    eye = np.eye(n)
    block = np.hstack([np.vstack([eye, -eye]), -np.ones((2 * n, 1))])
    prob = lp.LinearProgram(
        c=np.eye(n + 1)[n],
        a_ub=np.vstack([np.hstack([poly.a_ub, np.zeros((poly.a_ub.shape[0], 1))]),
                        np.tile(block, (m, 1))]),
        b_ub=np.concatenate([poly.b_ub, *(np.concatenate([f, -f]) for f in values)]),
        a_eq=np.hstack([poly.a_eq, np.zeros((poly.a_eq.shape[0], 1))]), b_eq=poly.b_eq)
    assert prob.a_ub.shape[0] == 50 and np.sum(prob.b_ub < 0) == 20
    assert prob.a_eq.shape[0] == 2
    sol = lp.solve(prob)
    assert sol.iterations < 22
    assert sol.value == pytest.approx(scipy_solve(prob)[1], abs=1e-7)

    # the program restricted_radius solves folds the members into the band
    # and is posed on the chart of V: no equality rows, and the shift t0
    # leaves no negative rhs, so it runs no phase 1
    seen = []
    real = lp.solve

    def solve(folded, *args, **kwargs):
        seen.append(folded)
        return real(folded, *args, **kwargs)

    monkeypatch.setattr(lp, "solve", solve)
    radius = sc.restricted_radius(problem)
    folded, = seen
    assert folded.a_ub.shape == (4 * n, n - poly.a_eq.shape[0] + 1) and folded.a_eq is None
    assert np.sum(folded.b_ub < 0) == 0
    assert abs(radius - sol.value) <= 1e-12


def _degenerate(rng, n, m):
    # small-integer rows, most through the origin: ratio tests tie exactly
    # (at 0 and at repeated ratios), and rows nudged by less than PIVOT_EPS
    # tie inexactly, so the scan's chained ties are exercised too
    a_ub = rng.integers(-2, 3, (m, n)).astype(float)
    b_ub = np.where(rng.random(m) < 0.7, 0.0, rng.integers(1, 3, m).astype(float))
    b_ub += np.where(rng.random(m) < 0.2, 3e-11, 0.0)
    a_ub, b_ub = _capped(a_ub, b_ub, n)
    a_eq = b_eq = None
    if rng.random() < 0.3:
        a_eq = rng.integers(-2, 3, (1, n)).astype(float)
        b_eq = np.zeros(1)
    return lp.LinearProgram(c=rng.integers(-3, 4, n).astype(float), a_ub=a_ub, b_ub=b_ub,
                            a_eq=a_eq, b_eq=b_eq)


def _test_lp_programs():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 8))
        yield random_feasible_lp(rng, n, m, with_eq=trial % 3 == 0,
                                 with_bounds=trial % 2 == 0)
    for build in (_infeasible, _unbounded, _negative_rhs_equalities, _duplicate_equality,
                  _nonnegative_rhs):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 6))
            yield build(rng, n, int(rng.integers(2, 9)))


def _degenerate_programs():
    rng = np.random.default_rng(3)
    for _ in range(150):
        yield _degenerate(rng, int(rng.integers(2, 6)), int(rng.integers(4, 12)))


def _corpus_programs(monkeypatch, capsys):
    # the corpus run, the oracle's gauge-decomposition LPs (tall, with n + 3
    # equality rows) on the corpus renorm models at x0 and +-e_j, the
    # interior-point and tightness LPs of the polar-dual enumeration, the
    # oracle of the edge route and of the double description, on the
    # section B cap Y, on P_Y(x0, eps) and on every center and near-center
    # set of the center corpus, and the whole-polytope radius LPs of the
    # reference route on every center problem and its support reduction,
    # most of which the package now solves in closed form
    issued = []
    real = lp.solve

    def solve(prob):
        issued.append(prob)
        return real(prob)

    with monkeypatch.context() as mp:
        mp.setattr(lp, "solve", solve)
        assert cli.main(["corpus", "--json"]) == cli.OK
        for inst in sc.load_corpus("renorm"):
            model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma,
                                        theta=inst.theta)
            eye = np.eye(inst.n)
            for x in (model.x0, *eye, *-eye):
                reference_gauge_decomposition(model, x)
            reference_enumerate_vertices(garkavi._projection(model, np.zeros(inst.n), 1.0))
            for eps in garkavi.HALF_BALL_EPS:
                reference_enumerate_vertices(garkavi.metric_projection(model, model.x0, eps))
        for inst in sc.load_corpus("center"):
            center = reference_center_set(inst.problem())
            reference_enumerate_vertices(center.center_polytope)
            for delta in (0.05, 0.2):
                reference_enumerate_vertices(sc.near_center_set(inst.problem(), delta,
                                                                center.radius))
            reduction = sc.finite_reduction(inst.family, inst.subspace)
            if reduction.problem is not None:
                reference_center_set(reduction.problem)
    capsys.readouterr()
    return issued


@pytest.mark.parametrize("family", ["test-lp", "degenerate", "corpus"])
def test_vectorized_pivot_rule_matches_scalar_reference(family, monkeypatch, capsys):
    # the vectorized rule must choose every pivot the scalar rule chooses, so
    # iteration counts agree and x agrees bit for bit
    programs = {"test-lp": _test_lp_programs, "degenerate": _degenerate_programs,
                "corpus": lambda: _corpus_programs(monkeypatch, capsys)}[family]()
    windows = []
    solved = 0
    for k, prob in enumerate(programs):
        ours = lp.solve(prob)
        with monkeypatch.context() as mp:
            mp.setattr(lp, "_bland_loop",
                       lambda *args: reference_bland_loop(*args, windows=windows))
            ref = lp.solve(prob)
        assert (ours.status, ours.iterations, ours.value) == (ref.status, ref.iterations,
                                                              ref.value), f"program {k}"
        assert (ours.x is None) == (ref.x is None), f"program {k}"
        if ours.x is not None:
            assert ours.x.tobytes() == ref.x.tobytes(), f"program {k}"
        solved += 1
    assert solved >= 100
    if family == "degenerate":
        assert any(len(set(window)) > 1 for window in windows), "no inexact tie"


def _one_pivot_tableau(rhs, basis):
    """Tableau whose column 0 enters (reduced cost -1) with entry 1 in every
    row, so each row's ratio is its rhs; the basic columns hold the identity."""
    m = len(rhs)
    tab = np.zeros((m + 1, m + 2))
    tab[:m, 0] = 1.0
    tab[np.arange(m), basis] = 1.0
    tab[:m, -1] = rhs
    tab[-1, 0] = -1.0
    return tab, np.array(basis), m + 1


@pytest.mark.parametrize("loop", [lp._bland_loop, reference_bland_loop])
def test_leaving_row_ties_with_the_least_ratio_only(loop):
    # rows 0 and 1 are within PIVOT_EPS of the least ratio and row 2 only of
    # row 1's; of the tied rows, row 1 has the smaller basic index
    tab, basis, ncols = _one_pivot_tableau([0.0, 0.8 * PIVOT_EPS, 1.6 * PIVOT_EPS], [3, 2, 1])
    assert loop(tab, basis, ncols, DEFAULT_TOL) == 1
    assert basis.tolist() == [3, 0, 1]


@pytest.mark.parametrize("loop", [lp._bland_loop, reference_bland_loop])
def test_nan_rhs_gives_the_unbounded_marker(loop):
    tab, basis, ncols = _one_pivot_tableau([np.nan], [1])
    assert loop(tab, basis, ncols, DEFAULT_TOL) < 0
