import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcenter as sc
import supcenter.constraints as con
from supcenter import garkavi, lp
from supcenter.errors import (
    EnumerationError,
    InfeasiblePolytopeError,
    UnboundedPolytopeError,
)
from supcenter.tolerances import (CERTIFY_SLACK_FACTOR, DEDUP_TOL, DEFAULT_TOL,
                                  VERTEX_FILTER_TOL)

from oracles import (active_set_vertices, highs_support, kernel_basis, min_row_gap,
                     reference_enumerate_vertices, reference_farthest_vertex,
                     reference_merge_rows, reference_violation)


class TestFunctional:
    def test_requires_unit_total_variation(self):
        with pytest.raises(ValueError, match="total variation"):
            con.Functional(support=(0, 1), weights=(0.5, 0.6))

    def test_normalize_rescales(self):
        mu = con.Functional(support=(0, 1), weights=(2.0, -2.0), normalize=True)
        assert mu.weights == (0.5, -0.5)
        assert sum(abs(w) for w in mu.weights) == pytest.approx(1.0)

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError, match="distinct"):
            con.Functional(support=(1, 1), weights=(0.5, 0.5))

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError, match="nonzero"):
            con.Functional(support=(0, 1, 2), weights=(0.5, 0.0, 0.5))

    def test_rejects_negative_index(self):
        with pytest.raises(IndexError):
            con.Functional(support=(-1, 0), weights=(0.5, 0.5))

    def test_evaluates(self):
        mu = con.Functional(support=(0, 2), weights=(0.25, -0.75))
        assert mu([1.0, 9.0, 2.0]) == pytest.approx(0.25 - 1.5)

    def test_dense_row(self):
        mu = con.Functional(support=(2, 0), weights=(0.5, -0.5))
        assert np.array_equal(mu.dense(4), [-0.5, 0.0, 0.5, 0.0])
        with pytest.raises(IndexError):
            mu.dense(2)


class TestSubspace:
    def test_rows_and_residuals(self):
        y = con.Subspace(dim=3, functionals=(
            con.Functional(support=(0, 1), weights=(0.5, -0.5)),))
        assert y.rows().shape == (1, 3)
        assert y.residuals([1.0, 1.0, 7.0]) == pytest.approx([0.0])
        assert y.residuals([2.0, 2.0, -1.0]) == pytest.approx([0.0])
        assert y.residuals([1.0, 0.0, 0.0]) == pytest.approx([0.5])

    def test_support_must_fit_dimension(self):
        with pytest.raises(IndexError):
            con.Subspace(dim=2, functionals=(
                con.Functional(support=(0, 5), weights=(0.5, 0.5)),))

    def test_trivial_subspace_is_everything(self):
        y = con.Subspace(dim=4)
        assert y.rows().shape == (0, 4)
        assert y.residuals(np.ones(4)).size == 0

    def test_rows_are_one_read_only_array(self):
        for y in (con.Subspace(dim=4), con.Subspace(dim=3, functionals=(
                con.Functional(support=(0, 1), weights=(0.5, -0.5)),))):
            rows = y.rows()
            assert y.rows() is rows and not rows.flags.writeable
            with pytest.raises(ValueError):
                rows[..., 0] = 1.0

    def test_held_polytopes_are_formed_once_and_match_fresh_ones(self):
        y = con.Subspace(dim=5, functionals=(
            con.Functional(support=(3, 1), weights=(0.5, -0.5)),
            con.Functional(support=(1, 0), weights=(0.25, 0.75))))
        support = y.support()
        assert y.support() is support and y.ball() is y.ball() and y.kernel() is y.kernel()
        assert support.slots == (3, 1, 0)
        assert support.off.tolist() == [2, 4] and not support.off.flags.writeable
        fresh = {"box": con.Polytope.box(3, 1.0, y.rows()[:, [3, 1, 0]]),
                 "ball": con.Polytope.box(5, 1.0, y.rows()),
                 "kernel": con.Polytope(a_eq=y.rows(), b_eq=np.zeros(2), dim=5)}
        for held, want in zip((support.box, y.ball(), y.kernel()), fresh.values()):
            for name in ("a_ub", "b_ub", "a_eq", "b_eq"):
                assert_same_bytes(getattr(held, name), getattr(want, name))
        assert con.Subspace(dim=3).support() is None

    def test_equality_hash_and_repr_ignore_what_is_held(self):
        def build():
            return con.Subspace(dim=3, functionals=(
                con.Functional(support=(0, 1), weights=(0.5, -0.5)),))
        served, fresh = build(), build()
        served.support(), served.ball(), served.kernel()
        assert fresh._support is fresh._ball is fresh._kernel is None
        assert served == fresh and hash(served) == hash(fresh) and repr(served) == repr(fresh)
        held = [f for f in dataclasses.fields(con.Subspace) if f.name.startswith("_")]
        assert [f.name for f in held] == ["_rows", "_support", "_ball", "_kernel"]
        assert not any(f.compare or f.init or f.repr for f in held)

    def test_building_a_subspace_forms_no_polytope(self, monkeypatch):
        built = []
        real = con.Polytope._init

        def counted(poly, *args, **kwargs):
            built.append(poly)
            return real(poly, *args, **kwargs)

        monkeypatch.setattr(con.Polytope, "_init", counted)
        corpus = sc.load_corpus()
        con.Subspace(dim=3, functionals=(con.Functional(support=(0, 1), weights=(0.5, -0.5)),))
        assert not built
        corpus[0].subspace.ball()  # the counter sees a polytope once one is formed
        assert len(built) == 1


def assert_residuals_match_the_functionals(y, v):
    # residuals is the one product rows @ v; each entry is the functional's
    # own sum, up to the rounding of a few products
    res = y.residuals(v)
    expected = np.array([mu(v) for mu in y.functionals])
    assert res.shape == expected.shape
    assert np.all(np.abs(res - expected) <= 1e-15 * (1.0 + np.max(np.abs(v))))


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_residuals_match_the_functionals_on_the_corpus(inst, rng):
    dim = inst.subspace.dim
    points = [*inst.family.values, *rng.uniform(-1.0, 1.0, (5, dim)),
              *rng.uniform(-1e3, 1e3, (5, dim))]
    for v in points:
        assert_residuals_match_the_functionals(inst.subspace, v)


@st.composite
def subspaces_with_points(draw):
    """A kernel of up to four functionals of up to four support points each,
    with a point of magnitude up to 1e6."""
    dim = draw(st.integers(1, 8))
    functionals = []
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=min(4, dim),
                                unique=True))
        weights = draw(st.lists(st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
                                min_size=len(support), max_size=len(support)))
        functionals.append(con.Functional(support=tuple(support), weights=tuple(weights),
                                          normalize=True))
    v = draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim))
    return con.Subspace(dim=dim, functionals=tuple(functionals)), np.array(v)


@given(case=subspaces_with_points())
def test_residuals_match_the_functionals_on_random_draws(case):
    assert_residuals_match_the_functionals(*case)


class TestVertexEnumeration:
    def test_unit_box(self):
        verts = con.Polytope.box(3, 1.0).vertices()
        assert verts.shape == (8, 3)
        assert np.all(np.abs(verts) == 1.0)

    def test_kernel_ball_worked_instance(self):
        y = con.Subspace(dim=3, functionals=(
            con.Functional(support=(0, 1), weights=(0.5, -0.5)),))
        verts = sc.ball_problem(sc.FunctionFamily(np.zeros((1, 3))), y).feasible.vertices()
        # square {t, t, s} with |t|, |s| <= 1
        expected = {(-1.0, -1.0, -1.0), (-1.0, -1.0, 1.0), (1.0, 1.0, -1.0), (1.0, 1.0, 1.0)}
        assert {tuple(v) for v in np.round(verts, 9)} == expected

    def test_scaled_ball(self):
        y = con.Subspace(dim=2)
        verts = sc.ball_problem(sc.FunctionFamily(np.zeros((1, 2))), y, 2.5).feasible.vertices()
        assert np.max(np.abs(verts)) == pytest.approx(2.5)

    def test_segment_in_the_plane(self):
        # x + y = 1 inside the unit box: endpoints only
        poly = con.Polytope(a_ub=np.vstack([np.eye(2), -np.eye(2)]), b_ub=np.ones(4),
                            a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
        verts = poly.vertices()
        assert {tuple(v) for v in np.round(verts, 9)} == {(0.0, 1.0), (1.0, 0.0)}

    def test_flat_without_explicit_equality(self):
        # two opposite rows pin x = 0.5 implicitly; promotion must find it
        poly = con.Polytope(
            a_ub=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            b_ub=np.array([0.5, -0.5, 1.0, 1.0]))
        verts = poly.vertices()
        assert {tuple(v) for v in np.round(verts, 9)} == {(0.5, -1.0), (0.5, 1.0)}

    def test_redundant_rows_do_not_duplicate_vertices(self):
        box = con.Polytope.box(2, 1.0)
        poly = box.with_rows(np.array([[1.0, 0.0]]), np.array([1.0]))  # repeat a facet
        assert poly.vertices().shape == (4, 2)

    @pytest.mark.parametrize("a_ub, b_ub", [
        ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),   # x <= -1 and x >= 1 in the plane
        ([[1.0], [-1.0]], [-1.0, -1.0]),             # the same on the line
    ], ids=["2d", "1d"])
    def test_empty_polytope_raises(self, a_ub, b_ub):
        poly = con.Polytope(a_ub=np.array(a_ub), b_ub=np.array(b_ub))
        with pytest.raises(InfeasiblePolytopeError):
            poly.vertices()

    @pytest.mark.parametrize("a_ub, b_ub", [
        ([[1.0, 0.0]], [1.0]),                       # a half-plane
        ([[1.0], [2.0]], [1.0, 3.0]),                # a ray on the line
        ([[-1.0], [-2.0]], [1.0, 3.0]),              # the opposite ray
    ], ids=["2d", "1d", "1d-upward"])
    def test_unbounded_polytope_raises(self, a_ub, b_ub):
        poly = con.Polytope(a_ub=np.array(a_ub), b_ub=np.array(b_ub))
        with pytest.raises(UnboundedPolytopeError):
            poly.vertices()

    def test_single_point(self):
        poly = con.Polytope(a_eq=np.eye(2), b_eq=np.array([0.3, -0.7]),
                            a_ub=np.vstack([np.eye(2), -np.eye(2)]), b_ub=np.ones(4))
        verts = poly.vertices()
        assert verts.shape == (1, 2)
        assert verts[0] == pytest.approx([0.3, -0.7])

    def test_double_description_agrees_with_exhaustive(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(d + 2, 10))
            a = rng.normal(size=(m, d))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = rng.uniform(0.5, 1.5, m)
            rows = np.vstack([a, np.eye(d), -np.eye(d)])
            rhs = np.concatenate([b, np.full(2 * d, 2.0)])
            exhaustive = active_set_vertices(rows, rhs)
            verts = con.Polytope(a_ub=rows, b_ub=rhs).vertices()
            assert exhaustive.shape == verts.shape
            gap = max(np.min(np.max(np.abs(verts - v), axis=1)) for v in exhaustive)
            assert gap < 1e-7

    def test_double_description_keeps_thin_faces_apart(self):
        # the degeneracy probe of p1-modulus 13-random-d3m2 --eps 0.001: the
        # near-center set at slack 1e-7 is 2.7e-7 wide, thin but not flat (no
        # row is implicitly tight), and its vertices on both near faces are
        # kept apart
        inst = next(i for i in sc.load_corpus("center") if i.name == "13-random-d3m2")
        problem = inst.problem()
        near = sc.near_center_set(problem, 1e-7, sc.restricted_radius(problem))
        assert not np.any(near.b_eq)
        q = kernel_basis(near.a_eq, near.dim)
        exhaustive = active_set_vertices(near.a_ub @ q, near.b_ub) @ q.T
        verts = near.vertices()
        assert exhaustive.shape == verts.shape == (4, 3)
        assert np.ptp(verts[:, 0]) < 1e-6
        gap = max(np.min(np.max(np.abs(verts - v), axis=1)) for v in exhaustive)
        assert gap < 1e-12

    def test_vertices_are_sorted_and_readonly(self):
        poly = con.Polytope.box(2, 1.0)
        first = poly.vertices()
        assert poly.vertices().tobytes() == first.tobytes()
        assert not first.flags.writeable
        assert sorted(map(tuple, first)) == list(map(tuple, first))


def _hausdorff(a, b):
    gaps = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def assert_matches_the_unsplit_route(poly, directions):
    """Equal vertex counts and a Hausdorff gap of at most 1e-12 against the
    route that takes poly whole, and HiGHS's support value in each direction."""
    verts = con.enumerate_vertices(poly)
    reference = reference_enumerate_vertices(poly)
    assert verts.shape == reference.shape
    assert _hausdorff(verts, reference) <= 1e-12
    for c in directions:
        ref = highs_support(poly, c)
        assert abs(float(np.max(verts @ c)) - ref) <= 1e-9 * (1.0 + abs(ref))


@st.composite
def h_systems(draw):
    """{z : a z <= b} in 2 to 4 columns: the box [-1, 1]^d and one to six
    random unit rows, with any of: repeated rows with right-hand sides up to
    0.1 lower or 0.2 higher, which still hold the box [-0.05, 0.05]^d; a
    hidden equality c z = beta through that box (rows c and -c); rows
    through a box corner (degenerate vertices, exact in binary); a row that
    empties the box; and an open side: with the row -e_0 dropped and every
    row's entry 0 made nonnegative, -e_0 is a recession direction.  Returns
    a, b and the error enumeration must raise, if any."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat, repeated, degenerate, empty, unbounded = (draw(st.booleans()) for _ in range(5))
    eye = np.eye(d)
    rows = rng.normal(size=(draw(st.integers(1, 6)), d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    a, b = np.vstack([eye, -eye, rows]), np.concatenate([np.ones(2 * d),
                                                        rng.uniform(0.3, 1.5, len(rows))])
    if repeated:
        pick = rng.integers(0, len(a), draw(st.integers(1, 4)))
        a, b = np.vstack([a, a[pick]]), np.concatenate([b, b[pick] + rng.uniform(-0.1, 0.2,
                                                                                   len(pick))])
    if flat:
        c = rng.normal(size=d)
        c[0] *= not unbounded
        c /= np.linalg.norm(c)
        beta = float(c @ rng.uniform(-0.05, 0.05, d))
        a, b = np.vstack([a, c, -c]), np.concatenate([b, [beta, -beta]])
    if degenerate:
        sign = rng.choice([-1.0, 1.0], d)
        sign[0] = 1.0
        weights = rng.integers(0, 2, (draw(st.integers(1, 4)), d)).astype(float)
        weights[:, :2] = 1.0
        a, b = np.vstack([a, weights * sign]), np.concatenate([b, weights.sum(axis=1)])
    if empty:
        a, b = np.vstack([a, eye[1]]), np.concatenate([b, [-2.0]])
    if unbounded:
        keep = np.ones(len(a), dtype=bool)
        keep[d] = False
        a, b = a[keep], b[keep]
        a[:, 0] = np.abs(a[:, 0])
    error = (InfeasiblePolytopeError if empty else UnboundedPolytopeError if unbounded
             else None)
    return a, b, error


@settings(max_examples=400)
@given(case=h_systems())
def test_double_description_matches_the_exhaustive_and_polar_dual_routes(case):
    # equal counts and sets within 1e-12 against every square subsystem and
    # against Qhull's polar dual; empty and unbounded systems raise as there
    a, b, error = case
    poly = con.Polytope(a_ub=a, b_ub=b)
    if error is not None:
        for route in (con.enumerate_vertices, reference_enumerate_vertices):
            with pytest.raises(error):
                route(poly)
        return
    verts = con.enumerate_vertices(poly)
    for reference in (active_set_vertices(a, b), reference_enumerate_vertices(poly)):
        assert verts.shape == reference.shape
        assert _hausdorff(verts, reference) <= 1e-12


def _center_type_sets(problem):
    center = sc.center_set(problem)
    yield center.center_polytope
    for eps in (0.2, 0.1, 0.05):
        yield sc.near_center_set(problem, eps, center.radius)


class TestProductSplit:
    def test_center_sets_split_into_support_blocks_and_intervals(self):
        # 03: two disjoint supports and one free coordinate; 17: one support
        # block and three free coordinates
        split = {}
        for inst in sc.load_corpus("center"):
            center = sc.center_set(inst.problem()).center_polytope
            split[inst.name] = [part.cols.tolist() for part in con.factors(center)]
        assert split["03-disjoint-supports"] == [[0, 1], [2, 3], [4]]
        assert split["17-random-d5m4"] == [[0, 3], [1], [2], [4]]
        assert split["12-no-constraints"] == [[0], [1], [2]]
        assert sum(len(parts) > 1 for parts in split.values()) == 14

    def test_factor_rows_and_restriction(self):
        # a factor keeps exactly the rows that touch its columns
        inst = next(i for i in sc.load_corpus("center") if i.name == "03-disjoint-supports")
        poly = sc.center_set(inst.problem()).center_polytope
        for part, (cols, sub) in zip(con.factors(poly), poly.split(), strict=True):
            assert_same_bytes(cols, part.cols)
            outside = np.delete(np.arange(poly.dim), part.cols)
            assert not np.any(poly.a_ub[np.ix_(part.ub, outside)])
            assert np.array_equal(sub.a_ub, poly.a_ub[np.ix_(part.ub, part.cols)])
            assert np.array_equal(sub.b_eq, poly.b_eq[part.eq])
            rest = np.setdiff1d(np.arange(poly.a_ub.shape[0]), part.ub)
            assert not np.any(poly.a_ub[np.ix_(rest, part.cols)])

    def test_renorm_polytopes_and_coupled_centers_are_one_factor(self):
        # a dense row, or supports that chain every coordinate, keep the
        # unsplit route and its bytes
        for inst in sc.load_corpus("center"):
            if inst.name in ("14-random-d4m3", "15-random-d5m4"):
                center = sc.center_set(inst.problem()).center_polytope
                assert len(con.factors(center)) == 1
        rng = np.random.default_rng(5)
        for inst in sc.load_corpus("renorm"):
            model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma,
                                        theta=inst.theta)
            e0 = np.eye(model.n)[:1]
            polys = [con.Polytope(a_ub=model.ball_facets, b_ub=np.ones(len(model.ball_facets)),
                                  a_eq=e0, b_eq=np.zeros(1))]
            for x in (model.x0, *rng.uniform(-1.0, 1.0, (2, model.n))):
                polys += [garkavi.metric_projection(model, x, eps) for eps in (0.0, 0.1)]
            assert all(len(con.factors(poly)) == 1 for poly in polys)

    def test_enumeration_matches_the_unsplit_route_on_the_corpus(self):
        rng = np.random.default_rng(17)
        for inst in sc.load_corpus("center"):
            for problem in (inst.problem(), sc.subspace_problem(inst.family, inst.subspace)):
                for poly in _center_type_sets(problem):
                    assert_matches_the_unsplit_route(poly, rng.normal(size=(4, poly.dim)))

    @pytest.mark.parametrize("rhs, empty", [(-1.5 * DEFAULT_TOL, False),
                                            (-2.5 * DEFAULT_TOL, True)])
    def test_zero_inequality_row(self, rhs, empty):
        # the box splits into two intervals, so factors checks the zero row:
        # 0 <= rhs holds down to -DEFAULT_TOL * (1 + max|b_ub|), here
        # -2 * DEFAULT_TOL, in the split and in the unsplit route alike
        poly = con.Polytope.box(2, 1.0).with_rows(np.zeros((1, 2)), [rhs])
        assert len(con.factors(con.Polytope.box(2, 1.0))) == 2
        for route in (con.enumerate_vertices, reference_enumerate_vertices):
            if empty:
                with pytest.raises(InfeasiblePolytopeError):
                    route(poly)
            else:
                assert route(poly).shape == (4, 2)

    @pytest.mark.parametrize("rhs, empty", [(5e-8, False), (1e-6, True)])
    def test_zero_equality_row(self, rhs, empty):
        box = con.Polytope.box(2, 1.0)
        poly = con.Polytope(a_ub=box.a_ub, b_ub=box.b_ub, a_eq=np.zeros((1, 2)), b_eq=[rhs])
        for route in (con.enumerate_vertices, reference_enumerate_vertices):
            if empty:
                with pytest.raises(InfeasiblePolytopeError):
                    route(poly)
            else:
                assert route(poly).shape == (4, 2)

    @pytest.mark.parametrize("a_ub, b_ub, error", [
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0], UnboundedPolytopeError),    # column 1 free
        ([[0.0, 1.0], [0.0, -1.0]], [-1.0, -1.0], InfeasiblePolytopeError),  # column 1 empty
    ], ids=["untouched-column", "empty-factor-wins"])
    def test_untouched_column(self, a_ub, b_ub, error):
        # a column no row touches is unbounded, unless another factor is
        # empty, even one enumerated after it (column 0 is free in the second)
        poly = con.Polytope(a_ub=np.array(a_ub), b_ub=np.array(b_ub))
        assert len(con.factors(poly)) == 2
        for route in (con.enumerate_vertices, reference_enumerate_vertices):
            with pytest.raises(error):
                route(poly)


@st.composite
def split_problems(draw):
    """A kernel-ball or whole-kernel problem whose functionals have disjoint
    supports of one to three points, with at least one coordinate off every
    support, and a slack for its near-center set."""
    dim = draw(st.integers(2, 6))
    order = draw(st.permutations(range(dim)))
    supported = draw(st.integers(1, dim - 1))
    supports, start = [], 0
    while start < supported:
        size = draw(st.integers(1, min(3, supported - start)))
        supports.append(tuple(order[start:start + size]))
        start += size
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = con.Subspace(dim=dim, functionals=tuple(
        con.Functional(support=s, weights=tuple(rng.uniform(0.2, 1.0, len(s))
                                                * rng.choice([-1.0, 1.0], len(s))),
                       normalize=True) for s in supports))
    family = sc.FunctionFamily(rng.uniform(-1.0, 1.0, (draw(st.integers(1, 3)), dim)))
    problem = sc.ball_problem(family, y) if draw(st.booleans()) else sc.subspace_problem(family, y)
    return problem, draw(st.sampled_from([0.0, 0.05, 0.2])), rng


@settings(max_examples=40)
@given(case=split_problems())
def test_split_matches_the_unsplit_route_on_random_products(case):
    # the vertex list, and the worst distance back to the center set taken
    # factor by factor, against the whole polytopes
    problem, delta, rng = case
    center = sc.center_set(problem)
    poly = sc.near_center_set(problem, delta, center.radius)
    assert len(con.factors(poly)) >= 2
    assert_matches_the_unsplit_route(poly, rng.normal(size=(4, poly.dim)))
    worst, witness = sc.worst_near_center_distance(problem, delta, center)
    verts = reference_enumerate_vertices(poly)
    scanned, _ = reference_farthest_vertex(verts, center.center_polytope)
    assert abs(worst - scanned) <= 1e-15 * (1.0 + scanned)
    if witness is not None:
        assert np.min(np.max(np.abs(verts - witness), axis=1)) <= 1e-12
        assert lp.distance_to_polytope(witness, center.center_polytope)[0] >= worst - DEFAULT_TOL


def test_merge_rows_merges_and_orders_through_noise():
    noise = 1e-15
    rows = np.array([[0.5 + noise, 0.0], [0.5, 1.0], [0.5, 0.0], [0.5 - noise, 1.0 + noise]])
    merged = con.merge_rows(rows)
    assert merged.shape == (2, 2)
    assert merged[:, 1] == pytest.approx([0.0, 1.0])
    assert min_row_gap(merged) > DEDUP_TOL


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# steps of a planted cluster, in units of DEDUP_TOL: last-ulp noise, chain
# links (a ~ b and b ~ c with a !~ c), and offsets just under and over the bar
_STEPS = st.sampled_from([0.0, 1e-9, -1e-9, 0.4, -0.4, 0.6, 0.7, -0.9,
                          1.0 - 1e-6, -(1.0 - 1e-6), 1.0 + 1e-6, -(1.0 + 1e-6), 1.2])
_NOISE = st.sampled_from([0.0, 1e-16, -1e-16])


@st.composite
def planted_clusters(draw):
    dim = draw(st.integers(1, 3))
    corner = st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), min_size=dim, max_size=dim)
    centers = draw(st.lists(corner, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = np.array(draw(st.sampled_from(centers)))
        for _ in range(draw(st.integers(0, 3))):
            row = row + DEDUP_TOL * np.array(draw(st.lists(_STEPS, min_size=dim, max_size=dim)))
        rows.append(row + np.array(draw(st.lists(_NOISE, min_size=dim, max_size=dim))))
    return np.array(rows)


@settings(max_examples=300)
@given(rows=planted_clusters())
def test_merge_rows_matches_the_greedy_scan(rows):
    assert_same_bytes(con.merge_rows(rows), reference_merge_rows(rows))


def test_merge_rows_keeps_both_ends_of_a_chain():
    # c ~ b and b ~ a, but c !~ a: one run of equal keys, in input order, of
    # which the scan keeps c and a and drops b
    rows = np.array([[1.2e-7 + 1e-16, 5.0], [0.0, 5.0], [0.6e-7, 5.0 - 1e-16], [2.0, 0.0]])
    merged = con.merge_rows(rows)
    assert_same_bytes(merged, reference_merge_rows(rows))
    assert_same_bytes(merged, rows[[0, 1, 3]])


def test_merge_rows_matches_the_greedy_scan_on_corpus_and_hull_facets(monkeypatch):
    seen = []
    real = con.merge_rows

    def recording(rows):
        seen.append(np.array(rows, dtype=float))
        return real(rows)

    monkeypatch.setattr(con, "merge_rows", recording)
    monkeypatch.setattr(garkavi, "merge_rows", recording)
    for inst in sc.load_corpus("center"):
        problem = inst.problem()
        center = sc.center_set(problem)
        center.center_polytope.vertices()
        for delta in (0.2, 0.1, 0.05):
            sc.near_center_set(problem, delta, center.radius).vertices()
    vertex_lists = len(seen)
    for inst in sc.load_corpus("renorm"):
        garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    assert vertex_lists >= 4 * len(sc.load_corpus("center")) and len(seen) > vertex_lists
    for rows in seen:
        assert_same_bytes(real(rows), reference_merge_rows(rows))


def _filter_cases():
    # polytopes that enumerate_vertices takes whole: the factors of each
    # corpus center and near-center set, and the renorm projections
    polys = []
    for inst in sc.load_corpus("center"):
        problem = inst.problem()
        center = sc.center_set(problem)
        for poly in (center.center_polytope, sc.near_center_set(problem, 0.1, center.radius)):
            polys += [sub for _, sub in poly.split()]
    rng = np.random.default_rng(7)
    for inst in sc.load_corpus("renorm"):
        model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
        for x in (model.x0, *rng.uniform(-1.0, 1.0, (2, model.n))):
            polys += [garkavi.metric_projection(model, x, eps) for eps in (0.0, 0.1)]
    assert all(len(con.factors(poly)) == 1 for poly in polys)
    return polys


def _held_ends(poly):
    """The ends of poly's held line, lower first, as the test forms them."""
    v0, dv, lower, upper = poly.line()
    return np.array([v0 + lower * dv, v0 + upper * dv])


def test_vertex_filter_is_one_pass_and_keeps_the_same_candidates(monkeypatch):
    # a line's candidates are the ends of its held line, any other
    # polytope's those of _enumerate_reduced
    polys = _filter_cases()
    expected = [reference_enumerate_vertices(p, con._enumerate_reduced(p) if p.line() is None
                                             else _held_ends(p)) for p in polys]
    assert any(p.line() is not None for p in polys)
    calls = []
    real = con.Polytope.violation

    def counted(self, v):
        calls.append(v)
        return real(self, v)

    monkeypatch.setattr(con.Polytope, "violation", counted)
    got = [con.enumerate_vertices(p) for p in polys]
    assert not calls
    for verts, want in zip(got, expected):
        assert_same_bytes(verts, want)
    # the batched scores are the per-point ones, also off the polytope: a
    # vertex is no midpoint, so v + d or v - d lies outside for each d != 0
    rng = np.random.default_rng(11)
    for poly, verts in zip(polys, got):
        step = rng.uniform(-1e-3, 1e-3, verts.shape)
        points = np.vstack([verts, verts + step, verts - step])
        scores = [reference_violation(poly, v) for v in points]
        assert con._violations(poly, points) == pytest.approx(scores, rel=1e-12, abs=1e-15)
        assert max(scores) > 0.0


def test_an_exact_line_enumerates_its_exact_ends():
    # v0 = v1 in the square: the line is (t, t), t in [-1, 1], so its
    # vertices are exact, where an orthonormal null-space chart (entries
    # +-1/sqrt(2)) gave +-(0.9999999999999998, 1.0)
    poly = con.Polytope(**SQUARE, a_eq=[[0.5, -0.5]], b_eq=[0.0])
    assert_same_bytes(poly.vertices(), np.array([[-1.0, -1.0], [1.0, 1.0]]))
    # the same line through a repeated row: the repeat adds no rank, so it
    # is the same line, with the same chart and the same bytes
    repeated = con.Polytope(**SQUARE, a_eq=[[0.5, -0.5], [0.5, -0.5]], b_eq=[0.0, 0.0])
    assert_same_line(repeated.line(), poly.line())
    assert_same_bytes(repeated.vertices(), poly.vertices())


def test_a_repeated_functional_lists_the_same_centers():
    # the worked instance with mu given twice: the repeat adds no rank, so
    # the center list is (mu,)'s, bit for bit, where a chart that took the
    # repeat as a second row listed (0.5, 0.5000000000000001, +-0.5)
    mu = sc.Functional(support=(0, 1), weights=(0.5, -0.5))
    family = sc.FunctionFamily([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    once, twice = (sc.center_set(sc.ball_problem(family, sc.Subspace(dim=3, functionals=fs)))
                   for fs in ((mu,), (mu, mu)))
    assert once.center_polytope.vertices().tolist() == [[0.5, 0.5, -0.5], [0.5, 0.5, 0.5]]
    assert_same_bytes(twice.center_polytope.vertices(), once.center_polytope.vertices())
    assert _same_floats(twice.radius, once.radius)
    assert_same_bytes(twice.representative, once.representative)


@pytest.mark.parametrize("row", [[1.0, 0.0], [-1.0, 0.0]], ids=["downward", "upward"])
def test_a_ray_on_a_line_is_unbounded(row):
    # v0 = v1 bounded on one side only: one end of the held line is infinite
    poly = con.Polytope(a_ub=[row], b_ub=[1.0], a_eq=[[0.5, -0.5]], b_eq=[0.0])
    assert poly.line() is not None
    with pytest.raises(UnboundedPolytopeError):
        poly.vertices()


def _line_factor_cases():
    """The corpus center and near sets, and the product of a one-point line
    and an interval, whose line factor's ends coincide."""
    for inst in sc.load_corpus("center"):
        yield from _center_type_sets(inst.problem())
    yield con.Polytope(a_ub=np.vstack([np.eye(3), -np.eye(3)]), b_ub=np.ones(6),
                       a_eq=[[0.5, 0.5, 0.0]], b_eq=[1.0])


def test_a_line_factors_list_is_its_held_ends():
    # bit for bit: the ends of the held line that pass the filter, lower
    # first and unmerged inside a product, one when they lie within
    # DEDUP_TOL; a polytope that is one line merges them once
    seen = {"product": 0, "whole": 0, "point": 0}
    for poly in _line_factor_cases():
        parts = poly.split()
        for _, sub in parts:
            if sub.line() is None:
                continue
            ends = _held_ends(sub)
            lower, upper = sub.line()[2:]
            scale = 1.0 + float(np.max(np.abs(ends)))
            bar = max(VERTEX_FILTER_TOL * scale, DEFAULT_TOL * CERTIFY_SLACK_FACTOR)
            kept = np.array([v for v in ends if reference_violation(sub, v) <= bar])
            if len(parts) == 1:
                assert_same_bytes(con.enumerate_vertices(poly), reference_merge_rows(kept))
                seen["whole"] += 1
            else:
                if upper - lower <= DEDUP_TOL:
                    kept = kept[:1]
                    seen["point"] += 1
                assert_same_bytes(con._product_factor_vertices(sub), kept)
                seen["product"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_an_all_line_list_forms_no_hull_and_merges_once(inst, split_counts):
    # a center list whose factors are all lines reads their ends off the
    # held lines: no double description, one merge of the product.  A wider
    # factor (08, 14, 15) keeps its double description and its own merge.
    # Each chart was formed by line() and is held, so the list forms none
    center = sc.center_set(inst.problem()).center_polytope
    parts = center.split()
    wider = sum(1 for _, sub in parts if sub.line() is None)
    assert bool(wider) == (inst.name in {"08-three-point-functional", "14-random-d4m3",
                                         "15-random-d5m4"})
    split_counts.clear()
    center.vertices()
    assert split_counts["_chart"] == 0
    assert split_counts["_double_description"] == wider
    assert split_counts["merge_rows"] == (1 if len(parts) == 1 else 1 + wider)


SQUARE = {"a_ub": np.vstack([np.eye(2), -np.eye(2)]), "b_ub": np.ones(4)}


def test_given_vertices_are_certified_merged_and_returned(monkeypatch):
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [1.0, 1.0 - 1e-12]])
    poly = con.Polytope(**SQUARE, vertices=corners)
    monkeypatch.setattr(con, "enumerate_vertices", lambda p: pytest.fail("enumerated"))
    verts = poly.vertices()
    assert_same_bytes(verts, con.merge_rows(corners))
    assert len(verts) == 4 and not verts.flags.writeable


@pytest.mark.parametrize("given", [[[1.0, 1.0], [1.0 + 1e-6, 0.0]], np.zeros((0, 2))],
                         ids=["outside", "empty"])
def test_given_vertices_outside_or_none_are_refused(given):
    with pytest.raises(EnumerationError, match="feasibility filter"):
        con.Polytope(**SQUARE, vertices=given)


def test_a_polytope_without_given_vertices_enumerates():
    # with_rows carries no vertices over: new rows make a new polytope
    poly = con.Polytope(**SQUARE, vertices=[[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    cut = poly.with_rows([[1.0, 1.0]], [1.0])
    assert_same_bytes(cut.vertices(), con.enumerate_vertices(cut))
    assert len(cut.vertices()) == 5  # the cut takes the corner (1, 1) off


def test_the_constructor_copies_the_callers_arrays():
    # the polytope's rows are read-only copies: the caller's arrays stay
    # writable, and writing to them leaves the polytope as it was built
    a_ub, b_ub = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    a_eq, b_eq = np.array([[0.5, -0.5]]), np.zeros(1)
    poly = con.Polytope(a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    a_ub[0, 0], b_ub[1], a_eq[0, 1], b_eq[0] = 2.0, 5.0, 0.5, 1.0
    assert_same_bytes(poly.a_ub, np.vstack([np.eye(2), -np.eye(2)]))
    assert_same_bytes(poly.b_ub, np.ones(4))
    assert_same_bytes(poly.a_eq, np.array([[0.5, -0.5]]))
    assert_same_bytes(poly.b_eq, np.zeros(1))
    assert not any(arr.flags.writeable for arr in (poly.a_ub, poly.b_ub, poly.a_eq, poly.b_eq))
    assert poly.vertices() == pytest.approx(np.array([[-1.0, -1.0], [1.0, 1.0]]), abs=1e-15)


def test_polytope_repr_mentions_shape():
    text = repr(con.Polytope.box(3, 1.0))
    assert "dim=3" in text and "ineqs=6" in text


def _fresh(poly):
    """A new Polytope on poly's arrays, with nothing held yet."""
    return con.Polytope(a_ub=poly.a_ub, b_ub=poly.b_ub, a_eq=poly.a_eq, b_eq=poly.b_eq,
                        dim=poly.dim)


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_a_held_split_measures_the_same_bits_as_a_fresh_one(inst):
    # every distance after the first reads the split and lines held by the
    # first; a fresh polytope on the same arrays forms its own each time
    problem = inst.problem()
    center = sc.center_set(problem)
    polys = [center.center_polytope] + [sc.near_center_set(problem, delta, center.radius)
                                        for delta in (0.2, 0.1, 0.05)]
    rng = np.random.default_rng(97)
    values = problem.family.values
    points = [*values, *rng.uniform(values.min() - 1.0, values.max() + 1.0, (6, problem.dim))]
    for poly in polys:
        for x in points:
            held_dist, held_point = lp.distance_to_polytope(x, poly)
            fresh_dist, fresh_point = lp.distance_to_polytope(x, _fresh(poly))
            assert np.float64(held_dist).tobytes() == np.float64(fresh_dist).tobytes()
            assert_same_bytes(held_point, fresh_point)
        assert poly._parts is not None


def test_a_held_split_is_formed_once(split_counts):
    # three factors: the coupled block {0, 1} and two free coordinates
    poly = con.Polytope.box(4, 1.0, a_eq=[[0.5, -0.5, 0.0, 0.0]])
    for x in ([2.0, 0.0, 0.0, 0.0], [0.0, 3.0, -2.0, 0.5]):
        lp.distance_to_polytope(x, poly)
    poly.vertices()
    assert split_counts["factors"] == 1 and split_counts["_chart"] == 3


@pytest.mark.parametrize("poly, raiser", [
    # a zero inequality row with a negative right-hand side: factors raises
    (con.Polytope(a_ub=np.vstack([np.zeros(2), np.eye(2), -np.eye(2)]),
                  b_ub=[-1.0, 1.0, 1.0, 1.0, 1.0]), "factors"),
    # v0 + v1 = 0 and v0 + v1 = 1: the split holds, the chart raises
    (con.Polytope(**SQUARE, a_eq=[[0.5, 0.5], [0.5, 0.5]], b_eq=[0.0, 0.5]), "_chart"),
    # x <= -1 and x >= 1: the split and the chart of its one column hold,
    # and the ends of its line cross
    (con.Polytope(a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0]), None),
], ids=["zero-row", "inconsistent", "crossed-ends"])
def test_a_failed_split_is_not_held(poly, raiser, split_counts):
    for calls in (1, 2, 3):
        with pytest.raises(InfeasiblePolytopeError):
            lp.distance_to_polytope(np.full(poly.dim, 5.0), poly)
        if raiser is None:
            assert split_counts["_chart", poly] == 1
        else:
            assert split_counts[raiser, poly] == calls
        assert poly._held_line == ()
    for _ in range(2):
        with pytest.raises(InfeasiblePolytopeError):
            poly.vertices()


def _same_floats(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def assert_same_line(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        for a, b in zip(got[:2], want[:2]):
            assert_same_bytes(a, b)
        assert _same_floats(got[2], want[2]) and _same_floats(got[3], want[3])


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_a_band_cut_inherits_the_split_and_lines_of_a_fresh_one(inst, split_counts):
    # center_set splits V and forms each factor's chart and line; every band
    # cut of V then takes V's split, each sub-polytope cut by its slice of
    # the band, and its charts from V's factors, runs factors and _chart on
    # nothing, and must hold what a fresh polytope on its arrays would form
    # itself
    for problem in (inst.problem(), sc.ball_problem(inst.family, inst.subspace)):
        center = sc.center_set(problem)
        held = problem.feasible.split()
        cuts = [center.center_polytope] + [sc.near_center_set(problem, slack, center.radius)
                                           for slack in (0.2, 0.1, 0.05)]
        for cut in cuts:
            split_counts.clear()
            derived = cut.split()
            lines = [sub.line() for _, sub in derived]
            charts = [sub.chart() for _, sub in derived]
            assert split_counts["factors"] == split_counts["_chart"] == 0
            want = _fresh(cut).split()
            assert len(derived) == len(want)
            for (cols, sub), line, chart, (fresh_cols, fresh_sub) in zip(derived, lines, charts,
                                                                         want):
                assert cols.dtype == fresh_cols.dtype
                assert_same_bytes(cols, fresh_cols)
                for name in ("a_ub", "b_ub", "a_eq", "b_eq"):
                    assert_same_bytes(getattr(sub, name), getattr(fresh_sub, name))
                assert_same_line(line, fresh_sub.line())
                for got, expected in zip(chart, con._chart(fresh_sub)):
                    assert_same_bytes(got, expected)
        assert problem.feasible.split() == held


def test_a_crossed_band_raises_on_every_call_and_holds_nothing(split_counts):
    # a band at half the true radius leaves some factor empty: its line's
    # ends cross, so every distance and every enumeration raises, and the
    # factor that raises holds no line; V's own split and lines stay as
    # center_set left them
    inst = next(i for i in sc.load_corpus("center") if i.name == "03-disjoint-supports")
    problem = inst.problem()
    center = sc.center_set(problem)
    held = [(cols, sub, sub.line()) for cols, sub in problem.feasible.split()]
    crossed = sc.near_center_set(problem, 0.0, 0.5 * center.radius)
    split_counts.clear()
    for _ in range(3):
        with pytest.raises(InfeasiblePolytopeError):
            lp.distance_to_polytope(np.full(problem.dim, 5.0), crossed)
        with pytest.raises(InfeasiblePolytopeError):
            crossed.vertices()
    assert crossed._vertices is None
    raised = 0
    for _, sub in crossed.split():
        try:
            sub.line()
        except InfeasiblePolytopeError:
            raised += 1
            assert sub._held_line == ()
    assert raised
    assert split_counts["factors"] == split_counts["_chart"] == 0
    assert [sub._band[0] for _, sub in crossed.split()] == [sub for _, sub, _ in held]
    assert [(cols, sub, sub.line()) for cols, sub in problem.feasible.split()] == held


def test_a_band_cut_of_an_unsplit_polytope_splits_it_once(split_counts):
    # V holds no split: the band cut splits V, which holds the split and the
    # charts of its factors, so a second cut of V forms nothing.  A V that
    # holds its split but not its charts gives the split, and the cut's first
    # line on each factor forms and holds the chart of V's factor.  A V whose
    # vertices were listed holds both.  No band cut forms a chart of its own.
    # V is built here, not read from the subspace, which holds its ball split
    inst = next(i for i in sc.load_corpus("center") if i.name == "03-disjoint-supports")

    def unsplit_problem():
        box = con.Polytope.box(inst.subspace.dim, 1.0, inst.subspace.rows())
        return sc.CenterProblem(family=inst.family, feasible=box)

    radius = sc.center_set(inst.problem()).radius
    x = np.full(inst.family.dim, 0.9)
    problem = unsplit_problem()
    cut = sc.near_center_set(problem, 0.1, radius)
    split_counts.clear()
    dist, point = lp.distance_to_polytope(x, cut)
    assert split_counts["factors"] == split_counts["factors", problem.feasible] == 1
    assert split_counts["_chart"] == len(cut.split())
    assert all(split_counts["_chart", sub] == 1 for _, sub in problem.feasible.split())
    assert not any(split_counts["_chart", sub] for _, sub in cut.split())
    assert problem.feasible._parts is not None
    split_counts.clear()
    again = sc.near_center_set(problem, 0.1, radius)
    assert _same_floats(lp.distance_to_polytope(x, again)[0], dist)
    assert split_counts["factors"] == split_counts["_chart"] == 0

    problem = unsplit_problem()
    problem.feasible.split()  # splits V, forms no chart and no line
    assert all(sub._held_chart is None and sub._held_line == ()
               for _, sub in problem.feasible.split())
    cut = sc.near_center_set(problem, 0.1, radius)
    split_counts.clear()
    assert _same_floats(lp.distance_to_polytope(x, cut)[0], dist)
    assert_same_bytes(lp.distance_to_polytope(x, cut)[1], point)
    assert split_counts["factors"] == 0
    assert split_counts["_chart"] == len(cut.split())
    assert all(split_counts["_chart", sub] == 1 for _, sub in problem.feasible.split())
    assert not any(split_counts["_chart", sub] for _, sub in cut.split())
    assert all(sub._held_chart is not None for _, sub in problem.feasible.split())

    # V's vertices split V and read each factor's ends off its line, whose
    # chart they form once and hold, running no double description; the cut
    # then forms nothing
    problem = unsplit_problem()
    split_counts.clear()
    problem.feasible.vertices()
    subs = [sub for _, sub in problem.feasible.split()]
    assert split_counts["factors"] == split_counts["factors", problem.feasible] == 1
    assert split_counts["_chart"] == len(subs)
    assert all(split_counts["_chart", sub] == 1 for sub in subs)
    assert all(sub._held_line not in ((), None) for sub in subs)
    assert split_counts["_double_description"] == 0
    cut = sc.near_center_set(problem, 0.1, radius)
    split_counts.clear()
    assert _same_floats(lp.distance_to_polytope(x, cut)[0], dist)
    assert_same_bytes(lp.distance_to_polytope(x, cut)[1], point)
    assert split_counts["factors"] == split_counts["_chart"] == 0


def test_a_split_gives_each_sub_polytope_its_lone_factor(split_counts):
    # three factors: each sub-polytope split() forms holds the one-factor
    # split that factors would give it, so measuring against it splits nothing
    poly = con.Polytope.box(4, 1.0, a_eq=[[0.5, -0.5, 0.0, 0.0]])
    subs = [sub for _, sub in poly.split()]
    assert len(subs) == 3
    for sub in subs:
        ((lone, same),) = sub.split()
        assert same is sub
        (want,) = con.factors(_fresh(sub))
        assert lone.dtype == want.cols.dtype
        assert_same_bytes(lone, want.cols)
    split_counts.clear()
    for sub in subs:
        lp.distance_to_polytope(np.full(sub.dim, 3.0), sub)
    assert split_counts["factors"] == 0 and split_counts["_chart"] == 3
