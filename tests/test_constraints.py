import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supcenter as sc
import supcenter.constraints as con
from supcenter import garkavi
from supcenter.errors import (
    InfeasiblePolytopeError,
    UnboundedPolytopeError,
)
from supcenter.tolerances import DEDUP_TOL

from oracles import (active_set_vertices, kernel_basis, min_row_gap, per_candidate_vertices,
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
    ], ids=["2d", "1d"])
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

    def test_polar_dual_agrees_with_exhaustive(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            m = int(rng.integers(d + 2, 10))
            a = rng.normal(size=(m, d))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = rng.uniform(0.5, 1.5, m)
            rows = np.vstack([a, np.eye(d), -np.eye(d)])
            rhs = np.concatenate([b, np.full(2 * d, 2.0)])
            exhaustive = active_set_vertices(rows, rhs)
            polar = con.Polytope(a_ub=rows, b_ub=rhs).vertices()
            assert exhaustive.shape == polar.shape
            gap = max(np.min(np.max(np.abs(polar - v), axis=1)) for v in exhaustive)
            assert gap < 1e-7

    def test_thin_polytope_takes_the_hull_route(self):
        # the degeneracy probe of p1-modulus 13-random-d3m2 --eps 0.001: the
        # near-center set at slack 1e-7 is 2.7e-7 wide, so its inscribed
        # radius sits under the flatness bar, yet no row is implicitly tight
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
    polys = []
    for inst in sc.load_corpus("center"):
        problem = inst.problem()
        center = sc.center_set(problem)
        polys += [center.center_polytope, sc.near_center_set(problem, 0.1, center.radius)]
    rng = np.random.default_rng(7)
    for inst in sc.load_corpus("renorm"):
        model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
        for x in (model.x0, *rng.uniform(-1.0, 1.0, (2, model.n))):
            polys += [garkavi.metric_projection(model, x, eps) for eps in (0.0, 0.1)]
    return polys


def test_vertex_filter_is_one_pass_and_keeps_the_same_candidates(monkeypatch):
    polys = _filter_cases()
    expected = [per_candidate_vertices(p) for p in polys]
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
    # the batched scores are the per-point ones, also off the polytope
    rng = np.random.default_rng(11)
    for poly, verts in zip(polys, got):
        points = np.vstack([verts, verts + rng.uniform(-1e-3, 1e-3, verts.shape)])
        scores = [reference_violation(poly, v) for v in points]
        assert con._violations(poly, points) == pytest.approx(scores, rel=1e-12, abs=1e-15)
        assert max(scores) > 0.0


def test_polytope_repr_mentions_shape():
    text = repr(con.Polytope.box(3, 1.0))
    assert "dim=3" in text and "ineqs=6" in text
