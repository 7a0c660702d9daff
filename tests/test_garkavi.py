import numpy as np
import pytest
import scipy.spatial
from hypothesis import given
from hypothesis import strategies as st

from supcenter import cli, constraints, garkavi, lp
from supcenter.constraints import Polytope
from supcenter.errors import EnumerationError, LPNumericalError, ModelBuildError
from supcenter.instances import load_corpus
from supcenter.garkavi import (
    build_model,
    center_trend,
    gauge_decomposition,
    gauge_norm,
    half_ball_check,
    metric_projection,
    subspace_gauge_distance,
    _forward_gap,
    _gauge_facets,
    _projection,
    _replay_crossing,
)
from supcenter.space import _hausdorff_points
from supcenter.tolerances import DEDUP_TOL, MODEL_DIM_LIMIT, SET_TOL

from oracles import (SECTION_LEVEL_TOL, hull_gauge_distance, min_row_gap, reference_ball_facets, reference_edges,
                     reference_extreme_values, reference_forward_gap,
                     reference_gauge_decomposition, reference_level_section,
                     reference_replay_crossing, reference_section,
                     reference_subspace_gauge_distance, reference_triangulation_decomposition)


@pytest.fixture(scope="module")
def model3():
    return build_model(3, seed=0)


@pytest.fixture(scope="module")
def model4():
    return build_model(4, seed=0)


class TestBuild:
    def test_certificates_positive(self, model3):
        for name, margin in model3.certificates.items():
            if name in ("disjoint", "x0-gauge-gap"):
                continue
            assert margin > 0.0, f"certificate {name} has margin {margin}"

    def test_alpha_exact(self, model3, model4):
        # the slab level is (1 - 2 gamma) - gamma independent of dimension
        for model in (model3, model4):
            assert model.alpha == pytest.approx(1.0 - 3.0 * model.gamma, abs=1e-12)
            assert model.alpha == pytest.approx(0.8125, abs=1e-12)

    def test_x0_has_unit_gauge(self, model3):
        assert model3.certificates["x0-gauge-gap"] <= 1e-7

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_model(2)
        with pytest.raises(ValueError):
            build_model(3, gamma=0.2)
        with pytest.raises(ValueError):
            build_model(3, theta=-1e-3)
        with pytest.raises(ValueError):
            build_model(3, theta=float("nan"))

    def test_zero_shrink_fails_disjointness(self):
        with pytest.raises(ModelBuildError) as exc:
            build_model(3, theta=0.0)
        assert exc.value.certificate == "disjoint"

    def test_norm_equivalence_constants(self, model3):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-1, 1, 3)
            g = gauge_norm(model3, x)
            sup = float(np.max(np.abs(x)))
            assert model3.c_lower * sup <= g + 1e-9
            assert g <= model3.c_upper * sup + 1e-9


def test_a_dimension_past_the_limit_is_refused_before_any_allocation(monkeypatch):
    # the cube alone has 2^(n-1) corners: n = 64 is refused before numpy is
    # touched, so it allocates nothing
    monkeypatch.setattr(garkavi, "np", None)
    with pytest.raises(ValueError, match=f"dimension 3 to {MODEL_DIM_LIMIT}, got 64"):
        build_model(64)


def test_renorm_past_the_dimension_limit_exits_two(capsys):
    assert cli.main(["renorm", "--n", "64", "--samples", "0"]) == cli.BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and "got 64" in err


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_corpus_model_facets_are_distinct_and_hold_the_hull(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    assert min_row_gap(model.ball_facets) > DEDUP_TOL
    assert min_row_gap(model.section_facets) > DEDUP_TOL
    assert np.all(model.hull_points @ model.ball_facets.T <= 1.0 + 1e-9)


def test_tiny_cube_builds_and_its_gauge_matches_the_facets():
    # a cube of side 2e-11 puts B's facets through nearly coincident hull
    # points; the level split still matches the LP oracle
    model = build_model(3, gamma=1e-11)
    rng = np.random.default_rng(19)
    for x in [model.x0, *rng.uniform(-2, 2, (10, 3))]:
        assert gauge_norm(model, x) == pytest.approx(_gauge_facets(model, x), abs=1e-7)
        assert gauge_norm(model, x) == pytest.approx(
            reference_gauge_decomposition(model, x)[0], abs=1e-7)


class TestGauge:
    def test_two_routes_agree(self, model3, model4):
        rng = np.random.default_rng(11)
        for model in (model3, model4):
            for _ in range(15):
                x = rng.uniform(-2, 2, model.n)
                hull_route = gauge_norm(model, x)
                lp_route = reference_gauge_decomposition(model, x)[0]
                assert hull_route == pytest.approx(lp_route, abs=1e-7)

    def test_homogeneity_and_zero(self, model3):
        x = np.array([0.3, -0.2, 0.7])
        assert gauge_norm(model3, 2.0 * x) == pytest.approx(2.0 * gauge_norm(model3, x), abs=1e-8)
        assert gauge_norm(model3, np.zeros(3)) == pytest.approx(0.0, abs=1e-9)

    def test_triangle_inequality(self, model3):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            assert gauge_norm(model3, x + y) <= (
                gauge_norm(model3, x) + gauge_norm(model3, y) + 1e-8)

    def test_hull_points_inside(self, model3):
        for p in model3.hull_points:
            assert _gauge_facets(model3, p) <= 1.0 + 1e-9

    def test_decomposition_reassembles(self, model3):
        x = np.array([0.8, 0.1, -0.4])
        value, (u, vp, vm, p, q, r) = gauge_decomposition(model3, x)
        assert np.allclose(u + vp - vm, x, atol=1e-9)
        assert value == pytest.approx(p + q + r, abs=1e-9)
        assert min(p, q, r) >= -1e-12


# build_model arguments: the corpus models, and the default model for n = 3, 4, 5
MODELS = {**{inst.name: {"n": inst.n, "seed": inst.seed, "gamma": inst.gamma, "theta": inst.theta}
             for inst in load_corpus("renorm")},
          **{f"n{n}": {"n": n} for n in (3, 4, 5)}}

# measured worst |gauge - LP gauge| over these points: 6.1e-14, at gauges below 4
GAUGE_ORACLE_GAP = 2e-13


def _decomposition_points(model, rng):
    """x0, +-e_j, rays of the decomposition replay and seeded random points."""
    n = model.n
    eye = np.eye(n)
    points = [model.x0, *eye, *-eye, *rng.uniform(-2.0, 2.0, (20, n))]
    for _ in range(10):
        direction = np.zeros(n)
        direction[1:] = rng.uniform(-1.0, 1.0, n - 1)
        eta = 1.0 + float(rng.uniform(0.02, 0.2))
        points.append(_replay_crossing(model, direction, eta) * direction - model.x0)
    return points


@pytest.mark.parametrize("name", list(MODELS))
def test_level_split_matches_the_lp_oracle(name):
    model = build_model(**MODELS[name])
    for z in _decomposition_points(model, np.random.default_rng(29)):
        value, (u, vp, vm, p, q, r) = gauge_decomposition(model, z)
        assert abs(value - reference_gauge_decomposition(model, z)[0]) <= GAUGE_ORACLE_GAP
        assert np.max(np.abs(u + vp - vm - z)) <= 1e-14 * (1.0 + np.max(np.abs(z)))
        assert abs(p + q + r - value) <= 1e-14 * (1.0 + value)
        assert min(p, q, r) >= -1e-15
        for poly, w, scale in ((model.slab, u, p), (model.cube, vp, q), (model.cube, vm, r)):
            assert np.max(poly.a_ub @ w - scale * poly.b_ub) <= 1e-14
            assert np.max(np.abs(poly.a_eq @ w - scale * poly.b_eq)) <= 1e-14


def test_zero_has_the_zero_decomposition(model3):
    value, (u, vp, vm, p, q, r) = gauge_decomposition(model3, np.zeros(3))
    assert value == 0.0 and (p, q, r) == (0.0, 0.0, 0.0)
    assert not np.any(u) and not np.any(vp) and not np.any(vm)


@pytest.mark.parametrize("x", [(1e-320, 0.0, 0.0, 0.0), (0.0, -3e-310, 1e-320, 0.0),
                               (-5e-324, 0.0, 0.0, 0.0), (1e-300, 2e-300, 0.0, -1e-301)])
def test_a_tiny_point_keeps_its_positive_gauge(x):
    # GAUGE_SPLIT_TOL * |x|_inf is subnormal or 0 here: the point is split at
    # |x|_inf = 1 and scaled back, never taken for 0
    model = build_model(4)
    x = np.array(x)
    size = float(np.abs(x).max())
    value, parts = gauge_decomposition(model, x)
    unit_value, unit_parts = gauge_decomposition(model, x / size)
    assert value > 0.0 and value == size * unit_value >= size
    for part, unit_part in zip(parts, unit_parts):
        assert np.array_equal(part, size * unit_part)
    assert gauge_norm(model, x) == value


def test_a_part_outside_its_scaled_polytope_fails_the_certificate(model3, monkeypatch):
    # a cube vertex sits at level 1, so its slab part has weight p = 0; the
    # split handed its cube share to the slab part still sums to the vertex,
    # but that part leaves 0 * slab
    vertex = model3.cube.vertices()[0]
    gauge_decomposition(model3, vertex)
    real = garkavi._level_split

    def merged(*args):
        u, w = real(*args)
        return u + w, np.zeros_like(w)

    monkeypatch.setattr(garkavi, "_level_split", merged)
    with pytest.raises(LPNumericalError, match="certificate"):
        gauge_decomposition(model3, vertex)


def test_a_misindexed_split_exits_three(monkeypatch, capsys):
    # the cube share comes back with its coordinates in Y reversed: it stays
    # in its cube and the slab share in the slab, but the parts no longer sum
    # to the point.  The build's gauges split e_j and x0 with no cube share in
    # Y, so the build passes and the half-ball check's replay is refused
    real = garkavi._level_split

    def misindexed(*args):
        u, w = real(*args)
        return u, np.concatenate(([w[0]], w[:0:-1]))

    monkeypatch.setattr(garkavi, "_level_split", misindexed)
    assert cli.main(["renorm", "--n", "4", "--samples", "1"]) == cli.NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "misses its certificate" in err


class TestProjection:
    def test_distance_to_x0_is_one(self, model3):
        # the LP oracle, so that the closed form is not checked against itself
        dist, nearest = reference_subspace_gauge_distance(model3, model3.x0)
        assert dist == pytest.approx(1.0, abs=1e-8)
        assert abs(nearest[0]) <= 1e-9

    @given(coords=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           use_four=st.booleans())
    def test_distance_to_y_is_first_coordinate(self, model3, model4, coords, use_four):
        # translation along Y and homogeneity give d(x, Y) = |x_0| d(x0, Y) = |x_0|
        model = model4 if use_four else model3
        x = np.array(coords[:model.n])
        dist, nearest = reference_subspace_gauge_distance(model, x)
        assert dist == pytest.approx(abs(x[0]), abs=1e-8 * (1.0 + np.max(np.abs(x))))
        assert abs(nearest[0]) <= 1e-9

    def test_projection_of_x0_is_small_cube(self, model3, model4):
        for model in (model3, model4):
            proj = metric_projection(model, model.x0, 0.0)
            gap = _hausdorff_points(proj.vertices(), model.small_ball.vertices())
            assert gap <= 1e-6

    def test_projection_members_certified(self, model3):
        rng = np.random.default_rng(17)
        x = np.array([1.3, 0.2, -0.1])
        dist, _ = subspace_gauge_distance(model3, x)
        proj = metric_projection(model3, x, 0.05)
        for v in proj.vertices():
            assert v[0] == pytest.approx(0.0, abs=1e-9)
            assert _gauge_facets(model3, x - v) <= dist + 0.05 + 1e-8

    def test_negative_eps_rejected(self, model3):
        with pytest.raises(ValueError):
            metric_projection(model3, model3.x0, -0.1)


def _distance_matches_the_lp(model, x):
    """The closed form against the epigraph LP, within 1e-8 (1 + |x|_inf): its
    value, its nearest point inside Y, and the gauge of x minus that point."""
    bound = 1e-8 * (1.0 + np.max(np.abs(x)))
    dist, nearest = subspace_gauge_distance(model, x)
    assert abs(dist - reference_subspace_gauge_distance(model, x)[0]) <= bound
    assert dist == abs(x[0]) and nearest[0] == 0.0
    assert abs(_gauge_facets(model, x - nearest) - abs(x[0])) <= bound


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_distance_to_y_matches_the_lp_on_corpus_models(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    rng = np.random.default_rng(31)
    points = [model.x0, -model.x0, model.y0, *np.eye(model.n), *rng.uniform(-3, 3, (20, model.n))]
    for x in points:
        _distance_matches_the_lp(model, x)


@given(coords=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
       on_y=st.booleans(), use_four=st.booleans())
def test_distance_to_y_matches_the_lp_on_draws(model3, model4, coords, on_y, use_four):
    model = model4 if use_four else model3
    x = np.array(coords[:model.n])
    if on_y:
        x[0] = 0.0
    _distance_matches_the_lp(model, x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("coord", [0, 2])
def test_non_finite_point_rejected(model3, value, coord):
    x = np.array([0.5, -0.2, 0.3])
    x[coord] = value
    for query in (subspace_gauge_distance, gauge_decomposition, gauge_norm):
        with pytest.raises(ValueError, match="finite"):
            query(model3, x)
    with pytest.raises(ValueError, match="finite"):
        metric_projection(model3, x, 0.1)


def test_a_nan_in_a_decomposition_fails_its_certificate(model3):
    # a NaN compares false with the bar, and the certificate refuses it
    x = np.array([0.5, -0.2, 0.3])
    value, (u, vp, vm, p, q, r) = gauge_decomposition(model3, x)
    for parts in ((u, vp, vm, p, np.nan, r), (np.full(3, np.nan), vp, vm, p, q, r)):
        with pytest.raises(LPNumericalError, match="certificate"):
            garkavi._certify_decomposition(model3, x, value, parts, 1.0)
    with pytest.raises(LPNumericalError, match="certificate"):
        garkavi._certify_decomposition(model3, x, np.nan, (u, vp, vm, p, q, r), 1.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_eps_rejected(model3, eps):
    with pytest.raises(ValueError, match="finite"):
        metric_projection(model3, model3.x0, eps)


def _certificate_ball_matches_the_lp(model):
    """alpha and the interior margin are the LP extremes over the certificate
    ball, bit for bit."""
    n, eye = model.n, np.eye(model.n)
    rows = np.vstack([eye[1:], -eye[1:]])
    ball = Polytope(a_ub=rows, b_ub=model.gamma + rows @ model.y0,
                    a_eq=eye[:1], b_eq=np.zeros(1))
    max_norm = max(reference_extreme_values(ball, row) for row in rows)
    assert model.certificates["interior-margin"] == 1.0 - max_norm
    assert model.alpha == -reference_extreme_values(ball, -model.phi.dense(n))


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_certificate_ball_matches_the_lp_on_corpus_models(inst):
    _certificate_ball_matches_the_lp(
        build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta))


@pytest.mark.parametrize("gamma", [1.0 / 16.0, 0.01])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_certificate_ball_matches_the_lp(n, gamma):
    for seed in range(20):
        _certificate_ball_matches_the_lp(build_model(n, seed=seed, gamma=gamma))


def test_a_hull_point_past_level_one_fails_the_build_with_exit_one(monkeypatch, capsys):
    # the slab's vertices, the build's one enumeration, come back at x0-level
    # 1.5: d(x, Y) = |x_0| would then no longer hold, and the build refuses
    # the model
    real = constraints.enumerate_vertices

    def lifted(poly):
        verts = real(poly).copy()
        verts[:, 0] += 1.5
        return verts

    monkeypatch.setattr(constraints, "enumerate_vertices", lifted)
    assert cli.main(["renorm", "--n", "4", "--samples", "0"]) == cli.CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and "x0-level 1.5" in err


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_build_model_lp_solves(inst, solve_counts):
    # only the disjointness LP: the slab's vertices take none (double
    # description) and the cube splits into intervals; the sections are read
    # off the section pairs and the certificate ball's extremes are its corners
    build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    assert solve_counts["solves"] == 1


def test_theta_zero_build_lp_solves(solve_counts):
    # only the disjointness LP runs before the build stops
    with pytest.raises(ModelBuildError):
        build_model(4, seed=0, theta=0.0)
    assert solve_counts["solves"] == 1


def _edges_match_the_face_lattice(model):
    """The held pairs (u, sigma) as (slab vertex, cube corner) index pairs
    into hull_points, against the edges of reference_edges from level 0 to
    level 1."""
    points = model.hull_points
    index = {row.tobytes(): i for i, row in enumerate(points)}
    pairs = {(index[u.tobytes()], index[(model.x0 + model.gamma * sign).tobytes()])
             for u, sign in zip(model.pair_u, model.pair_sign)}
    assert len(pairs) == len(model.pair_u)
    edges = {(i, j) if points[i, 0] == 0.0 else (j, i)
             for i, j in reference_edges(model).tolist()
             if {points[i, 0], points[j, 0]} == {0.0, 1.0}}
    assert pairs == edges
    return len(pairs)


@pytest.mark.parametrize("name", list(MODELS))
def test_edges_match_the_face_lattice(name):
    model = build_model(**MODELS[name])
    assert _edges_match_the_face_lattice(model) == {3: 6, 4: 12, 5: 22}[model.n]


# build_model arguments (n, seed, gamma) beyond the corpus
GRID = [(n, seed, gamma) for n in (3, 4, 5, 6) for seed in range(10)
        for gamma in (1.0 / 16.0, 0.01, 1e-4, 1e-7)]
# Qhull refused B for these arguments (QH6347, QH6271, QH7088) while the
# slab's vertices, its input, came from Qhull's polar dual; with them from
# the double description they build, with these facet counts
FORMER_QHULL_FAILS = {(5, 1, 1e-4): 22, (5, 11, 1e-3): 22, (6, 10, 1e-4): 26}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_edges_match_the_face_lattice_on_the_grid(n):
    for args in GRID:
        if args[0] == n:
            _edges_match_the_face_lattice(build_model(args[0], seed=args[1], gamma=args[2]))


def _pairs_have_meeting_normal_cones(model):
    """Each held pair (u, sigma) by the proof of garkavi._pairs, at any
    gamma: Phi's row with weight 1 when it is tight at u, and each tight box
    row with a weight that turns its coordinate to sigma_i, form a positive
    combination of the rows tight at u that has sign pattern sigma and, over
    U's vertices, is maximized at u alone."""
    rows, verts = model.section_facets, model.section_vertices
    single = np.count_nonzero(rows, axis=1) == 1
    for u, sign in zip(model.pair_u, model.pair_sign):
        tight = np.abs(rows @ u - 1.0) <= 1e-9
        a = rows[tight & ~single].sum(axis=0)
        for row in rows[tight & single]:
            i = np.flatnonzero(row)[0]
            a = a + row * (2.0 * abs(a[i]) + 1.0 if row[i] * sign[i] > 0.0 else abs(a[i]) / 2.0)
        assert np.array_equal(np.sign(a), sign)
        scores = verts @ a
        assert np.count_nonzero(scores >= scores.max()) == 1
        assert verts[np.argmax(scores)].tobytes() == u.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pairs_have_meeting_normal_cones_on_the_grid(n):
    for args in GRID:
        if args[0] == n:
            _pairs_have_meeting_normal_cones(build_model(args[0], seed=args[1], gamma=args[2]))


def test_pairs_have_meeting_normal_cones_at_a_tiny_gamma():
    # below gamma = 1e-8 the face-lattice reference cannot separate B's
    # facets; the proof's combinations hold at any gamma
    model = build_model(5, seed=0, gamma=1e-11)
    assert len(model.pair_u) == 22
    _pairs_have_meeting_normal_cones(model)


def _same_rows(rows, reference, bar):
    """Equal counts, and every row of each within bar of one of the other."""
    assert rows.shape == reference.shape
    gaps = np.max(np.abs(rows[:, None, :] - reference[None]), axis=2)
    assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= bar


def _matches_the_former_routes(model):
    """The facets of B as a set within 1e-13 against the merge of Qhull's
    simplex rows, with every hull point one of Qhull's vertices; the
    section's vertices bit for bit, its facets as a set within 1e-13 and its
    interior margin within 1e-13 against the level-0 section's hull."""
    ball_facets, hull_vertices = reference_ball_facets(model)
    _same_rows(model.ball_facets, ball_facets, 1e-13)
    assert np.array_equal(hull_vertices, np.arange(len(model.hull_points)))
    verts, facets, margin = reference_section(model)
    assert model.section_vertices.shape == verts.shape
    assert model.section_vertices.tobytes() == verts.tobytes()
    _same_rows(model.section_facets, facets, 1e-13)
    assert abs(model.certificates["section-interior"] - margin) <= 1e-13


def _decompositions_match_the_triangulation(model):
    """Every _decomposition_points split passes its certificate (checked on
    every call of gauge_decomposition), and its value agrees with the former
    triangulation route within 1e-15 (1 + g)."""
    points = _decomposition_points(model, np.random.default_rng(29))
    for z, (reference, _) in zip(points, reference_triangulation_decomposition(model, points)):
        value, _ = gauge_decomposition(model, z)
        assert abs(value - reference) <= 1e-15 * (1.0 + value)


@pytest.mark.parametrize("name", list(MODELS))
def test_facets_and_section_match_the_former_routes(name):
    _matches_the_former_routes(build_model(**MODELS[name]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_facets_and_section_match_the_former_routes_on_the_grid(n):
    for args in GRID:
        if args[0] == n:
            model = build_model(args[0], seed=args[1], gamma=args[2])
            _matches_the_former_routes(model)
            _decompositions_match_the_triangulation(model)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_a_tiny_cube_keeps_its_corners_and_matches_qhull(n):
    # at gamma = 1e-11 the cube's corners lie 2e-11 apart, inside the merge
    # radius of a vertex list; formed in closed form they stay 2^(n-1)
    # distinct corners, and B keeps its facets z_0 = +-1 (4n + 2 in all)
    model = build_model(n, gamma=1e-11)
    assert len(np.unique(model.hull_points, axis=0)) == len(model.hull_points)
    assert len(model.ball_facets) == 4 * n + 2
    _matches_the_former_routes(model)


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_build_model_builds_no_hull(inst, monkeypatch):
    # B's facets are in closed form, the slab's vertices come from the double
    # description, and the section of B in Y is the slab
    def fails(points, *args, **kwargs):
        pytest.fail("the build formed a convex hull")

    monkeypatch.setattr(scipy.spatial, "ConvexHull", fails)
    build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)


@pytest.mark.parametrize("args", list(FORMER_QHULL_FAILS),
                         ids=lambda args: "n{}-seed{}-gamma{:g}".format(*args))
def test_the_former_qhull_failures_of_b_pass_the_facet_certificate(args, capsys):
    # each facet row holds every hull point and is tight on n affinely
    # independent ones, checked here as in the build
    n, seed, gamma = args
    model = build_model(n, seed=seed, gamma=gamma)
    assert len(model.ball_facets) == FORMER_QHULL_FAILS[args]
    gap = model.hull_points @ model.ball_facets.T - 1.0
    assert gap.max() <= 1e-14
    for tight in (np.abs(gap) <= 1e-14).T:
        assert np.linalg.matrix_rank(model.hull_points[tight]) == n
    _decompositions_match_the_triangulation(model)
    argv = ["renorm", "--n", str(n), "--seed", str(seed), "--gamma", str(gamma), "--samples", "0"]
    assert cli.main(argv) == cli.OK
    capsys.readouterr()


@pytest.mark.parametrize("scale, message", [(1.01, "past a facet row"),
                                            (0.99, "fewer than n = 4")],
                         ids=["point-past-a-row", "row-tight-on-none"])
def test_a_facet_row_off_the_hull_fails_the_certificate(monkeypatch, capsys, scale, message):
    # one facet row scaled: at 1.01 the points it was tight on lie past it,
    # at 0.99 it is tight on no hull point
    real = garkavi._ball_facets

    def scaled(*args):
        facets = real(*args).copy()
        facets[0] *= scale
        return facets

    monkeypatch.setattr(garkavi, "_ball_facets", scaled)
    with pytest.raises(ModelBuildError, match=message) as exc:
        build_model(4)
    assert exc.value.certificate == "facets"
    assert cli.main(["renorm", "--n", "4", "--samples", "0"]) == cli.CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("check failed:") and message in err


@pytest.mark.parametrize("call", [1], ids=["facets"])
def test_a_failed_rank_test_fails_the_build_with_exit_three(monkeypatch, capsys, call):
    # numpy's SVD fails in the build's one rank call, the facet certificate:
    # a numerical failure, not bad input
    real, calls = np.linalg.matrix_rank, []

    def fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", fails)
    assert cli.main(["renorm", "--n", "4", "--samples", "0"]) == cli.NUMERICAL
    assert capsys.readouterr().err == ("numerical failure: rank test of the renormed ball: "
                                       "SVD did not converge\n")


def test_a_corner_in_no_pair_fails_the_build_through_the_cover_guard(monkeypatch, capsys):
    # drop the only pair of one corner sign: that corner is left in no pair,
    # and the build refuses the model
    real = garkavi._pairs

    def one_short(vertices, rows, signs):
        on_u, on_sign = real(vertices, rows, signs)
        drop = np.flatnonzero(np.bincount(on_sign)[on_sign] == 1)[0]
        return np.delete(on_u, drop), np.delete(on_sign, drop)

    monkeypatch.setattr(garkavi, "_pairs", one_short)
    with pytest.raises(ModelBuildError) as exc:
        build_model(4)
    assert exc.value.certificate == "edges"
    assert cli.main(["renorm", "--n", "4", "--samples", "0"]) == cli.CHECK_FAILED
    assert "lies in no section pair" in capsys.readouterr().err


def _outward(monkeypatch):
    """Every section that GarkaviModel.level_section forms sits 1 % further out."""
    real = garkavi.GarkaviModel.level_section
    monkeypatch.setattr(garkavi.GarkaviModel, "level_section", lambda self, c: 1.01 * real(self, c))


def test_a_section_vertex_outside_b_fails_with_exit_three(monkeypatch, capsys):
    # section vertices pushed 1 % outward leave the projection's facets: the
    # half-ball check's first projection refuses them
    _outward(monkeypatch)
    assert cli.main(["renorm", "--n", "4", "--samples", "1"]) == cli.NUMERICAL
    assert "feasibility filter" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", ["routine", "held"])
def test_a_projection_certifies_its_own_section(monkeypatch, corrupt):
    # each projection's carried vertices meet the certificate of its own
    # rows, whether the routine that forms them or the held pairs are wrong
    model = build_model(4)
    x = np.array([0.7, 0.1, -0.2, 0.3])
    if corrupt == "routine":
        _outward(monkeypatch)
    else:
        model.pair_u = 1.01 * model.pair_u
    with pytest.raises(EnumerationError, match="feasibility filter"):
        metric_projection(model, x, 0.1)
    with pytest.raises(EnumerationError, match="feasibility filter"):
        half_ball_check(model, 1)


# x0-levels on, next to and between B's levels -1, 0 and 1
SECTION_LEVELS = (-1.0, -1.0 + 1e-14, -1.0 + 2e-14, -0.5, -2e-14, -1e-14, 0.0, 1e-14, 2e-14,
                  0.5, 1.0 - 2e-14, 1.0 - 1e-14, 1.0)


def _held_sections_match_fresh_ones(model, rng):
    """Each section read off the held pairs against the former edge-graph
    route formed afresh (reference_level_section), both merged by merge_rows,
    at the SECTION_LEVELS and at drawn levels: equal counts, and a Hausdorff
    gap within 2 SECTION_LEVEL_TOL where gamma >= 1e-4 (the reference snaps a
    vertex within SECTION_LEVEL_TOL of c onto the level, which moves a
    section vertex by up to twice that), within DEDUP_TOL below (where
    near-duplicate vertices 2 |c| gamma apart merge, and each route keeps its
    own representative)."""
    bar = 2.0 * SECTION_LEVEL_TOL if model.gamma >= 1e-4 else DEDUP_TOL
    for c in [*SECTION_LEVELS, *rng.uniform(-1.0, 1.0, 20)]:
        held = constraints.merge_rows(model.level_section(c))
        fresh = constraints.merge_rows(reference_level_section(model, c))
        assert held.shape == fresh.shape, c
        assert _hausdorff_points(held, fresh) <= bar, c


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_held_sections_match_fresh_ones_on_corpus_models(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    _held_sections_match_fresh_ones(model, np.random.default_rng(47))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_held_sections_match_fresh_ones_on_the_grid(n):
    rng = np.random.default_rng(53 + n)
    for args in GRID:
        if args[0] == n:
            _held_sections_match_fresh_ones(build_model(args[0], seed=args[1], gamma=args[2]),
                                            rng)


@pytest.mark.parametrize("name", list(MODELS))
def test_projections_in_one_band_share_a_pattern_and_the_held_rows(name, monkeypatch):
    # the build forms the section pairs once, the one pattern that every
    # projection with 0 < |c| < 1 reads; each projection is the former vstack
    # route's polytope on the model's held rows, with its own right-hand side
    model = build_model(**MODELS[name])
    monkeypatch.setattr(garkavi, "_pairs", lambda *args: pytest.fail("re-formed"))
    rng = np.random.default_rng(59)
    polys = []
    for _ in range(4):
        x = np.zeros(model.n)
        x[0], x[1:] = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5, model.n - 1)
        poly = metric_projection(model, x, 0.1)
        level = abs(x[0]) + 0.1
        former = Polytope(a_eq=np.eye(model.n)[:1], b_eq=np.zeros(1)).with_rows(
            -model.ball_facets, level - model.ball_facets @ x, vertices=poly.vertices())
        for name_ in ("a_ub", "b_ub", "a_eq", "b_eq"):
            assert getattr(poly, name_).tobytes() == getattr(former, name_).tobytes()
        polys.append(poly)
    for poly in polys:
        assert poly.a_ub is model.projection_rows
        assert poly.a_eq is model.kernel.a_eq and poly.b_eq is model.kernel.b_eq
    for held in (model.projection_rows, model.pair_u, model.pair_sign):
        assert not held.flags.writeable
    assert np.array_equal(model.projection_rows, -model.ball_facets)


def test_the_gauge_split_reads_the_held_phi_row(model4, monkeypatch):
    # Phi's dense row is formed once, by the build; gauge decompositions and
    # the half-ball check read it off the model
    assert model4.phi_row.tobytes() == model4.phi.dense(model4.n).tobytes()
    monkeypatch.setattr(constraints.Functional, "dense", lambda *args: pytest.fail("re-formed"))
    gauge_decomposition(model4, np.array([0.3, -0.2, 0.5, 0.1]))
    assert half_ball_check(model4, 1).passed


def _matches_the_enumeration(model, x, eps):
    """The pair-route vertex list of P_Y(x, eps) against the double
    description of the same H-polytope: equal counts, Hausdorff gap <= 1e-12."""
    poly = metric_projection(model, x, eps)
    verts, reference = poly.vertices(), constraints.enumerate_vertices(poly)
    assert len(verts) == len(reference)
    assert _hausdorff_points(verts, reference) <= 1e-12


def _query_points(model, rng, count):
    """Seeded x = y + lambda x0 as the half-ball check draws them, then the
    points on Y and near it."""
    for k in range(count):
        x = np.zeros(model.n)
        x[1:] = rng.uniform(-0.5, 0.5, model.n - 1)
        x[0] = (0.0, 1e-14, -1e-14, float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])))[k % 4]
        yield x


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_projection_vertices_match_the_enumeration_on_corpus_models(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    for x in _query_points(model, np.random.default_rng(37), 24):
        for eps in (0.0, 0.05, 0.1, 0.2):
            _matches_the_enumeration(model, x, eps)


@given(coords=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
       level=st.sampled_from([0.0, 1e-14, -1e-14]) | st.floats(-2.5, 2.5),
       eps=st.sampled_from([0.0, 0.05, 0.1, 0.2]) | st.floats(1e-3, 0.5),
       use_four=st.booleans())
def test_projection_vertices_match_the_enumeration_on_draws(model3, model4, coords, level, eps,
                                                            use_four):
    # eps = 0 is the section at c = +-1, x_0 = 0 with eps = 0 the single
    # point x_Y, x_0 = 0 with eps > 0 the section at c = 0; a drawn |x_0| is
    # kept above 1e-2 or set to 1e-14 next to eps, since a projection of
    # diameter between 1e-12 and DEDUP_TOL is one merged point whose
    # representative each route picks from its own cluster
    model = model4 if use_four else model3
    if 0.0 < abs(level) < 1e-2:
        level = 1e-14 if level > 0 else -1e-14
    _matches_the_enumeration(model, np.array([level, *coords[:model.n - 1]]), eps)


def test_level_zero_is_the_single_point_x_y(model4):
    x = np.array([0.0, 0.3, -0.1, 0.2])
    assert np.array_equal(metric_projection(model4, x, 0.0).vertices(), x[None])


@pytest.mark.parametrize("name", list(MODELS))
def test_projection_is_the_closed_form_sum(name):
    # P_Y(x, eps) = x_Y + |x_0| B_gamma + eps U: the support functions of the
    # pair-route lists match the right-hand side, with h_{B_gamma}(d) =
    # gamma |d|_1 for d in Y and h_U the largest d.u over the slab vertices
    model = build_model(**MODELS[name])
    rng = np.random.default_rng(41)
    slab = model.slab.vertices()
    directions = rng.normal(size=(50, model.n))
    directions[:, 0] = 0.0
    directions /= np.abs(directions).sum(axis=1)[:, None]
    for x in _query_points(model, rng, 12):
        for eps in (0.0, 0.05, 0.1, 0.2, 0.5):
            verts = metric_projection(model, x, eps).vertices()
            x_y = np.concatenate(([0.0], x[1:]))
            closed = (directions @ x_y + abs(x[0]) * model.gamma
                      + eps * np.max(directions @ slab.T, axis=1))
            assert np.max(np.abs(np.max(directions @ verts.T, axis=1) - closed)) <= 1e-12


def test_projections_do_not_enumerate(model4, solve_counts):
    solve_counts.clear()
    rng = np.random.default_rng(43)
    for x in _query_points(model4, rng, 8):
        metric_projection(model4, x, 0.1).vertices()
    report = half_ball_check(model4, samples=2)
    assert report.passed
    assert solve_counts["calls:enumerate"] == 0 and solve_counts["solves"] == 0


class TestHalfBall:
    def test_passes_on_small_sample(self, model3):
        report = half_ball_check(model3, samples=3, seed=2)
        assert report.passed
        assert len(report.samples) == 6

    def test_replay_bound_tight_enough(self, model3):
        report = half_ball_check(model3, samples=2, seed=3)
        for eta, bound, achieved in report.replay_rows:
            assert bound == pytest.approx(eta - 1.0, abs=1e-12)
            assert achieved <= bound + report.tol

    def test_dimension_four(self, model4):
        report = half_ball_check(model4, samples=2, seed=4)
        assert report.passed


def test_half_ball_check_solves_each_distance_once(model4, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return subspace_gauge_distance(*args, **kwargs)

    monkeypatch.setattr(garkavi, "subspace_gauge_distance", counted)
    report = half_ball_check(model4, samples=2)
    # d(x0, Y) once, and d(x, Y) once per sample
    assert len(calls) == 3
    assert report.passed


def test_half_ball_check_lp_solves(solve_counts):
    # the 10 projections carry their vertices from the section pairs (one LP
    # each to enumerate them before), the 3 distances are |x_0| in closed
    # form, every forward gap is witnessed, so no epigraph LP runs (61 solves
    # with one per near vertex), and the 4 replay decompositions come from the
    # hull triangulation
    inst = next(inst for inst in load_corpus("renorm") if inst.name == "22-renorm-n4")
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    solve_counts.clear()
    report = half_ball_check(model, samples=2)
    assert solve_counts["solves"] == 0
    assert report.passed


def _sampled_projections(model, samples):
    """(eps, exact projection, its vertices, near vertices) for the points
    half_ball_check draws."""
    report = half_ball_check(model, samples=samples)
    for sample in report.samples:
        x = np.array(sample.x)
        exact = _projection(model, x, sample.distance)
        near = _projection(model, x, sample.distance + sample.eps)
        yield sample.eps, exact, exact.vertices(), near.vertices()


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_forward_gap_matches_the_epigraph_lp(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    for eps, exact, exact_verts, near_verts in _sampled_projections(model, 4):
        for v in near_verts:
            value = _forward_gap(model, v[None], exact, exact_verts, eps)
            reference = reference_forward_gap(model, v[None], exact)
            tol = 1e-15 * (1.0 + abs(value))
            assert value <= reference + tol
            # never below the true distance, so a witness cannot hide an excess
            assert value >= reference - tol


def test_forward_gap_falls_back_to_the_lp_when_a_witness_misses(model4):
    eps, exact, exact_verts, near_verts = next(
        sample for sample in _sampled_projections(model4, 1) if sample[0] == 0.1)
    v = near_verts[0]
    witness = np.max((v - exact_verts) @ model4.section_facets.T, axis=1)
    kept = exact_verts[witness > eps + SET_TOL]
    assert 0 < len(kept) < len(exact_verts)
    value = _forward_gap(model4, v[None], exact, kept, eps)
    reference = reference_forward_gap(model4, v[None], exact)
    assert reference <= eps + SET_TOL
    assert abs(value - reference) <= 1e-15 * (1.0 + abs(value))


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_forward_gap_matches_the_convex_weights_route(inst):
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    report = half_ball_check(model, samples=4)
    for sample in report.samples:
        x = np.array(sample.x)
        exact = _projection(model, x, sample.distance)
        near = _projection(model, x, sample.distance + sample.eps)
        worst = 0.0
        for v in near.vertices():
            reference = hull_gauge_distance(model, v, exact.vertices())
            epigraph, _ = lp.epigraph_lp(-model.section_facets, v, exact)
            assert epigraph == pytest.approx(reference, abs=1e-9)
            worst = max(worst, reference - sample.eps)
        assert sample.forward_gap == pytest.approx(worst, abs=1e-9)


@pytest.mark.parametrize("inst", load_corpus("renorm"), ids=lambda inst: inst.name)
def test_backward_gap_matches_the_per_pair_scan(inst):
    # the candidates are built in one broadcast, each gauge still one
    # _gauge_facets product: the reported gap is the pair-by-pair one, bit for bit
    model = build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
    report = half_ball_check(model, samples=3)
    for sample in report.samples:
        x = np.array(sample.x)
        backward = 0.0
        for p in _projection(model, x, sample.distance).vertices():
            for b in model.section_vertices:
                gauge = _gauge_facets(model, x - (p + sample.eps * b))
                backward = max(backward, gauge - sample.distance - sample.eps)
        assert sample.backward_gap == max(backward, 0.0)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_replay_crossing_matches_bisection(n):
    model = build_model(n, seed=0)
    rng = np.random.default_rng(23 + n)
    for _ in range(20):
        direction = np.zeros(n)
        direction[1:] = rng.uniform(-1.0, 1.0, n - 1)
        eta = 1.0 + float(rng.uniform(0.02, 0.2))
        t = _replay_crossing(model, direction, eta)
        assert t == pytest.approx(reference_replay_crossing(model, direction, eta), rel=1e-12)
        assert _gauge_facets(model, t * direction - model.x0) == pytest.approx(eta, abs=1e-12)


def test_center_trend_rows():
    rows = center_trend((3, 4), seed=0)
    assert [r.n for r in rows] == [3, 4]
    for row in rows:
        assert row.radius > 0.0
        # the two-point family pins its centers near the critical level
        assert row.phi_at_center == pytest.approx(row.alpha, abs=0.05)
