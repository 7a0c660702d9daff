import inspect
from collections import Counter

import numpy as np
import pytest

import supcenter as sc
from supcenter import centers, lp
from supcenter.errors import (
    DimensionMismatchError,
    InfeasiblePolytopeError,
    PreconditionError,
)

from supcenter.tolerances import DEDUP_TOL

from oracles import (
    active_set_vertices,
    global_center,
    kernel_basis,
    min_row_gap,
    scipy_radius,
)


class TestWorkedInstance:
    def test_radius_is_one_half(self, worked):
        _, _, problem = worked
        assert sc.restricted_radius(problem) == pytest.approx(0.5, abs=1e-9)

    def test_center_vertices(self, worked):
        _, _, problem = worked
        report = sc.center_set(problem)
        verts = report.center_polytope.vertices()
        expected = np.array([[0.5, 0.5, -0.5], [0.5, 0.5, 0.5]])
        assert verts.shape == expected.shape
        assert np.allclose(verts, expected, atol=1e-9)

    def test_representative_attains_radius(self, worked):
        family, _, problem = worked
        report = sc.center_set(problem)
        assert sc.farthest_radius(report.representative, family) == pytest.approx(
            report.radius, abs=1e-9)
        assert report.center_polytope.contains(report.representative, 1e-9)

    def test_near_center_widens(self, worked):
        _, _, problem = worked
        radius = sc.restricted_radius(problem)
        tight = sc.near_center_set(problem, 0.0, radius).vertices()
        loose = sc.near_center_set(problem, 0.2, radius)
        for v in tight:
            assert loose.contains(v, 1e-9)
        # the loose set reaches strictly farther along the slab
        spread = np.ptp(loose.vertices()[:, 0])
        assert spread > 0.1

    def test_negative_slack_rejected(self, worked):
        _, _, problem = worked
        with pytest.raises(ValueError):
            sc.near_center_set(problem, -0.1, sc.restricted_radius(problem))


class TestAgainstScipy:
    def test_random_ball_problems(self, rng):
        from supcenter.sampling import random_ball_problem

        for _ in range(25):
            dim = int(rng.integers(2, 5))
            members = int(rng.integers(1, 4))
            family, y, problem = random_ball_problem(rng, dim, members)
            ours = sc.restricted_radius(problem)
            ref, _ = scipy_radius(family.values, y.rows(), lam=1.0)
            assert ours == pytest.approx(ref, abs=1e-7)

    def test_scaled_ball(self, rng):
        from supcenter.sampling import random_ball_problem

        for lam in (0.5, 2.0, 3.5):
            family, y, _ = random_ball_problem(rng, 3, 2)
            problem = sc.ball_problem(family, y, lam)
            ours = sc.restricted_radius(problem)
            ref, _ = scipy_radius(family.values, y.rows(), lam=lam)
            assert ours == pytest.approx(ref, abs=1e-7)

    def test_subspace_mode(self, rng):
        from supcenter.sampling import random_family, random_subspace

        # HiGHS over the unbounded kernel, at unit and at large data scale
        for scale in (1.0, 1e3):
            for _ in range(10):
                dim = int(rng.integers(2, 5))
                members = int(rng.integers(1, 4))
                family = sc.FunctionFamily(scale * random_family(rng, dim, members).values)
                y = random_subspace(rng, dim)
                problem = sc.subspace_problem(family, y)
                ours = sc.restricted_radius(problem)
                ref, _ = scipy_radius(family.values, y.rows(), box=np.inf)
                assert ours == pytest.approx(ref, abs=1e-7 * scale)


def test_ball_problem_dimension_mismatch():
    family = sc.FunctionFamily([[1.0, 0.0]])
    y = sc.Subspace(dim=3, functionals=(sc.Functional(support=(0, 1), weights=(0.5, -0.5)),))
    with pytest.raises(DimensionMismatchError):
        sc.ball_problem(family, y)


def test_ball_problem_rejects_nonpositive_scale():
    family = sc.FunctionFamily([[0.0, 0.0]])
    with pytest.raises(ValueError):
        sc.ball_problem(family, sc.Subspace(dim=2), 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_a_non_finite_scale_is_refused(worked, lam):
    # nan <= 0 is false, so a bare sign test let these through: a nan scale
    # answered a radius for a box whose rows read v <= nan
    family, y, _ = worked
    with pytest.raises(ValueError, match="positive and finite"):
        sc.ball_problem(family, y, lam)
    with pytest.raises(ValueError, match="positive and finite"):
        sc.check_scaling_identity(y, family, lam)



@pytest.mark.parametrize("radius", [np.nan, np.inf, -np.inf], ids=str)
def test_a_non_finite_radius_is_refused(worked, radius):
    # a nan radius failed every vertex in the feasibility filter
    # (EnumerationError), +inf answered V's vertices, and a nan box was read
    # as unbounded
    _, _, problem = worked
    with pytest.raises(ValueError, match="radius must be finite"):
        sc.near_center_set(problem, 0.1, radius)
    with pytest.raises(ValueError, match="radius must be finite"):
        sc.Polytope.box(2, radius)

def test_the_unit_ball_and_the_kernel_are_the_subspaces_own(worked):
    # lam = 1 and the subspace mode read the polytopes y holds; any other
    # scale builds its box afresh and leaves y's ball as it was
    family, y, problem = worked
    assert problem.feasible is y.ball() is sc.ball_problem(family, y, 1.0).feasible
    assert sc.subspace_problem(family, y).feasible is y.kernel()
    scaled = [sc.ball_problem(family, y, 2.0).feasible for _ in range(2)]
    assert scaled[0] is not scaled[1] and y.ball() not in scaled
    assert np.array_equal(scaled[0].b_ub, np.full(6, 2.0))


def test_solved_quantities_are_required_arguments():
    # each near-center object is built from a radius, center or reduction the
    # caller has already solved; none of them solves it again
    from supcenter.sampling import near_center_point

    required = {sc.near_center_set: "radius", sc.perturb_toward_center: "radius",
                near_center_point: "radius", sc.worst_near_center_distance: "center",
                sc.p1_modulus: "center", sc.constructive_center: "reduction"}
    for fn, name in required.items():
        param = inspect.signature(fn).parameters[name]
        assert param.default is inspect.Parameter.empty, fn.__name__


def test_empty_constraint_set_raises():
    family = sc.FunctionFamily([[0.0, 0.0]])
    # x0 <= -1 and -x0 <= -1 cannot both hold
    poly = sc.Polytope(a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[-1.0, -1.0])
    with pytest.raises(InfeasiblePolytopeError):
        sc.restricted_radius(sc.CenterProblem(family=family, feasible=poly))


def test_restricted_radius_never_beats_global(rng):
    from supcenter.sampling import random_ball_problem

    for _ in range(15):
        family, _, problem = random_ball_problem(rng, int(rng.integers(2, 5)),
                                                 int(rng.integers(1, 4)))
        assert sc.restricted_radius(problem) >= global_center(family.values)[0] - 1e-9


class TestScalingIdentity:
    def test_worked_instance(self, worked):
        family, y, _ = worked
        for lam in (0.5, 1.0, 2.0):
            report = sc.check_scaling_identity(y, family, lam)
            assert report.passed, report

    def test_random_draws(self, rng):
        from supcenter.sampling import random_family, random_subspace

        for _ in range(10):
            dim = int(rng.integers(2, 5))
            family = random_family(rng, dim, int(rng.integers(1, 4)))
            y = random_subspace(rng, dim)
            lam = float(rng.uniform(0.3, 3.0))
            report = sc.check_scaling_identity(y, family, lam)
            assert report.passed, report

    def test_rejects_nonpositive_scale(self, worked):
        family, y, _ = worked
        with pytest.raises(ValueError):
            sc.check_scaling_identity(y, family, 0.0)


class TestThreshold:
    def test_default_scale_passes(self, worked):
        family, y, _ = worked
        report = sc.check_threshold_equality(y, family)
        assert report.equality_checked
        assert report.passed, report

    def test_below_threshold_rejected(self, worked):
        family, y, _ = worked
        report = sc.check_threshold_equality(y, family)
        with pytest.raises(PreconditionError):
            sc.check_threshold_equality(y, family, lam=report.tau * 0.5)

    def test_at_threshold_only_inclusion(self, worked):
        family, y, _ = worked
        report = sc.check_threshold_equality(y, family)
        at_tau = sc.check_threshold_equality(y, family, lam=report.tau)
        assert not at_tau.equality_checked
        assert at_tau.equality_gap is None
        assert at_tau.inclusion_gap <= 1e-6


class TestPerturbation:
    def test_slack_bound_formula(self):
        assert sc.perturbation_slack_bound(1.0, 1.0, 10.0) == 1.0
        assert sc.perturbation_slack_bound(1.0, 2.0, 0.7) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            sc.perturbation_slack_bound(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("slot", [0, 1, 2], ids=["radius", "gamma", "eps"])
    def test_slack_bound_refuses_a_non_finite_argument(self, bad, slot):
        args = [0.5, 0.5, 0.1]
        args[slot] = bad
        with pytest.raises(ValueError, match="positive and finite"):
            sc.perturbation_slack_bound(*args)

    def test_blend_certificate(self, worked, rng):
        from supcenter.sampling import near_center_point

        family, _, problem = worked
        radius = sc.restricted_radius(problem)
        eps = 0.25
        gamma = 0.3
        delta = 0.5 * sc.perturbation_slack_bound(radius, gamma, eps)
        v = near_center_point(rng, problem, gamma + delta, radius)
        v_prime = near_center_point(rng, problem, gamma / 2.0, radius)
        blended = sc.perturb_toward_center(
            v, v_prime, family, problem.feasible, gamma, delta, radius, eps=eps)
        assert np.max(np.abs(blended - v)) < eps
        assert sc.farthest_radius(blended, family) <= radius + gamma + 1e-7

    def test_budget_is_required(self):
        param = inspect.signature(sc.perturb_toward_center).parameters["eps"]
        assert param.default is inspect.Parameter.empty

    def test_rejects_outside_point(self, worked):
        # R = 1/2: with eps = 1 the slack bound is 0.3 / 4.2 > delta = 0.01,
        # so membership in V is the first precondition to fail
        family, _, problem = worked
        with pytest.raises(PreconditionError, match="constraint set V"):
            sc.perturb_toward_center([5.0, 5.0, 5.0], [0.5, 0.5, 0.0],
                                     family, problem.feasible, 0.3, 0.01,
                                     sc.restricted_radius(problem), eps=1.0)

    def test_rejects_oversized_slack(self, worked):
        # delta = 0.9 >= R = 1/2 fails before the eps bound is read
        family, _, problem = worked
        with pytest.raises(PreconditionError, match=">= rad = 0.5"):
            sc.perturb_toward_center([0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                     family, problem.feasible, 0.3, 0.9,
                                     sc.restricted_radius(problem), eps=1.0)


def test_subspace_problem_is_the_kernel(worked):
    family, y, _ = worked
    problem = sc.subspace_problem(family, y)
    # the kernel is 2-dim; without the ball cap the radius drops to the
    # unrestricted optimum over Y
    assert sc.restricted_radius(problem) == pytest.approx(0.5, abs=1e-9)


def test_threshold_check_solves_the_free_radius_once(monkeypatch):
    # V = Y is Y's equalities alone, built without an LP, and the threshold
    # check solves one radius over Y and one over lam B_Y
    inst = next(i for i in sc.load_corpus("center") if i.name == "01-worked-instance")
    counts = Counter()

    def counted(name, fn):
        def run(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return run

    monkeypatch.setattr(lp, "solve", counted("solve", lp.solve))
    monkeypatch.setattr(centers, "sup_center", counted("sup_center", centers.sup_center))
    problem = sc.subspace_problem(inst.family, inst.subspace)
    assert counts["solve"] == 0
    assert problem.feasible.a_ub.shape[0] == 0
    assert sc.check_threshold_equality(inst.subspace, inst.family).passed
    assert counts["sup_center"] == 2


def test_center_report_mode_label(worked):
    _, _, problem = worked
    assert sc.center_set(problem).mode == "pointwise"


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_corpus_vertex_lists_have_no_duplicates(inst):
    problem = inst.problem()
    center = sc.center_set(problem)
    polys = [center.center_polytope]
    polys += [sc.near_center_set(problem, delta, center.radius) for delta in (0.2, 0.1, 0.05)]
    for poly in polys:
        assert min_row_gap(poly.vertices()) > DEDUP_TOL


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_near_center_band_matches_per_member_slab(inst):
    # the slab is the band: 2n rows on top of V, with the vertices of the
    # per-member layout, which writes one [I; -I] block per family member
    problem = inst.problem()
    values, feasible = problem.family.values, problem.feasible
    assert not np.any(feasible.b_eq)
    eye = np.eye(problem.dim)
    q = kernel_basis(feasible.a_eq, problem.dim)
    radius = sc.center_set(problem).radius
    for slack in (0.0, 0.05, 0.2):
        near = sc.near_center_set(problem, slack, radius=radius)
        assert near.a_ub.shape[0] == feasible.a_ub.shape[0] + 2 * problem.dim
        width = radius + slack
        a = np.vstack([feasible.a_ub, np.tile(np.vstack([eye, -eye]), (len(values), 1))])
        b = np.concatenate([feasible.b_ub,
                            *(np.concatenate([f + width, width - f]) for f in values)])
        exhaustive = active_set_vertices(a @ q, b) @ q.T
        verts = near.vertices()
        assert exhaustive.shape == verts.shape, f"slack {slack}"
        gaps = np.max(np.abs(verts[:, None, :] - exhaustive[None, :, :]), axis=2)
        assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= DEDUP_TOL, f"slack {slack}"
