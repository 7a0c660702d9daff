import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import supcenter as sc
import supcenter.lp as lp
from supcenter.construct import (
    GAP,
    MATCHED,
    RepairInput,
    _certify_center,
    admissible_slack,
    constructive_center,
    finite_reduction,
    repair_near_center,
    simplex_mode,
)
from supcenter.errors import ConstructionError, DimensionMismatchError, PreconditionError
from supcenter.sampling import near_center_point, random_ball_problem
from supcenter.space import band

from oracles import highs_distance, scipy_radius, tied_slot_alpha


def gap_instance():
    """One functional on points 1 and 2; the family peaks off support, so
    the reduced optimum alpha = 1/2 sits strictly below R = 1."""
    mu = sc.Functional(support=(1, 2), weights=(0.5, -0.5))
    y = sc.Subspace(dim=4, functionals=(mu,))
    family = sc.FunctionFamily([[2.0, 1.0, 0.0, 0.0]])
    return family, y


def zero_alpha_instance():
    """Support values of both members vanish, so alpha = 0 while the
    opposed off-support peaks force R = 2."""
    mu = sc.Functional(support=(0, 1), weights=(0.5, -0.5))
    y = sc.Subspace(dim=3, functionals=(mu,))
    family = sc.FunctionFamily([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
    return family, y


class TestFiniteReduction:
    def test_worked_instance(self, worked):
        family, y, _ = worked
        red = finite_reduction(family, y)
        assert red.slots == (0, 1)
        assert red.alpha == pytest.approx(0.5, abs=1e-9)
        assert red.center.representative == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_alpha_never_exceeds_radius(self, rng):
        for _ in range(15):
            dim = int(rng.integers(3, 6))
            family, y, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)),
                                                     count=int(rng.integers(1, 3)))
            red = finite_reduction(family, y)
            assert red.alpha <= sc.restricted_radius(problem) + 1e-7

    def test_shared_support_point_takes_one_slot(self):
        mu1 = sc.Functional(support=(0, 1), weights=(1.0, -1.0), normalize=True)
        mu2 = sc.Functional(support=(1, 2), weights=(1.0, -1.0), normalize=True)
        y = sc.Subspace(dim=4, functionals=(mu1, mu2))
        family = sc.FunctionFamily([[1.0, 0.0, 0.5, 0.0]])
        red = finite_reduction(family, y)
        assert red.slots == (0, 1, 2)
        # one balance equality per functional, on the slot columns
        feasible = red.problem.feasible
        assert np.array_equal(feasible.a_eq, y.rows()[:, [0, 1, 2]])
        assert feasible.contains(red.center.representative)

    def test_shared_supports_match_the_tied_slot_layout(self):
        # two functionals sharing support points: one slot per point gives
        # the optimum of the layout that ties repeated slots by equality rows
        rng = np.random.default_rng(2024)
        for _ in range(30):
            dim = int(rng.integers(4, 7))
            points = [int(k) for k in rng.permutation(dim)]
            first = points[:int(rng.integers(2, 4))]
            shared = first[:int(rng.integers(1, len(first)))]
            rest = [k for k in points if k not in first]
            second = shared + rest[:int(rng.integers(1, len(rest) + 1))]
            mus = tuple(sc.Functional(support=tuple(s), weights=tuple(
                rng.uniform(0.1, 1.0, len(s)) * rng.choice([-1.0, 1.0], len(s))),
                normalize=True) for s in (first, second))
            y = sc.Subspace(dim=dim, functionals=mus)
            family = sc.FunctionFamily(rng.uniform(-1.5, 1.5, (int(rng.integers(1, 4)), dim)))
            red = finite_reduction(family, y)
            assert red.slots == tuple(dict.fromkeys(first + second))
            assert red.problem.feasible.a_eq.shape == (2, len(red.slots))
            assert red.alpha == pytest.approx(tied_slot_alpha(family.values, mus), abs=1e-9)

    @pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
    def test_rows_are_the_box_and_the_slot_columns_of_y(self, inst):
        # the kernel ball on the slots, from the builder ball_problem uses:
        # bit for bit the unit box on the slots with Y's rows on the slot columns
        red = finite_reduction(inst.family, inst.subspace)
        if not red.slots:
            return
        feasible = red.problem.feasible
        eye = np.eye(red.size)
        rows = inst.subspace.rows()[:, list(red.slots)]
        for got, want in ((feasible.a_ub, np.vstack([eye, -eye])),
                          (feasible.b_ub, np.ones(2 * red.size)),
                          (feasible.a_eq, rows), (feasible.b_eq, np.zeros(rows.shape[0]))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_no_functionals(self):
        y = sc.Subspace(dim=3, functionals=())
        family = sc.FunctionFamily([[1.0, 0.0, 0.0]])
        red = finite_reduction(family, y)
        assert red.size == 0 and red.alpha == 0.0

    def test_gap_instance_alpha(self):
        family, y = gap_instance()
        red = finite_reduction(family, y)
        assert red.alpha == pytest.approx(0.5, abs=1e-9)
        assert sc.restricted_radius(sc.ball_problem(family, y)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_alpha_instance(self):
        family, y = zero_alpha_instance()
        red = finite_reduction(family, y)
        assert red.alpha <= 1e-9
        assert sc.restricted_radius(sc.ball_problem(family, y)) == pytest.approx(2.0, abs=1e-9)


@st.composite
def kernel_ball_draws(draw):
    """Member values in [-3, 3], so the clip of an off-support midpoint to
    [-1, 1] can bind, and zero to two functionals with random supports."""
    dim = draw(st.integers(1, 6))
    coordinate = st.floats(-3.0, 3.0, allow_subnormal=False)
    values = draw(st.lists(st.lists(coordinate, min_size=dim, max_size=dim),
                           min_size=1, max_size=3))
    functionals = []
    for _ in range(draw(st.integers(0, 2))):
        support = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim, unique=True))
        weights = draw(st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1),
                                min_size=len(support), max_size=len(support)))
        functionals.append((support, weights))
    return values, functionals


class TestClosedFormRadius:
    """finite_reduction reads R off in closed form; the kernel-ball LP and
    HiGHS are its oracles."""

    @pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
    def test_equals_the_lp_radius_on_the_corpus(self, inst):
        radius = sc.restricted_radius(sc.ball_problem(inst.family, inst.subspace))
        assert finite_reduction(inst.family, inst.subspace).radius == radius

    # no functionals; every coordinate on a support; one off-support coordinate
    # whose midpoint 2.5 clips to 1; an off-support midpoint clipped to -1
    @example(draw=([[2.0, -3.0], [3.0, 1.0]], []))
    @example(draw=([[1.0, 0.0, 3.0], [0.0, 1.0, -2.0]], [((0, 1), (0.5, -0.5)),
                                                         ((1, 2), (0.3, 0.7))]))
    @example(draw=([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]], [((0, 1), (0.5, -0.5))]))
    @example(draw=([[0.5, -2.0, -3.0], [0.0, -2.5, 0.5]], [((0,), (1.0,))]))
    @given(draw=kernel_ball_draws())
    def test_agrees_with_the_lp_and_highs(self, draw):
        values, functionals = draw
        family = sc.FunctionFamily(values)
        y = sc.Subspace(dim=family.dim, functionals=tuple(
            sc.Functional(support=tuple(s), weights=tuple(w), normalize=True)
            for s, w in functionals))
        radius = finite_reduction(family, y).radius
        lp_radius = sc.restricted_radius(sc.ball_problem(family, y))
        assert abs(radius - lp_radius) <= 1e-15 * (1.0 + radius)
        assert radius == pytest.approx(scipy_radius(family.values, y.rows())[0], abs=1e-7)


class TestConstructiveCenter:
    def test_worked_instance(self, worked):
        family, y, _ = worked
        h = constructive_center(family, y, reduction=finite_reduction(family, y))
        assert h == pytest.approx([0.5, 0.5, 0.0], abs=1e-9)

    def test_certificates_on_random_draws(self, rng):
        for _ in range(15):
            dim = int(rng.integers(3, 6))
            family, y, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)),
                                                     count=int(rng.integers(1, 3)))
            h = constructive_center(family, y, reduction=finite_reduction(family, y))
            radius = sc.restricted_radius(problem)
            assert sc.sup_norm(h) <= 1.0 + 1e-9
            res = y.residuals(h)
            assert res.size == 0 or np.max(np.abs(res)) <= 1e-9
            assert sc.farthest_radius(h, family) <= radius + 1e-8

    def test_gap_instance(self):
        family, y = gap_instance()
        h = constructive_center(family, y, reduction=finite_reduction(family, y))
        assert sc.farthest_radius(h, family) <= 1.0 + 1e-8
        # the clamp pulls the off-support coordinate up to f - R = 1
        assert h[0] == pytest.approx(1.0, abs=1e-9)

    def test_no_functionals_gives_clamped_zero(self):
        y = sc.Subspace(dim=2, functionals=())
        family = sc.FunctionFamily([[0.4, -0.2], [0.0, 0.1]])
        h = constructive_center(family, y, reduction=finite_reduction(family, y))
        radius = sc.restricted_radius(sc.ball_problem(family, y))
        assert sc.farthest_radius(h, family) <= radius + 1e-8


class TestRepairInputValidation:
    def test_rejects_bad_slack(self):
        with pytest.raises(PreconditionError):
            RepairInput(g=[0.0], eps=0.1, delta=0.2)
        with pytest.raises(PreconditionError):
            RepairInput(g=[0.0], eps=0.1, delta=0.0)
        with pytest.raises(PreconditionError):
            RepairInput(g=[0.0], eps=0.0, delta=0.0)

    def test_delta_equal_eps_allowed(self):
        RepairInput(g=[0.0], eps=0.1, delta=0.1)


class TestAdmissibleSlack:
    def test_matched_regime(self, worked):
        family, y, _ = worked
        choice = admissible_slack(family, y, eps=0.1)
        assert choice.regime == MATCHED
        assert choice.origin == "modulus"
        assert 0.0 < choice.value <= 0.1

    def test_gap_regime_formula(self):
        family, y = gap_instance()
        choice = admissible_slack(family, y, eps=0.1)
        assert choice.regime == GAP
        assert choice.origin == "formula"
        assert choice.alpha == pytest.approx(0.5, abs=1e-9)
        assert choice.beta == pytest.approx(0.5, abs=1e-9)
        expected = 0.5 * min(0.5, 0.1 * 0.5 / (6 * 0.5 + 4 * 0.5))
        assert choice.value == pytest.approx(expected, abs=1e-12)

    def test_zero_alpha_uses_relaxed_modulus(self):
        family, y = zero_alpha_instance()
        choice = admissible_slack(family, y, eps=0.1)
        assert choice.regime == GAP
        assert choice.origin == "relaxed-modulus"
        assert choice.value > 0.0

    def test_zero_alpha_slack_against_highs(self):
        # every vertex of cent(beta + delta) of the reduced problem lies
        # within eps of cent(beta)
        family, y = zero_alpha_instance()
        eps = 0.1
        red = finite_reduction(family, y)
        choice = admissible_slack(family, y, eps, reduction=red)
        base = sc.near_center_set(red.problem, choice.beta, red.center.radius)
        verts = sc.near_center_set(red.problem, choice.beta + choice.value,
                                   red.center.radius).vertices()
        assert verts.shape[0] > 0
        assert max(highs_distance(v, base) for v in verts) <= eps + 1e-9

    def test_trivial_without_functionals(self):
        y = sc.Subspace(dim=2, functionals=())
        family = sc.FunctionFamily([[0.4, -0.2]])
        choice = admissible_slack(family, y, eps=0.3)
        assert choice.origin == "trivial" and choice.value == 0.3

    def test_eps_must_be_positive(self, worked):
        family, y, _ = worked
        with pytest.raises(PreconditionError):
            admissible_slack(family, y, eps=0.0)


@pytest.mark.parametrize("name", ["06-gap-positive-alpha", "17-random-d5m4", "gap_instance"])
def test_gap_formula_is_half_the_perturbation_bound(name):
    # the gap formula reads perturbation_slack_bound: the same bits
    if name == "gap_instance":
        family, y = gap_instance()
    else:
        inst = next(i for i in sc.load_corpus("center") if i.name == name)
        family, y = inst.family, inst.subspace
    reduction = finite_reduction(family, y)
    for eps in (0.05, 0.1, 0.2):
        choice = admissible_slack(family, y, eps, reduction=reduction)
        assert choice.origin == "formula"
        assert choice.value == 0.5 * sc.perturbation_slack_bound(choice.alpha, choice.beta, eps)


class TestHeldPolytopes:
    """The matched-regime repair projects onto the center polytope that the
    reduction holds; only the gap regime builds a near-center set."""

    def repair_once(self, family, y, eps, rng, near_center_builds):
        reduction = finite_reduction(family, y)
        choice = admissible_slack(family, y, eps, reduction=reduction)
        g = near_center_point(rng, sc.ball_problem(family, y), choice.value, reduction.radius)
        near_center_builds.clear()
        repair_near_center(RepairInput(g=g, eps=eps, delta=choice.value), family, y,
                           reduction=reduction)
        return reduction

    def test_matched_repair_builds_none(self, worked, rng, near_center_builds):
        family, y, _ = worked
        reduction = self.repair_once(family, y, 0.2, rng, near_center_builds)
        assert reduction.regime == MATCHED
        assert near_center_builds == []

    def test_gap_repair_builds_its_relaxation(self, rng, near_center_builds):
        family, y = gap_instance()
        reduction = self.repair_once(family, y, 0.1, rng, near_center_builds)
        assert reduction.regime == GAP
        assert near_center_builds == [reduction.radius - reduction.alpha]


class TestRepair:
    def run_repairs(self, family, y, eps, draws, rng):
        problem = sc.ball_problem(family, y)
        reduction = finite_reduction(family, y)
        choice = admissible_slack(family, y, eps, reduction=reduction)
        center = sc.center_set(problem)
        for _ in range(draws):
            g = near_center_point(rng, problem, choice.value, center.radius)
            h2 = repair_near_center(RepairInput(g=g, eps=eps, delta=choice.value),
                                    family, y, reduction=reduction)
            moved = float(np.max(np.abs(g - h2)))
            assert moved <= eps + 1e-9
            dist, _ = lp.distance_to_polytope(h2, center.center_polytope)
            assert dist <= 1e-7

    def test_worked_instance(self, worked, rng):
        family, y, _ = worked
        self.run_repairs(family, y, eps=0.2, draws=5, rng=rng)

    def test_gap_instance(self, rng):
        family, y = gap_instance()
        self.run_repairs(family, y, eps=0.1, draws=5, rng=rng)

    def test_zero_alpha_instance(self, rng):
        family, y = zero_alpha_instance()
        self.run_repairs(family, y, eps=0.1, draws=5, rng=rng)

    def test_rejects_point_outside_ball(self, worked):
        family, y, _ = worked
        with pytest.raises(PreconditionError):
            repair_near_center(RepairInput(g=[2.0, 2.0, 0.0], eps=0.1, delta=0.05),
                               family, y)

    def test_rejects_point_off_kernel(self, worked):
        family, y, _ = worked
        with pytest.raises(PreconditionError):
            repair_near_center(RepairInput(g=[0.9, 0.1, 0.0], eps=0.1, delta=0.05),
                               family, y)

    def test_rejects_inadmissible_radius(self, worked):
        family, y, _ = worked
        # (-1, -1, 0) is in the kernel ball but its radius 2 far exceeds R + delta
        with pytest.raises(PreconditionError):
            repair_near_center(RepairInput(g=[-1.0, -1.0, 0.0], eps=0.1, delta=0.05),
                               family, y)


class TestCertifyCenter:
    """Each coordinate failure names its first offending index."""

    @pytest.mark.parametrize("h, index, message", [
        # |h_i| > 1 is checked before the band, even at a later index
        ([0.4, 0.5, 1.5], 2, "|h[2]| = 1.5 > 1"),
        # the band names the first index outside it, on whichever side
        ([0.5, 0.3, 0.7], 1, "h[1] = 0.3 < max_f f - R = 0.5"),
        ([0.6, 0.5, -0.7], 0, "h[0] = 0.6 > min_f f + R = 0.5"),
    ])
    def test_coordinate_failures(self, worked, h, index, message):
        family, y, _ = worked
        lower, upper = band(family, 0.5)
        with pytest.raises(ConstructionError) as exc:
            _certify_center(np.array(h), family, y, 0.5, lower, upper)
        assert exc.value.point_index == index
        assert str(exc.value) == message


class TestSolveCounts:
    """The full radius is computed once, in finite_reduction, and handed on."""

    def test_finite_reduction(self, worked, solve_counts):
        family, y, _ = worked
        red = finite_reduction(family, y)
        # no LP: the reduced problem is a line, whose radius is a 1-D minimax,
        # and the full radius is read off in closed form
        assert solve_counts["solves"] == 0
        assert red.radius == pytest.approx(0.5, abs=1e-9)
        assert red.regime == MATCHED

    def test_consumers_reuse_the_reduction(self, worked, solve_counts):
        family, y, _ = worked
        red = finite_reduction(family, y)
        solve_counts.clear()
        constructive_center(family, y, reduction=red)
        assert solve_counts["solves"] == 0
        repair_near_center(RepairInput(g=[0.6, 0.6, 0.1], eps=0.2, delta=0.2),
                           family, y, reduction=red)
        assert solve_counts["solves"] <= 1
        assert solve_counts["other"] == 0

    @pytest.mark.parametrize("name, origin", [("01-worked-instance", "modulus"),
                                              ("07-gap-zero-alpha", "relaxed-modulus")])
    def test_admissible_slack_reuses_the_reduced_center(self, name, origin, solve_counts):
        # the reduced radius comes from the reduction.  The reduced problem
        # holds only the support columns, here one functional's support, so
        # it is a single factor, a line: its one probe reads its ends off
        # the line, with no enumeration and no distance
        inst = next(i for i in sc.load_corpus("center") if i.name == name)
        red = finite_reduction(inst.family, inst.subspace)
        solve_counts.clear()
        choice = admissible_slack(inst.family, inst.subspace, 0.1, reduction=red)
        assert choice.origin == origin
        assert solve_counts["calls:enumerate"] == 0
        assert solve_counts["calls:distance"] == 0
        assert solve_counts["solves"] == 0


# the support blocks of these instances are wider than a line: their
# reduction and their support projection each solve one epigraph LP, as they
# did when every block took one; every other instance takes none
WIDER_THAN_A_LINE = {"08-three-point-functional", "14-random-d4m3", "15-random-d5m4"}


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_line_blocks_reduce_and_repair_without_an_lp(inst, solve_counts):
    red = finite_reduction(inst.family, inst.subspace)
    reduce_solves = solve_counts["solves"]
    # a near-center g far from the center: the vertex of cent(delta)
    # farthest from the constructive center
    choice = admissible_slack(inst.family, inst.subspace, 0.1, reduction=red)
    problem = sc.ball_problem(inst.family, inst.subspace)
    verts = sc.near_center_set(problem, choice.value, red.radius).vertices()
    h = constructive_center(inst.family, inst.subspace, reduction=red)
    g = verts[np.argmax(np.abs(verts - h).max(axis=1))]
    solve_counts.clear()
    repair_near_center(RepairInput(g=g, eps=0.1, delta=choice.value), inst.family, inst.subspace,
                       reduction=red)
    expected = 1 if inst.name in WIDER_THAN_A_LINE else 0
    assert (reduce_solves, solve_counts["solves"]) == (expected, expected)


def _fresh_subspace(y):
    return sc.Subspace(dim=y.dim, functionals=y.functionals)


@pytest.mark.parametrize("inst", [i for i in sc.load_corpus("center") if i.subspace.functionals],
                         ids=lambda inst: inst.name)
def test_a_repair_splits_once_and_forms_each_line_once(inst, split_counts):
    # the subspace holds the reduced box V (Subspace.support).  The first
    # repair on a fresh subspace splits V once and forms the line of each of
    # its factors (None on a block wider than a line); the support
    # projection's target, the center set (matched) or its beta-relaxation
    # (gap), is V cut by a band and reads both off V.  03 has two line
    # factors; 06 and 17 are in the gap regime, and 07's g already lies in
    # its relaxed target, which is then never split.  Each factor's line
    # forms its chart, one per factor of V and none for a band cut.  A
    # second repair forms nothing, and an admissible_slack after it forms
    # nothing either: it only enumerates each factor wider than a line (08,
    # 14 and 15) on the chart that factor holds
    red = finite_reduction(inst.family, inst.subspace)
    choice = admissible_slack(inst.family, inst.subspace, 0.1, reduction=red)
    verts = sc.near_center_set(sc.ball_problem(inst.family, inst.subspace), choice.value,
                               red.radius).vertices()
    h = constructive_center(inst.family, inst.subspace, reduction=red)
    g = verts[np.argmax(np.abs(verts - h).max(axis=1))]
    y = _fresh_subspace(inst.subspace)
    inp = RepairInput(g=g, eps=0.1, delta=choice.value)
    split_counts.clear()
    repair_near_center(inp, inst.family, y)
    box = y.support().box
    subs = [sub for _, sub in box.split()]
    assert split_counts["factors"] == split_counts["factors", box] == 1
    assert split_counts["_chart"] == len(subs)
    assert all(split_counts["_chart", sub] == 1 for sub in subs)
    if inst.name == "03-disjoint-supports":
        assert len(subs) == 2

    split_counts.clear()
    repair_near_center(inp, inst.family, y)
    assert not split_counts
    wider = [sub for sub in subs if sub.line() is None]
    assert bool(wider) == (inst.name in WIDER_THAN_A_LINE)
    admissible_slack(inst.family, y, 0.1)
    assert set(split_counts) <= {"_double_description", "merge_rows"}
    assert bool(split_counts) == bool(wider)
    split_counts.clear()
    admissible_slack(inst.family, y, 0.1)
    repair_near_center(inp, inst.family, y)
    # only the modulus search's enumeration of the wider factors is counted
    assert set(split_counts) <= {"_double_description", "merge_rows"}
    assert bool(split_counts) == bool(wider)


# the acceptance gate's repair budgets
BUDGETS = (0.2, 0.1, 0.05)


def _answers(family, y, inp):
    """The bytes of center_set on y's ball problem (with its vertices), of
    admissible_slack at inp.eps and of the repair of inp, all on y."""
    center = sc.center_set(sc.ball_problem(family, y))
    poly = center.center_polytope
    choice = admissible_slack(family, y, inp.eps)
    h = repair_near_center(inp, family, y)
    return [np.float64(center.radius).tobytes(), center.representative.tobytes(),
            *(getattr(poly, name).tobytes() for name in ("a_ub", "b_ub", "a_eq", "b_eq")),
            poly.vertices().tobytes(),
            np.array([choice.value, choice.alpha, choice.beta, choice.radius]).tobytes(),
            choice.regime, choice.origin, h.tobytes()]


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_a_served_subspace_answers_as_a_fresh_one_bit_for_bit(inst):
    # the subspace holds its reduced box and its ball with their splits,
    # lines and hulls once earlier calls have formed them, here on another
    # family as well; an equal subspace built afresh forms its own, and
    # every answer must be the same bits
    family, served = inst.family, inst.subspace
    halved = sc.FunctionFamily(0.5 * family.values)
    sc.center_set(sc.ball_problem(halved, served))
    admissible_slack(halved, served, 0.1)
    inputs = []
    for eps in BUDGETS:
        red = finite_reduction(family, served)
        choice = admissible_slack(family, served, eps, reduction=red)
        verts = sc.near_center_set(sc.ball_problem(family, served), choice.value,
                                   red.radius).vertices()
        h = constructive_center(family, served, reduction=red)
        g = verts[np.argmax(np.abs(verts - h).max(axis=1))]
        inputs.append(RepairInput(g=g, eps=eps, delta=choice.value))
    assert served._ball is not None
    assert (served._support is None) == (not served.functionals)
    for inp in inputs:
        assert _answers(family, served, inp) == _answers(family, _fresh_subspace(served), inp)


@pytest.mark.parametrize("name", ["01-worked-instance", "06-gap-positive-alpha",
                                  "12-no-constraints"])
@pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf], ids=str)
def test_a_non_finite_budget_is_refused(name, eps):
    # as a non-positive one is: before any reduction is read or solved
    inst = next(i for i in sc.load_corpus("center") if i.name == name)
    red = finite_reduction(inst.family, inst.subspace)
    for reduction in (None, red):
        with pytest.raises(PreconditionError, match="positive and finite"):
            admissible_slack(inst.family, inst.subspace, eps, reduction=reduction)
    with pytest.raises(PreconditionError, match="positive and finite"):
        RepairInput(g=np.zeros(inst.family.dim), eps=eps, delta=0.1)


def test_simplex_mode_tags_report(worked):
    _, _, problem = worked
    report = simplex_mode(3, problem)
    assert report.mode == "simplex-vertices"
    assert report.radius == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(DimensionMismatchError):
        simplex_mode(4, problem)
