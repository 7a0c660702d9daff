import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import supcenter as sc
from supcenter import construct, lp, stability
from supcenter.errors import InfeasiblePolytopeError, LPNumericalError
from supcenter.reportio import dump_report
from supcenter.space import band
from supcenter.sampling import random_ball_problem
from supcenter.tolerances import DEDUP_TOL, DEFAULT_TOL, MODULUS_CONFIRM_STEP
from supcenter.stability import (
    _farthest_vertex,
    p1_modulus,
    worst_near_center_distance,
)

from oracles import (highs_distance, reference_bisection_modulus, reference_enumerate_vertices,
                     reference_farthest_vertex)

EPS_GRID = (0.2, 0.1, 0.05)


def _corpus_centers():
    """(instance/mode, problem, center) for every center instance, for V the
    kernel ball and V the whole kernel."""
    for inst in sc.load_corpus("center"):
        for label, problem in (("ball", sc.ball_problem(inst.family, inst.subspace)),
                               ("subspace", sc.subspace_problem(inst.family, inst.subspace))):
            if inst.interpretation == "simplex-vertices":
                center = construct.simplex_mode(inst.family.dim, problem)
            else:
                center = sc.center_set(problem)
            yield f"{inst.name}/{label}", problem, center


@pytest.fixture(scope="module")
def corpus_moduli():
    """p1_modulus(eps, delta_max=eps) on every center instance, for V the
    kernel ball and V the whole kernel: (pair id, problem, center, report)."""
    return [(f"{name}@{eps}", problem, center,
             p1_modulus(problem, eps, delta_max=eps, center=center))
            for name, problem, center in _corpus_centers() for eps in EPS_GRID]


def test_worst_distance_zero_at_zero_slack(worked):
    _, _, problem = worked
    worst, _ = worst_near_center_distance(problem, 0.0, center=sc.center_set(problem))
    assert worst <= 1e-8


def test_worst_distance_monotone(worked):
    _, _, problem = worked
    center = sc.center_set(problem)
    last = -1.0
    for delta in (0.01, 0.05, 0.1, 0.3):
        worst, witness = worst_near_center_distance(problem, delta, center=center)
        assert worst >= last - 1e-9
        assert witness is not None
        last = worst


def test_worked_instance_worst_distance_known(worked):
    # widening the slab by delta lets the first two coordinates drift by
    # delta while the third stays covered, so the distance back is delta
    _, _, problem = worked
    worst, _ = worst_near_center_distance(problem, 0.1, center=sc.center_set(problem))
    assert worst == pytest.approx(0.1, abs=1e-8)


@pytest.mark.parametrize("value, witness", [(-1.0, -0.9), (1.0, 0.9)])
def test_interval_factor_worst_distance_in_closed_form(value, witness, solve_counts):
    # every member sits on one face of the box: the center set is that face
    # and the near-center set grows inward only, so w = delta comes from the
    # u - u0 term on the lower face and from l0 - l on the upper one, with
    # no enumeration and no LP; the witness is the interval end that gives it
    problem = sc.ball_problem(sc.FunctionFamily([[value]]), sc.Subspace(dim=1))
    center = sc.center_set(problem)
    solve_counts.clear()
    worst, found = worst_near_center_distance(problem, 0.1, center=center)
    assert not solve_counts
    assert worst == pytest.approx(0.1, abs=1e-15)
    assert found == pytest.approx([witness], abs=1e-15)


def test_line_factor_worst_distance_in_closed_form(worked, solve_counts):
    # the support block (0, 1) of weights (0.5, -0.5) is the line v = (t, t):
    # its worst distance, like the interval's of coordinate 2, comes from its
    # ends on the line, with no enumeration and no distance
    _, _, problem = worked
    center = sc.center_set(problem)
    solve_counts.clear()
    worst, found = worst_near_center_distance(problem, 0.1, center=center)
    assert not solve_counts  # no enumeration, no distance, no LP
    assert worst == pytest.approx(0.1, abs=1e-15)
    assert found[0] == found[1]


class TestModulus:
    def test_positive_on_worked_instance(self, worked):
        _, _, problem = worked
        center = sc.center_set(problem)
        for eps in (0.2, 0.1, 0.05):
            report = p1_modulus(problem, eps, delta_max=eps, center=center)
            assert not report.degenerate
            assert report.delta_star > 0.0
            # certify: the returned slack really keeps the set within eps
            worst, _ = worst_near_center_distance(problem, report.delta_star, center=center)
            assert worst <= eps + 1e-9

    def test_fast_path_when_everything_fits(self, worked):
        _, _, problem = worked
        report = p1_modulus(problem, eps=10.0, delta_max=0.05, center=sc.center_set(problem))
        assert report.delta_star == 0.05
        assert len(report.probes) == 1

    def test_probes_recorded(self, worked):
        _, _, problem = worked
        report = p1_modulus(problem, eps=0.05, delta_max=0.5, center=sc.center_set(problem))
        assert len(report.probes) >= 2
        assert all(p.delta > 0 for p in report.probes)

    def test_positive_on_random_draws(self, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            _, _, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)))
            report = p1_modulus(problem, eps=0.1, delta_max=0.1, center=sc.center_set(problem),
                                resolution=1e-2)
            assert not report.degenerate
            assert report.delta_star > 0.0

    def test_validates_arguments(self, worked):
        # eps and delta_max must be positive and finite, a slack finite and
        # nonnegative: nan and inf are refused as bad input, never searched
        _, _, problem = worked
        center = sc.center_set(problem)
        for bad in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                p1_modulus(problem, eps=bad, delta_max=0.1, center=center)
            with pytest.raises(ValueError):
                p1_modulus(problem, eps=0.1, delta_max=bad, center=center)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                sc.near_center_set(problem, bad, center.radius)
            with pytest.raises(ValueError):
                worst_near_center_distance(problem, bad, center=center)



@pytest.mark.parametrize("resolution", [np.nan, -0.1, 0.0, 1.0, 2.0, np.inf], ids=str)
def test_a_resolution_outside_the_unit_interval_is_refused(resolution):
    # on 08 at eps 0.2 these raised EnumerationError (nan),
    # InfeasiblePolytopeError (-0.1), or returned a false degenerate report
    # (1, 2, inf) from a degeneracy probe at or past delta_max
    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = inst.problem()
    center = sc.center_set(problem)
    with pytest.raises(ValueError, match="resolution"):
        p1_modulus(problem, 0.2, delta_max=0.2, center=center, resolution=resolution)

def _worsts_through(monkeypatch, change):
    """Makes each search that p1_modulus runs (_product_search) report
    change(worst) in place of its worst distance."""
    real = stability._product_search

    def product_search(*args):
        search = real(*args)

        def changed(lower, upper):
            worst, witness = search(lower, upper)
            return change(worst), witness
        return changed

    monkeypatch.setattr(stability, "_product_search", product_search)


@pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["ulp-up", "ulp-down"])
def test_p1_modulus_off_the_rounding_edge(monkeypatch, toward):
    # on the worked instance worst(0.05) equals 0.05 up to rounding, so one
    # ulp of noise in the worst distance must not send the first probe to
    # bisection
    inst = next(i for i in sc.load_corpus("center") if i.name == "01-worked-instance")
    problem = inst.problem()
    center = sc.center_set(problem)
    _worsts_through(monkeypatch, lambda worst: float(np.nextafter(worst, toward)))
    report = p1_modulus(problem, eps=0.05, delta_max=0.05, center=center)
    assert report.delta_star == 0.05
    assert len(report.probes) == 1


def test_modulus_lies_in_the_bisection_bracket(corpus_moduli):
    # the bisection this search replaced resolves the same map to
    # resolution * delta_max; the secant search must land inside its bracket
    searched = 0
    for pair, problem, center, report in corpus_moduli:
        lo, hi = reference_bisection_modulus(problem, report.eps, report.delta_max, center)
        assert not report.degenerate and lo > 0.0, pair
        assert lo <= report.delta_star <= hi, (pair, lo, report.delta_star, hi)
        if lo < hi:
            searched += 1
            assert len(report.probes) <= 7, pair
    assert len(corpus_moduli) == 102 and searched == 36


def test_modulus_confirmed_by_highs(corpus_moduli):
    # w(delta*) <= eps + tol, and w(delta* + h) > eps + tol unless delta* is
    # the cap, with each vertex distance measured by HiGHS.  A secant step
    # lands on w = eps + tol itself, where the two solvers may disagree in
    # the last bits, so both sides allow `rounding`, far below the slope * h
    # that separates a passing slack from its confirming probe.
    rounding = 1e-12

    def worst(problem, center, delta):
        base = sc.near_center_set(problem, 0.0, radius=center.radius)
        verts = sc.near_center_set(problem, delta, radius=center.radius).vertices()
        return max(highs_distance(v, base) for v in verts)

    for pair, problem, center, report in corpus_moduli:
        target = report.eps + DEFAULT_TOL
        assert worst(problem, center, report.delta_star) <= target + rounding, pair
        if report.delta_star < report.delta_max:
            h = MODULUS_CONFIRM_STEP * report.delta_max
            assert worst(problem, center, report.delta_star + h) > target - rounding, pair
            # the search's own confirming probe: failed, at most h above
            assert any(report.delta_star < p.delta <= report.delta_star + h * (1 + 1e-6)
                       and p.worst > target for p in report.probes), pair


def test_probes_match_the_full_space_scan(corpus_moduli):
    # each probe's worst distance, taken factor by factor, is the scan of
    # every vertex of the whole near-center set, enumerated unsplit, against
    # the whole base set; its witness is one of those vertices, at a
    # full-space distance within DEFAULT_TOL of the worst
    probes = 0
    for pair, problem, center, report in corpus_moduli:
        base = sc.near_center_set(problem, 0.0, radius=center.radius)
        for p in report.probes:
            verts = reference_enumerate_vertices(
                sc.near_center_set(problem, p.delta, radius=center.radius))
            worst, _ = reference_farthest_vertex(verts, base)
            assert abs(p.worst - worst) <= 1e-15 * (1.0 + worst), pair
            probes += 1
            if p.witness is None:
                assert worst <= 0.0, pair
                continue
            witness = np.array(p.witness)
            assert np.min(np.max(np.abs(verts - witness), axis=1)) <= 1e-12, pair
            assert lp.distance_to_polytope(witness, base)[0] >= p.worst - DEFAULT_TOL, pair
    assert probes == 234


def test_line_factors_take_the_ends_of_their_rows(corpus_moduli):
    # a line factor of a probe (an interval is the line of its one column)
    # is V's line cut by the band, in closed form: its ends are those that
    # the line of the unsplit near set's sub-polytope takes on its rows
    # (_line_ends), bit for bit, and so are the witness's coordinates in
    # that factor, v0 + t dv at one of the ends
    factors = 0
    for pair, problem, center, report in corpus_moduli:
        for p in report.probes:
            lower, upper = band(problem.family, center.radius + p.delta)
            near = sc.near_center_set(problem, p.delta, center.radius)
            unsplit = sc.Polytope(near.a_ub, near.b_ub, near.a_eq, near.b_eq)
            for (cols, sub), (_, near_sub) in zip(problem.feasible.split(), unsplit.split()):
                if sub.line() is None:
                    continue
                v0, dv, lo, hi = sub.with_band(lower[cols], upper[cols]).line()
                want = near_sub.line()
                assert all(_same_floats(got, w) for got, w in zip((v0, dv, lo, hi), want)), pair
                if p.witness is not None:
                    coords = np.array(p.witness)[cols]
                    assert any(_same_floats(coords, v0 + t * dv) for t in want[2:]), pair
                factors += 1
    assert factors == 362


def test_a_crossed_interval_factor_is_refused():
    # a band whose interval factor crosses is refused as an empty near set,
    # as the line of the near set's factor refuses its rows
    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = inst.problem()
    center = sc.center_set(problem)
    search = stability._product_search(problem.feasible, center.center_polytope,
                                       center.representative)
    lower, upper = band(problem.family, center.radius + 0.1)
    ((k, col),) = [(k, cols[0]) for k, (cols, sub) in enumerate(problem.feasible.split())
                   if cols.size == 1 and not sub.a_eq.size]
    lower[col], upper[col] = 0.5, 0.5 - 1e-6
    _, near_sub = problem.feasible.with_band(lower, upper).split()[k]
    with pytest.raises(InfeasiblePolytopeError):
        near_sub.line()
    with pytest.raises(InfeasiblePolytopeError):
        search(lower, upper)
    upper[col] = 0.5 - 1e-12  # crossed by less than the bar, so not empty
    _, near_sub = problem.feasible.with_band(lower, upper).split()[k]
    assert near_sub.line()[2:] == (0.5, 0.5 - 1e-12)
    assert near_sub.vertices().tolist() == [[0.5]]
    assert search(lower, upper)[0] > 0.0


def _same_floats(got, want):
    return np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


@pytest.mark.parametrize("eps, exact", [(0.1, 1.0 / 30.0), (0.05, 1.0 / 60.0)])
def test_modulus_exact_on_three_point_functional(corpus_moduli, eps, exact):
    # the worst distance is 3 delta near the root, so delta* = eps / 3;
    # bisection stopped short at 0.0333319 and 0.0166659
    report = next(r for pair, _, _, r in corpus_moduli
                  if pair == f"08-three-point-functional/ball@{eps}")
    assert report.delta_star == pytest.approx(exact, abs=MODULUS_CONFIRM_STEP * eps)


def test_modulus_step_cap_raises(worked, monkeypatch):
    # below delta_max every worst distance sits exactly on eps + tol, so each
    # secant step lands on the passing end and moves it by only h: the
    # search runs out of steps and must not return the unconfirmed slack
    _, _, problem = worked
    eps, delta_max = 0.05, 0.3
    center = sc.center_set(problem)
    _worsts_through(monkeypatch, lambda worst: 1.0 if worst >= delta_max - 1e-12
                    else eps + DEFAULT_TOL)
    with pytest.raises(LPNumericalError, match="not confirmed"):
        p1_modulus(problem, eps, delta_max=delta_max, center=center)


def _bits(result):
    worst, witness = result
    return float(worst).hex(), None if witness is None else witness.tobytes()


def test_farthest_vertex_ties_go_to_the_first_vertex(solve_counts):
    # the second vertex is one ulp farther from the box than the first, and
    # the known point (1, -1) bounds it by 3 against 1, so it is solved first
    verts = np.array([[2.0, 0.0], [0.0, np.nextafter(2.0, 3.0)]])
    box = sc.Polytope.box(2, 1.0)
    worst, witness = _farthest_vertex(verts, box, [np.array([1.0, -1.0])])
    assert worst == lp.distance_to_polytope(verts[1], box)[0] > 1.0
    assert np.array_equal(witness, verts[0])
    # a third vertex, bounded by 0.1 through the known point, cannot come
    # within DEFAULT_TOL of the worst: it is skipped, one LP fewer than the scan
    verts = np.vstack([verts, [0.9, -0.9]])
    solve_counts.clear()
    worst, witness = _farthest_vertex(verts, box, [np.array([1.0, -1.0])])
    assert solve_counts["calls:distance"] == 2
    solve_counts.clear()
    assert _bits((worst, witness)) == _bits(reference_farthest_vertex(verts, box))
    assert solve_counts["calls:distance"] == 3


@pytest.fixture
def checked_searches(monkeypatch):
    """Wraps stability._farthest_vertex so that each search is compared with
    the one-LP-per-vertex scan on the same vertices; returns the list of the
    searches' vertex counts."""
    real = stability._farthest_vertex
    searches = []

    def checked(verts, target, known):
        result = real(verts, target, known)
        assert _bits(result) == _bits(reference_farthest_vertex(verts, target))
        searches.append(len(verts))
        return result

    monkeypatch.setattr(stability, "_farthest_vertex", checked)
    return searches


def test_bound_ordered_search_matches_the_scan_on_the_corpus(checked_searches):
    # every factor search of every corpus modulus, and of a modulus around a
    # relaxed base, gives the scan's (worst, witness) bit for bit.  Line
    # factors take no search: only the blocks wider than a line do, those of
    # 08, 14 and 15, one per probe, so 96 of the 234 probes search, each only
    # its block's vertices.  The relaxed modulus of the gap regime is taken
    # on 07's reduced problem, a line, and takes none; 08's block takes one
    # per probe around a relaxed base
    for _, problem, center in _corpus_centers():
        for eps in EPS_GRID:
            p1_modulus(problem, eps, delta_max=eps, center=center)
    assert len(checked_searches) == 96 and sum(checked_searches) == 546
    inst = next(i for i in sc.load_corpus("center") if i.name == "07-gap-zero-alpha")
    for eps in EPS_GRID:
        choice = construct.admissible_slack(inst.family, inst.subspace, eps)
        assert choice.origin == "relaxed-modulus"
    assert len(checked_searches) == 96
    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = inst.problem()
    report = p1_modulus(problem, 0.1, delta_max=0.1, center=sc.center_set(problem),
                        base_slack=0.05)
    assert len(checked_searches) == 96 + len(report.probes)


@example(seed=0, dim=3, members=2, deltas=[0.1], keep=0)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5), members=st.integers(1, 4),
       deltas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4), keep=st.integers(0, 40))
def test_bound_ordered_search_matches_the_scan_on_random_problems(seed, dim, members,
                                                                   deltas, keep):
    # one known list across the probes, as p1_modulus keeps it; keep cuts
    # each vertex list short, down to no vertex at all
    rng = np.random.default_rng(seed)
    _, _, problem = random_ball_problem(rng, dim, members, count=int(rng.integers(1, dim)))
    center = sc.center_set(problem)
    known = [center.representative]
    for delta in deltas:
        verts = sc.near_center_set(problem, delta, radius=center.radius).vertices()[:keep]
        result = _farthest_vertex(verts, center.center_polytope, known)
        assert _bits(result) == _bits(reference_farthest_vertex(verts, center.center_polytope))


def _line_block(seed, k, members):
    """A random line block: the unit box of k columns cut by k - 1
    functionals on all of them, with members points of [-1, 1]^k."""
    rng = np.random.default_rng(seed)
    functionals = tuple(sc.Functional(support=tuple(range(k)),
                                      weights=tuple(rng.uniform(0.1, 1.0, k)
                                                    * rng.choice([-1.0, 1.0], k)),
                                      normalize=True)
                        for _ in range(k - 1))
    family = sc.FunctionFamily(rng.uniform(-1.0, 1.0, (members, k)))
    return sc.ball_problem(family, sc.Subspace(dim=k, functionals=functionals))


# a block whose line runs against its first coordinate, dv[0] < 0, and whose
# center set is a point, so that the near ends at slack 0 and 1e-9 lie within
# DEDUP_TOL of each other (test_line_block_example_covers_its_edge_cases)
LINE_BLOCK_EXAMPLE = dict(seed=57, k=4, members=2, deltas=[0.0, 1e-9, 0.5])
# a block on a steep line whose near end at slack 1e-9 lies 1.53e-7 from the
# center set by sup distance, while it violates the center set's band rows by
# only about 1e-9 (test_a_near_end_just_off_a_steep_line_is_measured)
STEEP_LINE_EXAMPLE = dict(seed=77, k=3, members=1, deltas=[1e-9])


@example(**LINE_BLOCK_EXAMPLE)
@example(**STEEP_LINE_EXAMPLE)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), members=st.integers(1, 4),
       deltas=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4))
def test_line_block_search_matches_the_unsplit_scan(seed, k, members, deltas):
    # the closed form on a line block agrees with the scan of the vertices of
    # the near set, enumerated unsplit, against the base set, and its witness
    # is one of those vertices.  The scan holds to DEFAULT_TOL: its vertices
    # come through an orthonormal basis, and a drawn line's rounding grows
    # with its conditioning (see tests/test_lines.py).  It also cannot see
    # an end within DEDUP_TOL of the other one (a merged list keeps one), so
    # there the closed form may exceed it by the ends' distance, hi - lo
    problem = _line_block(seed, k, members)
    center = sc.center_set(problem)
    base = center.center_polytope
    search = stability._product_search(problem.feasible, base, center.representative)
    for delta in deltas:
        lower, upper = band(problem.family, center.radius + delta)
        worst, witness = search(lower, upper)
        _, _, lo, hi = problem.feasible.with_band(lower, upper).line()
        merged = hi - lo <= DEDUP_TOL
        verts = reference_enumerate_vertices(sc.near_center_set(problem, delta, center.radius))
        want, _ = reference_farthest_vertex(verts, base)
        bar = DEFAULT_TOL * (1.0 + want)
        unseen = hi - lo if merged else 0.0
        assert want - bar <= worst <= want + bar + unseen
        if witness is not None:
            gap = np.min(np.max(np.abs(verts - witness), axis=1))
            assert gap <= 1e-12 + unseen


def test_line_block_example_covers_its_edge_cases():
    # the example drawn above has dv[0] < 0, so its first end in t is not its
    # lexicographically first vertex, and near ends within DEDUP_TOL
    problem = _line_block(*(LINE_BLOCK_EXAMPLE[key] for key in ("seed", "k", "members")))
    _, dv, _, _ = problem.feasible.line()
    assert dv[0] < 0.0
    center = sc.center_set(problem)
    for delta in LINE_BLOCK_EXAMPLE["deltas"][:2]:
        lower, upper = band(problem.family, center.radius + delta)
        _, _, lo, hi = problem.feasible.with_band(lower, upper).line()
        assert hi - lo <= DEDUP_TOL


def test_a_near_end_just_off_a_steep_line_is_measured():
    # distance_to_polytope measures a point that is within DEFAULT_TOL of the
    # center set's rows like any other, so the scan of the near set's
    # vertices sees the end that the closed form takes, up to the rounding
    # of the scan's vertices (about 1e-15 here)
    problem = _line_block(*(STEEP_LINE_EXAMPLE[key] for key in ("seed", "k", "members")))
    center = sc.center_set(problem)
    delta, = STEEP_LINE_EXAMPLE["deltas"]
    verts = reference_enumerate_vertices(sc.near_center_set(problem, delta, center.radius))
    scan, far = reference_farthest_vertex(verts, center.center_polytope)
    worst, _ = worst_near_center_distance(problem, delta, center=center)
    assert 1.5e-7 < worst < 1.6e-7
    assert abs(scan - worst) <= 1e-12
    assert center.center_polytope.violation(far) <= DEFAULT_TOL


@pytest.mark.parametrize("name, eps, solves", [("15-random-d5m4", 0.05, 14),
                                               ("08-three-point-functional", 0.2, 14)])
def test_p1_modulus_distance_solves(name, eps, solves, solve_counts):
    # the scan of every vertex solved 32 and 82 distance LPs here, and the
    # bound-ordered search over the whole near-center set 14 and 34; 08's
    # free coordinate is an interval factor, which takes no LP
    inst = next(i for i in sc.load_corpus("center") if i.name == name)
    problem = inst.problem()
    center = sc.center_set(problem)
    solve_counts.clear()
    p1_modulus(problem, eps, delta_max=eps, center=center)
    assert solve_counts["distance"] == solves


def test_p1_modulus_splits_the_base_set_once(split_counts):
    # the probes' block factors are enumerated whole, not split again.  15's
    # kernel ball is one factor, so the base set is its own target: its split
    # is the kernel ball's, which center_set holds, so the search runs
    # factors on nothing, every distance reads that held split, and every
    # probe's enumeration reads the chart the kernel ball holds, which
    # center_set formed
    inst = next(i for i in sc.load_corpus("center") if i.name == "15-random-d5m4")
    problem = inst.problem()
    center = sc.center_set(problem)
    split_counts.clear()
    report = p1_modulus(problem, 0.05, delta_max=0.05, center=center)
    assert len(report.probes) > 2
    assert split_counts["factors"] == split_counts["_chart"] == 0
    assert problem.feasible._held_chart is not None


@pytest.mark.parametrize("inst", sc.load_corpus("center"), ids=lambda inst: inst.name)
def test_p1_modulus_splits_each_polytope_at_most_once(inst, split_counts):
    # the base set and each of its factors are split once, and the chart of
    # each factor of V is formed once for the radius and all the probes,
    # since every near set and the base set are band cuts of V, which form
    # none of their own.  V is built on a fresh subspace, so nothing is held
    problem = sc.ball_problem(inst.family, sc.Subspace(dim=inst.subspace.dim,
                                                       functionals=inst.subspace.functionals))
    split_counts.clear()
    center = sc.center_set(problem)
    report = p1_modulus(problem, 0.1, delta_max=0.1, center=center)
    assert report.probes
    for name in ("factors", "_chart"):
        per_object = [n for key, n in split_counts.items()
                      if isinstance(key, tuple) and key[0] == name]
        assert set(per_object) <= {1}
    subs = [sub for _, sub in problem.feasible.split()]
    assert split_counts["_chart"] == len(subs)
    assert all(split_counts["_chart", sub] == 1 for sub in subs)
    wider = sum(1 for sub in subs if sub.line() is None)
    # V's factors hold their charts, so a second search on the same solved
    # center forms none, and splits nothing: what it counts is the
    # enumeration of the probes' wider factors
    split_counts.clear()
    assert p1_modulus(problem, 0.05, delta_max=0.05, center=center).probes
    assert set(split_counts) <= {"_double_description", "merge_rows"}
    assert bool(split_counts) == bool(wider)


@pytest.mark.parametrize("inst", [i for i in sc.load_corpus("center") if i.subspace.functionals
                                  and i.name not in {"08-three-point-functional",
                                                     "14-random-d4m3", "15-random-d5m4"}],
                         ids=lambda inst: inst.name)
def test_a_repeated_functional_searches_the_same_bytes(inst):
    # every factor of these kernel balls is a line; a subspace given its
    # first functional twice has the same lines, with the same charts, so
    # its radius, center list and modulus search have the same bytes
    repeated = sc.Subspace(dim=inst.subspace.dim,
                           functionals=inst.subspace.functionals + inst.subspace.functionals[:1])
    reports = []
    for y in (inst.subspace, repeated):
        problem = sc.ball_problem(inst.family, y)
        assert all(sub.line() is not None for _, sub in problem.feasible.split())
        center = sc.center_set(problem)
        modulus = p1_modulus(problem, 0.1, delta_max=0.1, center=center)
        reports.append([np.float64(center.radius).tobytes(), center.representative.tobytes(),
                        center.center_polytope.vertices().tobytes(), dump_report(modulus)])
    assert reports[0] == reports[1]


def test_p1_modulus_solves_no_radius_again(solve_counts):
    # with the center given, every solve is a distance LP or part of
    # enumerating a probe's near-center polytope.  08's support block has
    # dimension 2, so its distances take LPs
    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = inst.problem()
    center = sc.center_set(problem)
    solve_counts.clear()
    report = p1_modulus(problem, eps=0.1, delta_max=0.3, center=center)
    assert len(report.probes) > 2
    assert solve_counts["distance"] > 0
    assert solve_counts["other"] == 0


def test_p1_modulus_reads_the_held_center_polytope(worked, near_center_builds):
    # with zero base slack the base is center.center_polytope and each probe
    # is a band, so no near-center set is built.  A positive base slack
    # builds its base once
    inst = next(i for i in sc.load_corpus("center") if i.name == "14-random-d4m3")
    problem = inst.problem()
    center = sc.center_set(problem)
    near_center_builds.clear()
    report = p1_modulus(problem, 0.1, delta_max=0.1, center=center)
    assert len(report.probes) > 2
    assert near_center_builds == []

    _, _, problem = worked
    center = sc.center_set(problem)
    near_center_builds.clear()
    report = p1_modulus(problem, eps=0.05, delta_max=0.3, center=center, base_slack=0.1)
    assert near_center_builds == [0.1]


def test_p1_modulus_base_slack_against_highs(worked):
    # each probe's worst distance runs from cent(base + delta) to cent(base)
    _, _, problem = worked
    base_slack = 0.1
    center = sc.center_set(problem)
    report = p1_modulus(problem, eps=0.05, delta_max=0.3, center=center, base_slack=base_slack)
    assert len(report.probes) > 2 and 0.0 < report.delta_star < 0.3
    base = sc.near_center_set(problem, base_slack, center.radius)
    for p in report.probes:
        verts = sc.near_center_set(problem, base_slack + p.delta, center.radius).vertices()
        assert p.worst == pytest.approx(max(highs_distance(v, base) for v in verts), abs=1e-7)



def test_hausdorff_lipschitz_empirical(rng):
    # moving the family by d_H moves the restricted radius by at most d_H
    from supcenter.sampling import perturbed_family

    for _ in range(20):
        dim = int(rng.integers(2, 5))
        family, y, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)))
        moved = perturbed_family(rng, family, float(rng.uniform(0.01, 0.5)))
        d_h = sc.hausdorff(family, moved)
        r1 = sc.restricted_radius(problem)
        r2 = sc.restricted_radius(sc.CenterProblem(family=moved, feasible=problem.feasible))
        assert abs(r1 - r2) <= d_h + 1e-9
