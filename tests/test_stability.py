import numpy as np
import pytest

import supcenter as sc
from supcenter import lp
from supcenter.sampling import random_ball_problem
from supcenter.tolerances import DEFAULT_TOL
from supcenter.stability import (
    _farthest_vertex,
    p1_modulus,
    rcp_check,
    sequence_criterion_check,
    worst_near_center_distance,
)

from oracles import highs_distance


def test_worst_distance_zero_at_zero_slack(worked):
    _, _, problem = worked
    worst, _ = worst_near_center_distance(problem, 0.0)
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
    worst, _ = worst_near_center_distance(problem, 0.1)
    assert worst == pytest.approx(0.1, abs=1e-8)


class TestModulus:
    def test_positive_on_worked_instance(self, worked):
        _, _, problem = worked
        for eps in (0.2, 0.1, 0.05):
            report = p1_modulus(problem, eps, delta_max=eps)
            assert not report.degenerate
            assert report.delta_star > 0.0
            # certify: the returned slack really keeps the set within eps
            worst, _ = worst_near_center_distance(problem, report.delta_star)
            assert worst <= eps + 1e-9

    def test_fast_path_when_everything_fits(self, worked):
        _, _, problem = worked
        report = p1_modulus(problem, eps=10.0, delta_max=0.05)
        assert report.delta_star == 0.05
        assert len(report.probes) == 1

    def test_probes_recorded(self, worked):
        _, _, problem = worked
        report = p1_modulus(problem, eps=0.05, delta_max=0.5)
        assert len(report.probes) >= 2
        assert all(p.delta > 0 for p in report.probes)

    def test_positive_on_random_draws(self, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 5))
            _, _, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)))
            report = p1_modulus(problem, eps=0.1, delta_max=0.1, resolution=1e-2)
            assert not report.degenerate
            assert report.delta_star > 0.0

    def test_validates_arguments(self, worked):
        _, _, problem = worked
        with pytest.raises(ValueError):
            p1_modulus(problem, eps=0.0, delta_max=0.1)
        with pytest.raises(ValueError):
            p1_modulus(problem, eps=0.1, delta_max=0.0)


@pytest.mark.parametrize("toward", [np.inf, -np.inf], ids=["ulp-up", "ulp-down"])
def test_p1_modulus_off_the_rounding_edge(monkeypatch, toward):
    # on the worked instance worst(0.05) equals 0.05 up to rounding, so one
    # ulp of noise in the distances must not send the first probe to bisection
    inst = next(i for i in sc.load_corpus("center") if i.name == "01-worked-instance")
    problem = inst.problem()
    center = sc.center_set(problem)
    real = lp.distance_to_polytope

    def noisy(x, poly, tol=DEFAULT_TOL):
        dist, point = real(x, poly, tol)
        return float(np.nextafter(dist, toward)), point

    monkeypatch.setattr(lp, "distance_to_polytope", noisy)
    report = p1_modulus(problem, eps=0.05, delta_max=0.05, center=center)
    assert report.delta_star == 0.05
    assert len(report.probes) == 1


def test_farthest_vertex_ties_go_to_the_first_vertex():
    # the second vertex is one ulp farther from the box than the first
    verts = np.array([[2.0, 0.0], [0.0, np.nextafter(2.0, 3.0)]])
    box = sc.Polytope.box(2, 1.0)
    worst, witness = _farthest_vertex(verts, box, DEFAULT_TOL)
    assert worst == lp.distance_to_polytope(verts[1], box)[0] > 1.0
    assert np.array_equal(witness, verts[0])


def test_p1_modulus_solves_no_radius_again(worked, solve_counts):
    # with the center given, every solve is a distance LP or part of
    # enumerating a probe's near-center polytope
    _, _, problem = worked
    center = sc.center_set(problem)
    solve_counts.clear()
    report = p1_modulus(problem, eps=0.1, delta_max=0.3, center=center)
    assert len(report.probes) > 2
    assert solve_counts["distance"] > 0
    assert solve_counts["other"] == 0


def test_p1_modulus_base_slack_against_highs(worked):
    # each probe's worst distance runs from cent(base + delta) to cent(base)
    _, _, problem = worked
    base_slack = 0.1
    report = p1_modulus(problem, eps=0.05, delta_max=0.3, base_slack=base_slack)
    assert len(report.probes) > 2 and 0.0 < report.delta_star < 0.3
    base = sc.near_center_set(problem, base_slack)
    for p in report.probes:
        verts = sc.near_center_set(problem, base_slack + p.delta).vertices()
        assert p.worst == pytest.approx(max(highs_distance(v, base) for v in verts), abs=1e-7)


class TestSequenceCriterion:
    def test_one_enumeration_per_step(self, worked, solve_counts):
        _, _, problem = worked
        sequence_criterion_check(problem, trials=3, seed=7)
        assert solve_counts["calls:enumerate"] == 3
        assert solve_counts["other"] == 1  # the center set, solved once

    def test_random_mode(self, worked):
        _, _, problem = worked
        report = sequence_criterion_check(problem, trials=6, seed=7)
        assert report.passed
        assert [s.n for s in report.steps] == [1, 2, 3, 4, 5, 6]
        radius = sc.restricted_radius(problem)
        for step in report.steps:
            assert step.radius_at_point <= radius + step.slack + 1e-9

    def test_witness_mode_saturates_bound(self, worked):
        _, _, problem = worked
        report = sequence_criterion_check(problem, trials=4, seed=7, mode="witness")
        assert report.passed
        for step in report.steps:
            assert step.distance == pytest.approx(step.bound, abs=1e-8)

    def test_bad_arguments(self, worked):
        _, _, problem = worked
        with pytest.raises(ValueError):
            sequence_criterion_check(problem, trials=0, seed=1)
        with pytest.raises(ValueError):
            sequence_criterion_check(problem, trials=1, seed=1, mode="nope")


def test_rcp_check_over_random_families(rng, worked):
    _, y, problem = worked
    families = [sc.FunctionFamily(rng.uniform(-1, 1, (int(rng.integers(1, 4)), 3)))
                for _ in range(5)]
    assert rcp_check(problem.feasible, families)


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
