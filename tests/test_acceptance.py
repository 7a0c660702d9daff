"""Acceptance gate.

One test per acceptance criterion, each at its stated tolerance, each ending in
a single printed PASS/FAIL line (pytest -v adds its own line per criterion as
well).  Everything is seeded, so the whole gate is reproducible; the budget
for the full suite is five minutes on a desktop.
"""

import itertools
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import supcenter as sc
import supcenter.lp as lp
from supcenter import construct, garkavi
from supcenter.errors import ModelBuildError
from supcenter.instances import load_corpus
from supcenter.sampling import (
    near_center_point,
    perturbed_family,
    random_ball_problem,
    random_family,
    vertex_mixture,
)
from supcenter.space import _hausdorff_points
from supcenter.stability import p1_modulus

from oracles import grid_radius, kernel_basis

SEED = 20260817


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {num} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def corpus_center():
    return load_corpus(kind="center")


def test_criterion_1_radius_matches_grid_oracle(worked):
    rng = np.random.default_rng(SEED)
    with criterion(1, "LP radius vs grid oracle, worked instance exact"):
        draws = []
        while len(draws) < 45:  # planar kernels keep the mesh small
            dim = int(rng.integers(3, 5))
            count = 1 if dim == 3 else 2
            family, y, problem = random_ball_problem(
                rng, dim, int(rng.integers(1, 4)), count=count)
            if kernel_basis(y.rows(), dim).shape[1] != 2:
                continue
            draws.append((family, y, problem))
        for _ in range(5):  # a few full 3-dim kernel meshes
            draws.append(random_ball_problem(rng, 4, int(rng.integers(1, 4)), count=1))
        assert len(draws) == 50
        for family, y, problem in draws:
            lp_value = sc.restricted_radius(problem)
            grid_value = grid_radius(family.values, y.rows())
            assert abs(lp_value - grid_value) <= 0.02, (lp_value, grid_value)
            assert grid_value >= lp_value - 1e-7  # the mesh is one-sided

        family, _, problem = worked
        report = sc.center_set(problem)
        assert abs(report.radius - 0.5) <= 1e-6
        verts = report.center_polytope.vertices()
        expected = np.array([[0.5, 0.5, -0.5], [0.5, 0.5, 0.5]])
        assert _hausdorff_points(verts, expected) <= 1e-6


def test_criterion_2_scaling_and_threshold_identities():
    rng = np.random.default_rng(SEED + 2)
    with criterion(2, "ball scaling identities and the threshold equality"):
        for trial in range(100):
            dim = 3 if trial % 2 == 0 else 4
            count = 1 if dim == 3 else 2
            family, y, _ = random_ball_problem(rng, dim, int(rng.integers(1, 4)), count=count)
            lam = float(rng.uniform(0.4, 3.0))
            delta = float(rng.uniform(0.05, 0.5))
            scaling = sc.check_scaling_identity(y, family, lam, delta=delta)
            assert scaling.tol == 1e-6
            assert scaling.passed, (trial, scaling)
            threshold = sc.check_threshold_equality(y, family)
            assert threshold.tol == 1e-6
            assert threshold.lam == pytest.approx(threshold.tau + 1.0)
            assert threshold.equality_checked
            assert threshold.passed, (trial, threshold)


def test_criterion_3_perturbation_bound():
    rng = np.random.default_rng(SEED + 3)
    eps_cycle = itertools.cycle((0.2, 0.1, 0.05))
    with criterion(3, "near-center perturbation within its slack bound"):
        done = 0
        while done < 100:
            dim = int(rng.integers(3, 5))
            count = 1 if dim == 3 else int(rng.integers(1, 3))
            family, y, problem = random_ball_problem(
                rng, dim, int(rng.integers(2, 4)), count=count)
            radius = sc.restricted_radius(problem)
            if radius < 0.05:
                continue
            eps = next(eps_cycle)
            gamma = float(rng.uniform(0.05, 0.5))
            delta = 0.5 * sc.perturbation_slack_bound(radius, gamma, eps)
            near = sc.near_center_set(problem, gamma + delta, radius)
            base = sc.near_center_set(problem, gamma, radius)
            near_verts = near.vertices()
            for v in near_verts:
                dist, _ = lp.distance_to_polytope(v, base)
                assert dist <= eps + 1e-6, (done, dist, eps)

            v = vertex_mixture(rng, near_verts)
            v_prime = near_center_point(rng, problem, gamma / 2.0, radius)
            blended = sc.perturb_toward_center(
                v, v_prime, family, problem.feasible, gamma, delta, radius, eps=eps)
            assert sc.farthest_radius(blended, family) <= radius + gamma + 1e-9
            assert float(np.max(np.abs(v - blended))) <= eps
            done += 1


def test_criterion_4_hausdorff_lipschitz():
    rng = np.random.default_rng(SEED + 4)
    with criterion(4, "radius maps are 1-Lipschitz in the Hausdorff metric"):
        for trial in range(200):
            dim = int(rng.integers(2, 5))
            family, y, problem = random_ball_problem(rng, dim, int(rng.integers(1, 4)))
            if trial % 2 == 0:
                other = perturbed_family(rng, family, float(rng.uniform(0.01, 0.6)))
            else:
                other = random_family(rng, dim, int(rng.integers(1, 4)))
            d_h = sc.hausdorff(family, other)

            v = rng.uniform(-1.0, 1.0, dim)
            pointwise = abs(sc.farthest_radius(v, family) - sc.farthest_radius(v, other))
            assert pointwise <= d_h + 1e-9, (trial, pointwise, d_h)

            r1 = sc.restricted_radius(problem)
            r2 = sc.restricted_radius(sc.CenterProblem(family=other, feasible=problem.feasible))
            assert abs(r1 - r2) <= d_h + 1e-9, (trial, r1, r2, d_h)


def test_criterion_5_constructive_center_corpus(corpus_center):
    with criterion(5, "constructive center certified on the full corpus"):
        regimes = set()
        for inst in corpus_center:
            reduction = construct.finite_reduction(inst.family, inst.subspace)
            h = construct.constructive_center(inst.family, inst.subspace, reduction=reduction)
            radius = sc.restricted_radius(sc.ball_problem(inst.family, inst.subspace))

            assert sc.sup_norm(h) <= 1.0 + 1e-9, inst.name
            residuals = inst.subspace.residuals(h)
            assert residuals.size == 0 or float(np.max(np.abs(residuals))) <= 1e-9, inst.name
            assert sc.farthest_radius(h, inst.family) <= radius + 1e-8, inst.name

            beta = radius - reduction.alpha
            if beta <= 1e-9:
                regimes.add("matched")
            elif reduction.alpha > 1e-8:
                regimes.add("gap-positive-alpha")
            else:
                regimes.add("gap-zero-alpha")

            if "alpha" in inst.expected:
                assert reduction.alpha == pytest.approx(inst.expected["alpha"], abs=1e-7), inst.name
            if "constructive_center" in inst.expected:
                assert np.allclose(h, inst.expected["constructive_center"], atol=1e-8), inst.name

            if inst.constraint == "scaled-ball":  # scaling carries the construction over
                shrunk = sc.FunctionFamily(inst.family.values / inst.scale)
                h_scaled = inst.scale * construct.constructive_center(
                    shrunk, inst.subspace,
                    reduction=construct.finite_reduction(shrunk, inst.subspace))
                scaled_radius = sc.restricted_radius(inst.problem())
                assert sc.sup_norm(h_scaled) <= inst.scale * (1.0 + 1e-9), inst.name
                assert sc.farthest_radius(h_scaled, inst.family) <= scaled_radius + 1e-8, inst.name

        assert regimes == {"matched", "gap-positive-alpha", "gap-zero-alpha"}


def test_criterion_6_repair_corpus(corpus_center):
    rng = np.random.default_rng(SEED + 6)
    with criterion(6, "near-center repair on the corpus at three budgets"):
        for inst in corpus_center:
            family, y = inst.family, inst.subspace
            problem = sc.ball_problem(family, y)
            reduction = construct.finite_reduction(family, y)
            center = sc.center_set(problem)
            for eps in (0.2, 0.1, 0.05):
                choice = construct.admissible_slack(family, y, eps, reduction=reduction)
                assert 0.0 < choice.value <= eps, (inst.name, eps, choice)
                verts = sc.near_center_set(problem, choice.value, center.radius).vertices()
                for _ in range(20):
                    g = vertex_mixture(rng, verts)
                    h2 = construct.repair_near_center(
                        construct.RepairInput(g=g, eps=eps, delta=choice.value),
                        family, y, reduction=reduction)
                    assert float(np.max(np.abs(g - h2))) <= eps + 1e-9, (inst.name, eps)
                    dist, _ = lp.distance_to_polytope(h2, center.center_polytope)
                    assert dist <= 1e-7, (inst.name, eps, dist)


def test_criterion_7_stability_modulus_positive(corpus_center):
    with criterion(7, "stability modulus positive on ball, subspace and simplex modes"):
        for inst in corpus_center:
            variants = [("ball", sc.ball_problem(inst.family, inst.subspace)),
                        ("subspace", sc.subspace_problem(inst.family, inst.subspace))]
            for label, problem in variants:
                if inst.interpretation == "simplex-vertices":
                    center = construct.simplex_mode(inst.family.dim, problem)
                else:
                    center = sc.center_set(problem)
                for eps in (0.2, 0.1, 0.05):
                    report = p1_modulus(problem, eps, delta_max=eps, center=center,
                                        resolution=1e-2)
                    assert not report.degenerate, (inst.name, label, eps)
                    assert report.delta_star > 0.0, (inst.name, label, eps)


def test_criterion_8_renormed_ball_suite():
    rng = np.random.default_rng(SEED + 8)
    with criterion(8, "renormed-ball model: certificates, gauge, projection, half-ball"):
        sample_split = {3: 4, 4: 4, 5: 2}  # times two eps values = 20 pairs
        total_pairs = 0
        for n, samples in sample_split.items():
            model = garkavi.build_model(n, seed=0)
            for name, margin in model.certificates.items():
                if name in ("disjoint", "x0-gauge-gap"):
                    continue
                assert margin > 0.0, (n, name, margin)
            assert model.certificates["x0-gauge-gap"] <= 1e-7

            for _ in range(10):
                x = rng.uniform(-2.0, 2.0, n)
                t = float(rng.uniform(0.1, 3.0))
                gx = garkavi.gauge_norm(model, x)
                assert abs(garkavi.gauge_norm(model, t * x) - t * gx) <= 1e-7
                assert abs(garkavi.gauge_norm(model, -x) - gx) <= 1e-7
                yv = rng.uniform(-2.0, 2.0, n)
                assert garkavi.gauge_norm(model, x + yv) <= (
                    gx + garkavi.gauge_norm(model, yv) + 1e-7)
                assert abs(garkavi._gauge_facets(model, x) - gx) <= 1e-7

            proj = garkavi.metric_projection(model, model.x0, 0.0)
            gap = _hausdorff_points(proj.vertices(), model.small_ball.vertices())
            assert gap <= 1e-6, (n, gap)

            report = garkavi.half_ball_check(model, samples, seed=n)
            assert report.passed, (n, report.samples)
            total_pairs += len(report.samples)
        assert total_pairs == 20

        with pytest.raises(ModelBuildError) as exc:
            garkavi.build_model(3, seed=0, theta=0.0)
        assert exc.value.certificate == "disjoint"


def test_criterion_9_byte_identical_corpus_json():
    with criterion(9, "full-corpus JSON byte-identical across runs"):
        # the CLI runs on the same supcenter as this test, installed or not
        src = str(Path(sc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(argv):
            proc = subprocess.run([sys.executable, "-m", "supcenter.cli", *argv],
                                  capture_output=True, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        first = run(["corpus", "--json"])
        second = run(["corpus", "--json"])
        assert first and first == second
        payload = json.loads(first.decode("utf-8"))
        assert payload["count"] == 20

        lemmas_a = run(["check-lemmas", "--trials", "3", "--seed", "5", "--json"])
        lemmas_b = run(["check-lemmas", "--trials", "3", "--seed", "5", "--json"])
        assert lemmas_a and lemmas_a == lemmas_b
