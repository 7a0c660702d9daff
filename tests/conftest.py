from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import supcenter as sc
from supcenter import centers, constraints, construct, lp, stability

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def solve_counts(monkeypatch):
    """Counter of lp.solve calls: all of them under "solves", and each under
    the innermost of distance_to_polytope ("distance") and a vertex
    enumeration ("enumerate", a call of enumerate_vertices) running at the
    time, or "other" outside both.  Calls of both kinds are counted under
    "calls:<name>"."""
    counts = Counter()
    scope: list[str] = []
    real_solve = lp.solve

    def solve(*args, **kwargs):
        counts["solves"] += 1
        counts[scope[-1] if scope else "other"] += 1
        return real_solve(*args, **kwargs)

    def scoped(name, fn):
        def run(*args, **kwargs):
            counts["calls:" + name] += 1
            scope.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()
        return run

    monkeypatch.setattr(lp, "solve", solve)
    monkeypatch.setattr(lp, "distance_to_polytope", scoped("distance", lp.distance_to_polytope))
    monkeypatch.setattr(constraints, "enumerate_vertices",
                        scoped("enumerate", constraints.enumerate_vertices))
    return counts


@pytest.fixture
def split_counts(monkeypatch):
    """Counter of the split and enumeration work: calls of
    constraints.factors, _chart, _double_description and merge_rows under
    their names.  Each call of the first two, which take a polytope, is also
    counted under (name, polytope): a key that keeps its polytope alive, so
    no later polytope takes over its id."""
    counts = Counter()

    def count(name, per_polytope):
        fn = getattr(constraints, name)

        def run(first, *args, **kwargs):
            counts[name] += 1
            if per_polytope:
                counts[name, first] += 1
            return fn(first, *args, **kwargs)
        monkeypatch.setattr(constraints, name, run)

    for name in ("factors", "_chart"):
        count(name, per_polytope=True)
    for name in ("_double_description", "merge_rows"):
        count(name, per_polytope=False)
    return counts


@pytest.fixture
def worked():
    """The hand-checked reference instance: R = 1/2, centers (1/2, 1/2, s)."""
    mu = sc.Functional(support=(0, 1), weights=(0.5, -0.5))
    y = sc.Subspace(dim=3, functionals=(mu,))
    family = sc.FunctionFamily([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return family, y, sc.ball_problem(family, y)


@pytest.fixture
def near_center_builds(monkeypatch):
    """The slack of each near_center_set call that centers, construct or
    stability makes, in call order."""
    slacks = []
    real = centers.near_center_set

    def counted(problem, delta, radius):
        slacks.append(delta)
        return real(problem, delta, radius)

    for module in (centers, construct, stability):
        monkeypatch.setattr(module, "near_center_set", counted)
    return slacks
