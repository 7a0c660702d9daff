"""Seeded random instances and near-center draws for the empirical checks.

Everything takes an explicit numpy Generator so whole campaigns replay from a
single seed.  Supports are kept small (desk scale) and weights are bounded
away from zero so no draw is accidentally degenerate.
"""

from __future__ import annotations

import numpy as np

from .centers import CenterProblem, ball_problem, near_center_set
from .constraints import Functional, Subspace
from .space import FunctionFamily


def random_family(rng: np.random.Generator, dim: int, members: int) -> FunctionFamily:
    """members-many points of [-1, 1]^dim."""
    return FunctionFamily(rng.uniform(-1.0, 1.0, (members, dim)))


def random_functional(rng: np.random.Generator, dim: int) -> Functional:
    """Functional with 2..4 support points and TV norm one."""
    k = int(rng.integers(2, min(dim, 4) + 1))
    support = sorted(int(i) for i in rng.choice(dim, size=k, replace=False))
    weights = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
    return Functional(support=tuple(support), weights=tuple(weights), normalize=True)


def random_subspace(rng: np.random.Generator, dim: int, count: int = 1) -> Subspace:
    return Subspace(dim=dim, functionals=tuple(random_functional(rng, dim) for _ in range(count)))


def random_ball_problem(rng: np.random.Generator, dim: int, members: int,
                        count: int = 1) -> tuple[FunctionFamily, Subspace, CenterProblem]:
    family = random_family(rng, dim, members)
    y = random_subspace(rng, dim, count)
    return family, y, ball_problem(family, y)


def vertex_mixture(rng: np.random.Generator, vertices: np.ndarray) -> np.ndarray:
    """Random convex combination of the given vertices (Dirichlet weights)."""
    if vertices.shape[0] == 0:
        raise ValueError("cannot mix an empty vertex set")
    if vertices.shape[0] == 1:
        return vertices[0].copy()
    w = rng.dirichlet(np.ones(vertices.shape[0]))
    return w @ vertices


def near_center_point(rng: np.random.Generator, problem: CenterProblem, delta: float,
                      radius: float) -> np.ndarray:
    """Random point of cent_V(B, delta), as a mixture of its vertices;
    radius is the solved rad_V(B) (see near_center_set)."""
    verts = near_center_set(problem, delta, radius=radius).vertices()
    return vertex_mixture(rng, verts)


def perturbed_family(rng: np.random.Generator, family: FunctionFamily,
                     magnitude: float) -> FunctionFamily:
    """Family moved by at most magnitude in the pointwise sup metric."""
    shift = rng.uniform(-magnitude, magnitude, family.values.shape)
    return FunctionFamily(family.values + shift)
