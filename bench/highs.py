"""Reference computations with scipy's HiGHS, sharing no code with supcenter.

Constraint sets are rebuilt here from instance data (family rows, functional
supports and weights, the constraint mode), so a check never reads a polytope
the program built.  HiGHS runs its dual simplex, which returns basic
solutions: extreme points, not interior points.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def _lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds if bounds is not None else (None, None), method="highs-ds")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return res


class ConstraintSet:
    """V = {v : |v|_inf <= box, mu_j(v) = 0} with box None for the whole kernel."""

    def __init__(self, dim: int, functionals, box: float | None):
        self.dim = dim
        self.box = box
        rows = np.zeros((len(functionals), dim))
        for row, mu in zip(rows, functionals):
            row[list(mu.support)] = mu.weights
        self.rows = rows

    @classmethod
    def of(cls, inst, mode: str | None = None) -> "ConstraintSet":
        """The instance's own constraint mode, or the mode given."""
        mode = mode or inst.constraint
        box = {"ball": 1.0, "scaled-ball": inst.scale, "subspace": None}[mode]
        return cls(inst.family.dim, inst.subspace.functionals, box)

    def bounds(self, extra: int = 0):
        lim = (-self.box, self.box) if self.box is not None else (None, None)
        return [lim] * self.dim + [(None, None)] * extra

    def eq(self, extra: int = 0):
        if self.rows.shape[0] == 0:
            return None, None
        a = np.hstack([self.rows, np.zeros((self.rows.shape[0], extra))])
        return a, np.zeros(self.rows.shape[0])

    def slab(self, values: np.ndarray, width: float):
        """Rows of {v : |v - f|_inf <= width for every member f}."""
        n = self.dim
        a = np.tile(np.vstack([np.eye(n), -np.eye(n)]), (values.shape[0], 1))
        b = np.concatenate([np.concatenate([f + width, width - f]) for f in values])
        return a, b

    def violation(self, values: np.ndarray, width: float, v: np.ndarray) -> float:
        a, b = self.slab(values, width)
        worst = float(np.max(a @ v - b))
        if self.box is not None:
            worst = max(worst, float(np.max(np.abs(v))) - self.box)
        if self.rows.shape[0]:
            worst = max(worst, float(np.max(np.abs(self.rows @ v))))
        return worst


def radius(values: np.ndarray, cset: ConstraintSet) -> float:
    """min over v in V of max_f |v - f|_inf, over variables (v, t)."""
    n = cset.dim
    blocks = []
    rhs = []
    for f in values:
        blocks += [np.hstack([np.eye(n), -np.ones((n, 1))]),
                   np.hstack([-np.eye(n), -np.ones((n, 1))])]
        rhs += [f, -f]
    a_eq, b_eq = cset.eq(extra=1)
    c = np.zeros(n + 1)
    c[n] = 1.0
    return float(_lp(c, np.vstack(blocks), np.concatenate(rhs), a_eq, b_eq,
                     cset.bounds(extra=1)).fun)


def maximize(values: np.ndarray, cset: ConstraintSet, width: float, direction):
    """max direction.v over V intersected with the slab of the given width,
    with a maximizing vertex."""
    a_ub, b_ub = cset.slab(values, width)
    a_eq, b_eq = cset.eq()
    res = _lp(-np.asarray(direction, dtype=float), a_ub, b_ub, a_eq, b_eq, cset.bounds())
    return -float(res.fun), res.x


def gauge(points: np.ndarray, z) -> float:
    """Minkowski gauge of conv(points) at z: min sum(w) with points.T w = z, w >= 0.

    Valid when the hull is symmetric about the origin with the origin inside.
    """
    k = points.shape[0]
    return float(_lp(np.ones(k), a_eq=points.T, b_eq=np.asarray(z, dtype=float),
                     bounds=[(0.0, None)] * k).fun)
