"""Finite sup-norm spaces.

Vectors are real functions on a finite labeled point set, normed by the
largest absolute coordinate.  Approximation targets are finite families of
such vectors; the farthest-point radius r(x, B) = max_b ||x - b||_inf is the
quantity everything else in the package minimizes.  A bound r(x, B) <= w is
the coordinate band between the family's envelopes, band(B, w).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, EmptyFamilyError


def as_vector(v, dim: int | None = None) -> np.ndarray:
    """Coerce to a 1-D float array, checking the dimension when given."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {arr.size}")
    return arr


class FunctionFamily:
    """Nonempty finite family of vectors sharing one ambient space.

    Stored as a read-only (members x dim) array.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] == 0:
            raise DimensionMismatchError(f"expected (members, dim) data, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise EmptyFamilyError("a family must have at least one member")
        if not np.all(np.isfinite(arr)):
            raise ValueError("family values must be finite")
        arr.setflags(write=False)
        self.values = arr

    @property
    def members(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"FunctionFamily({self.members} members, dim {self.dim})"


def sup_norm(v) -> float:
    """Largest absolute coordinate."""
    return float(np.max(np.abs(as_vector(v))))


def farthest_radius(x, family: FunctionFamily) -> float:
    """r(x, B): sup-norm distance from x to the farthest member of B."""
    x = as_vector(x, family.dim)
    return float(np.max(np.abs(family.values - x)))


def band(family: FunctionFamily, width: float) -> tuple[np.ndarray, np.ndarray]:
    """The order interval (max_f f - width, min_f f + width) between the
    family's envelopes: r(x, B) <= width iff lower <= x <= upper."""
    return family.values.max(axis=0) - width, family.values.min(axis=0) + width


def _hausdorff_points(p: np.ndarray, q: np.ndarray) -> float:
    # max-min formula for finite sets under the sup norm
    if p.shape[0] == 0 and q.shape[0] == 0:
        return 0.0
    if p.shape[0] == 0 or q.shape[0] == 0:
        return float("inf")
    diff = np.abs(p[:, None, :] - q[None, :, :]).max(axis=2)
    return float(max(diff.min(axis=1).max(), diff.min(axis=0).max()))


def hausdorff(f1: FunctionFamily, f2: FunctionFamily) -> float:
    """Hausdorff distance between two finite families."""
    if f1.dim != f2.dim:
        raise DimensionMismatchError(f"families live in dimensions {f1.dim} and {f2.dim}")
    return _hausdorff_points(f1.values, f2.values)
