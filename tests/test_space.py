import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import supcenter.space as sp
from supcenter.errors import DimensionMismatchError, EmptyFamilyError

from oracles import global_center


def test_as_vector_checks_dimension():
    v = sp.as_vector([1, 2, 3])
    assert v.dtype == float
    with pytest.raises(DimensionMismatchError):
        sp.as_vector([1, 2], dim=3)


def test_family_requires_members():
    with pytest.raises(EmptyFamilyError):
        sp.FunctionFamily(np.zeros((0, 3)))


def test_family_is_readonly():
    fam = sp.FunctionFamily([[1.0, 2.0], [3.0, 4.0]])
    assert fam.members == 2 and fam.dim == 2
    with pytest.raises(ValueError):
        fam.values[0, 0] = 9.0


def test_sup_norm_and_radius():
    fam = sp.FunctionFamily([[1.0, 0.0], [0.0, -3.0]])
    assert sp.sup_norm([-2.0, 1.5]) == 2.0
    assert sp.farthest_radius([0.0, 0.0], fam) == 3.0


def test_global_center_midpoint_formula():
    fam = sp.FunctionFamily([[1.0, 0.0], [0.0, 2.0]])
    radius, center = global_center(fam.values)
    assert radius == pytest.approx(1.0)
    assert center == pytest.approx([0.5, 1.0])


coords = st.floats(min_value=-5, max_value=5, allow_nan=False)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=5),
       st.lists(st.tuples(coords, coords), min_size=1, max_size=5))
def test_hausdorff_symmetry_and_identity(rows1, rows2):
    f1 = sp.FunctionFamily(np.array(rows1))
    f2 = sp.FunctionFamily(np.array(rows2))
    d12 = sp.hausdorff(f1, f2)
    assert d12 == sp.hausdorff(f2, f1)
    assert d12 >= 0.0
    assert sp.hausdorff(f1, f1) == 0.0


def test_hausdorff_known_value():
    f1 = sp.FunctionFamily([[0.0, 0.0]])
    f2 = sp.FunctionFamily([[1.0, 0.5], [0.2, 0.1]])
    assert sp.hausdorff(f1, f2) == pytest.approx(1.0)


def test_global_center_attains_radius():
    rng = np.random.default_rng(0)
    for _ in range(20):
        fam = sp.FunctionFamily(rng.uniform(-2, 2, (int(rng.integers(1, 6)), 3)))
        radius, center = global_center(fam.values)
        assert sp.farthest_radius(center, fam) == pytest.approx(radius, abs=1e-12)


def test_band_bounds_the_farthest_radius():
    # r(x, F) <= w exactly when x lies in band(F, w)
    rng = np.random.default_rng(3)
    for _ in range(50):
        fam = sp.FunctionFamily(rng.uniform(-2, 2, (int(rng.integers(1, 5)), 3)))
        width = float(rng.uniform(0.0, 3.0))
        lower, upper = sp.band(fam, width)
        x = rng.uniform(-3, 3, 3)
        inside = bool(np.all(lower <= x) and np.all(x <= upper))
        assert inside == (sp.farthest_radius(x, fam) <= width)
        assert np.allclose(upper - lower, 2 * width - np.ptp(fam.values, axis=0), atol=1e-12)
