import dataclasses
import json
import math

import numpy as np
import pytest

from supcenter.reportio import dump_report, jsonable


@dataclasses.dataclass(frozen=True)
class Inner:
    ok: bool
    gaps: tuple


@dataclasses.dataclass(frozen=True)
class Outer:
    name: str
    value: float
    inner: Inner

    @property
    def passed(self) -> bool:
        return self.inner.ok and self.value < 1.0


def sample():
    return Outer(name="s", value=0.5, inner=Inner(ok=True, gaps=(0.1, 0.2)))


def test_dataclass_round_trip():
    data = jsonable(sample())
    assert data == {
        "name": "s",
        "value": 0.5,
        "inner": {"ok": True, "gaps": [0.1, 0.2]},
        "passed": True,
    }


def test_numpy_scalars_and_arrays():
    assert jsonable(np.float64(0.25)) == 0.25
    assert jsonable(np.int32(7)) == 7
    assert jsonable(np.bool_(True)) is True
    assert jsonable(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]


def test_sets_sorted():
    assert jsonable({3, 1, 2}) == [1, 2, 3]


def test_non_finite_refused():
    with pytest.raises(ValueError):
        jsonable(float("nan"))
    with pytest.raises(ValueError):
        jsonable(np.array([1.0, math.inf]))


def test_unknown_type_refused():
    with pytest.raises(TypeError):
        jsonable(object())


def test_dump_is_canonical():
    text = dump_report({"b": 1, "a": [2.5, None]})
    assert text == '{\n  "a": [\n    2.5,\n    null\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


def test_dump_deterministic_for_reports():
    a = dump_report(sample())
    b = dump_report(sample())
    assert a == b
    json.loads(a)  # valid JSON


def test_float_repr_shortest_roundtrip():
    value = 0.1 + 0.2
    text = dump_report({"x": value})
    assert json.loads(text)["x"] == value
