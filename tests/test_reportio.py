import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from supcenter import cli
from supcenter.reportio import dump_report

from oracles import reference_dump_report


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
    data = json.loads(dump_report(sample()))
    assert data == {
        "name": "s",
        "value": 0.5,
        "inner": {"ok": True, "gaps": [0.1, 0.2]},
        "passed": True,
    }


def test_numpy_scalars_and_arrays():
    assert json.loads(dump_report(np.float64(0.25))) == 0.25
    assert json.loads(dump_report(np.int32(7))) == 7
    assert json.loads(dump_report(np.bool_(True))) is True
    assert json.loads(dump_report(np.array([[1.0, 2.0]]))) == [[1.0, 2.0]]


def test_sets_sorted():
    assert json.loads(dump_report({3, 1, 2})) == [1, 2, 3]


def test_non_finite_refused():
    with pytest.raises(ValueError):
        dump_report(float("nan"))
    with pytest.raises(ValueError):
        dump_report(np.array([1.0, math.inf]))


def test_unknown_type_refused():
    with pytest.raises(TypeError):
        dump_report(object())


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="a long double is a double on this platform")
@pytest.mark.parametrize("value", [np.longdouble(1.0), np.array(np.longdouble(2.0)),
                                   np.array([np.longdouble(3.0)]), {"x": np.longdouble(4.0)}],
                         ids=["scalar", "0-d", "1-d", "nested"])
def test_long_double_refused(value):
    # a long double wider than a double has no python scalar: its .item()
    # is a long double again
    with pytest.raises(TypeError):
        dump_report(value)


def test_zero_d_array_is_its_scalar():
    assert dump_report(np.array(1.5)) == "1.5\n"
    assert dump_report(np.array(1.5, dtype=np.float32)) == "1.5\n"
    assert dump_report(np.array(7)) == "7\n"
    assert dump_report(np.array(True)) == "true\n"
    assert dump_report({"x": [np.array(0.25)]}) == '{\n  "x": [\n    0.25\n  ]\n}\n'
    with pytest.raises(ValueError):
        dump_report(np.array(np.nan))
    with pytest.raises(ValueError):
        dump_report(np.array(-np.inf, dtype=np.float32))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", [
    lambda v: np.array([[0.5, 1.0], [v, 2.0]]),
    lambda v: np.array([0.5, v], dtype=np.float32),
    lambda v: np.float64(v),
    lambda v: {"report": Outer(name="s", value=0.5, inner=Inner(ok=True, gaps=(0.1, v)))},
], ids=["float64-array", "float32-array", "float64-scalar", "dataclass-field"])
def test_non_finite_refused_everywhere(place, bad):
    with pytest.raises(ValueError, match="non-finite"):
        dump_report(place(bad))


def test_key_collision_keeps_last_value_and_checks_both():
    assert dump_report({1: 0.25, "1": 0.5}) == '{\n  "1": 0.5\n}\n'
    for obj in ({1: math.nan, "1": 0.5}, {1: 0.5, "1": np.array([math.inf])}):
        with pytest.raises(ValueError):
            reference_dump_report(obj)
        with pytest.raises(ValueError):
            dump_report(obj)


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


# --- the writer against its former route, tests/oracles.reference_dump_report

@dataclasses.dataclass
class Pair:
    first: object
    second: object


@dataclasses.dataclass
class Check:
    margin: float
    detail: object

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 0.1 + 0.2,
                               1e16, 1e-5, 123456789.0])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
F32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
EDGE_STRINGS = st.sampled_from(['"quoted"', "back\\slash", "\n\t\r\x00\x1f\x7f", "é", " ",
                                "😀", "1", ""])
STRINGS = st.text(max_size=6) | EDGE_STRINGS
# 1 and "1" (and True, 1.0) are distinct keys that str() maps onto one
KEYS = st.integers(-2, 2) | st.booleans() | st.sampled_from([0.5, -0.0, 1.0, 1e16]) | STRINGS
NP_SCALARS = (FLOATS.map(np.float64) | F32.map(np.float32) | st.integers(-2**63, 2**63 - 1).map(np.int64)
              | st.integers(-2**31, 2**31 - 1).map(np.int32) | st.booleans().map(np.bool_))
SHAPES = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3) | st.sampled_from(
    [(0, 3), (3, 0), (2, 0, 2)])
ARRAYS = (arrays(np.float64, SHAPES, elements=FLOATS) | arrays(np.float32, SHAPES, elements=F32)
          | arrays(np.int64, SHAPES) | arrays(np.bool_, SHAPES))
SETS = (st.sets(st.integers(-5, 5), max_size=4) | st.frozensets(FLOATS, max_size=4)
        | st.sets(STRINGS, max_size=4))
LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | STRINGS | NP_SCALARS | ARRAYS
          | SETS)


def payloads(leaves):
    return st.recursive(leaves, lambda children: (
        st.lists(children, max_size=3) | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(KEYS, children, max_size=4) | st.builds(Pair, children, children)
        | st.builds(Check, FLOATS, children)), max_leaves=10)


def without_0d(obj):
    """obj with each 0-d array replaced by its numpy scalar, the form the
    former route could write."""
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return obj[()]
    if isinstance(obj, dict):
        return {k: without_0d(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(without_0d, obj))
    if isinstance(obj, (Pair, Check)):
        return dataclasses.replace(obj, **{f.name: without_0d(getattr(obj, f.name))
                                           for f in dataclasses.fields(obj)})
    return obj


@settings(max_examples=300)
@given(payloads(LEAVES))
def test_writer_matches_reference(obj):
    assert dump_report(obj) == reference_dump_report(without_0d(obj))


# non-finite values (ValueError) and unknown types (TypeError); a 0-d array
# is left out, since the former route refused every one of them with TypeError
BAD = {
    ValueError: st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 np.float32(math.inf), np.array([1.0, math.nan]),
                                 np.array([[0.5], [-math.inf]], dtype=np.float32)]),
    TypeError: st.sampled_from([object(), 1j, b"bytes", np.complex128(1.0), np.array([1j]),
                                np.datetime64("2020-01-01"), Pair]),
}


@settings(max_examples=200)
@given(st.sampled_from(sorted(BAD, key=str)).flatmap(
    lambda exc: st.tuples(st.just(exc), payloads(LEAVES | BAD[exc]), BAD[exc])))
def test_writer_refuses_what_reference_refuses(case):
    exc, tree, bad = case
    obj = {"bad": bad, "tree": without_0d(tree)}
    with pytest.raises(exc):
        reference_dump_report(obj)
    with pytest.raises(exc):
        dump_report(obj)


def test_cli_payloads_match_reference(monkeypatch, capsys):
    payloads_seen = []

    def recording(payload):
        payloads_seen.append(payload)
        return dump_report(payload)

    monkeypatch.setattr(cli, "dump_report", recording)
    runs = [["corpus"], ["trend"], ["renorm", "--n", "4", "--samples", "2"],
            ["check-lemmas", "--trials", "5"]]
    for argv in runs:
        assert cli.main(argv + ["--json"]) == cli.OK
    assert len(payloads_seen) == len(runs)
    out = capsys.readouterr().out
    assert out == "".join(reference_dump_report(p) for p in payloads_seen)
