"""Fuzzed command lines: malformed instance files and option strings.

Every run must end with a documented exit code, never with an escaping
exception or a traceback.  Exit code 4 (INTERNAL) is documented too, but it
marks a failure no other code covers, so a fuzzed input that reaches it is a
bug.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from supcenter.cli import BAD_INPUT, CHECK_FAILED, NUMERICAL, OK, main

from test_cli import worked_payload

EXPECTED_CODES = {OK, CHECK_FAILED, BAD_INPUT, NUMERICAL}

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def malformed_documents(draw):
    """Text of an instance file: the worked instance with one field dropped
    or replaced (at the top level or inside the family or a functional), or
    an arbitrary JSON value, or text that is not JSON."""
    how = draw(st.sampled_from(["drop", "replace", "family", "functional", "value", "text"]))
    payload = worked_payload()
    payload.update(constraint="ball", scale=1.0, interpretation="sup-space", expected={})
    if how == "drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif how == "replace":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(json_values)
    elif how == "family":
        payload["family"] = draw(st.lists(st.lists(numbers, max_size=4), max_size=3))
    elif how == "functional":
        payload["functionals"] = [{"support": draw(st.lists(numbers, max_size=3)),
                                   "weights": draw(st.lists(numbers, max_size=3))}]
    elif how == "value":
        return json.dumps(draw(json_values))
    else:
        return draw(st.text(max_size=12))
    return json.dumps(payload)


def run_cli(argv):
    """Exit code and stderr of one CLI run; argparse's own exits count."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_run(argv):
    code, err = run_cli(argv)
    assert code in EXPECTED_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


def worked_with(**fields):
    payload = worked_payload()
    payload.update(fields)
    return json.dumps(payload)


@settings(max_examples=100)
@example(document=worked_with(functionals=None), command=["radius"])
@example(document=worked_with(functionals=[{"support": None, "weights": [1.0]}]),
         command=["radius"])
@example(document=worked_with(functionals=[{"support": [float("inf")], "weights": [1.0]}]),
         command=["radius"])
@example(document=worked_with(constraint="scaled-ball", scale=[2.0]), command=["radius"])
@example(document=json.dumps({"schema": 1, "kind": "renorm", "name": "r", "n": 3, "seed": None}),
         command=["radius"])
@given(document=malformed_documents(),
       command=st.sampled_from([["radius"], ["center"], ["near-center", "--delta", "0.1"],
                                ["construct", "--eps", "0.1"], ["p1-modulus", "--eps", "0.1"],
                                ["repair", "--point", "0.5,0.5,0", "--eps", "0.1"]]))
def test_malformed_instance_gets_a_documented_exit_code(document, command):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(document)
        check_run([command[0], path] + command[1:])
    finally:
        os.unlink(path)


# comma-joined tokens with no number above 3: no option asks for a large
# model, a high dimension or many trials
option_text = st.lists(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1", "2", "3", "-0.5", "0.05", "1e-300",
                     "1e400", "0x10", "abc", "", "+", "e", "."]),
    min_size=1, max_size=3).map(",".join)


@settings(max_examples=100)
@given(data=st.data())
def test_malformed_options_get_a_documented_exit_code(data):
    worked = os.path.join(os.path.dirname(__file__), os.pardir, "src", "supcenter", "corpus",
                          "01-worked-instance.json")
    command, flags = data.draw(st.sampled_from([
        (["near-center", worked], ["--delta"]),
        (["construct", worked], ["--eps"]),
        (["p1-modulus", worked], ["--eps", "--delta-max"]),
        (["repair", worked], ["--point", "--eps", "--delta"]),
        (["check-lemmas", "--trials", "1"], ["--eps", "--dims"]),
        (["renorm", "--samples", "0"], ["--n", "--gamma", "--theta"]),
        (["trend"], ["--dims"]),
    ]))
    argv = list(command)
    for flag in flags:
        argv += [f"{flag}={data.draw(option_text)}"]
    check_run(argv)
