"""Deterministic JSON output for reports.

Byte-identical output across repeated runs is part of the contract.
``dump_report`` writes a report in one walk, and its text is byte for byte
what ``json.dumps(..., sort_keys=True, indent=2)`` writes for the report
read as plain JSON values, followed by a newline:

- Dictionary keys are written as ``str(k)`` and sorted; a dataclass is the
  dictionary of its fields, plus ``passed`` when the class has a ``passed``
  property (its value is ``bool(obj.passed)``).  Keys that collide under
  ``str`` keep the value inserted last.
- Each item of a non-empty list or dictionary stands on its own line, indented
  two spaces per level of nesting; items are separated by ``,`` at the end of
  the line, and a key is followed by ``": "``.  The closing bracket stands on
  its own line at the indent of the opening one.  An empty list is ``[]``, an
  empty dictionary ``{}``.
- Tuples are written as lists, and sets and frozensets as sorted lists.
- Floats are written by ``float.__repr__`` (the shortest string that reads
  back as the same double), ints by ``int.__repr__``; ``True``, ``False`` and
  ``None`` are ``true``, ``false`` and ``null``.
- Strings are double-quoted with every non-ASCII character and every control
  character escaped, exactly as ``json.encoder.encode_basestring_ascii`` does.
- A numpy scalar is read through ``.item()`` and an array through
  ``.tolist()`` (nested lists, one level per axis; a 0-d array is its
  scalar), so a float32 value is written as the double it widens to.

A NaN or an infinity anywhere in a report raises ``ValueError``: a non-finite
value inside a report is always a bug upstream.  A value of any other type
raises ``TypeError``, a numpy long double wider than a double among them
(its ``.item()`` is a long double again).
"""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

_INDENT = "  "
# writer of one element of a numeric array row, by dtype kind; its .tolist()
# gives python floats, ints or bools
_ELEMENT = {"f": float.__repr__, "i": int.__repr__, "u": int.__repr__,
            "b": {False: "false", True: "true"}.__getitem__}


def dump_report(obj) -> str:
    """Canonical JSON text of a report, with a trailing newline; the byte
    contract is in the module docstring."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _refuse(value):
    raise ValueError(f"non-finite value {value!r} cannot enter a report")


def _write(obj, out: list, nl: str) -> None:
    """Append the text of obj to out; nl is a newline and the indent of the
    line obj starts on."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            _refuse(obj)
        out.append(float.__repr__(obj))
    elif isinstance(obj, (np.floating, np.integer, np.bool_)) and obj.itemsize <= 8:
        _write(obj.item(), out, nl)
    elif isinstance(obj, np.ndarray):
        _write_array(obj, out, nl)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        # surface computed pass/fail properties alongside the stored fields
        if isinstance(getattr(type(obj), "passed", None), property):
            items["passed"] = bool(obj.passed)
        _write_dict(items, out, nl)
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if len(items) < len(obj):
            # a value that loses a key collision is still checked
            for value in obj.values():
                _write(value, [], nl)
        _write_dict(items, out, nl)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, nl)
    elif isinstance(obj, (set, frozenset)):
        _write_list(sorted(obj), out, nl)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _write_dict(items: dict, out: list, nl: str) -> None:
    if not items:
        out.append("{}")
        return
    inner = nl + _INDENT
    sep = "{" + inner
    for key in sorted(items):
        out.append(sep + _quote(key) + ": ")
        _write(items[key], out, inner)
        sep = "," + inner
    out.append(nl + "}")


def _write_list(seq, out: list, nl: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = nl + _INDENT
    sep = "[" + inner
    for item in seq:
        out.append(sep)
        _write(item, out, inner)
        sep = "," + inner
    out.append(nl + "]")


def _write_array(arr: np.ndarray, out: list, nl: str) -> None:
    element = _ELEMENT.get(arr.dtype.kind) if arr.ndim else None
    if element is None:
        # 0-d arrays and other dtypes (object, str, complex) go element by
        # element
        _write(arr.tolist(), out, nl)
        return
    if arr.dtype.kind == "f":
        finite = np.isfinite(arr)
        if not finite.all():
            _refuse(arr[~finite][0].item())
    out.append(_rows(arr.tolist(), arr.ndim, element, nl))


def _rows(rows: list, ndim: int, element, nl: str) -> str:
    """Text of a nested list of ndim levels whose leaves element writes."""
    if not rows:
        return "[]"
    inner = nl + _INDENT
    if ndim == 1:
        items = map(element, rows)
    else:
        items = [_rows(row, ndim - 1, element, inner) for row in rows]
    return "[" + inner + ("," + inner).join(items) + nl + "]"
