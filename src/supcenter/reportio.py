"""Deterministic JSON output for reports.

Byte-identical output across repeated runs is part of the contract, so all
dictionaries are emitted with sorted keys and floats rely on the shortest
round-trip repr (stable for IEEE doubles).  Non-finite values are refused:
a NaN inside a report is always a bug upstream.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np


def jsonable(obj):
    """Recursively convert reports (dataclasses, numpy, containers) to plain
    JSON-ready python values."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} cannot enter a report")
        return obj
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [jsonable(x) for x in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        # surface computed pass/fail properties alongside the stored fields
        if hasattr(type(obj), "passed") and isinstance(getattr(type(obj), "passed"), property):
            out["passed"] = bool(obj.passed)
        return out
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(x) for x in seq]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dump_report(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
