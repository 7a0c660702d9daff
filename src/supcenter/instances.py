"""Instance files: a small JSON schema for problems and the bundled corpus.

Two kinds are supported.  "center" instances carry a finite family, the
defining functionals, and a constraint mode (unit kernel ball, scaled ball,
or the whole kernel subspace); "renorm" instances carry the parameters of the
renormed-ball model.  Files may freeze expected values for regression
checking; loaders never trust them, they only hand them to the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .centers import CenterProblem, ball_problem, subspace_problem
from .constraints import Functional, Subspace
from .errors import InstanceError
from .garkavi import DEFAULT_GAMMA
from .space import FunctionFamily
from .tolerances import DEFAULT_THETA

SCHEMA_VERSION = 1

CONSTRAINT_MODES = ("ball", "scaled-ball", "subspace")
INTERPRETATIONS = ("sup-space", "simplex-vertices")


@dataclass(frozen=True)
class CenterInstance:
    name: str
    family: FunctionFamily
    subspace: Subspace
    constraint: str = "ball"
    scale: float = 1.0
    interpretation: str = "sup-space"
    expected: dict = field(default_factory=dict)

    def problem(self) -> CenterProblem:
        if self.constraint == "subspace":
            return subspace_problem(self.family, self.subspace)
        lam = self.scale if self.constraint == "scaled-ball" else 1.0
        return ball_problem(self.family, self.subspace, lam)


@dataclass(frozen=True)
class RenormInstance:
    name: str
    n: int
    seed: int = 0
    gamma: float = DEFAULT_GAMMA
    theta: float = DEFAULT_THETA
    expected: dict = field(default_factory=dict)


def _need(data: dict, key: str, kind, where: str):
    if key not in data:
        raise InstanceError(f"{where}: missing required field '{key}'", field=key)
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind):
        raise InstanceError(
            f"{where}: field '{key}' should be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}", field=key)
    return value


def _number(data: dict, key: str, default, kind, where: str):
    """Optional numeric field, converted by kind (int or float)."""
    try:
        return kind(data.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{where}: field '{key}' should be a number ({exc})",
                            field=key) from exc


def parse_instance(data: dict, where: str = "instance"):
    """Dict (already JSON-decoded) -> CenterInstance | RenormInstance."""
    if not isinstance(data, dict):
        raise InstanceError(f"{where}: expected an object, got {type(data).__name__}")
    schema = _need(data, "schema", int, where)
    if schema != SCHEMA_VERSION:
        raise InstanceError(f"{where}: unsupported schema version {schema}", field="schema")
    name = _need(data, "name", str, where)
    kind = _need(data, "kind", str, where)
    expected = data.get("expected", {})
    if not isinstance(expected, dict):
        raise InstanceError(f"{where}: 'expected' must be an object", field="expected")

    if kind == "renorm":
        n = _need(data, "n", int, where)
        gamma = _number(data, "gamma", DEFAULT_GAMMA, float, where)
        theta = _number(data, "theta", DEFAULT_THETA, float, where)
        for key, value in (("gamma", gamma), ("theta", theta)):
            if not np.isfinite(value):
                raise InstanceError(f"{where}: {key} must be finite, got {value}", field=key)
        return RenormInstance(name=name, n=n, seed=_number(data, "seed", 0, int, where),
                              gamma=gamma, theta=theta, expected=expected)
    if kind != "center":
        raise InstanceError(f"{where}: unknown kind '{kind}'", field="kind")

    dim = _need(data, "dim", int, where)
    rows = _need(data, "family", list, where)
    try:
        family = FunctionFamily(np.array(rows, dtype=float).reshape(len(rows), dim))
    except (ValueError, TypeError) as exc:
        raise InstanceError(f"{where}: bad family rows ({exc})", field="family") from exc

    items = data.get("functionals", [])
    if not isinstance(items, list):
        raise InstanceError(f"{where}: 'functionals' must be a list", field="functionals")
    functionals = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise InstanceError(f"{where}: functionals[{i}] must be an object",
                                field="functionals")
        try:
            functionals.append(Functional(support=tuple(item["support"]),
                                          weights=tuple(item["weights"])))
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise InstanceError(f"{where}: functionals[{i}] invalid ({exc})",
                                field="functionals") from exc
    try:
        subspace = Subspace(dim=dim, functionals=tuple(functionals))
    except (ValueError, IndexError) as exc:
        raise InstanceError(f"{where}: {exc}", field="functionals") from exc

    constraint = data.get("constraint", "ball")
    if constraint not in CONSTRAINT_MODES:
        raise InstanceError(f"{where}: constraint must be one of {CONSTRAINT_MODES}, "
                            f"got '{constraint}'", field="constraint")
    scale = _number(data, "scale", 1.0, float, where)
    if not np.isfinite(scale) or (constraint == "scaled-ball" and scale <= 0):
        raise InstanceError(f"{where}: scale must be finite and positive, got {scale}",
                            field="scale")
    interpretation = data.get("interpretation", "sup-space")
    if interpretation not in INTERPRETATIONS:
        raise InstanceError(f"{where}: interpretation must be one of {INTERPRETATIONS}, "
                            f"got '{interpretation}'", field="interpretation")
    return CenterInstance(name=name, family=family, subspace=subspace, constraint=constraint,
                          scale=scale, interpretation=interpretation, expected=expected)


def load_instance(path):
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{path}: not valid JSON ({exc})") from exc
    return parse_instance(data, where=path.name)


def corpus_names() -> list[str]:
    root = resources.files("supcenter") / "corpus"
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))


def load_corpus(kind: str | None = None):
    """All bundled instances, sorted by file name; optionally one kind only."""
    root = resources.files("supcenter") / "corpus"
    out = []
    for name in corpus_names():
        data = json.loads((root / name).read_text(encoding="utf-8"))
        inst = parse_instance(data, where=name)
        if kind is None or data.get("kind") == kind:
            out.append(inst)
    return out
