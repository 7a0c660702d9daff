"""One tolerance, named in tolerances.py and read where it is used."""

import importlib
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import supcenter

MODULES = [importlib.import_module(f"supcenter.{info.name}")
           for info in pkgutil.iter_modules(supcenter.__path__)]

# callers pass Polytope.contains four different thresholds, and phase 1 and
# phase 2 of the simplex run _bland_loop at different ones
TAKES_TOL = {"supcenter.constraints.Polytope.contains", "supcenter.lp._bland_loop"}


def _source_functions(module):
    """Every function and method written in the module's own source, by
    qualified name (dataclass-generated methods have no source file)."""
    path = module.__file__
    for name, obj in vars(module).items():
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member) and member.__code__.co_filename == path:
                    yield f"{module.__name__}.{name}.{attr}", member
        elif inspect.isfunction(obj) and obj.__code__.co_filename == path:
            yield f"{module.__name__}.{name}", obj


def test_only_two_functions_take_a_tolerance():
    walked = {qual: fn for module in MODULES for qual, fn in _source_functions(module)}
    assert "supcenter.lp.solve" in walked and "supcenter.cli.cmd_corpus" in walked
    assert {qual for qual, fn in walked.items()
            if "tol" in inspect.signature(fn).parameters} == TAKES_TOL


@pytest.mark.parametrize("name", ["lp", "constraints"])
def test_thresholds_are_named_not_written_inline(name):
    # every threshold of the solver and of vertex enumeration lives in
    # tolerances.py, where its comment gives its scale
    source = Path(importlib.import_module(f"supcenter.{name}").__file__).read_text()
    inline = [(tok.start[0], tok.string)
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.NUMBER and re.search(r"\d(\.\d*)?e-\d+", tok.string)]
    assert inline == []
