"""One tolerance, named in tolerances.py and read where it is used."""

import ast
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

# callers pass Polytope.contains two different thresholds (DEFAULT_TOL in
# lp.distance_to_polytope, DEFAULT_TOL * CERTIFY_SLACK_FACTOR in
# perturb_toward_center), and phase 1 and phase 2 of the simplex run
# _bland_loop at different ones
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
    # any parameter named like a tolerance (tol, set_tol, ...) counts
    assert {qual for qual, fn in walked.items()
            if any(name.endswith("tol") for name in inspect.signature(fn).parameters)} == TAKES_TOL


@pytest.mark.parametrize("name", ["lp", "constraints", "centers", "construct", "stability",
                                  "garkavi", "cli", "instances"])
def test_thresholds_are_named_not_written_inline(name):
    # every threshold of the solver, of vertex enumeration, of the center sets,
    # of the construction, of the stability modulus, of the renormed-ball model
    # and of the command line lives in tolerances.py, where its comment gives
    # its scale
    source = Path(importlib.import_module(f"supcenter.{name}").__file__).read_text()
    inline = [(tok.start[0], tok.string)
              for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.NUMBER and re.search(r"\d(\.\d*)?e-\d+", tok.string)]
    assert inline == []


def _tree(module):
    return ast.parse(Path(module.__file__).read_text())


def test_every_named_threshold_is_read():
    # imported by another module, where test_no_unused_imports sees it used
    tolerances = importlib.import_module("supcenter.tolerances")
    defined = {target.id for node in _tree(tolerances).body if isinstance(node, ast.Assign)
               for target in node.targets}
    read = set()
    for module in MODULES:
        if module is not tolerances:
            read |= {alias.name for node in ast.walk(_tree(module))
                     if isinstance(node, ast.ImportFrom) and node.module == "tolerances"
                     for alias in node.names}
    assert defined and defined <= read, sorted(defined - read)


def _used_names(tree):
    """Names a module loads, including those in string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(name, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_unused_imports(module):
    # MODULES holds the submodules, not __init__, which imports to export
    tree = _tree(module)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    assert sorted(imported - _used_names(tree)) == []
