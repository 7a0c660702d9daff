"""The benchmark's span recorder names functions of the package by module and
name; each of them must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for module_name, functions in traced.items():
        module = importlib.import_module(f"supcenter.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"supcenter.{module_name}.{name}"
