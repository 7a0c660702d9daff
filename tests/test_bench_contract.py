"""The benchmark's span recorder names functions of the package by module and
name; each of them must still exist, or ``bench/run.py --trace 1`` breaks.
Its counters read the programs lp.solve is given, so their shape is pinned
here too, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = load_spans().TRACED
    assert traced
    for module_name, functions in traced.items():
        module = importlib.import_module(f"supcenter.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"supcenter.{module_name}.{name}"


def test_recorder_counts_a_center_round():
    # the counters read lp.solve's program, so a change to its shape shows here.
    # Only a factor wider than a line takes an LP: 08's support block {0, 1, 2}
    # has dimension 2, and its free coordinate 3 is an interval
    import supcenter as sc
    from supcenter import centers, constraints, stability

    inst = next(i for i in sc.load_corpus("center") if i.name == "08-three-point-functional")
    problem = inst.problem()
    rec = load_spans().Recorder()
    rec.install()
    try:
        rec.phase = "center"
        center = centers.center_set(problem)
        rec.phase = "modulus"
        stability.p1_modulus(problem, 0.1, delta_max=0.1, center=center)
    finally:
        rec.uninstall()
    assert centers.center_set is sc.center_set

    block = constraints.factors(problem.feasible)[0]
    assert block.cols.tolist() == [0, 1, 2]
    # the radius LP on the block's chart: its inequality rows of V and one
    # band row per coordinate bound, and no equality rows
    assert rec.summarize("center", 1.0)["lp.solve.calls"] == 1
    assert rec.counts[("center", "lp.solve.pivots")] > 0
    assert rec.counts[("center", "lp.solve.rows_max")] == (
        block.ub.size + 2 * block.cols.size)
    # the largest program of the modulus is a distance LP to the same block
    # of the center set: the block's inequality rows and two epigraph rows
    # per block coordinate
    block = constraints.factors(center.center_polytope)[0]
    assert block.cols.tolist() == [0, 1, 2]
    assert rec.counts[("modulus", "lp.solve.pivots")] > 0
    assert rec.counts[("modulus", "stability.p1_modulus.probes")] > 0
    assert rec.counts[("modulus", "lp.solve.rows_max")] == (
        block.ub.size + 2 * block.cols.size)
