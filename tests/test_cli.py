import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from supcenter import cli, garkavi, sampling
from supcenter.constraints import Polytope
from supcenter.cli import BAD_INPUT, CHECK_FAILED, INTERNAL, NUMERICAL, OK, main


def worked_payload():
    return {
        "schema": 1,
        "kind": "center",
        "name": "worked",
        "dim": 3,
        "family": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        "functionals": [{"support": [0, 1], "weights": [0.5, -0.5]}],
    }


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(worked_payload()), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_radius_human(worked_file, capsys):
    assert main(["radius", worked_file]) == OK
    out = capsys.readouterr().out
    assert "restricted radius" in out and "0.5" in out


def test_radius_json(worked_file, capsys):
    code, data = run_json(capsys, ["radius", worked_file])
    assert code == OK
    assert data["radius"] == pytest.approx(0.5, abs=1e-9)


def test_center_json(worked_file, capsys):
    code, data = run_json(capsys, ["center", worked_file])
    assert code == OK
    verts = np.array(data["vertices"])
    assert np.allclose(sorted(map(tuple, verts)),
                       [[0.5, 0.5, -0.5], [0.5, 0.5, 0.5]], atol=1e-9)
    assert data["mode"] == "pointwise"


def test_near_center_json(worked_file, capsys):
    code, data = run_json(capsys, ["near-center", worked_file, "--delta", "0.1"])
    assert code == OK
    verts = np.array(data["vertices"])
    assert verts.shape[0] == 4
    assert np.all(np.abs(verts[:, 0] - 0.5) <= 0.1 + 1e-9)


def test_construct_json(worked_file, capsys):
    code, data = run_json(capsys, ["construct", worked_file, "--eps", "0.2"])
    assert code == OK
    assert np.allclose(data["center"], [0.5, 0.5, 0.0], atol=1e-9)
    assert data["regime"] == "matched"
    assert data["slack"]["value"] > 0.0


def test_repair_json(worked_file, capsys):
    code, data = run_json(
        capsys, ["repair", worked_file, "--point", "0.6,0.6,0.1", "--eps", "0.2"])
    assert code == OK
    assert data["moved"] <= 0.2 + 1e-9
    repaired = np.array(data["repaired"])
    assert repaired[0] == pytest.approx(0.5, abs=1e-9)
    assert repaired[1] == pytest.approx(0.5, abs=1e-9)


def test_p1_modulus_json(worked_file, capsys):
    code, data = run_json(capsys, ["p1-modulus", worked_file, "--eps", "0.1"])
    assert code == OK
    assert data["report"]["delta_star"] > 0.0
    assert not data["report"]["degenerate"]


def test_p1_modulus_on_a_thin_near_center_set(capsys):
    # the degeneracy probe's near-center set is thin but full-dimensional;
    # it used to be refused as "flat polytope without implicit equalities"
    path = str(files("supcenter") / "corpus" / "13-random-d3m2.json")
    code, data = run_json(capsys, ["p1-modulus", path, "--eps", "0.001"])
    assert code == OK
    assert data["report"]["delta_star"] == pytest.approx(0.000604171348366, abs=1e-10)


def test_check_lemmas(capsys):
    code, data = run_json(capsys, ["check-lemmas", "--trials", "3", "--seed", "11"])
    assert code == OK
    assert data["passed"] and len(data["rows"]) == 3


def test_renorm_build_only(capsys):
    code, data = run_json(capsys, ["renorm", "--n", "3", "--samples", "0"])
    assert code == OK
    assert data["alpha"] == pytest.approx(0.8125, abs=1e-9)


@pytest.mark.parametrize("n, gamma, samples", [("3", "1e-5", "0"), ("4", "1e-7", "0"),
                                               ("5", "1e-9", "0"), ("4", "1e-9", "2")])
def test_renorm_builds_with_a_tiny_cube(capsys, n, gamma, samples):
    # the build's gauges come from the hull triangulation, not from the gauge
    # LP, whose tableau drifts when 1/gamma reaches 1e5
    code, data = run_json(capsys, ["renorm", "--n", n, "--gamma", gamma, "--samples", samples])
    assert code == OK
    assert data["c_upper"] == pytest.approx(int(n), abs=1e-7)


def test_renorm_zero_theta_fails(capsys):
    assert main(["renorm", "--n", "3", "--samples", "0", "--theta", "0"]) == CHECK_FAILED
    assert "check failed" in capsys.readouterr().err


@pytest.mark.parametrize("empty_call", [0, 1], ids=["exact", "near"])
def test_renorm_empty_projection_vertices_are_numerical(monkeypatch, capsys, empty_call):
    # after the model is built, the half-ball check enumerates the exact
    # projection first and a near projection second: an empty list from either
    # is a failed enumeration (3), not bad input (2) or a failed check (1)
    real_build, real_vertices = garkavi.build_model, Polytope.vertices
    calls = []

    def vertices(self):
        calls.append(self)
        verts = real_vertices(self)
        return verts[:0] if len(calls) == empty_call + 1 else verts

    def build_then_patch(*args, **kwargs):
        model = real_build(*args, **kwargs)
        monkeypatch.setattr(Polytope, "vertices", vertices)
        return model

    monkeypatch.setattr(garkavi, "build_model", build_then_patch)
    assert main(["renorm", "--n", "3", "--samples", "1"]) == NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "no vertices" in err


def test_trend(capsys):
    code, data = run_json(capsys, ["trend", "--dims", "3"])
    assert code == OK
    assert data["rows"][0]["n"] == 3


def test_corpus_center_kind(capsys):
    code, data = run_json(capsys, ["corpus", "--kind", "center"])
    assert code == OK
    assert data["count"] >= 15
    worked = data["instances"]["01-worked-instance"]
    assert worked["radius"] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(worked["constructive_center"], [0.5, 0.5, 0.0], atol=1e-9)


def test_missing_file_is_bad_input(capsys):
    assert main(["radius", "/nonexistent/file.json"]) == BAD_INPUT
    assert "error" in capsys.readouterr().err


def test_invalid_schema_is_bad_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1, "kind": "center", "name": "x"}', encoding="utf-8")
    assert main(["radius", str(path)]) == BAD_INPUT
    assert "dim" in capsys.readouterr().err


def test_negative_delta_is_bad_input(worked_file, capsys):
    assert main(["near-center", worked_file, "--delta", "-0.5"]) == BAD_INPUT
    capsys.readouterr()


@pytest.mark.parametrize("field, value", [
    ("family", [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ("family", [[float("inf"), 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ("scale", float("nan")),
    ("functionals", [{"support": [0, 1], "weights": [float("nan"), 0.5]}]),
], ids=["nan-family", "inf-family", "nan-scale", "nan-weight"])
def test_non_finite_instance_is_bad_input(tmp_path, capsys, field, value):
    payload = worked_payload()
    payload[field] = value
    if field == "scale":
        payload["constraint"] = "scaled-ball"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["radius", str(path)]) == BAD_INPUT
    assert "finite" in capsys.readouterr().err


def test_non_finite_renorm_theta_is_bad_input(monkeypatch, capsys):
    # refused as input, not answered by a failed model certificate (exit 1)
    import supcenter.cli as cli
    from supcenter.instances import parse_instance

    payload = {"schema": 1, "kind": "renorm", "name": "r", "n": 3, "theta": float("nan")}
    monkeypatch.setattr(cli, "load_corpus", lambda: [parse_instance(payload)])
    assert main(["corpus", "--kind", "renorm"]) == BAD_INPUT
    assert "theta must be finite" in capsys.readouterr().err


def test_non_finite_point_is_bad_input(worked_file, capsys):
    assert main(["repair", worked_file, "--point", "nan,0,0", "--eps", "0.1"]) == BAD_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--eps", "--delta"])
def test_non_finite_option_is_bad_input(worked_file, capsys, flag):
    argv = ["repair", worked_file, "--point", "0.5,0.5,0", "--eps", "0.1", "--delta", "0.05"]
    argv[argv.index(flag) + 1] = "nan"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == BAD_INPUT
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check-lemmas", "--trials", "-3"],
    ["check-lemmas", "--trials", "0"],
    ["check-lemmas", "--trials", "1.5"],
    ["renorm", "--n", "3", "--samples", "-2"],
], ids=["trials-negative", "trials-zero", "trials-fraction", "samples-negative"])
def test_malformed_count_is_bad_input(capsys, argv):
    # a run of no trials would report "all lemma checks passed"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: supcenter ") and "Traceback" not in err
    assert "must be at least" in err or "invalid count value" in err


@pytest.mark.parametrize("argv", [["radius", "WORKED", "--tol", "1e-6"], ["corpus", "--tol=0"]],
                         ids=["radius", "corpus"])
def test_tol_option_is_rejected(worked_file, capsys, argv):
    # the tolerance is DEFAULT_TOL, read where it is used: no subcommand
    # takes --tol, so argparse refuses it before any command runs
    with pytest.raises(SystemExit) as exc:
        main([worked_file if arg == "WORKED" else arg for arg in argv])
    assert exc.value.code == BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: supcenter ")
    assert "unrecognized arguments: --tol" in err and "Traceback" not in err


def test_repair_rejects_far_point(worked_file, capsys):
    code = main(["repair", worked_file, "--point=-1,-1,0", "--eps", "0.1"])
    assert code == BAD_INPUT
    assert "not admissible" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "supcenter" in capsys.readouterr().out


def test_check_lemmas_reuses_solved_radii(solve_counts, worked, capsys):
    # each trial solves its radius once and hands it to the two near-center
    # draws and the perturbation step, which have no way to solve it again
    code, _ = run_json(capsys, ["check-lemmas", "--trials", "5"])
    assert code == OK
    # 218 before vertex enumeration split its polytopes into factors: a free
    # coordinate is an interval factor, which takes no LP.  166 before the
    # radius and the distance took a factor that is a line in closed form,
    # 160 before vertex enumeration took no LP (double description)
    assert solve_counts["solves"] == 24
    assert solve_counts["enumerate"] == 0

    family, _, problem = worked
    with pytest.raises(TypeError):
        sampling.near_center_point(np.random.default_rng(0), problem, 0.1)
    with pytest.raises(TypeError):
        cli.perturb_toward_center([0.5, 0.5, 0.0], [0.5, 0.5, 0.0],
                                  family, problem.feasible, 0.3, 0.01)


@pytest.mark.parametrize("target, error", [
    ("numpy.linalg.inv", np.linalg.LinAlgError("Singular matrix")),
], ids=["inv"])
def test_enumeration_library_failure_is_numerical(capsys, monkeypatch, target, error):
    # a failed numpy call inside vertex enumeration, the inverse that starts
    # the double description, is numerical trouble (3), not bad input (2) or
    # an escaping traceback (1); the equalities' chart calls no numpy.linalg
    # routine.  The supports of 14-random-d4m3 chain all four coordinates, so
    # its near-center set is one factor of affine dimension 2, which takes it
    path = str(files("supcenter") / "corpus" / "14-random-d4m3.json")

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, fail)
    assert main(["near-center", path, "--delta", "0.1"]) == NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1


@pytest.mark.parametrize("a_ub, b_ub, message", [
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, -1.0],
     "zero inequality row"),
    ([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]], [1.0] * 4,
     "unbounded"),
], ids=["zero-row", "untouched-column"])
def test_split_polytope_errors_are_bad_input(worked_file, capsys, monkeypatch,
                                             a_ub, b_ub, message):
    # an empty or unbounded polytope found by the split into factors exits
    # 2, as one found by the unsplit route does
    monkeypatch.setattr(cli, "near_center_set",
                        lambda *args, **kwargs: Polytope(a_ub=np.array(a_ub), b_ub=b_ub))
    assert main(["near-center", worked_file, "--delta", "0.1"]) == BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_unexpected_exception_has_its_own_exit_code(worked_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise KeyError("simulated fault")

    monkeypatch.setattr(cli, "restricted_radius", fail)
    assert main(["radius", worked_file]) == INTERNAL
    assert capsys.readouterr().err == "error: internal failure: KeyError: 'simulated fault'\n"


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
from importlib.resources import files
from supcenter import cli
from supcenter.instances import CenterInstance, corpus_names, load_instance
runs = []
for name in corpus_names():
    path = str(files("supcenter") / "corpus" / name)
    if not isinstance(load_instance(path), CenterInstance):
        continue
    for argv in (["center", path], ["near-center", path, "--delta", "0.1"],
                 ["p1-modulus", path, "--eps", "0.05"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--json"])
        runs.append([name, argv[0], code, "scipy" in sys.modules])
print(json.dumps(runs))
"""


def test_center_type_commands_do_not_import_scipy():
    # vertex enumeration is the package's own double description, so no
    # center-type command loads scipy, whatever the affine dimension of its
    # polytopes; one fresh interpreter runs all of them and notes after each
    # whether scipy has been imported
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT], capture_output=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    runs = json.loads(proc.stdout)
    assert len(runs) == 3 * 17
    assert all(code in (OK, CHECK_FAILED) for _, _, code, _ in runs), runs
    assert not any(loaded for *_, loaded in runs), runs
