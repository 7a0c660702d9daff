"""Command line front end; every command runs at tolerances.DEFAULT_TOL.

Exit codes: 0 all good, 1 a certified check or construction failed, 2 bad
input (file, schema, precondition, a NaN or infinite number), 3 numerical
trouble (LP iteration cap, enumeration failure, a failed numpy linear-algebra
call, a failed Qhull call in the renormed-ball build), 4 any other failure
(one ``error:`` line on stderr, no traceback).  --json switches any command
to canonical JSON on stdout; the corpus summary is byte-identical between
runs by construction.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, construct, garkavi, sampling
from .centers import (
    CenterProblem,
    center_set,
    check_scaling_identity,
    check_threshold_equality,
    near_center_set,
    perturbation_slack_bound,
    perturb_toward_center,
    restricted_radius,
)
from .errors import (
    ConstructionError,
    EnumerationError,
    InfeasiblePolytopeError,
    InstanceError,
    LPNumericalError,
    ModelBuildError,
    PreconditionError,
    SupCenterError,
    UnboundedPolytopeError,
)
from .instances import CenterInstance, RenormInstance, load_corpus, load_instance
from .reportio import dump_report
from .space import hausdorff
from .stability import p1_modulus
from .tolerances import DEFAULT_THETA, DEFAULT_TOL, PERTURB_RADIUS_FLOOR

OK, CHECK_FAILED, BAD_INPUT, NUMERICAL, INTERNAL = 0, 1, 2, 3, 4


def _emit(args, payload, lines):
    if args.json:
        sys.stdout.write(dump_report(payload))
    else:
        for line in lines:
            print(line)


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(least: int):
    """argparse type: an integer of at least least."""
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text!r}")
        return int(text)
    return count


def _center_instance(path) -> CenterInstance:
    inst = load_instance(path)
    if not isinstance(inst, CenterInstance):
        raise InstanceError(f"{path}: expected a 'center' instance, got a renorm model")
    return inst


def _report_for(inst: CenterInstance):
    problem = inst.problem()
    if inst.interpretation == "simplex-vertices":
        return problem, construct.simplex_mode(inst.family.dim, problem)
    return problem, center_set(problem)


def cmd_radius(args) -> int:
    inst = _center_instance(args.instance)
    radius = restricted_radius(inst.problem())
    _emit(args, {"instance": inst.name, "radius": radius},
          [f"{inst.name}: restricted radius = {radius:.12g}"])
    return OK


def cmd_center(args) -> int:
    inst = _center_instance(args.instance)
    _, report = _report_for(inst)
    verts = report.center_polytope.vertices()
    payload = {"instance": inst.name, "mode": report.mode, "radius": report.radius,
               "representative": report.representative, "vertices": verts}
    lines = [f"{inst.name}: radius = {report.radius:.12g} ({report.mode})",
             f"representative: {np.array2string(report.representative, precision=10)}",
             f"center polytope vertices ({verts.shape[0]}):"]
    lines += [f"  {np.array2string(v, precision=10)}" for v in verts]
    _emit(args, payload, lines)
    return OK


def cmd_near_center(args) -> int:
    inst = _center_instance(args.instance)
    problem = inst.problem()
    verts = near_center_set(problem, args.delta, restricted_radius(problem)).vertices()
    payload = {"instance": inst.name, "delta": args.delta, "vertices": verts}
    lines = [f"{inst.name}: near-center set at slack {args.delta:g} "
             f"has {verts.shape[0]} vertices:"]
    lines += [f"  {np.array2string(v, precision=10)}" for v in verts]
    _emit(args, payload, lines)
    return OK


def cmd_construct(args) -> int:
    inst = _center_instance(args.instance)
    reduction = construct.finite_reduction(inst.family, inst.subspace)
    radius = reduction.radius
    h = construct.constructive_center(inst.family, inst.subspace, reduction=reduction)
    payload = {"instance": inst.name, "radius": radius, "alpha": reduction.alpha,
               "regime": reduction.regime, "center": h}
    lines = [f"{inst.name}: R = {radius:.12g}, support optimum alpha = {reduction.alpha:.12g}",
             f"constructive center: {np.array2string(h, precision=10)}"]
    if args.eps is not None:
        choice = construct.admissible_slack(inst.family, inst.subspace, args.eps, reduction=reduction)
        payload["slack"] = choice
        lines.append(f"admissible slack for eps={args.eps:g}: {choice.value:.12g} "
                     f"({choice.regime}, via {choice.origin})")
    _emit(args, payload, lines)
    return OK


def cmd_repair(args) -> int:
    inst = _center_instance(args.instance)
    g = np.array([float(tok) for tok in args.point.split(",")])
    if not np.all(np.isfinite(g)):
        raise PreconditionError(f"--point must be finite, got {args.point}")
    reduction = construct.finite_reduction(inst.family, inst.subspace)
    delta = args.delta
    if delta is None:
        delta = construct.admissible_slack(inst.family, inst.subspace, args.eps,
                                           reduction=reduction).value
    repaired = construct.repair_near_center(
        construct.RepairInput(g=g, eps=args.eps, delta=delta),
        inst.family, inst.subspace, reduction=reduction)
    moved = float(np.max(np.abs(g - repaired)))
    payload = {"instance": inst.name, "eps": args.eps, "delta": delta,
               "input": g, "repaired": repaired, "moved": moved}
    _emit(args, payload,
          [f"{inst.name}: repaired with slack {delta:.12g}",
           f"h = {np.array2string(repaired, precision=10)} (moved {moved:.12g} <= {args.eps:g})"])
    return OK


def cmd_p1_modulus(args) -> int:
    inst = _center_instance(args.instance)
    problem, report = _report_for(inst)
    delta_max = args.delta_max if args.delta_max is not None else args.eps
    modulus = p1_modulus(problem, args.eps, delta_max, center=report)
    payload = {"instance": inst.name, "mode": report.mode, "report": modulus}
    lines = [f"{inst.name}: stability modulus at eps={args.eps:g} is "
             f"{modulus.delta_star:.12g} (probed up to {modulus.delta_max:g})"]
    if modulus.degenerate:
        lines.append("DEGENERATE: no probed slack satisfied the bound "
                     "(impossible for a compact instance; inspect the probes)")
    _emit(args, payload, lines)
    return CHECK_FAILED if modulus.degenerate or modulus.delta_star <= 0 else OK


def _lemma_draw(rng, dims):
    dim = int(rng.choice(dims))
    members = int(rng.integers(2, 5))
    count = 1 if dim <= 3 else int(rng.integers(1, 3))
    return sampling.random_ball_problem(rng, dim, members, count=count)


def cmd_check_lemmas(args) -> int:
    rng = np.random.default_rng(args.seed)
    dims = [int(tok) for tok in args.dims.split(",")]
    failures: list[str] = []
    rows = []

    for trial in range(args.trials):
        family, y, problem = _lemma_draw(rng, dims)

        lam = float(rng.uniform(0.5, 4.0))
        scaling = check_scaling_identity(y, family, lam)
        if not scaling.passed:
            failures.append(f"scaling trial {trial}")
        threshold = check_threshold_equality(y, family)
        if not threshold.passed:
            failures.append(f"threshold trial {trial}")

        other = sampling.perturbed_family(rng, family, float(rng.uniform(0.0, 0.5)))
        radius = restricted_radius(problem)
        other_radius = restricted_radius(CenterProblem(family=other, feasible=problem.feasible))
        gap = abs(radius - other_radius)
        d_h = hausdorff(family, other)
        lipschitz_ok = gap <= d_h + DEFAULT_TOL
        if not lipschitz_ok:
            failures.append(f"lipschitz trial {trial}")

        perturb_ok = True
        if radius > PERTURB_RADIUS_FLOOR:
            gamma = 0.4 * radius
            eps = args.eps
            delta = 0.5 * perturbation_slack_bound(radius, gamma, eps)
            try:
                v = sampling.near_center_point(rng, problem, gamma + delta, radius=radius)
                v_prime = sampling.near_center_point(rng, problem, gamma / 2.0, radius=radius)
                perturb_toward_center(v, v_prime, family, problem.feasible,
                                      gamma, delta, radius, eps=eps)
            except SupCenterError as exc:
                perturb_ok = False
                failures.append(f"perturbation trial {trial}: {exc}")
        rows.append({"trial": trial, "dim": family.dim, "scaling": scaling.passed,
                     "threshold": threshold.passed, "lipschitz": lipschitz_ok,
                     "perturbation": perturb_ok})

    payload = {"trials": args.trials, "seed": args.seed, "rows": rows, "failures": failures,
               "passed": not failures}
    lines = [f"trial {r['trial']} (dim {r['dim']}): scaling={'ok' if r['scaling'] else 'FAIL'} "
             f"threshold={'ok' if r['threshold'] else 'FAIL'} "
             f"lipschitz={'ok' if r['lipschitz'] else 'FAIL'} "
             f"perturbation={'ok' if r['perturbation'] else 'FAIL'}" for r in rows]
    lines.append("all lemma checks passed" if not failures
                 else f"{len(failures)} failures: " + "; ".join(failures))
    _emit(args, payload, lines)
    return OK if not failures else CHECK_FAILED


def cmd_renorm(args) -> int:
    model = garkavi.build_model(args.n, seed=args.seed, gamma=args.gamma, theta=args.theta)
    payload = {"n": model.n, "alpha": model.alpha, "certificates": model.certificates,
               "c_lower": model.c_lower, "c_upper": model.c_upper,
               "facets": int(model.ball_facets.shape[0])}
    lines = [f"renormed-ball model in dimension {model.n}: alpha = {model.alpha:.12g}, "
             f"{model.ball_facets.shape[0]} facets",
             "certificates: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(model.certificates.items())),
             f"norm equivalence: {model.c_lower:.6g} |x| <= gauge(x) <= {model.c_upper:.6g} |x|"]
    code = OK
    if args.samples > 0:
        report = garkavi.half_ball_check(model, args.samples, seed=args.seed)
        payload["half_ball"] = report
        worst_fwd = max((s.forward_gap for s in report.samples), default=0.0)
        worst_bwd = max((s.backward_gap for s in report.samples), default=0.0)
        worst_cov = max((s.covariance_gap for s in report.samples), default=0.0)
        lines.append(f"half-ball identity on {len(report.samples)} sampled (x, eps): "
                     f"gaps fwd={worst_fwd:.3g} bwd={worst_bwd:.3g} cov={worst_cov:.3g} "
                     f"-> {'ok' if report.passed else 'FAIL'}")
        if not report.passed:
            code = CHECK_FAILED
    _emit(args, payload, lines)
    return code


def cmd_trend(args) -> int:
    dims = tuple(int(tok) for tok in args.dims.split(","))
    rows = garkavi.center_trend(dims, seed=args.seed)
    payload = {"rows": rows}
    lines = [f"n={r.n}: gauge radius = {r.radius:.10g}, level at center = {r.phi_at_center:.10g} "
             f"(slab level alpha = {r.alpha:.10g})" for r in rows]
    lines.append("trend only; the interesting failure needs infinitely many dimensions")
    _emit(args, payload, lines)
    return OK


def cmd_corpus(args) -> int:
    summary = {}
    for inst in load_corpus():
        if isinstance(inst, RenormInstance):
            if args.kind not in (None, "renorm"):
                continue
            model = garkavi.build_model(inst.n, seed=inst.seed, gamma=inst.gamma, theta=inst.theta)
            summary[inst.name] = {
                "kind": "renorm", "n": inst.n, "alpha": model.alpha,
                "facets": int(model.ball_facets.shape[0]),
                "certificates": model.certificates,
                "gauge_x0": garkavi.gauge_norm(model, model.x0),
            }
            continue
        if args.kind not in (None, "center"):
            continue
        _, report = _report_for(inst)
        entry = {"kind": "center", "mode": report.mode, "radius": report.radius,
                 "vertices": report.center_polytope.vertices()}
        if inst.constraint == "ball":
            reduction = construct.finite_reduction(inst.family, inst.subspace)
            entry["alpha"] = reduction.alpha
            entry["constructive_center"] = construct.constructive_center(
                inst.family, inst.subspace, reduction=reduction)
        summary[inst.name] = entry
    payload = {"instances": summary, "count": len(summary)}
    lines = [f"{name}: " + (f"radius = {entry['radius']:.12g} ({entry['mode']})"
             if entry["kind"] == "center" else f"renorm model, alpha = {entry['alpha']:.12g}")
             for name, entry in sorted(summary.items())]
    lines.append(f"{len(summary)} instances")
    _emit(args, payload, lines)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supcenter",
        description="Restricted Chebyshev centers in finite sup-norm spaces: "
                    "radii, center polytopes, constructive centers, near-center "
                    "repair, and stability checks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance=True):
        if instance:
            p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--json", action="store_true", help="canonical JSON on stdout")

    p = sub.add_parser("radius", help="restricted Chebyshev radius of an instance")
    common(p)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("center", help="center set as a polytope with vertices")
    common(p)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("near-center", help="vertices of the near-center set")
    common(p)
    p.add_argument("--delta", type=_finite_float, required=True, help="radius slack (>= 0)")
    p.set_defaults(func=cmd_near_center)

    p = sub.add_parser("construct", help="explicit center from the support reduction")
    common(p)
    p.add_argument("--eps", type=_finite_float, default=None,
                   help="also report the admissible repair slack for this eps")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("repair", help="move a near-center onto the center set")
    common(p)
    p.add_argument("--point", required=True, help="comma-separated coordinates of g")
    p.add_argument("--eps", type=_finite_float, required=True, help="repair distance budget")
    p.add_argument("--delta", type=_finite_float, default=None,
                   help="admitted slack of g (default: the instance's admissible slack)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("p1-modulus", help="largest slack keeping near-centers within eps")
    common(p)
    p.add_argument("--eps", type=_finite_float, required=True)
    p.add_argument("--delta-max", type=_finite_float, default=None, help="search cap (default eps)")
    p.set_defaults(func=cmd_p1_modulus)

    p = sub.add_parser("check-lemmas", help="randomized scaling/threshold/Lipschitz/perturbation checks")
    common(p, instance=False)
    p.add_argument("--trials", type=_count(1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", default="3,4", help="comma-separated ambient dimensions")
    p.add_argument("--eps", type=_finite_float, default=0.2, help="perturbation move budget")
    p.set_defaults(func=cmd_check_lemmas)

    p = sub.add_parser("renorm", help="build the renormed-ball model and check the half-ball identity")
    common(p, instance=False)
    p.add_argument("--n", type=int, required=True, help="ambient dimension (>= 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gamma", type=_finite_float, default=garkavi.DEFAULT_GAMMA)
    p.add_argument("--theta", type=_finite_float, default=DEFAULT_THETA,
                   help="slab shrink; 0 reproduces the attained-infimum failure")
    p.add_argument("--samples", type=_count(0), default=3, help="sampled x per eps (0 = build only)")
    p.set_defaults(func=cmd_renorm)

    p = sub.add_parser("trend", help="gauge-norm center data across dimensions (report only)")
    common(p, instance=False)
    p.add_argument("--dims", default="3,4,5")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_trend)

    p = sub.add_parser("corpus", help="deterministic summary of every bundled instance")
    common(p, instance=False)
    p.add_argument("--kind", choices=["center", "renorm"], default=None)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, PreconditionError, FileNotFoundError,
            InfeasiblePolytopeError, UnboundedPolytopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (ConstructionError, ModelBuildError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (LPNumericalError, EnumerationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:  # a failure no documented code covers
        print(f"error: internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
