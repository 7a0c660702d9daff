"""End-to-end benchmark of supcenter, one workload per run.

    python3 bench/run.py --workload stability --seed 1 --seconds 10 --trace 0

One process, one closed-loop caller: each operation is issued after the
previous one returns.  The run repeats its workload's round of operations
until at least ``--seconds`` have passed and the round count gives the tail
percentile at least ten operations beyond it.  Times are scaled to a nominal
host speed measured by the probes in speed.py; the wall-clock figures are
printed beside them.  Outputs are checked after the
timed phase; the last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` the metrics
are per-layer figures from spans around calls into the package (see
README.md).  A full record of the run goes to bench/out/.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

# BLAS threads pinned to one before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3


def _import_program():
    """Import supcenter from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401  (the program imports it lazily)
    import supcenter
    import supcenter.cli  # noqa: F401  (its namespace holds traced functions too)
    home = Path(supcenter.__file__).resolve().parent
    if home != ROOT / "src" / "supcenter":
        raise SystemExit(f"supcenter imported from {home}, not from this checkout")


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "machine": platform.machine(), "commit": _commit()}


def _run_round(ops, reportio, rec, records, keep):
    """Run every operation once; return the round's report-stream digest.
    Results are kept for checking when ``keep``; later rounds must repeat the
    first round's report stream, so their results are dropped and memory does
    not grow with the round count."""
    stream = hashlib.sha256()
    for op in ops:
        t = perf_counter()
        try:
            if rec is None:
                result, payload = op.run()
            else:
                result, payload = rec.op(op.run)
            text = reportio.dump_report(payload)
            error = None
        except Exception as exc:  # an operation the program failed; counted, never fatal
            result, text, error = None, "", f"{type(exc).__name__}: {exc}"
        records.append((op, result if keep else None, error, t, perf_counter()))
        stream.update(text.encode("utf-8"))
    return stream.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stability", "renorm", "repair"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import numpy as np

    import spans
    import speed
    import workloads
    from supcenter import reportio

    import_s = perf_counter() - T0
    rec = spans.Recorder() if args.trace else None
    if rec is not None:
        rec.install()

    # host-speed probes run through set-up and the timed phase of an untraced
    # run; a traced run reports raw span times
    prober = speed.Prober(workloads.PROBE_MIX[args.workload]) if rec is None else None
    if prober is not None:
        prober.start()
    setup_spans = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        plan = workloads.WORKLOADS[args.workload](args.seed)
        plan.warmup.run()
        setup_spans.append((t, perf_counter()))

    records: list = []
    digests: list[str] = []
    if rec is not None:
        rec.phase = "timed"
    start = perf_counter()
    while True:
        digests.append(_run_round(plan.ops, reportio, rec, records, keep=not digests))
        timed_s = perf_counter() - start
        if timed_s >= args.seconds and len(records) >= plan.min_ops:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rec is not None:
        rec.uninstall()
    if prober is not None:
        prober.stop()
        setup_timings = [prober.normalise(a, b) for a, b in setup_spans]
        # the imports ran before numpy could probe: scale them as the set-ups
        own, scaled = prober.normalise(setup_spans[0][0], setup_spans[-1][1])
        import_norm = import_s * scaled / own
        timings = [prober.normalise(t0, t1) for *_, t0, t1 in records]
    else:
        setup_timings = [(b - a, b - a) for a, b in setup_spans]
        import_norm = import_s
        timings = [(t1 - t0, t1 - t0) for *_, t0, t1 in records]
    rounds = len(digests)

    # the checks run on the first round; an operation of a later round fails
    # when it raised or when its first-round twin failed, since the rounds'
    # report streams must match
    verdicts = [error if error is not None else op.check(result)
                for op, result, error, *_ in records[:len(plan.ops)]]
    failures = []
    for k, (op, _, error, *_) in enumerate(records):
        error = error or verdicts[k % len(plan.ops)]
        if error is not None:
            failures.append({"kind": op.kind, "label": op.label, "error": error,
                             "known": (op.kind, op.label) in workloads.KNOWN_FAULTS})
    deterministic = len(set(digests)) == 1
    correct = deterministic and all(f["known"] for f in failures)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if rec is not None else "end_to_end"]
    wall = np.array([own for own, _ in timings])
    norm = np.array([scaled for _, scaled in timings])
    raw = {"setup_s": import_s + statistics.median(own for own, _ in setup_timings),
           "ops_per_s": len(records) / float(wall.sum()),
           "op_p50_ms": float(np.percentile(wall, 50)) * 1e3,
           "op_tail_ms": float(np.percentile(wall, plan.tail_pct)) * 1e3}
    if rec is None:
        measured = {
            "setup_s": import_norm + statistics.median(scaled for _, scaled in setup_timings),
            "ops_per_s": len(records) / float(norm.sum()),
            "op_p50_ms": float(np.percentile(norm, 50)) * 1e3,
            "op_tail_ms": float(np.percentile(norm, plan.tail_pct)) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        measured = rec.summarize("timed", rounds)
        setup = rec.summarize("setup", SETUP_REPEATS)
        for name in ("garkavi.build_model.s", "instances.load_corpus.s"):
            measured[name] = setup.get(name, 0.0)
        measured["trace.round_s"] = timed_s / rounds
        measured["trace.wrapper_s"] = measured["trace.spans"] * rec.span_cost()
    known = spans.metric_names() if rec is not None else measured.keys()
    unknown = [m["name"] for m in declared if m["name"] not in known]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names metrics this benchmark does not measure: {unknown}")
    # a traced function this workload never calls reads 0
    metrics = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    environment = _environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment, "import_s": import_s,
        "setup_repeats_s": [own for own, _ in setup_timings],
        "host_speed": prober.speed() if prober is not None else None, "wall_metrics": raw,
        "rounds": rounds, "ops_per_round": len(plan.ops), "timed_s": timed_s,
        "tail_percentile": plan.tail_pct, "report_sha256": digests[0],
        "deterministic": deterministic, "failures": failures, "metrics": metrics,
        "latencies_ms": [[op.kind, op.label, own * 1e3, scaled * 1e3]
                         for (op, *_), (own, scaled) in zip(records, timings)],
    }
    if rec is not None:
        record["spans"] = rec.dump(T0)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"{args.workload}: " + ", ".join(f"{k} {v}" for k, v in environment.items()))
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value!r} {units[name]}")
    if prober is not None:
        print(f"{args.workload}: host speed {prober.speed():.3f} (probe median over nominal); "
              "wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    print(f"{args.workload}: attempted {len(records)} operations in {rounds} rounds, "
          f"{len(failures)} failed ({sum(f['known'] for f in failures)} known faults); "
          f"report stream sha256 {digests[0][:16]}; record in {out_path.relative_to(ROOT)}")
    for f in failures:
        if not f["known"]:
            print(f"FAILED {f['kind']} {f['label']}: {f['error']}", file=sys.stderr)
    if not deterministic:
        print("report streams differ between rounds of one run", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
