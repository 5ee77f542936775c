"""curveflow benchmark: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --selftest

Run from anywhere; the package is imported from the `src` directory next to
this one, never from an installed copy.  With --trace 0 the last line of
standard output is the end-to-end result (setup_s, solve_s, solves_per_s,
peak_rss_mib); with --trace 1 it holds the per-layer figures of a traced
run.  --selftest checks every correctness check against a deliberately
perturbed output instead of timing anything.  Result and span files go to
perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = "1"
SET_UP_REPEATS = 3


def _pin_environment() -> None:
    """One BLAS thread, the program's default worker count."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("CURVEFLOW_THREADS", None)


def _import_program() -> None:
    """Import curveflow from the `src` beside this directory, never from an
    installed copy."""
    if not os.path.isfile(os.path.join(SRC, "curveflow", "__init__.py")):
        sys.exit(f"perfbench: no curveflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import curveflow
    if os.path.dirname(os.path.dirname(os.path.abspath(curveflow.__file__))) != SRC:
        sys.exit(f"perfbench: curveflow was imported from {curveflow.__file__}, not {SRC}")


def _start_times() -> list:
    """Seconds from spawning a fresh interpreter to the end of the
    benchmark's imports in it, SET_UP_REPEATS times, one process at a time.
    Both sides read CLOCK_MONOTONIC (`time.monotonic`), which all processes
    of a machine share, so the child's exit is not counted."""
    code = (f"import sys, time; sys.path[:0] = [{SRC!r}, {HERE!r}]; "
            "import numpy, scipy, curveflow, tracer, workloads; print(time.monotonic())")
    times = []
    for _ in range(SET_UP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        times.append(float(out) - t0)
    return times


def _environment(np, scipy) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
            "machine": platform.machine(), "processor": platform.processor()}


def _run_round(workload, stats, spans):
    """One round of solves; failed solves are counted and yield None.
    The (start, end) of each solve that succeeded goes into `spans`."""
    outputs = {}
    for key, solve in workload.round():
        stats["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out = solve()
        except Exception:  # a failed solve is counted, not fatal
            stats["failed"] += 1
            traceback.print_exc(file=sys.stderr)
            out = None
        if out is not None:
            spans.append((t0, time.perf_counter()))
        outputs[key] = out
    return outputs


def _timed_rounds(workload, seconds, stats, rounds):
    """Whole rounds until `seconds` have passed, the solve spans of each
    round appended to `rounds` as a list; returns the first round's outputs."""
    t0 = time.perf_counter()
    first = None
    while True:
        rounds.append([])
        outputs = _run_round(workload, stats, rounds[-1])
        if first is None:
            first = outputs
        if time.perf_counter() - t0 >= seconds:
            return first


def _run_checks(workload, outputs):
    """The workload's checks on one round's outputs, after `complete`: every
    solve of the round returned output.  A check that cannot be computed,
    because the solves it needs failed, fails."""
    done = sum(out is not None for out in outputs.values())
    results = [{"check": "complete", "ok": done == len(outputs),
                "detail": f"{done} of {len(outputs)} solves returned output"}]
    evidence = workload.evidence(outputs)
    for name in workload.CHECKS:
        try:
            ok, detail = getattr(workload, f"check_{name}")(evidence)
        except Exception as exc:   # its solves failed: nothing to check
            ok, detail = False, f"not computed: {exc!r}"
        results.append({"check": name, "ok": bool(ok), "detail": detail})
    return results


def _selftest(workload, evidence) -> bool:
    """Every check passes on the real evidence and fails on its perturbation."""
    good = True
    for name in workload.CHECKS:
        check = getattr(workload, f"check_{name}")
        ok, detail = check(evidence)
        bad = copy.deepcopy(evidence)
        getattr(workload, f"perturb_{name}")(bad)
        rejected, bad_detail = check(bad)
        rejected = not rejected
        good &= ok and rejected
        print(f"{workload.name}.{name}: real output {'passes' if ok else 'FAILS'} "
              f"({detail}); perturbed output {'rejected' if rejected else 'ACCEPTED'} "
              f"({bad_detail})")
    return good


def _set_up(workload, tracer):
    """SET_UP_REPEATS set-ups; their times and, when traced, span ranges."""
    times, spans = [], []
    if tracer:
        tracer.install()
    try:
        for _ in range(SET_UP_REPEATS):
            mark = tracer.mark() if tracer else 0
            t0 = time.perf_counter()
            workload.set_up()
            times.append(time.perf_counter() - t0)
            if tracer:
                spans.append((mark, tracer.mark()))
    finally:
        if tracer:
            tracer.uninstall()
    return times, spans


def _measure(workload, seconds, stats, set_up_s):
    """Untraced timed run: the end-to-end metrics, with solve times
    rescaled to the reference machine speed, plus the wall-clock figures
    (reported, not gated).  `set_up_s` is not rescaled: it is mostly
    import time, which does not follow the calibration kernel."""
    import speed
    rounds = []
    with speed.SpeedProbe() as probe:
        outputs = _timed_rounds(workload, seconds, stats, rounds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rescaled = [[probe.rescale(a, b) for a, b in r] for r in rounds]
    times = [t for r in rescaled for t in r]
    wall = [[b - a for a, b in r] for r in rounds]
    metrics = {
        "setup_s": (set_up_s, "s"),
        "solve_s": (statistics.median(statistics.mean(r) for r in rescaled if r), "s"),
        "solves_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    wall_clock = {**workload.counts(),
                  "solve_s": statistics.median(statistics.mean(r) for r in wall if r),
                  "solves_per_s": len(times) / (rounds[-1][-1][1] - rounds[0][0][0]),
                  "kernel_median_s": statistics.median(probe.kernel),
                  "solve_times_s": [t for r in wall for t in r]}
    return outputs, metrics, wall_clock


UNITS = {"calls": "count", "rattle_steps": "count", "fiber_solves": "count",
         "apply_L_calls": "count", "newton_iters_per_step": "iter/step",
         "simulations_per_bvp": "sim/bvp", "self_share": "fraction"}


def _measure_traced(workload, seconds, stats, tracer, set_up_spans):
    """Untraced and traced rounds in turn until `seconds` have passed and
    each kind has run: the per-layer metrics of the traced solves, and the
    tracing overhead per solve against the untraced ones (the first
    untraced round is left out as a warm-up when there are others)."""
    import tracer as tr
    t0 = time.perf_counter()
    plain, traced, outputs, marks = [], [], None, []
    while not traced or time.perf_counter() - t0 < seconds:
        plain.append([])
        _run_round(workload, stats, plain[-1])
        tracer.install()
        marks.append(tracer.mark())
        try:
            traced.append([])
            out = _run_round(workload, stats, traced[-1])
        finally:
            tracer.uninstall()
        marks[-1] = (marks[-1], tracer.mark())
        outputs = outputs or out
    times = [b - a for r in traced for a, b in r]
    plain_times = [b - a for r in (plain[1:] or plain) for a, b in r]
    layer = tr.layer_metrics(tracer, marks, len(times), set_up_spans)
    layer["trace.solve_s"] = statistics.mean(times)
    layer["trace.overhead_s"] = layer["trace.solve_s"] - statistics.mean(plain_times)
    layer["trace.self_share"] = layer.pop("trace.layers_s") / layer["trace.solve_s"]
    return outputs, {k: (v, UNITS.get(k.split(".", 1)[1], "s")) for k, v in layer.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)

    _pin_environment()
    _import_program()
    import numpy as np
    import scipy
    import tracer as tr
    import workloads
    import_s = time.perf_counter() - T_START
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = _environment(np, scipy)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": env}))

    stats = {"attempted": 0, "failed": 0}
    if args.selftest:
        workload.set_up()
        evidence = workload.evidence(_run_round(workload, stats, []))
        return 0 if _selftest(workload, evidence) and not stats["failed"] else 1

    tracer = tr.Tracer() if args.trace else None
    set_up_times, set_up_spans = _set_up(workload, tracer)
    start_times, wall_clock = [], {}
    if tracer:
        outputs, metrics = _measure_traced(workload, args.seconds, stats, tracer, set_up_spans)
    else:
        start_times = _start_times()
        outputs, metrics, wall_clock = _measure(
            workload, args.seconds, stats,
            statistics.median(start_times) + statistics.median(set_up_times))

    checks = _run_checks(workload, outputs)
    for c in checks:
        print(f"check {workload.name}.{c['check']}: {'ok' if c['ok'] else 'FAILED'}: "
              f"{c['detail']}")
    result = {"correct": all(c["ok"] for c in checks), "attempted": stats["attempted"],
              "failed": stats["failed"],
              "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       environment=env, checks=checks, import_s=import_s,
                       start_s=start_times, set_up_s=set_up_times,
                       wall_clock=wall_clock), fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.json", {"workload": args.workload, "seed": args.seed})
    if wall_clock:
        print(json.dumps({"wall_clock": {k: v for k, v in wall_clock.items()
                                         if k != "solve_times_s"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
