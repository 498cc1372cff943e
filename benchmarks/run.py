"""agebranch benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root):

    python3 benchmarks/run.py --workload logistic-fd --seed 0 --seconds 10 --trace 0

Runs the workload's session (bifpoint, continue, verify, transient; see
workloads.py) in this process again and again while another one still fits
in ``--seconds`` (at least once), and times the set-up in fresh child
processes before the first session and after each one.  ``--trace 0``
reports each end-to-end timing as a median over the sessions (see
``per_unit_median``);
``--trace 1`` adds one traced session and reports the per-layer metrics
instead.  Every line but the last is for people; the last is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 1 if any
correctness check failed and 2 if the package sources are not there.
"""

from __future__ import annotations

import os

# one client and no extra threads: pin BLAS pools before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("bifpoint_s", "s"),
    ("branch_s", "s"),
    ("verify_s", "s"),
    ("transient_s", "s"),
    ("peak_rss_mb", "MB"),
)

# "<traced name>.<calls|busy_s|failed|self_s|ms_per_call|iterations>" read the
# tracer's counters; the rest are derived in layer_metrics()
PER_LAYER = (
    ("model.eval_mu.calls", "count"),
    ("model.eval_mu.busy_s", "s"),
    ("model.eval_d.calls", "count"),
    ("model.eval_b.calls", "count"),
    ("operators.solve_banded.calls", "count"),
    ("operators.solve_banded.busy_s", "s"),
    ("operators.evolve.calls", "count"),
    ("operators.evolve.busy_s", "s"),
    ("operators.evolve.ms_per_call", "ms"),
    ("operators.assemble_elliptic.calls", "count"),
    ("operators.assemble_elliptic.busy_s", "s"),
    ("operators.next_generation_operator.busy_s", "s"),
    ("operators.birth_functional.busy_s", "s"),
    ("spectral.bifurcation_point.calls", "count"),
    ("spectral.perron_eigenpair.calls", "count"),
    ("spectral.perron_eigenpair.busy_s", "s"),
    ("spectral.perron_eigenpair.iterations", "count"),
    ("solver.newton_correct.calls", "count"),
    ("solver.newton_correct.failed", "count"),
    ("solver.newton_correct.self_s", "s"),
    ("solver.step_accept_ratio", "ratio"),
    ("solver.points", "count"),
    ("solver.newton_iters", "count"),
    ("solver.inner_sweeps", "count"),
    ("solver.jacobian.calls", "count"),
    ("solver.jacobian.busy_s", "s"),
    ("solver.jacobian.ms_per_call", "ms"),
    ("solver.point_s.p50", "s"),
    ("solver.point_s.p90", "s"),
    ("solver.full_residual.busy_s", "s"),
    ("solver.branch_invariant_check.busy_s", "s"),
    ("validate.step_ms.p50", "ms"),
    ("validate.step_ms.p90", "ms"),
    ("validate.kernel_dimension.busy_s", "s"),
    ("cli.load_config.busy_s", "s"),
    ("cli.write_branch_outputs.busy_s", "s"),
    ("cli.write_branch_outputs.bytes", "bytes"),
    ("cli.read_branch_outputs.busy_s", "s"),
    ("trace.overhead.branch_s", "s"),
    ("trace.overhead.transient_s", "s"),
)

COUNTER_FIELDS = ("calls", "busy_s", "failed", "self_s", "ms_per_call", "iterations")


def calibrate(batches: int = 5, solves: int = 2000) -> float:
    """Median microseconds of one fixed 32-node banded solve; host speed
    drift shows here next to every sample.  Recorded, never divided by."""
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.zeros((3, 32))
    ab[0, 1:], ab[1], ab[2, :-1] = -0.5, 2.0, -0.5
    rhs = np.ones(32)
    per_solve = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(solves):
            solve_banded((1, 1), ab, rhs, check_finite=False)
        per_solve.append((perf_counter() - t0) / solves * 1e6)
    return statistics.median(per_solve)


def machine_context() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def probe_setup(cfg_path: Path) -> tuple[float | None, str | None]:
    """Wall time from spawning a fresh interpreter to its ``ready`` line."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(cfg_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "setup: probe timed out"
    if line != "ready" or proc.returncode != 0:
        return None, f"setup: probe exit {proc.returncode}: {err[-300:]}"
    return elapsed, None


def per_unit_median(sessions) -> dict:
    """Each end-to-end timing from the median time of each of its units.

    A unit is one entry of ``Session.samples[metric]`` (a session's median
    bifpoint call, a trajectory, a branch, a verify); every session runs the
    same units in the same order, a failed one possibly fewer.  The metric is
    the sum over its units of each unit's median over the sessions that ran
    it.  The host often holds one speed for a minute or more and then
    switches, up to about 2x; the median over the sessions of a run reads
    the speed that held longest in it (benchmarks/README.md, Noise).
    """
    values = {}
    for metric in {m for s in sessions for m in s.samples}:
        columns = [s.samples.get(metric, []) for s in sessions]
        width = max(len(c) for c in columns)
        if width:
            values[metric] = sum(statistics.median(c[i] for c in columns if len(c) > i)
                                 for i in range(width))
    return values


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else None


def layer_metrics(tr, session, untraced_timings: dict) -> dict:
    """Per-layer values of one traced session; ``None`` where a traced
    name no longer exists in the package."""
    values = {}
    for metric, _ in PER_LAYER:
        target, _, fld = metric.rpartition(".")
        if fld in COUNTER_FIELDS and (target in tr.counters or target in tr.missing):
            c = tr.counters.get(target)
            if c is None:
                values[metric] = None
            elif fld == "self_s":
                values[metric] = tr.self_time(target)
            elif fld == "ms_per_call":
                values[metric] = c.busy_s / c.calls * 1e3 if c.calls else None
            elif fld == "iterations":
                values[metric] = c.result_count
            else:
                values[metric] = getattr(c, fld)

    info = session.info
    attempts = session.phase_counts.get("branch", {}).get("solver.newton_correct")
    # a point costs every Newton attempt since the previous accepted one
    point_times, pending = [], 0.0
    for span in tr.children("solver.continue_branch", "solver.newton_correct"):
        pending += span.end - span.start
        if not span.failed:
            point_times.append(pending)
            pending = 0.0
    steps = tr.step_times("validate.simulate_transient")
    step_ms = None if steps is None else [1e3 * x for x in steps]
    traced = per_unit_median([session])
    missing_span = "solver.newton_correct" in tr.missing or "solver.continue_branch" in tr.missing
    values.update({
        "solver.step_accept_ratio": (info.get("points", 0) / attempts[0]
                                     if attempts and attempts[0] else None),
        "solver.points": info.get("points"),
        "solver.newton_iters": info.get("newton_iters"),
        "solver.inner_sweeps": info.get("inner_sweeps"),
        "solver.point_s.p50": None if missing_span else _percentile(point_times, 50),
        "solver.point_s.p90": None if missing_span else _percentile(point_times, 90),
        "validate.step_ms.p50": None if step_ms is None else _percentile(step_ms, 50),
        "validate.step_ms.p90": None if step_ms is None else _percentile(step_ms, 90),
        "cli.write_branch_outputs.bytes": info.get("output_bytes"),
        "trace.overhead.branch_s": _diff(traced, untraced_timings, "branch_s"),
        "trace.overhead.transient_s": _diff(traced, untraced_timings, "transient_s"),
    })
    return values


def _diff(traced: dict, untraced: dict, key: str):
    if key in traced and key in untraced:
        return traced[key] - untraced[key]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agebranch" / "__init__.py").is_file():
        print(f"benchmark: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    work = HERE / "_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        cfg = workloads.make_config(wl, args.seed)
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))

        context = machine_context()
        context["calib_solve_banded_us_start"] = calibrate()
        print("context " + json.dumps(context), flush=True)
        print("config " + json.dumps(cfg["model"]["params"]), flush=True)

        setup_times, failures = [], []

        def setup_sample() -> None:
            # a traced run reports no end-to-end metric: skip the probes
            if not args.trace:
                elapsed, failure = probe_setup(cfg_path)
                if failure is None:
                    setup_times.append(elapsed)
                else:
                    failures.append(failure)

        setup_sample()
        sessions = []
        t_start = perf_counter()
        longest = 0.0
        while not sessions or perf_counter() - t_start + longest <= args.seconds:
            t0 = perf_counter()
            s = workloads.run_session(wl, cfg, cfg_path, work / f"out{len(sessions)}")
            sessions.append(s)
            print(f"session {len(sessions)}: " + json.dumps(
                {**per_unit_median([s]), **s.info, "failures": s.failures}), flush=True)
            setup_sample()
            longest = max(longest, perf_counter() - t0)
        probes = len(setup_times) + len(failures)
        timed = per_unit_median(sessions)

        traced_session, spans = None, []
        if args.trace:
            with tracer.Tracer() as tr:
                traced_session = workloads.run_session(wl, cfg, cfg_path, work / "traced",
                                                       tracer=tr)
            sessions.append(traced_session)
            spans = tr.spans_as_rows()
            print("traced session: " + json.dumps(
                {**per_unit_median([traced_session]), "failures": traced_session.failures,
                 "missing": sorted(tr.missing)}), flush=True)

        attempted = probes + len(sessions)
        failed = (probes - len(setup_times)) + sum(1 for s in sessions if s.failures)
        failures += [f for s in sessions for f in s.failures]
        context["calib_solve_banded_us_end"] = calibrate()

        if args.trace:
            values = layer_metrics(tr, traced_session, timed)
            units = PER_LAYER
        else:
            values = dict(timed)
            if setup_times:
                values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END
        metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units}
        missing = [name for name, unit in END_TO_END if values.get(name) is None]
        if not args.trace and missing:
            failures.append(f"no value for {missing}")
            failed = max(failed, 1)

        record = {
            "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "context": context, "config": cfg,
            "setup_s": setup_times,
            "sessions": [vars(s) for s in sessions],
            "failures": failures, "metrics": metrics, "spans": spans,
        }
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))

        for f in failures:
            print(f"FAILED {f}", flush=True)
        print("calibration " + json.dumps(
            {k: v for k, v in context.items() if k.startswith("calib")}))
        for name, m in metrics.items():
            print(f"metric {name} = {m['value']} {m['unit']}")
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": failed, "metrics": metrics}), flush=True)
        return 0 if not failures else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
