"""Checks of the benchmark itself; counts only, never timings.

    python3 -m pytest benchmarks/test_bench.py -q

The traced-count test runs two whole logistic branches of the shipped
config (about two minutes).
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from agebranch import operators, solver  # noqa: E402

# continue phase of logistic-fd at the default seed, as in the ROADMAP baseline
BASELINE_BRANCH = {
    "operators.solve_banded": 460_800,
    "model.eval_mu": 460_800,
}
BASELINE_POINTS, BASELINE_NEWTON, BASELINE_SWEEPS = 27, 87, 1291


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_default_seed_reproduces_shipped_configs():
    for wl in workloads.WORKLOADS.values():
        shipped = json.loads((HERE.parent / wl.config).read_text())
        cfg = workloads.make_config(wl, workloads.DEFAULT_SEED)
        assert cfg["model"] == shipped["model"]
        assert cfg["continuation"] == {**shipped["continuation"], **wl.continuation}


def test_other_seeds_scale_parameters_reproducibly():
    wl = workloads.WORKLOADS["density-analytic"]
    shipped = json.loads((HERE.parent / wl.config).read_text())["model"]
    for seed in (1, 2, 17):
        cfg = workloads.make_config(wl, seed)
        assert cfg == workloads.make_config(wl, seed)
        assert cfg["seed"] == seed
        for key, value in cfg["model"]["params"].items():
            ratio = value / shipped["params"][key]
            if key in workloads.SCALED_PARAMS:
                assert 0.9 <= ratio <= 1.1 and ratio != 1.0
            else:
                assert ratio == 1.0
        assert {k: v for k, v in cfg["model"].items() if k != "params"} == \
            {k: v for k, v in shipped.items() if k != "params"}


def test_missing_name_reads_null_and_wrappers_are_restored():
    original_evolve, original_solve = solver.evolve, operators.solve_banded
    targets = [t for t in tracer.TARGETS if t[0] != "operators.evolve"]
    targets.append(("operators.evolve", "agebranch.operators", "march_that_is_gone", "leaf"))
    with tracer.Tracer(targets) as tr:
        assert operators.solve_banded is not original_solve
        assert solver.evolve is original_evolve
    assert operators.solve_banded is original_solve
    assert tr.missing == {"operators.evolve"}
    values = run.layer_metrics(tr, workloads.Session(), {})
    assert values["operators.evolve.calls"] is None
    assert values["operators.evolve.ms_per_call"] is None
    assert values["model.eval_mu.calls"] == 0


def _traced_logistic(tmp_path: Path, tag: str) -> workloads.Session:
    # the shipped config, whole branch: the workload itself stops at LOGISTIC_BOX
    wl = dataclasses.replace(workloads.WORKLOADS["logistic-fd"], continuation={})
    cfg = workloads.make_config(wl, workloads.DEFAULT_SEED)
    cfg_path = tmp_path / f"{tag}.json"
    cfg_path.write_text(json.dumps(cfg))
    with tracer.Tracer() as tr:
        session = workloads.run_session(wl, cfg, cfg_path, tmp_path / tag, tracer=tr)
    assert not session.failures, session.failures
    assert not tr.missing
    return session


def test_traced_counts_repeat_and_match_baseline(tmp_path):
    first = _traced_logistic(tmp_path, "first")
    second = _traced_logistic(tmp_path, "second")

    def calls(session):
        return {phase: {name: c[0] for name, c in counts.items()}
                for phase, counts in session.phase_counts.items()}

    assert calls(first) == calls(second)
    branch = calls(first)["branch"]
    for name, expected in BASELINE_BRANCH.items():
        assert branch[name] == expected, name
    for s in (first, second):
        assert s.info["points"] == BASELINE_POINTS
        assert s.info["newton_iters"] == BASELINE_NEWTON
        assert s.info["inner_sweeps"] == BASELINE_SWEEPS
