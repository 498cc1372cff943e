import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import agebranch
from agebranch import Branch, ModelSpec, build_grid, continue_branch, make_spec
from agebranch.cli import run_command, spec_from_config
from agebranch.errors import ConfigError
from agebranch.oracles import closed_form_critical_intensity, discrete_critical_intensity
from agebranch.records import (
    BRANCH_CSV_COLUMNS,
    CONFIG_SCHEMA,
    FIELD_SCHEMA,
    META_SCHEMA,
    SNAPSHOT_SCHEMA,
    _schema_violation,
    branch_records,
    fmt17,
    load_config,
    read_branch_outputs,
)
from agebranch.validate import simulate_transient

SMALL_LOGISTIC = {
    "model": {
        "family": "logistic_death",
        "params": {"d0": 1.0, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
        "n_x": 10,
        "n_a": 30,
    },
    "continuation": {
        "t0": 0.01,
        "ds0": 0.1,
        "ds_max": 0.4,
        "lambda_max_factor": 1.4,
        "u_norm_max": 50.0,
        "max_points": 30,
    },
    "seed": 0,
}

SMALL_CONSTANT = {
    "model": {"family": "constant", "n_x": 8, "n_a": 40},
    "seed": 0,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_schema_doc_is_in_sync():
    shipped = json.loads((Path(__file__).parents[1] / "docs" / "config_schema.json").read_text())
    assert shipped == CONFIG_SCHEMA


# the keywords that _schema_violation reads, and the annotation it skips
CHECKER_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties",
                    "minimum", "exclusiveMinimum", "description"}


def _keywords(schema):
    yield from schema
    for sub in (*schema.get("properties", {}).values(), schema.get("additionalProperties")):
        if isinstance(sub, dict):
            yield from _keywords(sub)


def test_config_schema_is_a_valid_schema():
    # and so is every other input schema, in the keywords the checker knows
    for schema in (CONFIG_SCHEMA, META_SCHEMA, SNAPSHOT_SCHEMA, FIELD_SCHEMA):
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert set(_keywords(schema)) <= CHECKER_KEYWORDS, schema


def test_importing_the_cli_skips_scipy_optimize():
    # nor scipy.linalg (LAPACK is loaded on its own) nor jsonschema
    src = str(Path(agebranch.__file__).resolve().parents[1])
    code = ("import sys, agebranch.cli; print(*(name in sys.modules for name in "
            "('scipy.optimize', 'scipy.linalg', 'jsonschema')))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    assert result.stdout.split() == ["False"] * 3


@pytest.mark.parametrize("command, marker", [
    ("oracle", "homogeneous branch (lambda, U):"),
    ("bifpoint", "simplicity: pairing"),
], ids=["oracle", "bifpoint"])
def test_oracle_subcommand_skips_scipy_optimize(command, marker):
    # the scalar roots bisect and the Perron pair comes from the LAPACK
    # extension itself, in a fresh interpreter without scipy.optimize or
    # the scipy.linalg namespace
    src = str(Path(agebranch.__file__).resolve().parents[1])
    cfg = str(Path(__file__).parents[1] / "configs" / "logistic_death.json")
    code = ("import sys; from agebranch.cli import run_command; "
            f"code = run_command([{command!r}, '--config', {cfg!r}]); "
            "print('exit', code, 'scipy.optimize' in sys.modules, "
            "'scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True)
    lines = result.stdout.splitlines()
    assert lines[-1] == "exit 0 False False"
    assert any(line.startswith(marker) for line in lines)


def _schema_paths(schema, path=()):
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,), sub
        yield from _schema_paths(sub, path + (key,))


def _config_paths(cfg, path=()):
    for key, value in cfg.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _config_paths(value, path + (key,))


def _mutated(cfg, path, value=None, delete=False):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if delete:
        node.pop(path[-1], None)
    else:
        node[path[-1]] = value
    return cfg


_ANY = ("x", True, False, None, [], [1.0], {}, {"a": 1}, 0, 1, -1, 3, 0.5, -2.5, 1e-300,
        10**20, 8.0, 0.0, -1.0, float("nan"), float("inf"), float("-inf"))


def _extra(schema, path, value):
    """Whether the checker rejects ``value`` at ``path`` beyond JSON Schema: a
    non-finite number, or an integral float for an integer."""
    sub = schema
    for key in path:
        sub = sub.get("properties", {}).get(key, sub.get("additionalProperties", True))
        if not isinstance(sub, dict):
            return False
    kind = sub.get("type")
    return isinstance(value, float) and kind in ("number", "integer") and (
        not math.isfinite(value) or (kind == "integer" and value.is_integer()))


def _spoiled(schema, bases, parents):
    """(payload, extra) pairs: each base, and mutations of each by type, enum
    value, bound, missing entry and an additional entry under each of
    ``parents``; ``extra`` as :func:`_extra`."""
    corpus = [(base, False) for base in bases]
    schemas = dict(_schema_paths(schema))
    for base in bases:
        for path in sorted(set(schemas) | set(_config_paths(base))):
            sub = schemas.get(path, {})
            values = [*_ANY, *sub.get("enum", ()), "bogus"]
            for bound in (sub.get("minimum"), sub.get("exclusiveMinimum")):
                if bound is not None:
                    values += [bound - 1, bound, bound + 1, float(bound),
                               bound - 1e-9, bound + 1e-9]
            corpus += [(_mutated(base, path, value), _extra(schema, path, value))
                       for value in values]
            corpus.append((_mutated(base, path, delete=True), False))
        for parent in parents:
            path = parent + ("extra_key",)
            corpus += [(_mutated(base, path, value), _extra(schema, path, value))
                       for value in ("x", 1.0, float("nan"))]
    return corpus


@pytest.fixture(scope="module")
def short_records():
    """The records of a 3-point branch of the small logistic model."""
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["continuation"]["max_points"] = 3
    spec = spec_from_config(cfg)
    return branch_records(continue_branch(spec, build_grid(spec)), cfg, 0)


def test_config_checker_decides_as_jsonschema_does(short_records):
    # on configs, and on the branch outputs and simulate inputs that verify
    # and simulate read: the shipped and small configs, a short branch's
    # metadata and snapshots, and a raw field
    meta, _, snapshots = short_records
    shipped = [json.loads(p.read_text())
               for p in sorted((Path(__file__).parents[1] / "configs").glob("*.json"))]
    n_x, n_a = SMALL_LOGISTIC["model"]["n_x"], SMALL_LOGISTIC["model"]["n_a"]
    field = {"u": np.full((n_a + 1, n_x), 0.5).tolist()}
    cases = [
        (CONFIG_SCHEMA, [*shipped, SMALL_LOGISTIC, SMALL_CONSTANT],
         ((), ("model",), ("continuation",), ("model", "params")), 2000),
        (META_SCHEMA, [meta], ((), ("config",)), 500),
        (SNAPSHOT_SCHEMA, snapshots, ((), ("diagnostics",)), 800),
        (FIELD_SCHEMA, [*snapshots, field], ((),), 800),
    ]
    for schema, bases, parents, floor in cases:
        reference = jsonschema.validators.validator_for(schema)(schema)
        corpus = _spoiled(schema, bases, parents)
        assert len(corpus) > floor
        verdicts = set()
        for payload, extra in corpus:
            accepted = _schema_violation(payload, schema) is None
            assert accepted == (reference.is_valid(payload) and not extra), payload
            verdicts.add(accepted)
        assert verdicts == {True, False}


def test_the_records_of_a_branch_pass_their_schemas(short_records):
    # what continue writes, verify and simulate read
    meta, rows, snapshots = short_records
    assert len(rows) == len(snapshots) == 3
    assert _schema_violation(meta, META_SCHEMA) is None
    for snapshot in snapshots:
        assert _schema_violation(snapshot, SNAPSHOT_SCHEMA) is None
        assert _schema_violation(snapshot, FIELD_SCHEMA) is None


def test_malformed_json_exits_4(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_command(["bifpoint", "--config", str(path)]) == 4


def test_unknown_keys_are_rejected(tmp_path):
    cfg = {"model": {"family": "constant"}, "extra": 1}
    assert run_command(["bifpoint", "--config", write_cfg(tmp_path, cfg)]) == 4
    cfg = {"model": {"family": "constant", "spacing": 0.1}}
    assert run_command(["bifpoint", "--config", write_cfg(tmp_path, cfg)]) == 4


@pytest.mark.parametrize("command,section,key,value", [
    ("bifpoint", "model", "n_x", 8.0),
    ("continue", "continuation", "ds0", float("nan")),
])
def test_integral_floats_and_non_finite_numbers_are_named(tmp_path, capsys, command,
                                                          section, key, value):
    # json parses NaN and Infinity, and JSON Schema counts 8.0 as an integer
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg[section][key] = value
    assert run_command([command, "--config", write_cfg(tmp_path, cfg),
                        "--out", str(tmp_path / "out")]) == 4
    assert f"at {section}/{key}: " in capsys.readouterr().err


def test_schema_violation_message_names_the_location(tmp_path):
    path = write_cfg(tmp_path, {"model": {"family": "constant", "n_x": 1}})
    with pytest.raises(ConfigError, match="n_x"):
        load_config(path)


def test_spec_from_config_applies_sections_and_scale():
    spec = spec_from_config(SMALL_LOGISTIC)
    assert spec.n_x == 10 and spec.n_a == 30
    assert spec.t0 == 0.01 and spec.ds_max == 0.4
    assert spec.lambda_max_factor == 1.4
    doubled = spec_from_config(SMALL_LOGISTIC, resolution_scale=2)
    assert doubled.n_x == 20 and doubled.n_a == 60
    assert doubled.lambda_max_factor == 1.4


def test_every_section_key_is_a_spec_field_or_ignored():
    fields = {f.name for f in dataclasses.fields(ModelSpec)}
    for section in ("model", "continuation"):
        for key, schema in CONFIG_SCHEMA["properties"][section]["properties"].items():
            if "accepted and ignored" in schema.get("description", ""):
                assert key not in fields, key
            else:
                assert key in fields or key in ("family", "params"), key


def test_bifpoint_reports_the_closed_form(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_CONSTANT)
    out = tmp_path / "bif"
    assert run_command(["bifpoint", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "eigenpair.json").read_text())
    g = build_grid(make_spec("constant", n_x=8, n_a=40))
    assert abs(payload["lambda0"] - discrete_critical_intensity(1.0, 1.0, g)) <= 1e-11
    exact = closed_form_critical_intensity(1.0, 1.0, 1.0)
    assert abs(payload["lambda0"] - exact) <= 0.02 * exact
    assert payload["simplicity_passed"] is True
    assert "lambda0" in capsys.readouterr().out


def test_resolution_scale_sharpens_the_estimate(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_CONSTANT)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_command(["bifpoint", "--config", cfg_path, "--out", str(out1)])
    run_command(["bifpoint", "--config", cfg_path, "--out", str(out2),
                 "--resolution-scale", "4"])
    exact = closed_form_critical_intensity(1.0, 1.0, 1.0)
    e1 = abs(json.loads((out1 / "eigenpair.json").read_text())["lambda0"] - exact)
    e2 = abs(json.loads((out2 / "eigenpair.json").read_text())["lambda0"] - exact)
    assert e2 < e1
    assert [json.loads((out / "eigenpair.json").read_text())["resolution_scale"]
            for out in (out1, out2)] == [1, 4]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("smallrun")
    cfg_path = write_cfg(tmp, SMALL_LOGISTIC)
    out = tmp / "run"
    code = run_command(["continue", "--config", cfg_path, "--out", str(out)])
    return cfg_path, out, code


def test_continue_exports_branch_files(small_run):
    cfg_path, out, code = small_run
    assert code == 0
    meta, rows, snapshots = read_branch_outputs(out)
    assert meta["termination"] == "box_lambda"
    assert len(rows) == meta["n_points"] > 0
    header = (out / "branch.csv").read_text().splitlines()[0]
    assert header == ",".join(BRANCH_CSV_COLUMNS)
    assert len(snapshots) == len(rows)
    assert snapshots[0]["diagnostics"]["newton_iters"] >= 0


def test_verify_passes_on_fresh_export(small_run, capsys):
    cfg_path, out, _ = small_run
    assert run_command(["verify", "--config", cfg_path, "--out", str(out)]) == 0
    assert "checks passed" in capsys.readouterr().out


def test_verify_fails_on_tampered_csv(small_run, tmp_path):
    cfg_path, out, _ = small_run
    spoiled = tmp_path / "spoiled"
    spoiled.mkdir()
    (spoiled / "snapshots").mkdir()
    for item in (out / "snapshots").iterdir():
        (spoiled / "snapshots" / item.name).write_text(item.read_text())
    (spoiled / "branch_meta.json").write_text((out / "branch_meta.json").read_text())
    lines = (out / "branch.csv").read_text().splitlines()
    parts = lines[1].split(",")
    parts[2] = format(float(parts[2]) * 1.001, ".17g")  # corrupt one intensity
    lines[1] = ",".join(parts)
    (spoiled / "branch.csv").write_text("\n".join(lines) + "\n")
    assert run_command(["verify", "--config", cfg_path, "--out", str(spoiled)]) == 1


# the fixed gates; lambda_max, since lambda_max_factor is the only box on lambda;
# and the retired knobs of the nested corrector and the iterative eigensolve
FIXED_GATE_KEYS = [("model", "newton_tol"), ("model", "simplicity_tol"), ("model", "gap_tol"),
                   ("model", "rank_tol"), ("model", "radius_identity_tol"),
                   ("continuation", "ds_min"), ("continuation", "pos_tol"),
                   ("continuation", "lambda_max"), ("model", "inner_tol"),
                   ("model", "eigen_tol"), ("model", "fd_eps")]


@pytest.mark.parametrize("section,key", FIXED_GATE_KEYS, ids=[k for _, k in FIXED_GATE_KEYS])
def test_a_config_that_sets_a_fixed_gate_is_refused(tmp_path, capsys, section, key):
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg[section][key] = getattr(ModelSpec, key, 10.0)
    path = write_cfg(tmp_path, cfg)
    with pytest.raises(ConfigError, match=f"at {section}: .*'{key}' was unexpected"):
        load_config(path)
    assert run_command(["continue", "--config", path, "--out", str(tmp_path / "out")]) == 4
    assert f"'{key}' was unexpected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_config_cannot_loosen_its_own_checks(small_run, tmp_path, capsys):
    # a wrong kappa is another model, refused before any check; tolerances
    # set in the same config make it invalid
    cfg_path, out, _ = small_run
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["model"]["params"]["kappa"] = 1.05
    assert run_command(["verify", "--config", write_cfg(tmp_path, cfg, "kappa.json"),
                        "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "model/params/kappa: 1.0 in branch_meta.json, 1.05 in the config" in captured.err
    assert captured.out == ""
    cfg["model"].update(radius_identity_tol=0.5, newton_tol=1.0)
    assert run_command(["verify", "--config", write_cfg(tmp_path, cfg, "loose.json"),
                        "--out", str(out)]) == 4
    assert "'radius_identity_tol' was unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value", [
    ("model", "n_x", 12), ("model", "x_min", -0.5), ("model", "family", "density_diffusion"),
])
def test_verify_names_the_first_model_entry_that_differs(small_run, tmp_path, capsys,
                                                         section, key, value):
    _, out, _ = small_run
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    recorded = cfg[section].get(key)
    cfg[section][key] = value
    assert run_command(["verify", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)]) == 4
    recorded = "absent" if recorded is None else json.dumps(recorded)
    assert (f"{section}/{key}: {recorded} in branch_meta.json, {json.dumps(value)} "
            "in the config") in capsys.readouterr().err


def test_verify_reads_neither_continuation_nor_seed(small_run, tmp_path, capsys):
    _, out, _ = small_run
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["continuation"] = {"max_points": 2}
    cfg["seed"] = 7
    assert run_command(["verify", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_at_another_resolution_scale_names_both_scales(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    out = tmp_path / "scaled"
    assert run_command(["continue", "--config", cfg_path, "--out", str(out),
                        "--resolution-scale", "2"]) == 0
    assert read_branch_outputs(out)[0]["resolution_scale"] == 2
    capsys.readouterr()
    assert run_command(["verify", "--config", cfg_path, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert "computed at resolution scale 2, verified at resolution scale 1" in captured.err
    assert captured.out == ""
    assert run_command(["verify", "--config", cfg_path, "--out", str(out),
                        "--resolution-scale", "2"]) == 0


def test_branch_meta_without_a_scale_reads_as_scale_1(small_run, tmp_path, capsys):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    meta = json.loads((copy / "branch_meta.json").read_text())
    assert meta.pop("resolution_scale") == 1
    (copy / "branch_meta.json").write_text(json.dumps(meta))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 0
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy),
                        "--resolution-scale", "3"]) == 4
    assert "computed at resolution scale 1, verified at resolution scale 3" in \
        capsys.readouterr().err


def test_a_shorter_rerun_leaves_no_stale_snapshot(small_run, tmp_path):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    (copy / "snapshots" / "notes.txt").write_text("kept")
    before = sorted(p.name for p in (copy / "snapshots").glob("point_*.json"))
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["continuation"]["max_points"] = 2
    assert run_command(["continue", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(copy)]) == 0
    meta, rows, _ = read_branch_outputs(copy)
    assert meta["n_points"] == len(rows) == 2 < len(before)
    assert sorted(p.name for p in (copy / "snapshots").glob("point_*.json")) == before[:2]
    assert (copy / "snapshots" / "notes.txt").read_text() == "kept"
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--snapshot", str(copy / "snapshots" / before[-1]),
                        "--steps", "2"]) == 4


def test_a_failed_simplicity_certificate_refuses_the_branch(tmp_path, capsys):
    # at d0 = 1e-9 the spectral gap is 3.9e-9, below gap_tol: exit 1, no files
    cfg = {"model": {"family": "constant", "params": {"d0": 1e-9}, "n_x": 8, "n_a": 20}}
    out = tmp_path / "out"
    assert run_command(["continue", "--config", write_cfg(tmp_path, cfg),
                        "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: simplicity certificate failed (pairing 1.000e+00, gap 3.878e-09); "
        "cannot start the branch\n")
    assert not (out / "branch.csv").exists()


def test_box_below_critical_gives_empty_branch(tmp_path):
    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["continuation"]["lambda_max_factor"] = 0.9
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "empty"
    assert run_command(["continue", "--config", cfg_path, "--out", str(out)]) == 0
    meta, rows, _ = read_branch_outputs(out)
    assert meta["termination"] == "box_lambda"
    assert rows == []


@pytest.mark.parametrize("termination,expected", [
    ("step_failure", 2),
    ("left_positive_cone", 3),
    ("max_points", 0),
])
def test_termination_exit_codes(tmp_path, monkeypatch, termination, expected):
    import agebranch.cli as cli

    def fake_continue(spec, g):
        return Branch(points=[], termination=termination,
                      lambda0=1.0, phi0=np.ones(g.n_x), psi0=np.ones(g.n_x))

    monkeypatch.setattr(cli, "continue_branch", fake_continue)
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    out = tmp_path / "fake"
    assert run_command(["continue", "--config", cfg_path, "--out", str(out)]) == expected


def test_simulate_from_snapshot(small_run, tmp_path):
    cfg_path, out, _ = small_run
    snap = next(iter(sorted((out / "snapshots").iterdir())))
    sim_out = tmp_path / "sim"
    code = run_command(["simulate", "--config", cfg_path, "--out", str(sim_out),
                        "--snapshot", str(snap), "--steps", "30"])
    assert code == 0
    lines = (sim_out / "drift.csv").read_text().splitlines()
    assert lines[0] == "step,t,drift,min_u"
    assert len(lines) == 31
    fields = [line.split(",") for line in lines[1:]]
    drifts = [float(f[2]) for f in fields]
    assert max(drifts) <= 1e-6  # snapshots are equilibria
    # steps as integers, times and histories with 17 digits that read back exactly
    spec = spec_from_config(SMALL_LOGISTIC)
    g = build_grid(spec)
    payload = json.loads(snap.read_text())
    state = simulate_transient(payload["u"], payload["lambda"], 30, spec, g)
    assert [f[0] for f in fields] == [str(step) for step in range(30)]
    assert [f[1] for f in fields] == [fmt17((step + 1) * g.da) for step in range(30)]
    assert drifts == state.drift_history
    assert [float(f[3]) for f in fields] == state.min_history


def test_simulate_from_raw_field(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    spec = spec_from_config(SMALL_LOGISTIC)
    g = build_grid(spec)
    field_path = tmp_path / "field.json"
    field_path.write_text(json.dumps({"u": np.ones((g.n_a + 1, g.n_x)).tolist()}))
    out = tmp_path / "sim2"
    code = run_command(["simulate", "--config", cfg_path, "--out", str(out),
                        "--field", str(field_path), "--lam", "1.0", "--steps", "5"])
    assert code == 0
    assert run_command(["simulate", "--config", cfg_path, "--out", str(out),
                        "--field", str(field_path), "--steps", "5"]) == 4


def test_simulate_requires_an_input(tmp_path):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    assert run_command(["simulate", "--config", cfg_path,
                        "--out", str(tmp_path / "x")]) == 4


def _copy_run(out, copy):
    (copy / "snapshots").mkdir(parents=True)
    for item in [*out.iterdir(), *(out / "snapshots").iterdir()]:
        if item.is_file():
            (copy / item.relative_to(out)).write_bytes(item.read_bytes())
    return copy


@pytest.mark.parametrize("missing", ["branch_meta.json", "branch.csv",
                                     "snapshots/point_00001.json"])
def test_verify_names_a_missing_output_file(small_run, tmp_path, capsys, missing):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    (copy / missing).unlink()
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    assert f"config error: {copy / missing}: cannot read" in capsys.readouterr().err


def _spoil_csv_line(lineno, edit):
    def spoil(lines):
        lines[lineno - 1] = edit(lines[lineno - 1])
        return lines
    return spoil


def _spoil_csv_column(column, token):
    """Set ``column`` to ``token`` in every row; the first row is line 2."""
    def spoil(lines):
        at = lines[0].split(",").index(column)
        for i in range(1, len(lines)):
            fields = lines[i].split(",")
            fields[at] = token
            lines[i] = ",".join(fields)
        return lines
    return spoil, f":2: at column {column}: {token!r} is not a finite number"


# a field holds only what the writer writes: a finite number as fmt17 (or
# str, for the index) writes it
UNWRITTEN_FIELDS = [("lambda", "inf"), ("arclength", "inf"), ("r_Q_u", "inf"),
                    ("u_norm", "-inf"), ("min_u", "nan"), ("residual_norm", "1e309"),
                    ("lambda", "1_0"), ("arclength", " 0.5"), ("u_norm", "+1"),
                    ("index", "1_0")]


@pytest.mark.parametrize("spoil,where", [
    (_spoil_csv_line(3, lambda line: ",".join(line.split(",")[:4])), ":3: 4 fields"),
    (lambda lines: [], ":1: expected the header"),
    (_spoil_csv_line(1, lambda line: line.replace("lambda", "lam")), ":1: expected the header"),
    (_spoil_csv_line(2, lambda line: line.replace(",", ",x", 1)), ":2: could not convert"),
    *(_spoil_csv_column(column, token) for column, token in UNWRITTEN_FIELDS),
], ids=["short_row", "empty", "bad_header", "non_numeric",
        *(f"{column}={token}" for column, token in UNWRITTEN_FIELDS)])
def test_verify_names_a_broken_csv_line(small_run, tmp_path, capsys, spoil, where):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    csv_path = copy / "branch.csv"
    lines = spoil(csv_path.read_text().splitlines())
    csv_path.write_text("".join(line + "\n" for line in lines))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    assert f"config error: {csv_path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["config.json", "branch_meta.json", "branch.csv",
                                  "snapshots/point_00001.json", "field.json"])
def test_an_input_that_is_not_utf8_names_its_path(small_run, tmp_path, capsys, name):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    shutil.copy(cfg_path, copy / "config.json")
    (copy / "field.json").write_text(json.dumps(
        {"u": json.loads((copy / "snapshots" / "point_00001.json").read_text())["u"]}))
    path = copy / name
    path.write_bytes(b"\xff" + path.read_bytes())
    config = ["--config", str(copy / "config.json")]
    if name == "config.json":
        argv = ["bifpoint", *config]
    elif name == "field.json":
        argv = ["simulate", *config, "--out", str(tmp_path / "sim"), "--field", str(path),
                "--lam", "1.0", "--steps", "2"]
    else:
        argv = ["verify", *config, "--out", str(copy)]
    assert run_command(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: cannot read ")
    assert "can't decode byte 0xff in position 0" in err


@pytest.mark.parametrize("name,key", [
    *(("snapshots/point_00001.json", key)
      for key in ("v", "u", "lambda", "arclength", "diagnostics.newton_iters")),
    ("branch_meta.json", "lambda0"),
    ("branch_meta.json", "n_points"),
    ("branch_meta.json", "config"),
    ("branch_meta.json", "config.model"),
])
def test_verify_names_a_file_without_an_entry(small_run, tmp_path, capsys, name, key):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    payload = json.loads((copy / name).read_text())
    *parents, last = key.split(".")
    node = payload
    for part in parents:
        node = node[part]
    del node[last]
    (copy / name).write_text(json.dumps(payload))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    if key.startswith("config"):
        # a branch without its model is held to the config's model, and differs
        reason = "computed for another model: model: absent in branch_meta.json, "
    else:
        reason = f"at {'/'.join(parents) or '<root>'}: '{last}' is a required property"
    assert f"config error: {copy / name}: {reason}" in capsys.readouterr().err


def test_verify_names_a_snapshot_that_is_not_an_object(small_run, tmp_path, capsys):
    # the message shows the value abridged, not the whole field
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    path = copy / "snapshots" / "point_00001.json"
    path.write_text(json.dumps(json.loads(path.read_text())["u"]))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: at <root>: [[")
    assert err.endswith("...] is not of type 'object'\n") and len(err) < len(str(path)) + 1000


@pytest.mark.parametrize("spoil", [
    lambda lines: lines[:-5],
    lambda lines: lines + [lines[1]],
    lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
], ids=["truncated", "row_0_appended", "rows_swapped"])
def test_verify_names_a_csv_whose_rows_are_not_the_branch(small_run, tmp_path, capsys, spoil):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    csv_path = copy / "branch.csv"
    csv_path.write_text("".join(line + "\n" for line in spoil(csv_path.read_text().splitlines())))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    n_points = json.loads((copy / "branch_meta.json").read_text())["n_points"]
    err = capsys.readouterr().err
    assert f"config error: {csv_path}: " in err
    assert f"expected the indices 0 .. {n_points - 1} in order" in err


@pytest.mark.parametrize("value,reason", [
    (8.0, "8.0 is not an integer (write it without a fraction)"),
    ("8", "'8' is not of type 'integer'"),
    (True, "True is not of type 'integer'"),
    (None, "None is not of type 'integer'"),
    (float("nan"), "nan is not a finite number"),
    (-1, "-1 is less than the minimum of 0"),
], ids=["float", "string", "bool", "null", "nan", "negative"])
def test_verify_names_an_n_points_that_is_not_an_integer(small_run, tmp_path, capsys, value,
                                                         reason):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    path = copy / "branch_meta.json"
    payload = json.loads(path.read_text())
    payload["n_points"] = value
    path.write_text(json.dumps(payload))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    assert f"config error: {path}: at n_points: {reason}" in capsys.readouterr().err


NOT_NUMBERS = pytest.mark.parametrize("value,reason", [
    ("abc", "'abc' is not of type 'number'"),
    (True, "True is not of type 'number'"),
    (None, "None is not of type 'number'"),
    (float("nan"), "nan is not a finite number"),
], ids=["string", "bool", "null", "nan"])


@NOT_NUMBERS
@pytest.mark.parametrize("name,key", [
    ("snapshots/point_00001.json", "lambda"),
    ("snapshots/point_00001.json", "arclength"),
    ("branch_meta.json", "lambda0"),
], ids=["lambda", "arclength", "lambda0"])
def test_verify_names_a_snapshot_entry_that_is_not_a_number(small_run, tmp_path, capsys,
                                                            name, key, value, reason):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    path = copy / name
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    assert f"config error: {path}: at {key}: {reason}" in capsys.readouterr().err


@NOT_NUMBERS
def test_simulate_names_an_input_lambda_that_is_not_a_number(small_run, tmp_path, capsys,
                                                             value, reason):
    # the entry is checked whenever it is present, also when --lam overrides it
    cfg_path, out, _ = small_run
    path = tmp_path / "point.json"
    payload = json.loads((out / "snapshots" / "point_00001.json").read_text())
    payload["lambda"] = value
    path.write_text(json.dumps(payload))
    for lam in ([], ["--lam", "1.0"]):
        assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                            "--snapshot", str(path), "--steps", "2", *lam]) == 4
        assert f"config error: {path}: at lambda: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("key,name", [("v", "snapshot 1 trace"), ("u", "snapshot 1")],
                         ids=["v", "u"])
@pytest.mark.parametrize("value", ["abc", [1.0, "abc"], {"a": 1}], ids=["string", "list", "dict"])
def test_verify_names_a_snapshot_field_that_is_not_numbers(small_run, tmp_path, capsys,
                                                           key, name, value):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    path = copy / "snapshots" / "point_00001.json"
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 1
    assert f"error: {name} is not an array of numbers" in capsys.readouterr().err


def test_simulate_names_a_field_file_that_is_not_numbers(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"u": [[1.0, "abc"]]}))
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--field", str(path), "--lam", "1.0"]) == 1
    assert f"error: {path}: u is not an array of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("model,message", [
    ({"family": "constant", "params": {"kappa": 1.0}},
     "family 'constant' has no parameter 'kappa'"),
    ({"family": "density_diffusion", "params": {"d1": -1.0}}, "d1 must be nonnegative"),
    ({"family": "logistic_death", "params": {"d0": 0.0}}, "d0 must be positive"),
    ({"family": "constant", "x_min": 1.0, "x_max": 1.0}, "x_max must exceed x_min"),
], ids=["kappa_on_constant", "negative_d1", "zero_d0", "empty_interval"])
def test_a_config_the_model_rejects_exits_4(tmp_path, capsys, model, message):
    path = write_cfg(tmp_path, {"model": model})
    assert run_command(["bifpoint", "--config", path]) == 4
    assert f"config error: {path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--steps", "-3"),
    ("simulate", "--steps", "0"),
    ("bifpoint", "--resolution-scale", "0"),
    ("continue", "--resolution-scale", "-1"),
])
def test_counts_below_one_are_rejected_at_parse_time(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, SMALL_LOGISTIC), "--out", str(out),
            flag, value]
    if command == "simulate":
        field = np.ones((SMALL_LOGISTIC["model"]["n_a"] + 1, SMALL_LOGISTIC["model"]["n_x"]))
        (tmp_path / "field.json").write_text(json.dumps({"u": field.tolist()}))
        argv += ["--field", str(tmp_path / "field.json"), "--lam", "1.0"]
    with pytest.raises(SystemExit) as exc:
        run_command(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: {value} is not a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_simulate_rejects_a_non_finite_lam_at_parse_time(tmp_path, capsys, value):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    field = np.ones((SMALL_LOGISTIC["model"]["n_a"] + 1, SMALL_LOGISTIC["model"]["n_x"]))
    (tmp_path / "field.json").write_text(json.dumps({"u": field.tolist()}))
    out = tmp_path / "sim"
    with pytest.raises(SystemExit) as exc:
        run_command(["simulate", "--config", cfg_path, "--out", str(out),
                     "--field", str(tmp_path / "field.json"), f"--lam={value}"])
    assert exc.value.code == 2
    assert f"argument --lam: {float(value)} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,content", [("--snapshot", None), ("--field", None),
                                          ("--snapshot", "{"), ("--field", '{"u": [1,')])
def test_simulate_names_a_missing_or_invalid_input(tmp_path, capsys, flag, content):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        flag, str(path), "--lam", "1.0"]) == 4
    err = capsys.readouterr().err
    assert str(path) in err
    assert ("cannot read" if content is None else "invalid JSON") in err


@pytest.mark.parametrize("u", [1.0, [1.0, 2.0], [[1.0, 2.0]]], ids=["scalar", "1d", "2d"])
def test_simulate_names_a_field_file_with_a_misshapen_u(tmp_path, capsys, u):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"u": u}))
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--field", str(path), "--lam", "1.0"]) == 1
    assert f"error: {path}: u has shape {np.shape(u)}, expected (31, 10)" in (
        capsys.readouterr().err)


def test_verify_names_a_snapshot_with_a_misshapen_trace(small_run, tmp_path, capsys):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    path = copy / "snapshots" / "point_00001.json"
    payload = json.loads(path.read_text())
    payload["v"] = payload["v"][:3]
    path.write_text(json.dumps(payload))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 1
    assert "error: snapshot 1 trace has shape (3,), expected (10,)" in capsys.readouterr().err


def test_simulate_names_a_field_file_without_u(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"lambda": 1.0}))
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--field", str(path)]) == 4
    assert (f"config error: {path}: at <root>: 'u' is a required property"
            in capsys.readouterr().err)


def test_simulate_names_a_field_file_without_an_intensity(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "field.json"
    n_x, n_a = SMALL_LOGISTIC["model"]["n_x"], SMALL_LOGISTIC["model"]["n_a"]
    path.write_text(json.dumps({"u": np.ones((n_a + 1, n_x)).tolist()}))
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--field", str(path)]) == 4
    assert (f"config error: {path}: simulate needs an intensity: --lam or a 'lambda' "
            "entry in the file") in capsys.readouterr().err


def test_oracle_subcommand(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    out = tmp_path / "oracle"
    assert run_command(["oracle", "--config", cfg_path, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "critical intensity" in text
    payload = json.loads((out / "oracle.json").read_text())
    g = build_grid(spec_from_config(SMALL_LOGISTIC))
    assert abs(payload["critical_intensity_grid"]
               - discrete_critical_intensity(1.0, 1.0, g)) <= 1e-14
    assert len(payload["homogeneous_branch"]) == 5


def test_oracle_names_an_unbracketed_equilibrium(tmp_path):
    # with kappa 1e-300 no population up to 1e12 brings the homogeneous branch
    # relation to a root: a numerical error, exit 1, without a traceback
    cfg = {"model": {"family": "logistic_death", "params": {"kappa": 1e-300},
                     "n_x": 8, "n_a": 20}}
    cfg_path = write_cfg(tmp_path, cfg)
    src = str(Path(agebranch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-m", "agebranch.cli", "oracle", "--config",
                             cfg_path], env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert "homogeneous branch (lambda, U):" in result.stdout
    assert result.stderr.startswith("error: failed to bracket the homogeneous equilibrium")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("model", [
    {"family": "logistic_death", "params": {"d0": 1e300}, "n_x": 8, "n_a": 20},
    {"family": "logistic_death", "x_min": 0.0, "x_max": 1e-9, "n_x": 8, "n_a": 20},
], ids=["d0 1e300", "domain 1e-9 wide"])
def test_an_indefinite_age_step_names_its_diffusion_number(tmp_path, model):
    # da * d / dx^2 at or above 1/eps: 1 + da * A rounds to da times the
    # singular Neumann Laplacian, a numerical error, exit 1, no traceback
    cfg_path = write_cfg(tmp_path, {"model": model})
    src = str(Path(agebranch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-m", "agebranch.cli", "continue", "--config",
                             cfg_path, "--out", str(tmp_path / "out")],
                            env=env, capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.startswith(
        "error: implicit age step is not positive definite (dpttrf info 8); "
        "largest diffusion number da*d/dx^2 ")
    assert result.stderr.rstrip().endswith(
        ", at or above 1/eps: the step rounds to the singular Neumann Laplacian")
    assert "Traceback" not in result.stderr


def test_shipped_configs_validate():
    for name in ("constant.json", "logistic_death.json", "density_diffusion.json"):
        cfg = load_config(Path(__file__).parents[1] / "configs" / name)
        spec = spec_from_config(cfg)
        assert spec.family == cfg["model"]["family"]


def test_retired_solver_keys_load_and_change_nothing(tmp_path):
    # continuation.jac_mode is the one retired key still accepted
    shipped = load_config(Path(__file__).parents[1] / "configs" / "logistic_death.json")
    csvs = []
    for mode in (None, "fd", "analytic"):
        cfg = json.loads(json.dumps(shipped))
        if mode is not None:
            cfg["continuation"]["jac_mode"] = mode
        out = tmp_path / str(mode)
        assert run_command(["continue", "--config", write_cfg(tmp_path, cfg, f"{mode}.json"),
                            "--out", str(out)]) == 0
        csvs.append((out / "branch.csv").read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]
