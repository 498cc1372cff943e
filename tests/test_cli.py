import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import agebranch
from agebranch import Branch, build_grid, make_spec
from agebranch.cli import (
    BRANCH_CSV_COLUMNS,
    CONFIG_SCHEMA,
    _schema_violation,
    load_config,
    read_branch_outputs,
    run_command,
    spec_from_config,
)
from agebranch.errors import ConfigError
from agebranch.oracles import closed_form_critical_intensity, discrete_critical_intensity

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


def test_config_schema_is_a_valid_schema():
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


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


def _config_corpus():
    """(config, extra) pairs: every shipped config and the small test configs,
    and mutations of each shipped config by type, enum value, bound, missing
    and additional key.  ``extra`` marks the two cases the checker rejects
    beyond JSON Schema: a non-finite number, an integral float for an integer."""
    shipped = [json.loads(p.read_text())
               for p in sorted((Path(__file__).parents[1] / "configs").glob("*.json"))]
    corpus = [(cfg, False) for cfg in (*shipped, SMALL_LOGISTIC, SMALL_CONSTANT)]
    schemas = dict(_schema_paths(CONFIG_SCHEMA))

    def extra(path, value):
        return isinstance(value, float) and (
            not math.isfinite(value)
            or (schemas.get(path, {}).get("type") == "integer" and value.is_integer()))

    for base in shipped:
        for path in sorted(set(schemas) | set(_config_paths(base))):
            sub = schemas.get(path, {})
            values = [*_ANY, *sub.get("enum", ()), "bogus"]
            for bound in (sub.get("minimum"), sub.get("exclusiveMinimum")):
                if bound is not None:
                    values += [bound - 1, bound, bound + 1, float(bound),
                               bound - 1e-9, bound + 1e-9]
            corpus += [(_mutated(base, path, value), extra(path, value)) for value in values]
            corpus.append((_mutated(base, path, delete=True), False))
        for parent in ((), ("model",), ("continuation",), ("model", "params")):
            path = parent + ("extra_key",)
            corpus += [(_mutated(base, path, value), extra(path, value))
                       for value in ("x", 1.0, float("nan"))]
    return corpus


def test_config_checker_decides_as_jsonschema_does():
    reference = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)
    corpus = _config_corpus()
    assert len(corpus) > 2000
    for cfg, extra in corpus:
        accepted = _schema_violation(cfg, CONFIG_SCHEMA) is None
        assert accepted == (reference.is_valid(cfg) and not extra), cfg


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
    doubled = spec_from_config(SMALL_LOGISTIC, resolution_scale=2)
    assert doubled.n_x == 20 and doubled.n_a == 60


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

    def fake_continue(spec, g, params=None):
        return Branch(points=[], termination=termination, tangent_history=[],
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
    drifts = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(drifts) <= 1e-6  # snapshots are equilibria


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


@pytest.mark.parametrize("spoil,where", [
    (_spoil_csv_line(3, lambda line: ",".join(line.split(",")[:4])), ":3: 4 fields"),
    (lambda lines: [], ":1: expected the header"),
    (_spoil_csv_line(1, lambda line: line.replace("lambda", "lam")), ":1: expected the header"),
    (_spoil_csv_line(2, lambda line: line.replace(",", ",x", 1)), ":2: could not convert"),
], ids=["short_row", "empty", "bad_header", "non_numeric"])
def test_verify_names_a_broken_csv_line(small_run, tmp_path, capsys, spoil, where):
    cfg_path, out, _ = small_run
    copy = _copy_run(out, tmp_path / "copy")
    csv_path = copy / "branch.csv"
    lines = spoil(csv_path.read_text().splitlines())
    csv_path.write_text("".join(line + "\n" for line in lines))
    assert run_command(["verify", "--config", cfg_path, "--out", str(copy)]) == 4
    assert f"config error: {csv_path}{where}" in capsys.readouterr().err


@pytest.mark.parametrize("name,key", [
    *(("snapshots/point_00001.json", key)
      for key in ("v", "u", "lambda", "arclength", "diagnostics.newton_iters")),
    ("branch_meta.json", "lambda0"),
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
    err = capsys.readouterr().err
    assert f"config error: {copy / name}: " in err and f"has no '{key}' entry" in err


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


def test_simulate_names_a_field_file_without_u(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SMALL_LOGISTIC)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"lambda": 1.0}))
    assert run_command(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim"),
                        "--field", str(path)]) == 4
    assert f"{path}: no 'u' entry" in capsys.readouterr().err


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


def test_shipped_configs_validate():
    for name in ("constant.json", "logistic_death.json", "density_diffusion.json"):
        cfg = load_config(Path(__file__).parents[1] / "configs" / name)
        spec = spec_from_config(cfg)
        assert spec.family == cfg["model"]["family"]


def test_retired_solver_keys_load_and_change_nothing(tmp_path):
    shipped = load_config(Path(__file__).parents[1] / "configs" / "logistic_death.json")
    csvs = []
    for name, section, key, value in (("fd", "continuation", "jac_mode", "fd"),
                                      ("analytic", "continuation", "jac_mode", "analytic"),
                                      ("eigen_tol", "model", "eigen_tol", 1e-3)):
        cfg = json.loads(json.dumps(shipped))
        cfg[section][key] = value
        out = tmp_path / name
        assert run_command(["continue", "--config", write_cfg(tmp_path, cfg, f"{name}.json"),
                            "--out", str(out)]) == 0
        csvs.append((out / "branch.csv").read_bytes())
    assert csvs[0] == csvs[1] == csvs[2]

    cfg = json.loads(json.dumps(SMALL_LOGISTIC))
    cfg["model"].update(inner_tol=1e-11, fd_eps=1e-7)
    spec = spec_from_config(load_config(write_cfg(tmp_path, cfg)))
    assert (spec.n_x, spec.newton_tol) == (10, 1e-10)
