"""Command-line interface: config ingestion, pipeline orchestration, export.

Subcommands: ``bifpoint`` (critical intensity and eigenpair), ``continue``
(branch continuation with CSV/JSON export), ``verify`` (re-check an exported
branch), ``simulate`` (transient run), ``oracle`` (scalar cross-checks).
All floating-point CSV output uses 17 significant digits so files round-trip
exactly; identical config and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    CoefficientBoundError,
    ConfigError,
    NoPositiveEigenvalueError,
    PositivityError,
    SingularSystemError,
    StepFailureError,
)
from .model import (
    FAMILY_NAMES,
    Grid,
    ModelSpec,
    build_grid,
    check_age_space,
    check_spatial,
    field_norm,
    make_spec,
    total_population,
    trace_norm,
)
from .operators import birth_functional, evolve
from .oracles import (
    closed_form_critical_intensity,
    discrete_critical_intensity,
    equilibrium_population,
)
from .solver import (
    Branch,
    BranchPoint,
    PointDiagnostics,
    branch_invariant_check,
    continue_branch,
)
from .spectral import bifurcation_point, check_simplicity
from .validate import kernel_dimension, simulate_transient

_NUMERICAL_ERRORS = (
    CoefficientBoundError,
    NoPositiveEigenvalueError,
    PositivityError,
    SingularSystemError,
    StepFailureError,
    ValueError,
    ArithmeticError,
)

BRANCH_CSV_COLUMNS = ("index", "arclength", "lambda", "u_norm", "min_u",
                      "r_Q_u", "residual_norm")
DRIFT_CSV_COLUMNS = ("step", "t", "drift", "min_u")
# the snapshot entries that verify reads
_SNAPSHOT_KEYS = ("v", "u", "lambda", "arclength", "diagnostics.newton_iters")

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# solver knobs of earlier versions: configs that set them still load
_IGNORED = "accepted and ignored: the corrector is one Newton method on (lambda, v, U)"
_IGNORED_EIGEN = ("accepted and ignored: the Perron pair comes from one dense "
                  "LAPACK eigensolve, which takes no tolerance")

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["model"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": list(FAMILY_NAMES)},
                "params": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "x_min": {"type": "number"},
                "x_max": {"type": "number"},
                "a_max": _POSITIVE,
                "n_x": {"type": "integer", "minimum": 3},
                "n_a": {"type": "integer", "minimum": 2},
                "newton_tol": _POSITIVE,
                "inner_tol": {**_POSITIVE, "description": _IGNORED},
                "eigen_tol": {**_POSITIVE, "description": _IGNORED_EIGEN},
                "fd_eps": {**_POSITIVE, "description": _IGNORED},
                "simplicity_tol": _POSITIVE,
                "gap_tol": _POSITIVE,
                "rank_tol": _POSITIVE,
                "radius_identity_tol": _POSITIVE,
            },
        },
        "continuation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t0": _POSITIVE,
                "ds0": _POSITIVE,
                "ds_min": _POSITIVE,
                "ds_max": _POSITIVE,
                "lambda_max": {"type": "number"},
                "lambda_max_factor": _POSITIVE,
                "u_norm_max": _POSITIVE,
                "max_points": {"type": "integer", "minimum": 1},
                "pos_tol": _POSITIVE,
                "jac_mode": {"enum": ["fd", "analytic"], "description": _IGNORED},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}


def _schema_violation(value, schema: dict, path: tuple = ()):
    """First violation of ``schema`` by ``value`` as ``(path, message)``, or None.

    Knows the keywords CONFIG_SCHEMA uses (type, enum, required, properties,
    additionalProperties, minimum, exclusiveMinimum) and reads them as JSON
    Schema does, except that it also rejects what JSON Schema lets through but
    the model cannot take: non-finite numbers (``NaN``, ``Infinity``, which
    Python's json parses) and integral floats such as ``8.0`` for an integer.
    The tests hold it to jsonschema's decisions on a corpus of configs.
    """
    kind = schema.get("type")
    if kind == "object" and not isinstance(value, dict):
        return path, f"{value!r} is not of type 'object'"
    if kind in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return path, f"{value!r} is not of type {kind!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return path, f"{value!r} is not a finite number"
        if kind == "integer" and not isinstance(value, int):
            return path, f"{value!r} is not an integer (write it without a fraction)"
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, extra)
            if sub is False:
                return path, f"Additional properties are not allowed ({key!r} was unexpected)"
            if sub is not True:
                violation = _schema_violation(item, sub, path + (key,))
                if violation is not None:
                    return violation
    return None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _read_text(path: Path, what: str) -> str:
    """Text of an input file; a missing or unreadable one is a ConfigError."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc}") from exc


def _read_json(path: Path, what: str):
    """Parsed JSON input file; unreadable or invalid JSON is a ConfigError."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


def load_config(path) -> dict:
    """Read and schema-validate a run configuration; unknown keys rejected."""
    path = Path(path)
    cfg = _read_json(path, "config")
    violation = _schema_violation(cfg, CONFIG_SCHEMA)
    if violation is not None:
        where, message = violation
        raise ConfigError(f"{path}: at {'/'.join(where) or '<root>'}: {message}")
    return cfg


def spec_from_config(cfg: dict, resolution_scale: int = 1) -> ModelSpec:
    """Build the model from a validated config, optionally scaling the grid.

    Every key of the ``model`` and ``continuation`` sections that names a
    :class:`ModelSpec` field is passed on; the others (``family``,
    ``params`` and the keys the schema accepts and ignores) are not fields.
    """
    settings = {**cfg["model"], **cfg.get("continuation", {})}
    family, params = settings.pop("family"), settings.pop("params", None)
    fields = {f.name for f in dataclasses.fields(ModelSpec)}
    spec = make_spec(family, params, **{k: v for k, v in settings.items() if k in fields})
    if resolution_scale != 1:
        spec = dataclasses.replace(spec, n_x=resolution_scale * spec.n_x,
                                   n_a=resolution_scale * spec.n_a)
    return spec


# -- export -------------------------------------------------------------------

def _diagnostics_dict(d: PointDiagnostics) -> dict:
    return {
        "residual_norm": d.residual_norm,
        "min_u": d.min_u,
        "u_norm": d.u_norm,
        "r_Q_u": d.next_gen_radius,
        "newton_iters": d.newton_iters,
        "inner_iters": 0,  # the corrector has no inner iteration; key kept for readers
    }


def write_branch_outputs(branch: Branch, out_dir, cfg: dict, seed: int) -> Path:
    out = Path(out_dir)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(parents=True, exist_ok=True)

    lines = [",".join(BRANCH_CSV_COLUMNS)]
    for i, pt in enumerate(branch.points):
        d = pt.diagnostics
        lines.append(",".join([
            str(i), _fmt(pt.arclength), _fmt(pt.lam), _fmt(d.u_norm),
            _fmt(d.min_u), _fmt(d.next_gen_radius), _fmt(d.residual_norm),
        ]))
    csv_path = out / "branch.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    for i, pt in enumerate(branch.points):
        snapshot = {
            "index": i,
            "lambda": pt.lam,
            "arclength": pt.arclength,
            "v": pt.v.tolist(),
            "u": pt.u.tolist(),
            "diagnostics": _diagnostics_dict(pt.diagnostics),
        }
        (snap_dir / f"point_{i:05d}.json").write_text(
            json.dumps(snapshot, sort_keys=True)
        )

    meta = {
        "lambda0": branch.lambda0,
        "termination": branch.termination,
        "n_points": len(branch.points),
        "phi0": branch.phi0.tolist(),
        "psi0": branch.psi0.tolist(),
        "seed": seed,
        "config": cfg,
    }
    (out / "branch_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1))
    return csv_path


def _require_keys(payload, keys, path: Path, what: str) -> None:
    """ConfigError naming ``path`` unless the JSON object has every key
    (dotted keys reach into nested objects)."""
    for key in keys:
        node = payload
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ConfigError(f"{path}: {what} has no '{key}' entry")
            node = node[part]


def _number(payload: dict, key: str, path: Path, what: str) -> float:
    """``payload[key]`` as a float; anything but a finite JSON number (a
    string, a bool, null, NaN) is a ConfigError naming ``path`` and ``key``."""
    violation = _schema_violation(payload[key], {"type": "number"})
    if violation is not None:
        raise ConfigError(f"{path}: {what} '{key}': {violation[1]}")
    return float(payload[key])


def read_branch_outputs(out_dir) -> tuple[dict, list[dict], list[dict]]:
    """Load branch_meta.json, the CSV rows and the point snapshots; a missing,
    invalid or incomplete file is a ConfigError naming its path (and the line,
    for a CSV row)."""
    out = Path(out_dir)
    meta_path, csv_path = out / "branch_meta.json", out / "branch.csv"
    meta = _read_json(meta_path, "branch metadata")
    _require_keys(meta, ("lambda0",), meta_path, "branch metadata")
    meta["lambda0"] = _number(meta, "lambda0", meta_path, "branch metadata")
    csv_lines = _read_text(csv_path, "branch CSV").rstrip().splitlines()
    header = ",".join(BRANCH_CSV_COLUMNS)
    if not csv_lines or csv_lines[0] != header:
        found = csv_lines[0] if csv_lines else ""
        raise ConfigError(f"{csv_path}:1: expected the header {header!r}, found {found!r}")
    rows = []
    for lineno, line in enumerate(csv_lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(BRANCH_CSV_COLUMNS):
            raise ConfigError(f"{csv_path}:{lineno}: {len(parts)} fields, "
                              f"expected {len(BRANCH_CSV_COLUMNS)}")
        try:
            rows.append({
                "index": int(parts[0]),
                **{name: float(val) for name, val in zip(BRANCH_CSV_COLUMNS[1:], parts[1:])},
            })
        except ValueError as exc:
            raise ConfigError(f"{csv_path}:{lineno}: {exc}") from exc
    snapshots = []
    for row in rows:
        snap_path = out / "snapshots" / f"point_{row['index']:05d}.json"
        snapshot = _read_json(snap_path, "snapshot")
        _require_keys(snapshot, _SNAPSHOT_KEYS, snap_path, "snapshot")
        for key in ("lambda", "arclength"):
            snapshot[key] = _number(snapshot, key, snap_path, "snapshot")
        snapshots.append(snapshot)
    return meta, rows, snapshots


# -- subcommands ---------------------------------------------------------------

def _cmd_bifpoint(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    bif = bifurcation_point(spec, g)
    cert = check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)

    print(f"lambda0 = {_fmt(bif.lambda0)}")
    print(f"radius  = {_fmt(bif.perron.radius)}")
    print(f"phi0    in [{_fmt(bif.phi0.min())}, {_fmt(bif.phi0.max())}]")
    print(f"simplicity: pairing {_fmt(cert.pairing)}, gap {_fmt(cert.gap)} -> "
          f"{'pass' if cert.passed else 'FAIL'}")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = {
            "lambda0": bif.lambda0,
            "radius": bif.perron.radius,
            "gap": bif.perron.gap,
            "pairing": bif.perron.pairing,
            "iterations": 0,  # the eigensolve has no iteration count; key kept for readers
            "phi0": bif.phi0.tolist(),
            "psi0": bif.psi0.tolist(),
            "simplicity_passed": cert.passed,
            "fd_coefficient_derivatives": spec.derivatives_from_fd,
            "config": cfg,
        }
        (out / "eigenpair.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    return 0


_TERMINATION_EXIT = {
    "box_lambda": 0,
    "box_norm": 0,
    "max_points": 0,
    "step_failure": 2,
    "left_positive_cone": 3,
}


def _cmd_continue(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    branch = continue_branch(spec, g)
    out = Path(args.out)
    write_branch_outputs(branch, out, cfg, args.seed)
    print(f"branch: {len(branch.points)} points, termination {branch.termination}")
    print(f"lambda0 = {_fmt(branch.lambda0)}")
    if branch.points:
        last = branch.points[-1]
        print(f"last point: lambda = {_fmt(last.lam)}, "
              f"u_norm = {_fmt(last.diagnostics.u_norm)}")
    return _TERMINATION_EXIT[branch.termination]


def _check(results: list, name: str, ok: bool, detail: str) -> None:
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def _cmd_verify(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    meta, rows, snapshots = read_branch_outputs(args.out)
    results: list[bool] = []

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(b))

    for row, snap in zip(rows, snapshots):
        i = row["index"]
        v = check_spatial(snap["v"], g, f"snapshot {i} trace")
        u = check_age_space(snap["u"], g, f"snapshot {i}")
        lam = snap["lambda"]
        diags = PointDiagnostics(
            residual_norm=row["residual_norm"],
            min_u=row["min_u"],
            u_norm=row["u_norm"],
            next_gen_radius=row["r_Q_u"],
            newton_iters=snap["diagnostics"]["newton_iters"],
        )
        pt = BranchPoint(lam=lam, v=v, u=u, arclength=row["arclength"],
                         diagnostics=diags)
        report = branch_invariant_check(pt, spec, g)

        U = total_population(u, g)
        resid = trace_norm(v - birth_functional(U, u, lam, spec, g), g)
        roundtrip = (close(lam, row["lambda"])
                     and close(snap["arclength"], row["arclength"])
                     and close(resid, row["residual_norm"])
                     and close(field_norm(u, g), row["u_norm"])
                     and close(float(u.min()), row["min_u"])
                     and close(report.radius, row["r_Q_u"]))
        _check(results, f"point {i} roundtrip", roundtrip,
               f"residual {_fmt(resid)} vs CSV {_fmt(row['residual_norm'])}")
        _check(results, f"point {i} radius identity", report.radius_ok,
               f"|lam*r - 1| = {_fmt(report.radius_defect)}")
        _check(results, f"point {i} positivity", report.positivity_ok,
               f"min_u = {_fmt(report.min_u)}")
        _check(results, f"point {i} oracle residual", report.residual_ok,
               f"full residual {_fmt(report.full_residual_norm)}")

        # the trace must be an eigenvector of the frozen return map
        Qv = birth_functional(U, evolve(U, v, spec, g), lam, spec, g)
        vmax = float(np.max(np.abs(v)))
        eig_defect = float(np.max(np.abs(Qv - v)))
        _check(results, f"point {i} eigen consistency",
               eig_defect <= spec.radius_identity_tol * max(vmax, 1e-300),
               f"|lam*Q(u)v - v| = {_fmt(eig_defect)}")

    lam0 = meta["lambda0"]
    kernel = kernel_dimension(lam0, np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    _check(results, "kernel dimension", kernel.dim == 1 and kernel.agree,
           f"dim = {kernel.dim}, eigen dim = {kernel.dim_eigen}")
    # the crossing is transversal when the left and right null vectors pair
    pairing = bifurcation_point(spec, g).perron.pairing
    _check(results, "transversality", pairing > spec.simplicity_tol,
           f"pairing = {_fmt(pairing)}")

    all_ok = all(results)
    print(f"verify: {sum(results)}/{len(results)} checks passed")
    return 0 if all_ok else 1


def _cmd_simulate(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    path = args.snapshot if args.snapshot is not None else args.field
    if path is None:
        raise ConfigError("simulate needs --snapshot or --field")
    path = Path(path)
    payload = _read_json(path, "simulate input")
    if not isinstance(payload, dict) or "u" not in payload:
        raise ConfigError(f"{path}: no 'u' entry with the age-space field")
    u0 = check_age_space(payload["u"], g, f"{path}: u")
    lam = args.lam
    if lam is None:
        if "lambda" not in payload:
            raise ConfigError(f"{path}: simulate needs an intensity: --lam or a "
                              "'lambda' entry in the file")
        lam = _number(payload, "lambda", path, "simulate input")

    start_norm = field_norm(u0, g)
    state = simulate_transient(u0, lam, args.steps, spec, g)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(DRIFT_CSV_COLUMNS)]
    for step, (drift, min_u) in enumerate(zip(state.drift_history, state.min_history)):
        lines.append(",".join([
            str(step), _fmt((step + 1) * g.da), _fmt(drift), _fmt(min_u),
        ]))
    (out / "drift.csv").write_text("\n".join(lines) + "\n")

    total = field_norm(state.field - u0, g) / max(start_norm, 1e-300)
    print(f"simulate: {args.steps} steps, cumulative drift {_fmt(total)}, "
          f"min entry {_fmt(state.field.min())}")
    return 0


def _cmd_oracle(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    p = spec.family_params
    mu0, b0 = p["mu0"], p["b0"]

    lam_cont = closed_form_critical_intensity(mu0, b0, spec.a_max)
    lam_disc = discrete_critical_intensity(mu0, b0, g)
    print(f"critical intensity (continuum) = {_fmt(lam_cont)}")
    print(f"critical intensity (grid)      = {_fmt(lam_disc)}")
    print(f"difference                     = {_fmt(lam_disc - lam_cont)}")

    payload = {
        "critical_intensity_continuum": lam_cont,
        "critical_intensity_grid": lam_disc,
        "family": spec.family,
        "params": p,
    }
    kappa = p.get("kappa", 0.0)
    if kappa > 0.0:
        table = []
        print("homogeneous branch (lambda, U):")
        for mult in (1.1, 1.25, 1.5, 1.75, 2.0):
            lam = mult * lam_disc
            U = equilibrium_population(lam, mu0, kappa, b0, g)
            table.append({"lambda": lam, "U": U})
            print(f"  {_fmt(lam)}  {_fmt(U)}")
        payload["homogeneous_branch"] = table

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "oracle.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agebranch",
        description="Positive-equilibrium branch continuation for "
                    "age-structured populations with density-dependent diffusion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", required=out_required, default=None,
                       help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded with the outputs")
        p.add_argument("--resolution-scale", type=_positive_int, default=1,
                       dest="resolution_scale",
                       help="multiply n_a and n_x for convergence studies")

    common(sub.add_parser("bifpoint", help="critical intensity and eigenpair"),
           out_required=False)
    common(sub.add_parser("continue", help="trace the positive branch"),
           out_required=True)
    common(sub.add_parser("verify", help="re-check an exported branch"),
           out_required=True)

    sim = sub.add_parser("simulate", help="transient run from a branch point")
    common(sim, out_required=True)
    sim.add_argument("--snapshot", default=None, help="branch point JSON")
    sim.add_argument("--field", default=None, help="JSON file with an 'u' array")
    sim.add_argument("--lam", type=float, default=None,
                     help="intensity override for the transient")
    sim.add_argument("--steps", type=_positive_int, default=100)

    common(sub.add_parser("oracle", help="scalar-reduction cross-checks"),
           out_required=False)
    return parser


_COMMANDS = {
    "bifpoint": _cmd_bifpoint,
    "continue": _cmd_continue,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def run_command(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        try:
            spec = spec_from_config(cfg, args.resolution_scale)
            g = build_grid(spec)
        except ValueError as exc:  # a parameter or domain the model rejects
            raise ConfigError(f"{args.config}: {exc}") from exc
        return _COMMANDS[args.command](args, cfg, spec, g)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run_command(argv)


if __name__ == "__main__":
    sys.exit(main())
