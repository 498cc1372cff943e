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
import reprlib
import sys
from pathlib import Path

from .errors import (
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
    field_norm,
    make_spec,
)
from .oracles import (
    closed_form_critical_intensity,
    discrete_critical_intensity,
    equilibrium_population,
)
from .solver import Branch, continue_branch
from .spectral import bifurcation_point, check_simplicity
from .validate import fmt17, simulate_transient, verify_branch

_NUMERICAL_ERRORS = (
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

_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
# a solver knob of earlier versions: configs that set it still load
_IGNORED = "accepted and ignored: the corrector is one Newton method on (lambda, v, U)"

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
            },
        },
        "continuation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t0": _POSITIVE,
                "ds0": _POSITIVE,
                "ds_max": _POSITIVE,
                "lambda_max_factor": _POSITIVE,
                "u_norm_max": _POSITIVE,
                "max_points": {"type": "integer", "minimum": 1},
                "jac_mode": {"enum": ["fd", "analytic"], "description": _IGNORED},
            },
        },
        "seed": {"type": "integer", "minimum": 0},
    },
}

# the entries of the branch outputs that verify reads, and of a simulate input
META_SCHEMA = {
    "type": "object",
    "required": ["lambda0", "n_points"],
    "properties": {
        "lambda0": {"type": "number"},
        "n_points": {"type": "integer", "minimum": 0},
        "resolution_scale": {"type": "integer"},
        "config": {"type": "object"},
    },
}
SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["v", "u", "lambda", "arclength", "diagnostics"],
    "properties": {
        "lambda": {"type": "number"},
        "arclength": {"type": "number"},
        "diagnostics": {"type": "object", "required": ["newton_iters"]},
    },
}
FIELD_SCHEMA = {
    "type": "object",
    "required": ["u"],
    "properties": {"lambda": {"type": "number"}},
}


def _schema_violation(value, schema: dict, path: tuple = ()):
    """First violation of ``schema`` by ``value`` as ``(path, message)``, or None.

    Knows the keywords the input schemas use (type, enum, required,
    properties, additionalProperties, minimum, exclusiveMinimum) and reads
    them as JSON Schema does, except that it also rejects what JSON Schema
    lets through but the model cannot take: non-finite numbers (``NaN``,
    ``Infinity``, which Python's json parses) and integral floats such as
    ``8.0`` for an integer.  The tests hold it to jsonschema's decisions on a
    corpus of inputs for each schema.  A message shows a long value abridged,
    so that a whole field does not land in it.
    """
    kind = schema.get("type")
    if kind == "object" and not isinstance(value, dict):
        return path, f"{reprlib.repr(value)} is not of type 'object'"
    if kind in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return path, f"{reprlib.repr(value)} is not of type {kind!r}"
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
        return path, f"{reprlib.repr(value)} is not one of {schema['enum']!r}"
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


def _read_text(path: Path, what: str) -> str:
    """Text of an input file; a missing or unreadable one is a ConfigError."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc}") from exc


def _read_json(path: Path, what: str, schema: dict):
    """Parsed JSON input file that satisfies ``schema``; an unreadable file,
    invalid JSON or the first violation of ``schema`` is a ConfigError naming
    ``path`` (and the entry, for a violation)."""
    text = _read_text(path, what)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    violation = _schema_violation(payload, schema)
    if violation is not None:
        where, message = violation
        raise ConfigError(f"{path}: at {'/'.join(where) or '<root>'}: {message}")
    return payload


def load_config(path) -> dict:
    """Read and schema-validate a run configuration; unknown keys rejected."""
    return _read_json(Path(path), "config", CONFIG_SCHEMA)


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

def branch_records(branch: Branch, cfg: dict, seed: int,
                   resolution_scale: int = 1) -> tuple[dict, list[dict], list[dict]]:
    """The ``(meta, rows, snapshots)`` of a branch, equal to what
    :func:`read_branch_outputs` returns once :func:`write_branch_outputs` has
    written them, so ``verify_branch(*branch_records(...), spec, g)`` checks a
    branch without its files."""
    meta = {"lambda0": branch.lambda0, "termination": branch.termination,
            "n_points": len(branch.points), "phi0": branch.phi0.tolist(),
            "psi0": branch.psi0.tolist(), "seed": seed,
            "resolution_scale": resolution_scale, "config": cfg}
    rows, snapshots = [], []
    for i, pt in enumerate(branch.points):
        d = pt.diagnostics
        measures = {"u_norm": d.u_norm, "min_u": d.min_u, "r_Q_u": d.next_gen_radius,
                    "residual_norm": d.residual_norm}
        rows.append({"index": i, "arclength": pt.arclength, "lambda": pt.lam, **measures})
        # the corrector has no inner iteration; inner_iters is kept for readers
        snapshots.append({"index": i, "lambda": pt.lam, "arclength": pt.arclength,
                          "v": pt.v.tolist(), "u": pt.u.tolist(),
                          "diagnostics": {**measures, "newton_iters": d.newton_iters,
                                          "inner_iters": 0}})
    return meta, rows, snapshots


def _write_json(path: Path, payload, indent: int | None = 1) -> None:
    """``payload`` as JSON with sorted keys; the directory is created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=indent))


def _write_csv(path: Path, columns, rows) -> None:
    """A header of ``columns``, then one line per row (a dict by column): ints
    as they are, every other value with :func:`fmt17`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    def line(values):
        return ",".join(str(x) if isinstance(x, int) else fmt17(x) for x in values)
    lines = [",".join(columns)] + [line(row[c] for c in columns) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_branch_outputs(branch: Branch, out_dir, cfg: dict, seed: int,
                         resolution_scale: int = 1) -> None:
    """Write the records of ``branch``: ``branch.csv``, ``branch_meta.json``
    and ``snapshots/point_*.json``, deleting snapshots of an earlier run."""
    meta, rows, snapshots = branch_records(branch, cfg, seed, resolution_scale)
    out = Path(out_dir)
    _write_csv(out / "branch.csv", BRANCH_CSV_COLUMNS, rows)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    # snapshots of an earlier run in this directory are not of this branch
    for stale in snap_dir.glob("point_*.json"):
        stale.unlink()
    for snapshot in snapshots:
        _write_json(snap_dir / f"point_{snapshot['index']:05d}.json", snapshot, indent=None)
    _write_json(out / "branch_meta.json", meta)


def read_branch_outputs(out_dir) -> tuple[dict, list[dict], list[dict]]:
    """Load branch_meta.json, the CSV rows and the point snapshots; a missing,
    invalid or incomplete file is a ConfigError naming its path (and the line,
    for a CSV row).  The rows must be indexed ``0 .. n_points - 1`` in order."""
    out = Path(out_dir)
    meta_path, csv_path = out / "branch_meta.json", out / "branch.csv"
    meta = _read_json(meta_path, "branch metadata", META_SCHEMA)
    n_points = meta["n_points"]
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
    if [row["index"] for row in rows] != list(range(n_points)):
        raise ConfigError(f"{csv_path}: {len(rows)} rows, expected the indices "
                          f"0 .. {n_points - 1} in order ({meta_path.name} n_points)")
    snapshots = [_read_json(out / "snapshots" / f"point_{row['index']:05d}.json",
                            "snapshot", SNAPSHOT_SCHEMA) for row in rows]
    return meta, rows, snapshots


# -- subcommands ---------------------------------------------------------------

def _cmd_bifpoint(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    bif = bifurcation_point(spec, g)
    cert = check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)

    print(f"lambda0 = {fmt17(bif.lambda0)}")
    print(f"radius  = {fmt17(bif.perron.radius)}")
    print(f"phi0    in [{fmt17(bif.phi0.min())}, {fmt17(bif.phi0.max())}]")
    print(f"simplicity: pairing {fmt17(cert.pairing)}, gap {fmt17(cert.gap)} -> "
          f"{'pass' if cert.passed else 'FAIL'}")

    if args.out is not None:
        _write_json(Path(args.out) / "eigenpair.json", {
            "lambda0": bif.lambda0,
            "radius": bif.perron.radius,
            "gap": bif.perron.gap,
            "pairing": bif.perron.pairing,
            "iterations": 0,  # the eigensolve has no iteration count; key kept for readers
            "phi0": bif.phi0.tolist(),
            "psi0": bif.psi0.tolist(),
            "simplicity_passed": cert.passed,
            "fd_coefficient_derivatives": spec.derivatives_from_fd,
            "resolution_scale": args.resolution_scale,
            "config": cfg,
        })
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
    write_branch_outputs(branch, args.out, cfg, args.seed, args.resolution_scale)
    print(f"branch: {len(branch.points)} points, termination {branch.termination}")
    print(f"lambda0 = {fmt17(branch.lambda0)}")
    if branch.points:
        last = branch.points[-1]
        print(f"last point: lambda = {fmt17(last.lam)}, "
              f"u_norm = {fmt17(last.diagnostics.u_norm)}")
    return _TERMINATION_EXIT[branch.termination]


def _first_difference(recorded, given, path: str) -> str | None:
    """``"path: recorded in branch_meta.json, given in the config"`` at the
    first key, in sorted order, where two JSON values differ; None if none.
    A missing key reads ``absent`` (a valid model section holds no null)."""
    if isinstance(recorded, dict) and isinstance(given, dict):
        found = (_first_difference(recorded.get(k), given.get(k), f"{path}/{k}")
                 for k in sorted(recorded.keys() | given.keys()))
        return next((text for text in found if text is not None), None)
    if recorded == given:
        return None
    recorded, given = ("absent" if x is None else json.dumps(x) for x in (recorded, given))
    return f"{path}: {recorded} in branch_meta.json, {given} in the config"


def _cmd_verify(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    meta, rows, snapshots = read_branch_outputs(args.out)
    # the checks hold the branch to the config's model, which must be the one
    # it was computed for; continuation and seed may differ
    meta_path = Path(args.out) / "branch_meta.json"
    # a branch written before the scale was recorded was computed at scale 1
    scale = meta.get("resolution_scale", 1)
    if scale != args.resolution_scale:
        raise ConfigError(f"{meta_path}: computed at resolution scale {scale}, "
                          f"verified at resolution scale {args.resolution_scale}")
    difference = _first_difference(meta.get("config", {}).get("model"), cfg["model"], "model")
    if difference is not None:
        raise ConfigError(f"{meta_path}: computed for another model: {difference}")
    checks = verify_branch(meta, rows, snapshots, spec, g)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    passed = sum(ok for _, ok, _ in checks)
    print(f"verify: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def _cmd_simulate(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    path = args.snapshot if args.snapshot is not None else args.field
    if path is None:
        raise ConfigError("simulate needs --snapshot or --field")
    path = Path(path)
    payload = _read_json(path, "simulate input", FIELD_SCHEMA)
    u0 = check_age_space(payload["u"], g, f"{path}: u")
    lam = payload.get("lambda") if args.lam is None else args.lam
    if lam is None:
        raise ConfigError(f"{path}: simulate needs an intensity: --lam or a "
                          "'lambda' entry in the file")

    start_norm = field_norm(u0, g)
    state = simulate_transient(u0, lam, args.steps, spec, g)

    history = enumerate(zip(state.drift_history, state.min_history))
    _write_csv(Path(args.out) / "drift.csv", DRIFT_CSV_COLUMNS,
               [dict(zip(DRIFT_CSV_COLUMNS, (step, (step + 1) * g.da, drift, low)))
                for step, (drift, low) in history])

    total = field_norm(state.field - u0, g) / max(start_norm, 1e-300)
    print(f"simulate: {args.steps} steps, cumulative drift {fmt17(total)}, "
          f"min entry {fmt17(state.field.min())}")
    return 0


def _cmd_oracle(args, cfg: dict, spec: ModelSpec, g: Grid) -> int:
    p = spec.family_params
    mu0, b0 = p["mu0"], p["b0"]

    lam_cont = closed_form_critical_intensity(mu0, b0, spec.a_max)
    lam_disc = discrete_critical_intensity(mu0, b0, g)
    print(f"critical intensity (continuum) = {fmt17(lam_cont)}")
    print(f"critical intensity (grid)      = {fmt17(lam_disc)}")
    print(f"difference                     = {fmt17(lam_disc - lam_cont)}")

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
            print(f"  {fmt17(lam)}  {fmt17(U)}")
        payload["homogeneous_branch"] = table

    if args.out is not None:
        _write_json(Path(args.out) / "oracle.json", payload)
    return 0


def _checked(convert, ok, fault: str):
    """argparse type: ``convert(text)``, rejected with ``fault`` unless ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} {fault}")
        return value
    return parse


_positive_int = _checked(int, lambda value: value >= 1, "is not a positive integer")
_finite_float = _checked(float, math.isfinite, "is not a finite number")


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
    sim.add_argument("--lam", type=_finite_float, default=None,
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
