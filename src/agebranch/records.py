"""The on-disk format: column tuples, JSON schemas, readers and writers.

A run configuration is read against :data:`CONFIG_SCHEMA`.  ``continue``
writes the records of a branch as ``branch.csv``, ``branch_meta.json`` and
``snapshots/point_*.json``; ``verify`` reads them back.  All CSV floats carry
17 significant digits (:func:`fmt17`) so files round-trip exactly, and the
CSV reader accepts only what the writer writes.  Every unreadable, invalid or
incomplete input is a :class:`ConfigError` naming its path.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from pathlib import Path

from .errors import ConfigError
from .model import FAMILY_NAMES
from .solver import Branch

BRANCH_CSV_COLUMNS = ("index", "arclength", "lambda", "u_norm", "min_u",
                      "r_Q_u", "residual_norm")
DRIFT_CSV_COLUMNS = ("step", "t", "drift", "min_u")

# a CSV field as str(int) or fmt17 writes a finite number: no blanks, no
# sign but a minus, no inf, nan, hexadecimal or digit separators
_CSV_NUMBER = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[+-][0-9]+)?")

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


def fmt17(x: float) -> str:
    """``x`` with 17 significant digits, enough to read back the same float."""
    return format(float(x), ".17g")


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
    """Text of an input file; a missing, unreadable or non-UTF-8 one is a
    ConfigError."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc}") from exc


def read_json(path: Path, what: str, schema: dict):
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
    return read_json(Path(path), "config", CONFIG_SCHEMA)


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


def write_json(path: Path, payload, indent: int | None = 1) -> None:
    """``payload`` as JSON with sorted keys; the directory is created."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=indent))


def write_csv(path: Path, columns, rows) -> None:
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
    write_csv(out / "branch.csv", BRANCH_CSV_COLUMNS, rows)
    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    # snapshots of an earlier run in this directory are not of this branch
    for stale in snap_dir.glob("point_*.json"):
        stale.unlink()
    for snapshot in snapshots:
        write_json(snap_dir / f"point_{snapshot['index']:05d}.json", snapshot, indent=None)
    write_json(out / "branch_meta.json", meta)


def read_branch_outputs(out_dir) -> tuple[dict, list[dict], list[dict]]:
    """Load branch_meta.json, the CSV rows and the point snapshots; a missing,
    invalid or incomplete file is a ConfigError naming its path (and the line,
    for a CSV row, and the column, for a field).  A field must be written as
    :func:`write_csv` writes a finite number.  The rows must be indexed
    ``0 .. n_points - 1`` in order."""
    out = Path(out_dir)
    meta_path, csv_path = out / "branch_meta.json", out / "branch.csv"
    meta = read_json(meta_path, "branch metadata", META_SCHEMA)
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
        row = {}
        for column, text in zip(BRANCH_CSV_COLUMNS, parts):
            try:
                value = (int if column == "index" else float)(text)
            except ValueError as exc:
                raise ConfigError(f"{csv_path}:{lineno}: {exc}") from exc
            if not (_CSV_NUMBER.fullmatch(text) and math.isfinite(value)):
                raise ConfigError(f"{csv_path}:{lineno}: at column {column}: "
                                  f"{text!r} is not a finite number as fmt17 writes it")
            row[column] = value
        rows.append(row)
    if [row["index"] for row in rows] != list(range(n_points)):
        raise ConfigError(f"{csv_path}: {len(rows)} rows, expected the indices "
                          f"0 .. {n_points - 1} in order ({meta_path.name} n_points)")
    snapshots = [read_json(out / "snapshots" / f"point_{row['index']:05d}.json",
                           "snapshot", SNAPSHOT_SCHEMA) for row in rows]
    return meta, rows, snapshots
