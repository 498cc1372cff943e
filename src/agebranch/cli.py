"""Command-line interface: argument parsing and the five subcommands.

Subcommands: ``bifpoint`` (critical intensity and eigenpair), ``continue``
(branch continuation, written as CSV and JSON records), ``verify`` (re-check
a written branch), ``simulate`` (transient run), ``oracle`` (scalar
cross-checks).  The file formats live in :mod:`agebranch.records`; identical
config and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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
from .records import (
    DRIFT_CSV_COLUMNS,
    FIELD_SCHEMA,
    fmt17,
    load_config,
    read_branch_outputs,
    read_json,
    write_branch_outputs,
    write_csv,
    write_json,
)
from .solver import continue_branch
from .spectral import bifurcation_point, check_simplicity
from .validate import simulate_transient, verify_branch

_NUMERICAL_ERRORS = (
    NoPositiveEigenvalueError,
    PositivityError,
    SingularSystemError,
    StepFailureError,
    ValueError,
    ArithmeticError,
)


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
        write_json(Path(args.out) / "eigenpair.json", {
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
    payload = read_json(path, "simulate input", FIELD_SCHEMA)
    u0 = check_age_space(payload["u"], g, f"{path}: u")
    lam = payload.get("lambda") if args.lam is None else args.lam
    if lam is None:
        raise ConfigError(f"{path}: simulate needs an intensity: --lam or a "
                          "'lambda' entry in the file")

    start_norm = field_norm(u0, g)
    state = simulate_transient(u0, lam, args.steps, spec, g)

    history = enumerate(zip(state.drift_history, state.min_history))
    write_csv(Path(args.out) / "drift.csv", DRIFT_CSV_COLUMNS,
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
        write_json(Path(args.out) / "oracle.json", payload)
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
