"""Acceptance suite: each numbered check prints one pass/fail line.

The continuation checks run on the shipped logistic configuration through the
command-line pipeline, so the same artifacts cover the CSV determinism check.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from agebranch import (
    branch_invariant_check,
    build_grid,
    continue_branch,
    field_norm,
    jacobian,
    make_spec,
    total_population,
    weighted_inner,
)
from agebranch.cli import run_command, spec_from_config
from agebranch.oracles import closed_form_critical_intensity, equilibrium_intensity
from agebranch.records import read_branch_outputs
from agebranch.solver import BranchPoint, PointDiagnostics
from agebranch.spectral import bifurcation_point, check_simplicity
from agebranch.validate import kernel_dimension, simulate_transient

CONFIG_PATH = Path(__file__).parents[1] / "configs" / "logistic_death.json"


def report(number, ok, detail):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def shipped_config():
    return json.loads(CONFIG_PATH.read_text())


@pytest.fixture(scope="module")
def logistic_setup(shipped_config):
    spec = spec_from_config(shipped_config)
    g = build_grid(spec)
    return spec, g


@pytest.fixture(scope="module")
def branch_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "run1"
    start = time.perf_counter()
    code = run_command(["continue", "--config", str(CONFIG_PATH), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


@pytest.fixture(scope="module")
def branch_points(branch_run, logistic_setup):
    out, _ = branch_run
    spec, g = logistic_setup
    meta, rows, snapshots = read_branch_outputs(out)
    points = []
    for row, snap in zip(rows, snapshots):
        diags = PointDiagnostics(
            residual_norm=row["residual_norm"],
            min_u=row["min_u"],
            u_norm=row["u_norm"],
            next_gen_radius=row["r_Q_u"],
            newton_iters=snap["diagnostics"]["newton_iters"],
        )
        points.append(BranchPoint(
            lam=float(snap["lambda"]),
            v=np.asarray(snap["v"], dtype=float),
            u=np.asarray(snap["u"], dtype=float),
            arclength=row["arclength"],
            diagnostics=diags,
        ))
    return meta, points


@pytest.fixture(scope="module")
def invariant_reports(branch_points, logistic_setup):
    spec, g = logistic_setup
    _, points = branch_points
    return [branch_invariant_check(pt, spec, g) for pt in points]


def test_criterion_1_closed_form_bifurcation_point():
    exact = closed_form_critical_intensity(1.0, 1.0, 1.0)
    start = time.perf_counter()
    errors = []
    for n_a in (100, 200, 400):
        spec = make_spec("constant", n_x=32, n_a=n_a)
        g = build_grid(spec)
        lam0 = bifurcation_point(spec, g).lambda0
        errors.append(abs(lam0 - exact))
    elapsed = time.perf_counter() - start

    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    rel_err = errors[-1] / exact
    ok = all(1.6 <= r <= 2.4 for r in ratios) and rel_err <= 5e-3 and elapsed <= 5.0
    report(1, ok, f"ratios {ratios[0]:.3f}/{ratios[1]:.3f}, rel err {rel_err:.2e}, "
                  f"{elapsed:.2f}s")


def test_criterion_2_perron_structure():
    spec = make_spec("constant", n_x=32, n_a=400)
    g = build_grid(spec)
    bif = bifurcation_point(spec, g)
    cert = check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)
    deviation = float(np.max(np.abs(bif.phi0 - 1.0)))
    ok = deviation <= 1e-8 and cert.passed and cert.gap >= 0.1
    report(2, ok, f"eigenvector deviation {deviation:.2e}, gap {cert.gap:.3f}")


def test_criterion_3_scalar_branch_oracle(branch_run, branch_points, logistic_setup):
    _, elapsed = branch_run
    spec, g = logistic_setup
    meta, points = branch_points

    worst_lam = 0.0
    worst_const = 0.0
    for pt in points:
        U = total_population(pt.u, g)
        U_mean = float(np.mean(U))
        worst_const = max(worst_const, float(np.max(np.abs(U - U_mean))))
        lam_oracle = equilibrium_intensity(U_mean, 1.0, 1.0, 1.0, g)
        worst_lam = max(worst_lam, abs(pt.lam - lam_oracle) / pt.lam)

    ok = (meta["termination"] in ("box_lambda", "box_norm")
          and len(points) >= 20
          and worst_lam <= 1e-6
          and worst_const <= 1e-8
          and elapsed <= 60.0)
    report(3, ok, f"{len(points)} points to {meta['termination']}, "
                  f"oracle err {worst_lam:.2e}, homogeneity {worst_const:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_4_tangent_property(logistic_setup):
    spec, g = logistic_setup

    def first_point_angle(t0):
        branch = continue_branch(replace(spec, t0=t0, max_points=1), g)
        v = branch.points[0].v
        cos = weighted_inner(v, branch.phi0, g) / np.sqrt(
            weighted_inner(v, v, g) * weighted_inner(branch.phi0, branch.phi0, g))
        return float(np.degrees(np.arccos(min(1.0, cos))))

    coarse = first_point_angle(1e-2)
    fine = first_point_angle(1e-3)
    ok = coarse <= 5.0 and fine <= 1.0
    report(4, ok, f"angle {coarse:.2e} deg at t0=1e-2, {fine:.2e} deg at t0=1e-3")


def test_criterion_5_radius_identity(invariant_reports):
    worst = max(rep.radius_defect for rep in invariant_reports)
    report(5, worst <= 1e-6, f"max |lam*r(Q(u)) - 1| = {worst:.2e} over "
                             f"{len(invariant_reports)} points")


def test_criterion_6_oracle_equivalence(invariant_reports, logistic_setup):
    spec, _ = logistic_setup
    worst = max(rep.full_residual_norm for rep in invariant_reports)
    limit = 10.0 * spec.newton_tol
    report(6, worst <= limit, f"max full-grid residual {worst:.2e} (limit {limit:.1e})")


def test_criterion_7_kernel_structure(logistic_setup):
    spec, g = logistic_setup
    bif = bifurcation_point(spec, g)
    kernel = kernel_dimension(bif.lambda0, np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    small = int(np.sum(kernel.singular_values < 1e-8 * kernel.singular_values[0]))
    pairing = bif.perron.pairing
    ok = small == 1 and kernel.dim == kernel.dim_eigen == 1 and pairing >= 1e-8
    report(7, ok, f"{small} singular value(s) below threshold, "
                  f"dims {kernel.dim}/{kernel.dim_eigen}, pairing {pairing:.3f}")


def test_criterion_8_positivity(branch_points, logistic_setup):
    spec, g = logistic_setup
    _, points = branch_points
    worst_branch = min(pt.diagnostics.min_u for pt in points)

    rng = np.random.default_rng(0)
    u0 = rng.random((g.n_a + 1, g.n_x))
    lam0 = bifurcation_point(spec, g).lambda0
    state = simulate_transient(u0, 1.2 * lam0, 100, spec, g)
    worst_transient = min(state.min_history)

    ok = worst_branch >= -1e-12 and worst_transient >= -1e-12
    report(8, ok, f"min over branch {worst_branch:.2e}, "
                  f"min over transient {worst_transient:.2e}")


def test_criterion_9_steadiness(branch_points, logistic_setup):
    spec, g = logistic_setup
    _, points = branch_points
    worst = 0.0
    for pt in points:
        state = simulate_transient(pt.u, pt.lam, 100, spec, g)
        drift = field_norm(state.field - pt.u, g) / field_norm(pt.u, g)
        worst = max(worst, drift)
    report(9, worst <= 1e-4, f"max relative drift over 100 steps = {worst:.2e}")


def test_criterion_10_determinism(branch_run, tmp_path_factory):
    out1, _ = branch_run
    out2 = tmp_path_factory.mktemp("acceptance_rerun") / "run2"
    code = run_command(["continue", "--config", str(CONFIG_PATH), "--out", str(out2)])
    assert code == 0
    first = (out1 / "branch.csv").read_bytes()
    second = (out2 / "branch.csv").read_bytes()
    report(10, first == second, f"branch CSV byte-identical ({len(first)} bytes)")


def test_shipped_branch_keeps_its_points_and_newton_iterations(branch_points, logistic_setup,
                                                               monkeypatch):
    # pins the corrector's point sequence: 25 points, each from one Jacobian
    # and 3-5 Newton iterations (the rest are chord steps)
    import agebranch.solver as solver_module

    _, points = branch_points
    iters = [pt.diagnostics.newton_iters for pt in points]
    assert len(points) == 25
    assert iters == [4, 3, 4, 5, 5, 5, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3, 3, 3, 3]

    # 25 accepted corrections and the one that left the box: one Jacobian each
    calls = []

    def counted(*args):
        calls.append(args[0])
        return jacobian(*args)

    monkeypatch.setattr(solver_module, "jacobian", counted)
    branch = continue_branch(*logistic_setup)
    assert [pt.lam for pt in branch.points] == [pt.lam for pt in points]
    assert len(calls) == 26
