import copy
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from agebranch import (
    build_grid,
    continue_branch,
    field_norm,
    make_spec,
    total_population,
)
from agebranch.cli import spec_from_config
from agebranch.errors import PositivityError
from agebranch.model import ModelSpec
from agebranch.operators import (
    assemble_elliptic,
    birth_functional,
    evolve,
    next_generation_operator,
)
from agebranch.records import (
    branch_records,
    fmt17,
    load_config,
    read_branch_outputs,
    write_branch_outputs,
)
from agebranch.spectral import bifurcation_point, check_simplicity, perron_eigenpair
from agebranch.validate import kernel_dimension, simulate_transient, verify_branch

CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.fixture(scope="module")
def logistic_small():
    spec = make_spec("logistic_death", n_x=10, n_a=30)
    return spec, build_grid(spec)


@pytest.fixture(scope="module")
def short_branch(logistic_small):
    spec, g = logistic_small
    spec = replace(spec, lambda_max_factor=1.5, max_points=6, ds0=0.1, ds_max=0.4)
    return continue_branch(spec, g)


def test_zero_data_stays_zero(logistic_small):
    spec, g = logistic_small
    state = simulate_transient(np.zeros((g.n_a + 1, g.n_x)), 1.0, 20, spec, g)
    assert np.all(state.field == 0.0)
    assert all(d == 0.0 for d in state.drift_history)


def test_negative_data_rejected(logistic_small):
    spec, g = logistic_small
    u0 = np.zeros((g.n_a + 1, g.n_x))
    u0[0, 0] = -1e-6
    with pytest.raises(ValueError):
        simulate_transient(u0, 1.0, 1, spec, g)


def test_nonnegativity_is_preserved(logistic_small, rng):
    spec, g = logistic_small
    u0 = rng.random((g.n_a + 1, g.n_x))
    state = simulate_transient(u0, 2.0, 60, spec, g)
    assert min(state.min_history) >= 0.0


def test_equilibria_are_steady(logistic_small, short_branch):
    spec, g = logistic_small
    for pt in short_branch.points:
        state = simulate_transient(pt.u, pt.lam, 100, spec, g)
        assert max(state.drift_history) <= 1e-6
        total = field_norm(state.field - pt.u, g) / field_norm(pt.u, g)
        assert total <= 1e-4


def test_one_step_matches_manual_composition(model_at, rng):
    # freeze the step semantics: shift, implicit row solves at start-of-step
    # population, then renewal that still sees the old newborn row
    spec = model_at(10, 30)
    g = build_grid(spec)
    lam = 1.7
    u0 = rng.random((g.n_a + 1, g.n_x))
    state = simulate_transient(u0, lam, 1, spec, g)

    U = total_population(u0, g)
    manual = np.empty_like(u0)
    for k in range(1, g.n_a + 1):
        op = assemble_elliptic(U, g.a_nodes[k], spec, g)
        manual[k] = op.solve_shifted(g.da, u0[k - 1])
    mixed = np.vstack([u0[:1], manual[1:]])
    manual[0] = birth_functional(U, mixed, lam, spec, g)
    assert np.allclose(state.field, manual, rtol=1e-14, atol=1e-15)


def test_transient_of_a_constant_in_x_field_matches_scalar_recurrence():
    # a field constant in x stays so: each step divides cohort k - 1 by
    # 1 + da * mu(U) and takes the newborns at b(U), with U the population at
    # the start of the step, not at its end
    spec = ModelSpec(d=lambda z: np.ones_like(z), mu=lambda z, a: 1.0 + z + 0.0 * a,
                     b=lambda z, a: 2.0 / (1.0 + z) + 0.0 * a, d_lower=1.0, n_x=6, n_a=20)
    g = build_grid(spec)
    lam = 1.3
    c = np.linspace(1.0, 0.2, g.n_a + 1)
    state = simulate_transient(np.repeat(c[:, None], g.n_x, axis=1), lam, 3, spec, g)
    for _ in range(3):
        U = float(g.w_a @ c)
        new = np.concatenate((c[:1], c[:-1] / (1.0 + g.da * (1.0 + U))))
        new[0] = lam * 2.0 / (1.0 + U) * float(g.w_a @ new)
        c = new
    assert np.allclose(state.field, c[:, None], rtol=1e-13, atol=0.0)


def test_subcritical_extinction_rate():
    # the per-step decay factor solves the renewal characteristic equation of
    # the scheme itself; that scalar root is the independent oracle here
    mu0, b0 = 1.0, 1.0
    spec = make_spec("constant", {"mu0": mu0, "b0": b0}, n_x=8, n_a=40)
    g = build_grid(spec)
    bif = bifurcation_point(spec, g)
    lam = 0.5 * bif.lambda0
    assert lam * bif.perron.radius < 1.0

    q0 = 1.0 + mu0 * g.da

    def characteristic(gamma):
        ks = np.arange(1, g.n_a + 1)
        tail = gamma * np.sum(g.w_a[1:] * (gamma * q0) ** (-ks))
        return lam * b0 * (g.w_a[0] + tail) - gamma

    gamma = brentq(characteristic, 0.2, 1.0, xtol=1e-14)
    assert gamma < 1.0

    rng = np.random.default_rng(5)
    u0 = 0.5 + rng.random((g.n_a + 1, g.n_x))
    state = simulate_transient(u0, lam, 3 * g.n_a, spec, g)
    norms = [field_norm(u0, g)]
    running = u0
    # re-run to collect norms at generation boundaries
    for gen in range(3):
        running = simulate_transient(running, lam, g.n_a, spec, g).field
        norms.append(field_norm(running, g))
    assert np.allclose(state.field, running, rtol=1e-12)
    observed = norms[3] / norms[2]
    assert abs(observed - gamma**g.n_a) <= 0.02 * gamma**g.n_a
    tail_drift = state.drift_history[-g.n_a:]
    assert all(d < 1.0 for d in tail_drift)


def test_balance_law_without_death_or_birth(rng):
    spec = make_spec("constant", {"mu0": 0.0, "b0": 0.0}, n_x=9, n_a=25)
    g = build_grid(spec)
    u = rng.random((g.n_a + 1, g.n_x))
    u[0] = 0.0  # no newborns so the trapezoid endpoint row carries no mass
    for _ in range(5):
        mass_rows = u @ g.w_x
        total_old = float(g.w_a @ mass_rows)
        exiting = 0.5 * g.da * (mass_rows[-2] + mass_rows[-1])
        u = simulate_transient(u, 1.0, 1, spec, g).field
        total_new = float(g.w_a @ (u @ g.w_x))
        assert total_new <= total_old + 1e-12
        assert abs((total_old - total_new) - exiting) <= 1e-12


def test_positivity_error_message_path(logistic_small, monkeypatch):
    spec, g = logistic_small
    u0 = np.ones((g.n_a + 1, g.n_x))

    def bad_birth(V, u, lam, spec_, g_):
        out = np.zeros(g_.n_x)
        out[0] = -1.0
        return out

    import agebranch.validate as val
    monkeypatch.setattr(val, "birth_functional", bad_birth)
    with pytest.raises(PositivityError):
        simulate_transient(u0, 1.0, 1, spec, g)


@pytest.mark.parametrize("n_steps", [1, 2])
def test_non_finite_birth_row_names_the_birth_integral(n_steps):
    # every input is finite, but the birth integral overflows on the first step
    spec = make_spec("constant", {"b0": 1e300}, n_x=6, n_a=10)
    g = build_grid(spec)
    u0 = np.full((g.n_a + 1, g.n_x), 1e10)
    with pytest.raises(ArithmeticError, match="^transient step 1: the birth integral "
                                              "produced non-finite values$"):
        simulate_transient(u0, 1.0, n_steps, spec, g)


# -- kernel dimension ------------------------------------------------------------

def test_kernel_is_one_dimensional_at_crossing(logistic_small):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    report = kernel_dimension(lam0, np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    assert report.dim == 1
    assert report.dim_eigen == 1
    assert report.agree
    assert [f.name for f in fields(report)] == ["dim", "dim_eigen", "singular_values", "agree"]


@pytest.mark.parametrize("name", ["constant", "logistic_death", "density_diffusion"])
def test_kernel_certificate_on_shipped_configs(name):
    # one singular value of the (v, U) Jacobian at the crossing is round-off,
    # the next is of the order of the largest
    spec = spec_from_config(load_config(CONFIGS / f"{name}.json"))
    g = build_grid(spec)
    lam0 = bifurcation_point(spec, g).lambda0
    report = kernel_dimension(lam0, np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    sv = report.singular_values
    assert sv.shape == (2 * g.n_x,)
    assert np.count_nonzero(sv < spec.rank_tol * sv[0]) == 1
    assert sv[-2] >= 0.1 * sv[0]
    assert report.dim == report.dim_eigen == 1


def test_kernel_is_trivial_off_the_eigenvalue(logistic_small):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    report = kernel_dimension(0.5 * lam0, np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    assert report.dim == 0
    assert report.agree


def test_kernel_counts_agree_at_random_points(logistic_small, rng):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    for _ in range(10):
        lam = lam0 * (0.5 + rng.random())
        v, U = 0.2 * rng.random(g.n_x), 0.2 * rng.random(g.n_x)
        report = kernel_dimension(lam, v, U, spec, g)
        assert report.agree


def test_kernel_cross_check_is_frozen_at_the_jacobians_population(logistic_small, rng):
    # off a solution the march of v has another population than U; at the
    # lam where I - lam Q(U) is singular the cross-check counts that kernel
    spec, g = logistic_small
    v, U = rng.random(g.n_x), 0.3 + rng.random(g.n_x)
    Q = next_generation_operator(U, spec, g)
    lam = 1.0 / perron_eigenpair(Q, weights=g.w_x).radius
    assert np.abs(total_population(evolve(U, v, spec, g), g) - U).max() >= 0.1
    sv = np.linalg.svd(np.eye(g.n_x) - lam * Q, compute_uv=False)
    direct = int(np.sum(sv < spec.rank_tol * sv[0]))
    assert kernel_dimension(lam, v, U, spec, g).dim_eigen == direct == 1


def test_kernel_counts_disagree_at_a_regular_branch_point():
    # on the branch lam Q(u) v = v, so I - lam Q keeps the eigenvector v as a
    # kernel while the corrector's (v, U) Jacobian is regular
    spec = make_spec("logistic_death", n_x=12, n_a=40, max_points=4)
    g = build_grid(spec)
    pt = continue_branch(spec, g).points[3]
    report = kernel_dimension(pt.lam, pt.v, total_population(pt.u, g), spec, g)
    assert (report.dim, report.dim_eigen, report.agree) == (0, 1, False)


# -- transversality ----------------------------------------------------------------

def test_transversality_for_symmetric_model(constant_spec, constant_grid):
    pairing = bifurcation_point(constant_spec, constant_grid).perron.pairing
    assert pairing > constant_spec.simplicity_tol
    assert abs(pairing - 1.0) <= 1e-9


def test_transversality_for_logistic_model(logistic_small):
    spec, g = logistic_small
    pairing = bifurcation_point(spec, g).perron.pairing
    assert pairing > spec.simplicity_tol
    assert pairing >= 1e-8
    # frozen from the first verified run: the zero-density return map of this
    # family is weighted-self-adjoint, so the pairing sits at one
    assert abs(pairing - 1.0) <= 1e-9


def test_jordan_block_radius_fails_transversality():
    # a defective radius: left and right eigenvectors are orthogonal
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    res = perron_eigenpair(jordan)
    assert abs(res.pairing) < 1e-2
    assert not check_simplicity(res, 1e-8, 1e-6).passed

# -- verify_branch -----------------------------------------------------------------

POINT_CHECKS = ("roundtrip", "radius identity", "positivity", "oracle residual",
                "eigen consistency")


@pytest.fixture(scope="module")
def exported(short_branch):
    """The records of the short branch, in memory: (meta, rows, snapshots)."""
    return branch_records(short_branch, {}, seed=0)


def test_the_files_read_back_to_the_records(short_branch, tmp_path):
    cfg = {"model": {"family": "logistic_death", "n_x": 10, "n_a": 30}, "seed": 7}
    records = branch_records(short_branch, cfg, seed=7, resolution_scale=2)
    write_branch_outputs(short_branch, tmp_path, cfg, seed=7, resolution_scale=2)
    assert read_branch_outputs(tmp_path) == records
    assert records[0]["n_points"] == len(records[1]) == len(records[2]) > 2


def test_verify_branch_passes_every_check_in_order(logistic_small, exported):
    spec, g = logistic_small
    meta, rows, snapshots = exported
    checks = verify_branch(meta, rows, snapshots, spec, g)
    assert len(rows) > 2  # point 2 is the one spoiled below
    assert [name for name, _, _ in checks] == [
        *(f"point {i} {check}" for i in range(len(rows)) for check in POINT_CHECKS),
        "kernel dimension", "transversality",
    ]
    assert all(ok for _, ok, _ in checks)
    assert all(isinstance(detail, str) and detail for _, _, detail in checks)


@pytest.mark.parametrize("failing", ["point 2 roundtrip", "point 2 eigen consistency",
                                     "point 2 positivity", "point 2 oracle residual",
                                     "kernel dimension"])
def test_verify_branch_names_each_spoiled_quantity(logistic_small, exported, failing):
    spec, g = logistic_small
    meta, rows, snapshots = copy.deepcopy(exported)
    row, snap = rows[2], snapshots[2]
    if failing == "point 2 roundtrip":
        row["lambda"] *= 1.001
    elif failing == "point 2 eigen consistency":
        snap["v"][3] *= 1.01
    elif failing == "point 2 positivity":
        snap["u"][5][4] = -1e-3
    elif failing == "point 2 oracle residual":  # u is no longer the march of its trace
        snap["u"][5][4] *= 1.01
    else:  # lambda0 off the crossing
        meta["lambda0"] *= 1.01
    checks = verify_branch(meta, rows, snapshots, spec, g)
    failed = [name for name, ok, _ in checks if not ok]
    assert failing in failed
    assert all(name.startswith("point 2 ") or name == failing for name in failed)
    if failing == "point 2 roundtrip":  # the detail names what differs, with both values
        assert {name: detail for name, _, detail in checks}[failing] == (
            f"lambda {snap['lambda']:.17g} vs CSV {row['lambda']:.17g}")


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_a_row_value_that_is_not_finite_fails_the_roundtrip(logistic_small, exported, value):
    spec, g = logistic_small
    meta, rows, snapshots = copy.deepcopy(exported)
    rows[2]["lambda"] = value
    failed = [name for name, ok, _ in verify_branch(meta, rows, snapshots, spec, g) if not ok]
    assert failed == ["point 2 roundtrip"]


@pytest.mark.parametrize("column", ["lambda", "r_Q_u"])
def test_a_csv_value_off_by_1e_10_fails_the_roundtrip(logistic_small, short_branch, tmp_path,
                                                      column):
    # the CSV radius comes from one march of the trace and verify's from the
    # dense return map: the two agree to round-off, so the 1e-12 bound bites
    spec, g = logistic_small
    write_branch_outputs(short_branch, tmp_path, {}, seed=0)
    csv = tmp_path / "branch.csv"
    lines = csv.read_text().splitlines()
    at = lines[0].split(",").index(column)
    row = lines[3].split(",")  # point 2
    row[at] = fmt17(float(row[at]) * (1.0 + 1e-10))
    lines[3] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    checks = verify_branch(*read_branch_outputs(tmp_path), spec, g)
    failed = {name: detail for name, ok, detail in checks if not ok}
    assert list(failed) == ["point 2 roundtrip"]
    assert failed["point 2 roundtrip"].startswith(f"{column} ")


def test_csv_values_read_back_to_the_same_float(short_branch, tmp_path):
    write_branch_outputs(short_branch, tmp_path, {}, seed=0)
    _, rows, _ = read_branch_outputs(tmp_path)
    assert [row["lambda"] for row in rows] == [pt.lam for pt in short_branch.points]
    assert [row["r_Q_u"] for row in rows] == [pt.diagnostics.next_gen_radius
                                              for pt in short_branch.points]
    # values that need all 17 significant digits
    for x in (0.1 + 0.2, np.nextafter(1.0, 2.0), 1.0 / 3.0, -2.5e-17, 5e-324):
        assert float(fmt17(x)) == x
