import numpy as np
import pytest
from scipy.optimize import brentq

from agebranch import (
    ContinuationParams,
    build_grid,
    continue_branch,
    field_norm,
    make_spec,
    total_population,
)
from agebranch.errors import PositivityError
from agebranch.operators import assemble_elliptic, birth_functional
from agebranch.spectral import bifurcation_point, check_simplicity, perron_eigenpair
from agebranch.validate import kernel_dimension, simulate_transient, transversality_check


@pytest.fixture(scope="module")
def logistic_small():
    spec = make_spec("logistic_death", n_x=10, n_a=30)
    return spec, build_grid(spec)


@pytest.fixture(scope="module")
def short_branch(logistic_small):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    params = ContinuationParams.from_spec(spec, lambda_max=1.5 * lam0, max_points=6,
                                          ds0=0.1, ds_max=0.4)
    return continue_branch(spec, g, params)


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


# -- kernel dimension ------------------------------------------------------------

def test_kernel_is_one_dimensional_at_crossing(logistic_small):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    report = kernel_dimension(lam0, np.zeros(g.n_x), spec, g)
    assert report.dim == 1
    assert report.dim_eigen == 1
    assert report.agree


def test_kernel_is_trivial_off_the_eigenvalue(logistic_small):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    report = kernel_dimension(0.5 * lam0, np.zeros(g.n_x), spec, g)
    assert report.dim == 0
    assert report.agree


def test_kernel_counts_agree_at_random_points(logistic_small, rng):
    spec, g = logistic_small
    lam0 = bifurcation_point(spec, g).lambda0
    for _ in range(10):
        lam = lam0 * (0.5 + rng.random())
        v = 0.2 * rng.random(g.n_x)
        report = kernel_dimension(lam, v, spec, g)
        assert report.agree


# -- transversality ----------------------------------------------------------------

def test_transversality_for_symmetric_model(constant_spec, constant_grid):
    cert = transversality_check(constant_spec, constant_grid)
    assert cert.passed
    assert abs(cert.pairing - 1.0) <= 1e-9


def test_transversality_for_logistic_model(logistic_small):
    spec, g = logistic_small
    cert = transversality_check(spec, g)
    assert cert.passed
    assert cert.pairing >= 1e-8
    # frozen from the first verified run: the zero-density return map of this
    # family is weighted-self-adjoint, so the pairing sits at one
    assert abs(cert.pairing - 1.0) <= 1e-9


def test_jordan_block_radius_fails_transversality():
    # a defective radius: left and right eigenvectors are orthogonal
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    res = perron_eigenpair(jordan)
    assert abs(res.pairing) < 1e-2
    assert not check_simplicity(res).passed