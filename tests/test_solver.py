import time
from dataclasses import replace

import numpy as np
import pytest

from agebranch import (
    AffineConstraint,
    ModelSpec,
    branch_invariant_check,
    build_grid,
    continue_branch,
    field_norm,
    full_residual,
    jacobian,
    make_spec,
    newton_correct,
    next_generation_operator,
    total_population,
    weighted_inner,
)
from agebranch.errors import SingularSystemError, StepFailureError
from agebranch.operators import assemble_elliptic, birth_functional, evolve
from agebranch.oracles import equilibrium_intensity, homogeneous_profile, survival_sum
from agebranch.model import trace_norm
from agebranch.solver import (
    BranchPoint,
    _factor_bordered,
    _finish_point,
    _tangent_source,
    dgetrs,
)
from agebranch.spectral import bifurcation_point, perron_eigenpair
from conftest import divergence_form


@pytest.fixture(scope="module")
def logistic():
    spec = make_spec("logistic_death", n_x=10, n_a=30)
    g = build_grid(spec)
    return spec, g


@pytest.fixture(scope="module")
def logistic_branch(logistic):
    spec, g = logistic
    spec = replace(spec, lambda_max_factor=1.8, ds0=0.1, ds_max=0.4, max_points=40)
    return continue_branch(spec, g)


# -- field of a trace ----------------------------------------------------------

def test_zero_trace_is_fixed_point_in_one_iteration(logistic):
    # counted in Newton steps of the corrector: the zero start is already the solution
    spec, g = logistic
    zero = np.zeros(g.n_x)
    pt = newton_correct(0.8, zero, AffineConstraint(1.0, zero), 0.8, spec, g)
    assert np.all(pt.u == 0.0)
    assert pt.diagnostics.newton_iters == 0


def test_linear_model_needs_no_self_coupling(constant_spec, constant_grid, rng):
    # the march does not depend on U, so the U columns of the Jacobian are
    # zero in the trace rows and the identity in the population rows
    g = constant_grid
    n = g.n_x
    v, U = rng.random(n), rng.random(n)
    u = evolve(U, v, constant_spec, g)
    assert np.allclose(u, evolve(np.zeros(n), v, constant_spec, g), rtol=1e-12)
    J = jacobian(1.3, U, u, constant_spec, g)
    assert np.max(np.abs(J[:, n:2 * n] - np.vstack([np.zeros((n, n)), np.eye(n)]))) <= 1e-12


def test_march_matches_scalar_fixed_point(logistic, logistic_branch):
    # a homogeneous branch point solves the scalar relation U = v * S(mu0 + kappa U)
    # and its field is the scalar cohort profile under that population
    spec, g = logistic
    for pt in logistic_branch.points[::4]:
        amp, U = float(np.mean(pt.v)), float(np.mean(total_population(pt.u, g)))
        assert abs(U - amp * survival_sum(1.0 + U, g)) <= 1e-10
        expected = homogeneous_profile(amp, 1.0 + U, g)
        assert np.max(np.abs(pt.u - expected[:, None])) <= 1e-10


# -- residuals ------------------------------------------------------------------

def corrector_residual(lam, v, U, spec, g):
    """(R_v, R_U) assembled here from the march and the birth integral."""
    u = evolve(U, v, spec, g)
    return np.concatenate([v - birth_functional(U, u, lam, spec, g),
                           U - total_population(u, g)])


@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.7, 3.0])
def test_trivial_branch_is_exact(logistic, lam):
    spec, g = logistic
    assert np.all(corrector_residual(lam, np.zeros(g.n_x), np.zeros(g.n_x), spec, g) == 0.0)


def test_eigen_identity_at_the_critical_point(constant_spec, constant_grid):
    # the constant family's march does not depend on U
    g = constant_grid
    bif = bifurcation_point(constant_spec, g)
    R = corrector_residual(bif.lambda0, bif.phi0, np.zeros(g.n_x), constant_spec, g)
    assert np.max(np.abs(R[:g.n_x])) <= 2e-10 * np.max(np.abs(bif.phi0))


def test_no_birth_returns_the_trace(logistic, rng):
    spec, g = logistic
    v = rng.random(g.n_x)
    R = corrector_residual(0.0, v, rng.random(g.n_x), spec, g)
    assert np.allclose(R[:g.n_x], v, rtol=1e-13)


def test_full_residual_of_zero_field(logistic):
    spec, g = logistic
    F = full_residual(1.0, np.zeros((g.n_a + 1, g.n_x)), spec, g)
    assert np.all(F == 0.0)


def test_full_residual_linear_reduction(constant_spec, constant_grid, rng):
    # no quasilinear part: the source term vanishes identically
    from agebranch.operators import birth_functional

    g = constant_grid
    u = rng.random((g.n_a + 1, g.n_x))
    lam = 1.2
    U = total_population(u, g)
    newborn = birth_functional(U, u, lam, constant_spec, g)
    expected = u - evolve(np.zeros(g.n_x), newborn, constant_spec, g)
    assert np.allclose(full_residual(lam, u, constant_spec, g), expected, atol=1e-12)


def test_both_characterizations_agree_on_the_branch(logistic, logistic_branch):
    spec, g = logistic
    for pt in logistic_branch.points:
        F = full_residual(pt.lam, pt.u, spec, g)
        assert field_norm(F, g) <= 10.0 * spec.newton_tol


def _per_age_full_residual(lam, u, spec, g):
    """The oracle as a loop over the age nodes, both operators assembled per age."""
    U = total_population(u, g)
    zero = np.zeros(g.n_x)
    src = np.empty_like(u)
    for k, age in enumerate(g.a_nodes):
        src[k] = (assemble_elliptic(zero, age, spec, g).apply(u[k])
                  - assemble_elliptic(U, age, spec, g).apply(u[k]))
    newborn = birth_functional(U, u, lam, spec, g)
    return u - evolve(zero, newborn, spec, g, source=src)


def _age_dependent_model(n_a=20, mu=lambda z, a: (1.0 + a) * (1.0 + z**2)):
    return ModelSpec(d=lambda z: 1.0 + 0.5 * z, mu=mu, b=lambda z, a: np.exp(-a) / (1.0 + z),
                     d_lower=0.5, n_x=9, n_a=n_a)


@pytest.mark.parametrize("family", ["constant", "logistic_death", "density_diffusion",
                                    "custom"])
def test_full_residual_matches_per_age_loop(family, rng):
    spec = (_age_dependent_model() if family == "custom"
            else make_spec(family, n_x=9, n_a=20))
    g = build_grid(spec)
    u = rng.random((g.n_a + 1, g.n_x))
    F = full_residual(1.3, u, spec, g)
    loop = _per_age_full_residual(1.3, u, spec, g)
    if family == "custom":
        assert np.allclose(F, loop, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(F, loop)


def test_full_residual_is_two_assemblies_at_any_age_count(monkeypatch, rng):
    import agebranch.solver as solver_module

    assemblies, mu_calls, per_size = [], [], []

    def counted_assembly(*args):
        assemblies.append(np.shape(args[1]))
        return assemble_elliptic(*args)

    def counted_mu(z, a):
        mu_calls.append(np.shape(a))
        return (1.0 + a) * (1.0 + z**2)

    monkeypatch.setattr(solver_module, "assemble_elliptic", counted_assembly)
    for n_a in (10, 40):
        spec = _age_dependent_model(n_a, mu=counted_mu)
        g = build_grid(spec)
        assemblies.clear()
        mu_calls.clear()
        full_residual(1.3, rng.random((g.n_a + 1, g.n_x)), spec, g)
        assert assemblies == [(g.n_a + 1,)] * 2
        per_size.append(len(mu_calls))
    assert per_size[0] == per_size[1]


# -- jacobian -------------------------------------------------------------------

def fold_model():
    """Backward bifurcation that turns at a fold: d = 1, mu = 1 + 0.3 z^2,
    b = 1 + 2 z, with exact derivatives."""
    def z_(z):
        return np.asarray(z, dtype=float)

    return ModelSpec(
        d=lambda z: np.ones_like(z_(z)), d_prime=lambda z: np.zeros_like(z_(z)),
        mu=lambda z, a: 1.0 + 0.3 * z_(z) ** 2, mu_z=lambda z, a: 0.6 * z_(z),
        b=lambda z, a: 1.0 + 2.0 * z_(z), b_z=lambda z, a: np.full_like(z_(z), 2.0),
        d_lower=1.0, n_x=12, n_a=40, lambda_max_factor=2.0, u_norm_max=20.0,
    )


def fd_residual_jacobian(lam, v, U, spec, g, h=1e-6):
    """Central differences of (R_v, R_U) in (v, U, lam), column by column."""
    x = np.concatenate([v, U, [lam]])
    n = g.n_x
    cols = []
    for j in range(x.size):
        step = h * (1.0 + abs(x[j]))
        e = np.zeros_like(x)
        e[j] = step
        plus, minus = x + e, x - e
        cols.append((corrector_residual(plus[-1], plus[:n], plus[n:2 * n], spec, g)
                     - corrector_residual(minus[-1], minus[:n], minus[n:2 * n], spec, g))
                    / (2.0 * step))
    return np.column_stack(cols)


def assert_blocks_match_fd(lam, v, U, spec, g):
    J = jacobian(lam, U, evolve(U, v, spec, g), spec, g)
    J_fd = fd_residual_jacobian(lam, v, U, spec, g)
    n = g.n_x
    blocks = {"dR_v/dv": np.s_[:n, :n], "dR_v/dU": np.s_[:n, n:2 * n],
              "dR_v/dlam": np.s_[:n, 2 * n:], "dR_U/dv": np.s_[n:, :n],
              "dR_U/dU": np.s_[n:, n:2 * n], "dR_U/dlam": np.s_[n:, 2 * n:]}
    scale = 1.0 + float(np.max(np.abs(J)))
    for name, block in blocks.items():
        assert np.max(np.abs(J[block] - J_fd[block])) <= 1e-7 * scale, name


def test_jacobian_at_origin_is_eigen_operator(constant_spec, constant_grid):
    # at zero density the trace rows are I - lam0 * Q0 in v and vanish in U
    g = constant_grid
    n = g.n_x
    lam0 = bifurcation_point(constant_spec, g).lambda0
    Q0 = next_generation_operator(np.zeros(n), constant_spec, g)
    expected = np.hstack([np.eye(n) - lam0 * Q0, np.zeros((n, n))])
    J = jacobian(lam0, np.zeros(n), np.zeros((g.n_a + 1, n)), constant_spec, g)
    assert np.max(np.abs(J[:n, :2 * n] - expected)) <= 1e-13


def test_jacobian_without_birth_is_identity(constant_spec, constant_grid, rng):
    # with lam = 0 the trace rows are the identity in v and zero in U
    g = constant_grid
    n = g.n_x
    v, U = rng.random(n), rng.random(n)
    J = jacobian(0.0, U, evolve(U, v, constant_spec, g), constant_spec, g)
    expected = np.hstack([np.eye(n), np.zeros((n, n))])
    assert np.max(np.abs(J[:n, :2 * n] - expected)) <= 1e-9


def interior_model(model):
    """The models of the interior-point checks: density_diffusion carries the
    d' term, the fold model the b_z term."""
    return {
        "logistic": lambda: make_spec("logistic_death", n_x=10, n_a=30),
        "density_diffusion": lambda: make_spec(
            "density_diffusion", {"d1": 0.7, "kappa": 0.5}, n_x=10, n_a=30),
        "fold": fold_model,
    }[model]()


@pytest.mark.parametrize("model", ["logistic", "density_diffusion", "fold"])
def test_corrector_blocks_match_fd_at_interior_point(model, rng):
    spec = interior_model(model)
    g = build_grid(spec)
    v = 0.4 + 0.1 * rng.random(g.n_x)
    U = 0.3 + 0.1 * rng.random(g.n_x)
    assert_blocks_match_fd(2.0, v, U, spec, g)


def test_corrector_blocks_match_fd_along_branch(logistic, logistic_branch):
    spec, g = logistic
    for pt in logistic_branch.points[::3]:
        assert_blocks_match_fd(pt.lam, pt.v, total_population(pt.u, g), spec, g)


def dense_sensitivity(u, d_prime, mu_z, g):
    """Operator sensitivity applied to ``u`` for each unit population
    perturbation, one column at a time: entry ``[k, :, i]`` is
    ``divergence_form(d_prime * e_i, u[k]) + mu_z[k] * e_i * u[k]``."""
    sens = np.empty((g.n_a + 1, g.n_x, g.n_x))
    for i in range(g.n_x):
        p = np.zeros(g.n_x)
        p[i] = 1.0
        for k in range(g.n_a + 1):
            sens[k, :, i] = divergence_form(d_prime * p, u[k], g) + mu_z[k] * p * u[k]
    return sens


def densify(lower, diag, upper):
    """Stack of tridiagonal matrices from their diagonals, ages first."""
    nodes = np.arange(diag.shape[-1])
    dense = np.zeros(diag.shape + nodes.shape)
    dense[:, nodes, nodes] = diag
    dense[:, nodes[1:], nodes[:-1]] = lower
    dense[:, nodes[:-1], nodes[1:]] = upper
    return dense


def test_sensitivity_assembly_matches_column_loop(rng):
    spec = make_spec("density_diffusion", {"d1": 0.7, "kappa": 0.5}, n_x=9, n_a=12)
    g = build_grid(spec)
    u = rng.random((g.n_a + 1, g.n_x))
    d_prime, mu_z = rng.standard_normal(g.n_x), rng.random((g.n_a + 1, g.n_x))
    spec = replace(spec, d_prime=lambda z: d_prime, mu_z=lambda z, a: mu_z)
    bands = _tangent_source(rng.random(g.n_x), u, spec, g)
    assert np.allclose(-densify(*bands), dense_sensitivity(u, d_prime, mu_z, g),
                       rtol=1e-13, atol=0.0)


def reference_residual_jacobian(lam, U, u, spec, g):
    """The corrector blocks from two marches under ``U``: ``du/dv`` from the
    identity, ``du/dU`` from zero with the dense column-loop sensitivity as
    its source."""
    n = g.n_x
    du_dv = evolve(U, np.eye(n), spec, g)
    sens = dense_sensitivity(u, spec.eval_d_prime(U), spec.rate_table("mu_z", U, g.a_nodes), g)
    du_dU = evolve(U, np.zeros((n, n)), spec, g, source=-sens)
    wb = g.w_a[:, None] * spec.rate_table("b", U, g.a_nodes)
    bz_rows = spec.rate_table("b_z", U, g.a_nodes)
    J = np.zeros((2 * n, 2 * n + 1))
    J[:n, :n] = np.eye(n) - lam * np.einsum("kn,knj->nj", wb, du_dv)
    J[:n, n:2 * n] = -lam * (np.einsum("kn,knj->nj", wb, du_dU)
                             + np.diag(np.einsum("k,kn,kn->n", g.w_a, bz_rows, u)))
    J[:n, 2 * n] = -np.einsum("kn,kn->n", wb, u)
    J[n:, :n] = -np.einsum("k,kij->ij", g.w_a, du_dv)
    J[n:, n:2 * n] = np.eye(n) - np.einsum("k,kij->ij", g.w_a, du_dU)
    return J


@pytest.mark.parametrize("model", ["logistic", "density_diffusion", "fold"])
def test_residual_jacobian_matches_dense_source_reference(model, rng, monkeypatch):
    import agebranch.solver as solver_module

    spec = replace(interior_model(model), n_x=10, n_a=30)
    g = build_grid(spec)
    n = g.n_x
    v = 0.4 + 0.1 * rng.random(n)
    U = 0.3 + 0.1 * rng.random(n)
    u = evolve(U, v, spec, g)
    J_ref = reference_residual_jacobian(2.0, U, u, spec, g)

    marches = []

    def counted(*args, **kwargs):
        marches.append(args[1])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(solver_module, "evolve", counted)
    J = jacobian(2.0, U, u, spec, g)
    assert len(marches) <= 2
    scale = np.max(np.abs(J_ref))
    assert np.max(np.abs(J - J_ref)) <= 1e-13 * scale
    # the population columns at the two boundary nodes, whose Neumann rows
    # are doubled
    for col in (n, 2 * n - 1):
        assert np.max(np.abs(J[:, col] - J_ref[:, col])) <= 1e-13 * scale, col


def test_rank_deficiency_at_bifurcation(logistic):
    spec, g = logistic
    lam0 = bifurcation_point(spec, g).lambda0
    J = jacobian(lam0, np.zeros(g.n_x), np.zeros((g.n_a + 1, g.n_x)), spec, g)
    sv = np.linalg.svd(J[:, :2 * g.n_x], compute_uv=False)
    assert sv[-1] <= 1e-8 * sv[-2]


# -- Newton corrector -----------------------------------------------------------

def test_corrector_keeps_trivial_solution(logistic):
    spec, g = logistic
    lam_target = 0.8
    constraint = AffineConstraint(1.0, np.zeros(g.n_x))
    pt = newton_correct(lam_target, np.zeros(g.n_x), constraint, lam_target, spec, g)
    assert pt.lam == lam_target
    assert np.all(pt.v == 0.0)
    assert pt.diagnostics.residual_norm == 0.0


def test_amplitude_constraint_off_the_trivial_branch_is_singular(constant_spec, constant_grid):
    # linear problems have no nontrivial solutions away from the critical
    # intensity: the bordered system degenerates at v = 0
    g = constant_grid
    bif = bifurcation_point(constant_spec, g)
    constraint = AffineConstraint(0.0, g.w_x * bif.psi0)
    with pytest.raises(SingularSystemError):
        newton_correct(0.5 * bif.lambda0, np.zeros(g.n_x), constraint, 0.01,
                       constant_spec, g)


def test_bordered_factors_refuse_a_zero_pivot_and_a_large_condition_estimate():
    with pytest.raises(SingularSystemError) as err:
        _factor_bordered(np.array([[1.0, 2.0], [2.0, 4.0]]))
    assert err.value.condition_estimate == np.inf
    with pytest.raises(SingularSystemError) as err:
        _factor_bordered(np.diag([1.0, 1e-14]))
    assert err.value.condition_estimate == pytest.approx(1e14)
    lu, piv = _factor_bordered(np.diag([1.0, 1e-12]))
    assert dgetrs(lu, piv, np.array([1.0, 1e-12]))[0] == pytest.approx([1.0, 1.0])


def test_first_point_converges_quickly(logistic):
    spec, g = logistic
    bif = bifurcation_point(spec, g)
    t = 0.01
    constraint = AffineConstraint(0.0, g.w_x * bif.psi0)
    target = t * weighted_inner(bif.psi0, bif.phi0, g)
    pt = newton_correct(bif.lambda0, t * bif.phi0, constraint, target, spec, g)
    assert pt.diagnostics.newton_iters <= 6
    assert pt.diagnostics.residual_norm <= 1e-10


def test_exhausted_iteration_budget_raises_step_failure(monkeypatch):
    # the budget of one step is spent by the first iterate; the second is
    # evaluated and stops the corrector without another solve
    import agebranch.solver as solver
    from agebranch.errors import StepFailureError

    monkeypatch.setattr(ModelSpec, "max_newton", 1)
    spec = make_spec("logistic_death", n_x=10, n_a=30)
    g = build_grid(spec)
    bif = bifurcation_point(spec, g)
    constraint = AffineConstraint(0.0, g.w_x * bif.psi0)
    target = 0.01 * weighted_inner(bif.psi0, bif.phi0, g)
    solves = []

    def counted_dgetrs(*args, **kwargs):
        solves.append(1)
        return dgetrs(*args, **kwargs)

    monkeypatch.setattr(solver, "dgetrs", counted_dgetrs)
    with pytest.raises(StepFailureError) as err:
        newton_correct(bif.lambda0, 0.01 * bif.phi0, constraint, target, spec, g)
    assert err.value.iterations == 1
    assert err.value.residual_norm >= 0.0
    assert len(solves) == 1


def secant_correction(logistic, logistic_branch):
    """The arguments of ``newton_correct`` for a step of 0.1 along the secant
    through points 1 and 2 of the branch, as ``continue_branch`` builds them."""
    spec, g = logistic
    prev, current = logistic_branch.points[1:3]
    U_prev, U_cur = total_population(prev.u, g), total_population(current.u, g)
    dlam, dv = current.lam - prev.lam, current.v - prev.v
    scale = np.hypot(dlam, trace_norm(dv, g))
    tau_lam, tau_v, tau_U = dlam / scale, dv / scale, (U_cur - U_prev) / scale
    ds = 0.1
    constraint = AffineConstraint(tau_lam, g.dx * tau_v)
    lam_pred, v_pred = current.lam + ds * tau_lam, current.v + ds * tau_v
    return (lam_pred, v_pred, constraint, constraint(lam_pred, v_pred), spec, g), \
        {"U": U_cur + ds * tau_U}


def counted_jacobians(monkeypatch) -> list:
    import agebranch.solver as solver_module

    calls = []

    def counted(*args):
        calls.append(args[0])
        return jacobian(*args)

    monkeypatch.setattr(solver_module, "jacobian", counted)
    return calls


def recorded_residuals(monkeypatch, g) -> list:
    """Record ``hypot(|R_v|, |R_U|)`` of each iterate, read from the
    right-hand side of each ``dgetrs`` solve."""
    import agebranch.solver as solver_module

    residuals, solve, n = [], solver_module.dgetrs, g.n_x

    def recorded(lu, piv, rhs):
        residuals.append(np.hypot(trace_norm(rhs[:n], g), trace_norm(rhs[n:2 * n], g)))
        return solve(lu, piv, rhs)

    monkeypatch.setattr(solver_module, "dgetrs", recorded)
    return residuals


def test_converged_point_is_certified_without_a_new_jacobian(logistic, logistic_branch,
                                                             monkeypatch):
    args, kwargs = secant_correction(logistic, logistic_branch)
    constraint, target, spec, g = args[2:]
    n = g.n_x
    calls = counted_jacobians(monkeypatch)
    residuals = recorded_residuals(monkeypatch, g)
    pt = newton_correct(*args, **kwargs)
    iters = pt.diagnostics.newton_iters
    assert iters >= 3
    # the first iteration assembles; every later one is a chord step on its
    # factors, each cutting the residual at least tenfold until it converges
    assert len(calls) == pt.diagnostics.jacobians == 1
    assert len(residuals) == iters
    for before, after in zip(residuals, residuals[1:]):
        assert after <= 0.1 * before or after <= spec.newton_tol

    # a fresh exact Newton step at the returned point certifies it too
    U = total_population(pt.u, g)
    u = evolve(U, pt.v, spec, g)
    bordered = np.vstack([
        jacobian(pt.lam, U, u, spec, g),
        np.concatenate([constraint.coeff_v, np.zeros(n), [constraint.coeff_lambda]]),
    ])
    rhs = np.concatenate([pt.v - birth_functional(U, u, pt.lam, spec, g),
                          U - total_population(u, g), [constraint(pt.lam, pt.v) - target]])
    step = np.linalg.solve(bordered, -rhs)
    assert np.hypot(trace_norm(step[:n], g), step[2 * n]) <= spec.newton_tol


def test_a_chord_step_that_does_not_contract_forces_a_new_jacobian(logistic, logistic_branch,
                                                                   monkeypatch):
    import agebranch.solver as solver_module

    args, kwargs = secant_correction(logistic, logistic_branch)
    reference = newton_correct(*args, **kwargs)
    calls = counted_jacobians(monkeypatch)
    # halve the first chord step: the residual then falls by about half, not tenfold
    solves, solve = [], solver_module.dgetrs

    def halved_second(lu, piv, rhs):
        solves.append(rhs)
        step, info = solve(lu, piv, rhs)
        return (0.5 * step if len(solves) == 2 else step), info

    monkeypatch.setattr(solver_module, "dgetrs", halved_second)
    pt = newton_correct(*args, **kwargs)
    assert len(calls) == pt.diagnostics.jacobians == 2
    assert abs(pt.lam - reference.lam) <= 1e-12 * abs(reference.lam)


# -- continuation ----------------------------------------------------------------

def test_linear_branch_is_vertical(constant_spec, constant_grid):
    spec, g = constant_spec, constant_grid
    lam0 = bifurcation_point(spec, g).lambda0
    spec = replace(spec, u_norm_max=1.5, max_points=40, ds0=0.05, ds_max=0.25)
    branch = continue_branch(spec, g)
    assert branch.termination == "box_norm"
    assert len(branch.points) >= 3
    for pt in branch.points:
        assert abs(pt.lam - lam0) <= 1e-6
    norms = [pt.diagnostics.u_norm for pt in branch.points]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_logistic_branch_is_supercritical_and_matches_oracle(logistic, logistic_branch):
    spec, g = logistic
    branch = logistic_branch
    assert branch.termination == "box_lambda"
    lams = [pt.lam for pt in branch.points]
    assert all(b > a for a, b in zip(lams, lams[1:]))
    for pt in branch.points:
        U = total_population(pt.u, g)
        U_mean = float(np.mean(U))
        assert np.max(np.abs(U - U_mean)) <= 1e-8
        lam_oracle = equilibrium_intensity(U_mean, 1.0, 1.0, 1.0, g)
        assert abs(pt.lam - lam_oracle) <= 1e-6 * pt.lam


def test_first_point_follows_the_tangent(logistic, logistic_branch):
    spec, g = logistic
    phi0 = logistic_branch.phi0
    v = logistic_branch.points[0].v
    cos = weighted_inner(v, phi0, g) / np.sqrt(
        weighted_inner(v, v, g) * weighted_inner(phi0, phi0, g))
    angle = np.degrees(np.arccos(min(1.0, cos)))
    assert angle <= 5.0


def test_branch_bookkeeping_invariants(logistic, logistic_branch):
    spec, g = logistic
    arcs = [pt.arclength for pt in logistic_branch.points]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    for pt in logistic_branch.points:
        assert pt.diagnostics.residual_norm <= spec.newton_tol
        assert pt.diagnostics.min_u >= -1e-12
        # the stored field is the march of the trace under its own population
        assert field_norm(pt.u - evolve(total_population(pt.u, g), pt.v, spec, g), g) <= 1e-10


def test_trace_is_perron_vector_of_frozen_map(logistic, logistic_branch):
    spec, g = logistic
    for pt in logistic_branch.points[::5]:
        Q = next_generation_operator(total_population(pt.u, g), spec, g)
        defect = np.max(np.abs(pt.lam * Q @ pt.v - pt.v))
        assert defect <= 1e-8 * np.max(np.abs(pt.v))


def habitat_model(n_x=12, n_a=40):
    """A birth rate with a profile in x, b = 1 + 0.8 cos(pi x) over the nodes,
    with mu = 1 + z and d = 0.05 + 0.5 z^2: a branch whose U varies in x."""
    profile = 1.0 + 0.8 * np.cos(np.pi * np.linspace(0.0, 1.0, n_x))
    return ModelSpec(
        d=lambda z: 0.05 + 0.5 * np.asarray(z, dtype=float) ** 2,
        d_prime=lambda z: np.asarray(z, dtype=float),
        mu=lambda z, a: 1.0 + z + 0.0 * a, mu_z=lambda z, a: np.ones_like(z + a),
        b=lambda z, a: profile + 0.0 * (z + a), b_z=lambda z, a: np.zeros_like(z + a),
        d_lower=0.05, n_x=n_x, n_a=n_a,
    )


def test_radius_of_each_point_is_the_perron_radius_from_one_march():
    spec = habitat_model()
    g = build_grid(spec)
    branch = continue_branch(spec, g)
    assert len(branch.points) >= 100
    assert max(np.ptp(total_population(pt.u, g)) for pt in branch.points) >= 0.5
    for pt in branch.points:
        U = total_population(pt.u, g)
        dense = perron_eigenpair(next_generation_operator(U, spec, g), weights=g.w_x).radius
        assert abs(pt.diagnostics.next_gen_radius - dense) <= 1e-13 * dense
        # the Collatz-Wielandt ratios of the positive trace bracket the radius;
        # their spread is the converged residual over v (up to 1.2e-12 here)
        ratios = birth_functional(U, evolve(U, pt.v, spec, g), 1.0, spec, g) / pt.v
        assert ratios.min() - 1e-14 * dense <= dense <= ratios.max() + 1e-14 * dense
        assert ratios.max() - ratios.min() <= 1e-11 * dense


def test_a_trace_with_a_zero_entry_takes_the_dense_radius(monkeypatch):
    import agebranch.solver as solver_module

    spec = habitat_model()
    g = build_grid(spec)
    v = np.linspace(0.0, 1.0, g.n_x)
    U = np.full(g.n_x, 0.3)
    u = evolve(U, v, spec, g)
    dense = perron_eigenpair(next_generation_operator(total_population(u, g), spec, g),
                             weights=g.w_x).radius
    assembled = []

    def counted(*args):
        assembled.append(args[0])
        return next_generation_operator(*args)

    monkeypatch.setattr(solver_module, "next_generation_operator", counted)
    pt = _finish_point(1.0, v, u, 0.0, 0, 0, spec, g)
    assert len(assembled) == 1
    assert pt.diagnostics.next_gen_radius == dense
    positive = v + 0.1
    _finish_point(1.0, positive, evolve(U, positive, spec, g), 0.0, 0, 0, spec, g)
    assert len(assembled) == 1


def test_branch_turns_the_fold_to_the_box():
    spec = fold_model()
    g = build_grid(spec)
    start = time.perf_counter()
    branch = continue_branch(spec, g)
    elapsed = time.perf_counter() - start

    assert branch.termination in ("box_norm", "box_lambda")
    lams = np.array([pt.lam for pt in branch.points])
    dlam = np.sign(np.diff(lams))
    assert np.count_nonzero(dlam[1:] != dlam[:-1]) == 1
    assert abs(lams.min() - 0.48481) <= 1e-4
    for pt in branch.points:
        assert pt.diagnostics.min_u > 0.0
        U = float(np.mean(total_population(pt.u, g)))
        oracle = 1.0 / ((1.0 + 2.0 * U) * survival_sum(1.0 + 0.3 * U**2, g))
        assert abs(pt.lam - oracle) <= 1e-9
    assert elapsed < 10.0


def failing_corrector(monkeypatch, accepted):
    """Let ``newton_correct`` accept ``accepted`` points, then fail every
    correction; returns the ``(lam, v)`` predictor of every call."""
    import agebranch.solver as solver_module

    calls = []

    def correct(lam, v, *args, **kwargs):
        calls.append((lam, v))
        if len(calls) > accepted:
            raise SingularSystemError("forced", condition_estimate=float("inf"))
        return newton_correct(lam, v, *args, **kwargs)

    monkeypatch.setattr(solver_module, "newton_correct", correct)
    return calls


def test_a_first_point_that_never_converges_halves_t0_down_to_ds_min(logistic, monkeypatch):
    spec, g = logistic
    calls = failing_corrector(monkeypatch, accepted=0)
    branch = continue_branch(spec, g)
    assert branch.termination == "step_failure"
    assert branch.points == []
    # the amplitude t0 = 1e-2 is tried at 1e-2 / 2^k for k = 0 .. 13
    t = [np.linalg.norm(v) / np.linalg.norm(branch.phi0) for _, v in calls]
    assert spec.t0 == 1e-2 and len(t) == 14
    assert np.allclose(t, spec.t0 * 0.5 ** np.arange(14), rtol=1e-12)
    assert min(t) >= spec.ds_min > 0.5 * min(t)


@pytest.mark.parametrize("accepted", [1, 3])
def test_a_step_that_never_converges_halves_ds_down_to_ds_min(logistic, monkeypatch,
                                                              accepted):
    spec, g = logistic
    spec = replace(spec, lambda_max_factor=1.8, ds0=0.1, ds_max=0.4)
    calls = failing_corrector(monkeypatch, accepted)
    branch = continue_branch(spec, g)
    assert branch.termination == "step_failure"
    assert len(branch.points) == accepted
    last = branch.points[-1]
    ds = [np.hypot(lam - last.lam, trace_norm(v - last.v, g)) for lam, v in calls[accepted:]]
    assert np.allclose(ds[1:], 0.5 * np.array(ds[:-1]), rtol=1e-9)
    # the last step tried is the last at or above ds_min: its half is the first below
    assert ds[-1] >= spec.ds_min > 0.5 * ds[-1]


def test_the_step_doubles_after_a_point_of_at_most_two_jacobians(logistic, monkeypatch):
    import agebranch.solver as solver_module

    spec, g = logistic
    spec = replace(spec, ds0=0.05, ds_max=1.0, max_points=5)
    forced = iter([1, 2, 3, 1, 1])  # Jacobians reported for points 0..4
    calls = []

    def correct(lam, v, *args, **kwargs):
        calls.append((lam, v))
        pt = newton_correct(lam, v, *args, **kwargs)
        return replace(pt, diagnostics=replace(pt.diagnostics, jacobians=next(forced)))

    monkeypatch.setattr(solver_module, "newton_correct", correct)
    branch = continue_branch(spec, g)
    assert len(branch.points) == len(calls) == 5
    ds = [np.hypot(lam - pt.lam, trace_norm(v - pt.v, g))
          for (lam, v), pt in zip(calls[1:], branch.points)]
    # ds0 after the first point, doubled after 2 Jacobians, kept after 3
    assert ds == pytest.approx([0.05, 0.1, 0.1, 0.2], rel=1e-9)


def test_box_excluding_the_branch_gives_empty_run(logistic):
    spec, g = logistic
    branch = continue_branch(replace(spec, lambda_max_factor=0.9), g)
    assert branch.termination == "box_lambda"
    assert branch.points == []


def test_a_first_step_against_phi0_leaves_the_positive_cone():
    # a negative t0 follows the crossing's negative half: its first point has
    # negative entries, and the run stops there without keeping it
    spec = make_spec("logistic_death", n_x=12, n_a=40, t0=-1e-2)
    branch = continue_branch(spec, build_grid(spec))
    assert branch.termination == "left_positive_cone"
    assert branch.points == []


# -- invariant report ------------------------------------------------------------

def test_invariant_report_on_trivial_point(logistic):
    spec, g = logistic
    pt = newton_correct(1.0, np.zeros(g.n_x), AffineConstraint(1.0, np.zeros(g.n_x)),
                        1.0, spec, g)
    report = branch_invariant_check(pt, spec, g)
    assert report.trivial
    assert report.passed
    assert report.eigen_ok and report.eigen_defect == 0.0  # v = 0 is an eigenvector
    lam0 = bifurcation_point(spec, g).lambda0
    assert abs(report.radius * lam0 - 1.0) <= 1e-10  # radius is that of zero density


def test_invariant_report_on_branch(logistic, logistic_branch):
    spec, g = logistic
    pt = logistic_branch.points[-1]
    report = branch_invariant_check(pt, spec, g)
    assert report.radius_defect <= 1e-6
    assert report.eigen_defect <= spec.radius_identity_tol * np.max(np.abs(pt.v))
    assert report.eigen_ok
    assert report.passed


def test_invariant_report_flags_corrupted_point(logistic, logistic_branch):
    spec, g = logistic
    pt = logistic_branch.points[-1]
    bad_v = pt.v * 1.01
    bad_u = evolve(total_population(pt.u, g), bad_v, spec, g)
    bad = BranchPoint(lam=pt.lam, v=bad_v, u=bad_u,
                      arclength=pt.arclength, diagnostics=pt.diagnostics)
    report = branch_invariant_check(bad, spec, g)
    assert not report.passed
    assert report.radius_defect > 1e-6
    assert report.eigen_defect > spec.radius_identity_tol * np.max(np.abs(bad_v))
    assert not report.eigen_ok


def test_a_full_residual_just_above_its_bound_fails_only_that_check(logistic_spec,
                                                                      logistic_grid):
    # u scaled by 1 + 2e-6 solves the age-space equations to about 1.9e-9: above
    # the bound of 10 * newton_tol, while radius, eigen and positivity pass
    spec, g = logistic_spec, logistic_grid
    pt = continue_branch(replace(spec, max_points=3), g).points[-1]
    bad = replace(pt, u=pt.u * (1.0 + 2e-6))
    report = branch_invariant_check(bad, spec, g)
    assert 10.0 * spec.newton_tol < report.full_residual_norm < 100.0 * spec.newton_tol
    assert not report.residual_ok and not report.passed
    assert report.radius_ok and report.eigen_ok and report.positivity_ok
