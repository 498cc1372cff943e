import time
from dataclasses import replace

import numpy as np
import pytest

from agebranch import (
    AffineConstraint,
    ContinuationParams,
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
    quasilinear_march,
    reduced_residual,
    total_population,
    weighted_inner,
)
from agebranch.errors import SingularSystemError, StepFailureError
from agebranch.operators import assemble_elliptic, birth_functional, divergence_form, evolve
from agebranch.oracles import (
    equilibrium_intensity,
    homogeneous_profile,
    march_population,
    survival_sum,
)
from agebranch.solver import (
    BranchPoint,
    _population_newton,
    _residual_jacobian,
    _tangent_source,
)
from agebranch.spectral import bifurcation_point


@pytest.fixture(scope="module")
def logistic():
    spec = make_spec("logistic_death", n_x=10, n_a=30)
    g = build_grid(spec)
    return spec, g


@pytest.fixture(scope="module")
def logistic_branch(logistic):
    spec, g = logistic
    lam0 = bifurcation_point(spec, g).lambda0
    params = ContinuationParams.from_spec(
        spec, lambda_max=1.8 * lam0, ds0=0.1, ds_max=0.4, max_points=40)
    return continue_branch(spec, g, params)


# -- quasilinear march ---------------------------------------------------------

def test_zero_trace_is_fixed_point_in_one_iteration(logistic):
    # counted in Newton steps on U: the zero start is already the solution
    spec, g = logistic
    _, u, steps = _population_newton(np.zeros(g.n_x), spec, g)
    assert np.all(u == 0.0)
    assert steps == 0


def test_linear_model_needs_no_self_coupling(constant_spec, constant_grid, rng):
    # the march does not depend on U, so one Newton step on U is exact
    g = constant_grid
    v = rng.random(g.n_x)
    _, u, steps = _population_newton(v, constant_spec, g)
    assert steps == 1
    assert np.allclose(u, evolve(np.zeros(g.n_x), v, constant_spec, g), rtol=1e-12)


def test_march_matches_scalar_fixed_point(logistic):
    spec, g = logistic
    eps = 0.01
    u = quasilinear_march(np.full(g.n_x, eps), spec, g)
    U_star = march_population(eps, 1.0, 1.0, g)
    expected = homogeneous_profile(eps, 1.0 + U_star, g)
    assert np.max(np.abs(u - expected[:, None])) <= 1e-10


def test_march_damps_through_strong_feedback():
    # kappa this large makes the population feedback dominate the march;
    # Newton on U has to converge from zero all the same
    spec = make_spec("logistic_death", {"kappa": 30.0}, n_x=6, n_a=20)
    g = build_grid(spec)
    v = np.full(g.n_x, 0.8)
    u = quasilinear_march(v, spec, g)
    U_star = march_population(0.8, 1.0, 30.0, g)
    expected = homogeneous_profile(0.8, 1.0 + 30.0 * U_star, g)
    assert np.max(np.abs(u - expected[:, None])) <= 1e-9


def test_march_budget_exhaustion_raises_step_failure():
    spec = make_spec("logistic_death", {"kappa": 30.0}, n_x=6, n_a=20, max_newton=1)
    g = build_grid(spec)
    with pytest.raises(StepFailureError) as err:
        quasilinear_march(np.full(g.n_x, 0.8), spec, g)
    assert err.value.iterations == 1
    assert err.value.residual_norm > spec.newton_tol


# -- residuals ------------------------------------------------------------------

@pytest.mark.parametrize("lam", [-1.0, 0.0, 0.7, 3.0])
def test_trivial_branch_is_exact(logistic, lam):
    spec, g = logistic
    R, u = reduced_residual(lam, np.zeros(g.n_x), spec, g)
    assert np.all(R == 0.0)
    assert np.all(u == 0.0)


def test_eigen_identity_at_the_critical_point(constant_spec, constant_grid):
    g = constant_grid
    bif = bifurcation_point(constant_spec, g)
    R, _ = reduced_residual(bif.lambda0, bif.phi0, constant_spec, g)
    assert np.max(np.abs(R)) <= 2e-10 * np.max(np.abs(bif.phi0))


def test_no_birth_returns_the_trace(logistic, rng):
    spec, g = logistic
    v = rng.random(g.n_x)
    R, _ = reduced_residual(0.0, v, spec, g)
    assert np.allclose(R, v, rtol=1e-13)


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
        d_lower=1.0, n_x=12, n_a=40, lambda_max=3.0, u_norm_max=20.0,
    )


def corrector_residual(lam, v, U, spec, g):
    """(R_v, R_U) assembled here from the march and the birth integral."""
    u = evolve(U, v, spec, g)
    return np.concatenate([v - birth_functional(U, u, lam, spec, g),
                           U - total_population(u, g)])


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
    J = _residual_jacobian(lam, U, evolve(U, v, spec, g), spec, g)
    J_fd = fd_residual_jacobian(lam, v, U, spec, g)
    n = g.n_x
    blocks = {"dR_v/dv": np.s_[:n, :n], "dR_v/dU": np.s_[:n, n:2 * n],
              "dR_v/dlam": np.s_[:n, 2 * n:], "dR_U/dv": np.s_[n:, :n],
              "dR_U/dU": np.s_[n:, n:2 * n], "dR_U/dlam": np.s_[n:, 2 * n:]}
    scale = 1.0 + float(np.max(np.abs(J)))
    for name, block in blocks.items():
        assert np.max(np.abs(J[block] - J_fd[block])) <= 1e-7 * scale, name


def test_jacobian_at_origin_is_eigen_operator(constant_spec, constant_grid):
    g = constant_grid
    lam0 = bifurcation_point(constant_spec, g).lambda0
    Q0 = next_generation_operator(np.zeros((g.n_a + 1, g.n_x)), constant_spec, g)
    expected = np.eye(g.n_x) - lam0 * Q0
    J = jacobian(lam0, np.zeros(g.n_x), constant_spec, g)
    assert np.max(np.abs(J - expected)) <= 1e-13


def test_jacobian_without_birth_is_identity(constant_spec, constant_grid, rng):
    g = constant_grid
    v = rng.random(g.n_x)
    J = jacobian(0.0, v, constant_spec, g)
    assert np.max(np.abs(J - np.eye(g.n_x))) <= 1e-9


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

    # the public reduced Jacobian is the Schur complement of the same blocks,
    # taken at the population that reproduces the trace
    U_v = total_population(quasilinear_march(v, spec, g), g)
    J_fd = fd_residual_jacobian(2.0, v, U_v, spec, g)
    n = g.n_x
    schur = J_fd[:n, :n] - J_fd[:n, n:2 * n] @ np.linalg.solve(J_fd[n:, n:2 * n],
                                                                J_fd[n:, :n])
    J = jacobian(2.0, v, spec, g)
    assert np.max(np.abs(J - schur)) <= 1e-7 * (1.0 + np.max(np.abs(schur)))


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
    J = _residual_jacobian(2.0, U, u, spec, g)
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
    J = jacobian(lam0, np.zeros(g.n_x), spec, g)
    sv = np.linalg.svd(J, compute_uv=False)
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


def test_first_point_converges_quickly(logistic):
    spec, g = logistic
    bif = bifurcation_point(spec, g)
    t = 0.01
    constraint = AffineConstraint(0.0, g.w_x * bif.psi0)
    target = t * weighted_inner(bif.psi0, bif.phi0, g)
    pt = newton_correct(bif.lambda0, t * bif.phi0, constraint, target, spec, g)
    assert pt.diagnostics.newton_iters <= 6
    assert pt.diagnostics.residual_norm <= 1e-10


def test_exhausted_iteration_budget_raises_step_failure():
    from agebranch.errors import StepFailureError

    spec = make_spec("logistic_death", n_x=10, n_a=30, max_newton=1)
    g = build_grid(spec)
    bif = bifurcation_point(spec, g)
    constraint = AffineConstraint(0.0, g.w_x * bif.psi0)
    target = 0.01 * weighted_inner(bif.psi0, bif.phi0, g)
    with pytest.raises(StepFailureError) as err:
        newton_correct(bif.lambda0, 0.01 * bif.phi0, constraint, target, spec, g)
    assert err.value.iterations == 1
    assert err.value.residual_norm >= 0.0


def test_converged_point_is_certified_without_a_new_jacobian(logistic, logistic_branch,
                                                             monkeypatch):
    # secant predictor through two branch points, as in continue_branch
    import agebranch.solver as solver_module
    from agebranch.model import trace_norm

    spec, g = logistic
    n = g.n_x
    prev, current = logistic_branch.points[1:3]
    U_prev, U_cur = total_population(prev.u, g), total_population(current.u, g)
    dlam, dv = current.lam - prev.lam, current.v - prev.v
    scale = np.hypot(dlam, trace_norm(dv, g))
    tau_lam, tau_v, tau_U = dlam / scale, dv / scale, (U_cur - U_prev) / scale
    ds = 0.1
    constraint = AffineConstraint(tau_lam, g.dx * tau_v)
    lam_pred, v_pred = current.lam + ds * tau_lam, current.v + ds * tau_v
    target = constraint(lam_pred, v_pred)

    calls = []

    def counted(*args):
        calls.append(args[0])
        return _residual_jacobian(*args)

    monkeypatch.setattr(solver_module, "_residual_jacobian", counted)
    pt = newton_correct(lam_pred, v_pred, constraint, target, spec, g, U=U_cur + ds * tau_U)
    iters = pt.diagnostics.newton_iters
    assert iters >= 2
    # every iteration but the certifying one assembles a Jacobian
    assert len(calls) == iters - 1

    # a fresh exact Newton step at the returned point certifies it too
    U = total_population(pt.u, g)
    u = evolve(U, pt.v, spec, g)
    bordered = np.vstack([
        _residual_jacobian(pt.lam, U, u, spec, g),
        np.concatenate([constraint.coeff_v, np.zeros(n), [constraint.coeff_lambda]]),
    ])
    rhs = np.concatenate([pt.v - birth_functional(U, u, pt.lam, spec, g),
                          U - total_population(u, g), [constraint(pt.lam, pt.v) - target]])
    step = np.linalg.solve(bordered, -rhs)
    assert np.hypot(trace_norm(step[:n], g), step[2 * n]) <= spec.newton_tol


# -- continuation ----------------------------------------------------------------

def test_linear_branch_is_vertical(constant_spec, constant_grid):
    spec, g = constant_spec, constant_grid
    lam0 = bifurcation_point(spec, g).lambda0
    params = ContinuationParams.from_spec(spec, u_norm_max=1.5, max_points=40,
                                          ds0=0.05, ds_max=0.25)
    branch = continue_branch(spec, g, params)
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
    assert len(logistic_branch.tangent_history) >= len(logistic_branch.points) - 1
    for pt in logistic_branch.points:
        assert pt.diagnostics.residual_norm <= spec.newton_tol
        assert pt.diagnostics.min_u >= -1e-12
        # the stored field is the fresh reconstruction of the trace
        assert field_norm(pt.u - quasilinear_march(pt.v, spec, g), g) <= 1e-10


def test_trace_is_perron_vector_of_frozen_map(logistic, logistic_branch):
    spec, g = logistic
    for pt in logistic_branch.points[::5]:
        Q = next_generation_operator(pt.u, spec, g)
        defect = np.max(np.abs(pt.lam * Q @ pt.v - pt.v))
        assert defect <= 1e-8 * np.max(np.abs(pt.v))


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


def test_box_excluding_the_branch_gives_empty_run(logistic):
    spec, g = logistic
    lam0 = bifurcation_point(spec, g).lambda0
    params = ContinuationParams.from_spec(spec, lambda_max=0.9 * lam0)
    branch = continue_branch(spec, g, params)
    assert branch.termination == "box_lambda"
    assert branch.points == []


# -- invariant report ------------------------------------------------------------

def test_invariant_report_on_trivial_point(logistic):
    spec, g = logistic
    pt = newton_correct(1.0, np.zeros(g.n_x), AffineConstraint(1.0, np.zeros(g.n_x)),
                        1.0, spec, g)
    report = branch_invariant_check(pt, spec, g)
    assert report.trivial
    assert report.passed
    lam0 = bifurcation_point(spec, g).lambda0
    assert abs(report.radius * lam0 - 1.0) <= 1e-10  # radius is that of zero density


def test_invariant_report_on_branch(logistic, logistic_branch):
    spec, g = logistic
    report = branch_invariant_check(logistic_branch.points[-1], spec, g)
    assert report.radius_defect <= 1e-6
    assert report.passed


def test_invariant_report_flags_corrupted_point(logistic, logistic_branch):
    spec, g = logistic
    pt = logistic_branch.points[-1]
    bad_v = pt.v * 1.01
    bad = BranchPoint(lam=pt.lam, v=bad_v, u=quasilinear_march(bad_v, spec, g),
                      arclength=pt.arclength, diagnostics=pt.diagnostics)
    report = branch_invariant_check(bad, spec, g)
    assert not report.passed
    assert report.radius_defect > 1e-6
