import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import agebranch
from agebranch import build_grid, make_spec, total_population
from agebranch.errors import CoefficientBoundError
from agebranch.model import FAMILY_NAMES, ModelSpec
from agebranch.operators import (
    _age_systems,
    _step_inverse,
    advance_cohorts,
    assemble_elliptic,
    birth_functional,
    dpttrs,
    evolve,
    identity_age_sums,
    next_generation_operator,
)
from agebranch.oracles import survival_sum
from agebranch.solver import full_residual, jacobian
from agebranch.validate import simulate_transient
from conftest import divergence_form, to_dense


def decay_profile(c, mu0, g):
    """Scalar implicit-Euler recurrence: the constant-coefficient oracle."""
    return c * (1.0 + mu0 * g.da) ** (-np.arange(g.n_a + 1, dtype=float))


# -- elliptic assembly -------------------------------------------------------

def test_constant_field_in_neumann_kernel(constant_spec, constant_grid):
    op = assemble_elliptic(np.zeros(constant_grid.n_x), 0.0, constant_spec, constant_grid)
    mu0 = 1.0
    c = 3.7 * np.ones(constant_grid.n_x)
    assert np.allclose(op.apply(c), mu0 * c, atol=1e-13)


def test_pure_diffusion_annihilates_constants():
    spec = make_spec("constant", {"mu0": 0.0}, n_x=9, n_a=4)
    g = build_grid(spec)
    op = assemble_elliptic(np.zeros(g.n_x), 0.5, spec, g)
    assert np.allclose(op.apply(np.full(g.n_x, 2.0)), 0.0, atol=1e-13)


def test_three_node_stencil_hand_assembled():
    # unit diffusivity, no reaction, dx = 0.5: interior row is (-4, 8, -4)
    spec = make_spec("constant", {"mu0": 0.0}, n_x=3, n_a=2)
    g = build_grid(spec)
    dense = to_dense(assemble_elliptic(np.zeros(3), 0.0, spec, g))
    assert np.allclose(dense[1], [-4.0, 8.0, -4.0])
    assert np.allclose(dense[0], [8.0, -8.0, 0.0])


def test_four_node_stencil_hand_assembled_at_unequal_diffusivities():
    # d = 1 + U^2 and mu = U/2 at U = (0, 1, 2, 3), dx = 1/3: nodal d
    # (1, 2, 5, 10), faces the arithmetic means (1.5, 3.5, 7.5) times 9, and
    # each boundary row sees its one face twice
    spec = make_spec("density_diffusion", {"d0": 1.0, "d1": 1.0, "mu0": 0.0, "kappa": 0.5},
                     n_x=4, n_a=2)
    g = build_grid(spec)
    dense = to_dense(assemble_elliptic(np.arange(4.0), 0.0, spec, g))
    assert np.allclose(dense, [[27.0, -27.0, 0.0, 0.0],
                               [-13.5, 45.5, -31.5, 0.0],
                               [0.0, -31.5, 100.0, -67.5],
                               [0.0, 0.0, -135.0, 136.5]], rtol=1e-13, atol=0.0)


def test_weighted_symmetry_and_m_matrix_signs(rng):
    spec = make_spec("density_diffusion", {"d1": 0.7, "kappa": 0.5}, n_x=14, n_a=6)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    op = assemble_elliptic(U, 0.3, spec, g)
    weighted = np.diag(g.w_x) @ to_dense(op)
    assert np.allclose(weighted, weighted.T, atol=1e-12)
    assert np.all(op.lower <= 0.0) and np.all(op.upper <= 0.0)
    assert np.all(op.diag >= 0.0)


def test_assembly_rejects_diffusivity_below_bound(constant_grid):
    spec = ModelSpec(
        d=lambda z: 1.0 - 2.0 * z,
        mu=lambda z, a: np.zeros_like(z),
        b=lambda z, a: np.ones_like(z),
        d_lower=0.9,
        n_x=constant_grid.n_x,
        n_a=constant_grid.n_a,
    )
    with pytest.raises(CoefficientBoundError):
        assemble_elliptic(np.full(constant_grid.n_x, 0.5), 0.0, spec, constant_grid)


def test_assembly_rejects_age_outside_interval(constant_spec, constant_grid):
    with pytest.raises(ValueError):
        assemble_elliptic(np.zeros(constant_grid.n_x), 2.0, constant_spec, constant_grid)


def test_assembly_at_all_ages_stacks_per_age_assemblies(rng):
    # state-dependent diffusivity and an age-dependent death rate
    spec = ModelSpec(d=lambda z: 1.0 + 0.5 * z, mu=lambda z, a: (1.0 + a) * (1.0 + z**2),
                     b=lambda z, a: np.ones_like(z), d_lower=0.5, n_x=11, n_a=9)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    w = rng.random((g.n_a + 1, g.n_x))
    op = assemble_elliptic(U, g.a_nodes, spec, g)
    assert op.diag.shape == (g.n_a + 1, g.n_x)
    applied = op.apply(w)
    for k, age in enumerate(g.a_nodes):
        single = assemble_elliptic(U, age, spec, g)
        assert np.array_equal(op.diag[k], single.diag)
        assert np.array_equal(op.lower, single.lower)
        assert np.array_equal(op.upper, single.upper)
        assert np.array_equal(applied[k], single.apply(w[k]))


def test_assembly_names_the_first_age_outside_interval(constant_spec, constant_grid):
    ages = constant_grid.a_nodes.copy()
    ages[7] = 1.5 * constant_spec.a_max
    with pytest.raises(ValueError, match=rf"^age {ages[7]} outside \[0, "):
        assemble_elliptic(np.zeros(constant_grid.n_x), ages, constant_spec, constant_grid)


# -- age march ---------------------------------------------------------------

def test_evolve_matches_scalar_recurrence(constant_spec, constant_grid):
    g = constant_grid
    c = 2.0
    u = evolve(np.zeros(g.n_x), np.full(g.n_x, c), constant_spec, g)
    expected = decay_profile(c, 1.0, g)
    assert np.allclose(u, expected[:, None], rtol=1e-12)


def test_evolve_under_an_aged_death_rate_matches_scalar_recurrence():
    # a trace constant in x stays so, and step k divides it by
    # 1 + da * mu(U, a_k): the death rate at the age the step arrives at
    spec = ModelSpec(d=lambda z: np.ones_like(z), mu=lambda z, a: (1.0 + a) * (1.0 + z),
                     b=lambda z, a: np.ones_like(z + a), d_lower=1.0, n_x=8, n_a=30)
    g = build_grid(spec)
    u = evolve(np.full(g.n_x, 0.4), np.full(g.n_x, 2.0), spec, g)
    steps = 1.0 + g.da * 1.4 * (1.0 + g.a_nodes[1:])
    expected = 2.0 * np.cumprod(np.concatenate(([1.0], 1.0 / steps)))
    assert np.allclose(u, expected[:, None], rtol=1e-12, atol=0.0)


def test_evolve_preserves_nonnegativity(rng, constant_spec, constant_grid):
    g = constant_grid
    w0 = rng.random(g.n_x)
    u = evolve(np.zeros(g.n_x), w0, constant_spec, g)
    assert u.min() >= 0.0


def test_constant_source_accumulates_age(constant_grid):
    spec = make_spec("constant", {"mu0": 0.0}, n_x=constant_grid.n_x, n_a=constant_grid.n_a)
    g = constant_grid
    rate = 1.5
    source = np.full((g.n_a + 1, g.n_x), rate)
    u = evolve(np.zeros(g.n_x), np.zeros(g.n_x), spec, g, source=source)
    assert np.allclose(u, rate * g.a_nodes[:, None], rtol=1e-12)


def test_evolve_superposition(rng, logistic_spec, logistic_grid):
    g = logistic_grid
    U = rng.random(g.n_x)
    w1, w2 = rng.random(g.n_x), rng.random(g.n_x)
    f1, f2 = rng.random((g.n_a + 1, g.n_x)), rng.random((g.n_a + 1, g.n_x))
    combined = evolve(U, 2.0 * w1 + 3.0 * w2, logistic_spec, g, source=2.0 * f1 + 3.0 * f2)
    separate = (2.0 * evolve(U, w1, logistic_spec, g, source=f1)
                + 3.0 * evolve(U, w2, logistic_spec, g, source=f2))
    assert np.allclose(combined, separate, rtol=1e-12, atol=1e-13)


def test_evolve_inverts_the_forward_operator(rng, model_at):
    # applying the implicit-Euler forward relation to the march output must
    # reproduce the (source, trace) data to solver round-off
    spec = model_at(12, 40)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    w0 = rng.random(g.n_x)
    source = rng.random((g.n_a + 1, g.n_x))
    u = evolve(U, w0, spec, g, source=source)
    assert np.array_equal(u[0], w0)
    for k in range(1, g.n_a + 1):
        op = assemble_elliptic(U, g.a_nodes[k], spec, g)
        recovered = (u[k] + g.da * op.apply(u[k]) - u[k - 1]) / g.da
        assert np.allclose(recovered, source[k], atol=1e-10)


def test_mass_conservation_without_death(rng):
    spec = make_spec("constant", {"mu0": 0.0}, n_x=11, n_a=30)
    g = build_grid(spec)
    w0 = rng.random(g.n_x)
    u = evolve(np.zeros(g.n_x), w0, spec, g)
    mass0 = np.sum(g.w_x * w0)
    for k in range(g.n_a + 1):
        assert abs(np.sum(g.w_x * u[k]) - mass0) <= 1e-12 * max(1.0, mass0)


# -- birth functional ---------------------------------------------------------

def test_birth_of_zero_field(constant_spec, constant_grid):
    g = constant_grid
    out = birth_functional(np.zeros(g.n_x), np.zeros((g.n_a + 1, g.n_x)), 2.0,
                           constant_spec, g)
    assert np.all(out == 0.0)


def test_birth_of_constant_integrand():
    spec = make_spec("constant", {"b0": 2.5}, n_x=5, n_a=16, a_max=1.0)
    g = build_grid(spec)
    out = birth_functional(np.zeros(g.n_x), np.ones((g.n_a + 1, g.n_x)), 1.0, spec, g)
    assert np.allclose(out, 2.5, rtol=1e-14)


def test_birth_against_fine_quadrature_oracle():
    # b(z, a) = exp(-a), u = 1: trapezoid error is O(da^2)
    n_a = 25
    spec = ModelSpec(
        d=lambda z: np.ones_like(z),
        mu=lambda z, a: np.zeros_like(z),
        b=lambda z, a: np.exp(-a) * np.ones_like(z),
        d_lower=0.5,
        n_x=5,
        n_a=n_a,
    )
    g = build_grid(spec)
    out = birth_functional(np.zeros(g.n_x), np.ones((g.n_a + 1, g.n_x)), 1.0, spec, g)
    fine = np.linspace(0.0, 1.0, 20001)
    oracle = np.trapezoid(np.exp(-fine), fine)
    assert np.allclose(out, oracle, atol=(1.0 / n_a) ** 2)
    assert abs(out[0] - (1.0 - np.exp(-1.0))) <= (1.0 / n_a) ** 2


def test_birth_shape_mismatch(constant_spec, constant_grid):
    with pytest.raises(ValueError):
        birth_functional(np.zeros(3), np.zeros((2, 3)), 1.0, constant_spec, constant_grid)


# -- next-generation operator --------------------------------------------------

def test_zero_birth_gives_zero_operator():
    spec = make_spec("constant", {"b0": 0.0}, n_x=6, n_a=10)
    g = build_grid(spec)
    Q = next_generation_operator(np.zeros(g.n_x), spec, g)
    assert np.all(Q == 0.0)


def test_constant_coefficients_match_scalar_sum():
    b0, mu0 = 1.0, 1.0
    spec = make_spec("constant", {"mu0": mu0, "b0": b0}, n_x=10, n_a=24)
    g = build_grid(spec)
    Q = next_generation_operator(np.zeros(g.n_x), spec, g)
    applied = Q @ np.ones(g.n_x)
    assert np.allclose(applied, b0 * survival_sum(mu0, g), rtol=1e-12)


def test_operator_matches_matrix_free_application(rng, logistic_spec, logistic_grid):
    g = logistic_grid
    u = rng.random((g.n_a + 1, g.n_x))
    U = total_population(u, g)
    Q = next_generation_operator(U, logistic_spec, g)
    v = rng.standard_normal(g.n_x)
    direct = birth_functional(U, evolve(U, v, logistic_spec, g), 1.0, logistic_spec, g)
    assert np.allclose(Q @ v, direct, rtol=1e-12, atol=1e-12)


def test_operator_takes_the_total_population(logistic_spec, logistic_grid):
    g = logistic_grid
    with pytest.raises(ValueError, match=rf"^total population has shape \({g.n_a + 1}, "
                                         rf"{g.n_x}\), expected \({g.n_x},\)$"):
        next_generation_operator(np.zeros((g.n_a + 1, g.n_x)), logistic_spec, g)


def test_operator_entries_nonnegative(rng, logistic_spec, logistic_grid):
    g = logistic_grid
    u = rng.random((g.n_a + 1, g.n_x))
    Q = next_generation_operator(total_population(u, g), logistic_spec, g)
    assert Q.min() >= 0.0


# -- age sums of the identity march -----------------------------------------------

def _mixed_models(n_x, n_a):
    """The rate combinations that take the marched age sum: age-free ``b``
    with an age-dependent ``mu``, an age-dependent ``b`` with an age-free
    ``mu``, and an age-free model wider than the product bound."""
    base = make_spec("logistic_death", n_x=n_x, n_a=n_a)
    return {
        "age-free b, aged mu": replace(base, family=None,
                                       mu=lambda z, a: (1.0 + a) * (1.0 + z),
                                       mu_z=lambda z, a: (1.0 + a) + 0.0 * z),
        "aged b, age-free mu": replace(base, family=None,
                                       b=lambda z, a: np.exp(-a) / (1.0 + z),
                                       b_z=lambda z, a: -np.exp(-a) / (1.0 + z) ** 2),
        "65 nodes": make_spec("logistic_death", n_x=65, n_a=n_a),
    }


def _march_sums(U, spec, g):
    """The oracle: the identity marched through every age, contracted with
    the trapezoid weights, with and without the birth rate."""
    marched = evolve(U, np.eye(g.n_x), spec, g)
    wb = g.w_a[:, None] * spec.rate_table("b", U, g.a_nodes)
    return np.einsum("kn,knj->nj", wb, marched), np.einsum("k,knj->nj", g.w_a, marched)


def _check_age_sums(spec, rng):
    g = build_grid(spec)
    u = 0.5 * rng.random((g.n_a + 1, g.n_x))
    U = total_population(u, g)
    weighted, K = identity_age_sums(U, spec.rate_table("b", U, g.a_nodes),
                                    _age_systems(U, spec, g, g.a_nodes), spec, g, plain=True)
    for got, want in zip((weighted, K), _march_sums(U, spec, g)):
        assert want.min() > 0.0 and got.min() > 0.0
        assert np.abs(got / want - 1.0).max() <= 1e-13
    assert np.array_equal(next_generation_operator(U, spec, g), weighted)
    J, n = jacobian(1.7, U, u, spec, g), g.n_x
    expected = -1.7 * weighted
    expected[np.diag_indices(n)] += 1.0
    assert np.array_equal(J[:n, :n], expected) and np.array_equal(J[n:, :n], -K)


@pytest.mark.parametrize("n_a", [2, 3, 64, 100, 101])
@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_age_sum_by_powers_matches_the_march(rng, family, n_a):
    # every bit pattern of n_a: the doubling sums the march's own terms
    _check_age_sums(make_spec(family, n_x=32, n_a=n_a), rng)


@pytest.mark.parametrize("name", ["age-free b, aged mu", "aged b, age-free mu", "65 nodes"])
def test_marched_age_sum_matches_the_march(rng, name):
    _check_age_sums(_mixed_models(12, 40)[name], rng)


@pytest.mark.parametrize("name", ["age-free b, aged mu", "aged b, age-free mu", "65 nodes"])
def test_marched_age_sum_in_column_chunks(rng, monkeypatch, name):
    # a fine grid marches the identity a few columns at a time, for the return
    # map and the Jacobian's du/dv alike; neither may change (an age-free
    # model on at most 64 nodes sums by powers and marches no columns; on 65
    # each age step is a solve)
    import agebranch.operators as operators

    spec = _mixed_models(12, 40)[name]
    g = build_grid(spec)
    u = 0.5 * rng.random((g.n_a + 1, g.n_x))
    U, n = total_population(u, g), g.n_x
    whole, J = next_generation_operator(U, spec, g), jacobian(1.7, U, u, spec, g)
    monkeypatch.setattr(operators, "_STACK_BYTES", 5 * (g.n_a + 1) * n * 8)
    assert np.allclose(next_generation_operator(U, spec, g), whole, rtol=1e-13, atol=0.0)
    march, widths = operators.evolve, []

    def recorded(*args, **kwargs):
        widths.append(args[1].shape[1])  # the identity columns of one march
        return march(*args, **kwargs)

    monkeypatch.setattr(operators, "evolve", recorded)
    chunked = jacobian(1.7, U, u, spec, g)
    assert max(widths) == 5 and sum(widths) == n
    for block in (np.s_[:n, :n], np.s_[n:, :n]):
        assert np.allclose(chunked[block], J[block], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", [None, "age-free b, aged mu", "aged b, age-free mu",
                                  "65 nodes"])
def test_age_sums_march_only_without_one_system_and_one_birth_row(rng, monkeypatch, name):
    # age-free rates on at most 64 nodes: no march for the return map, one
    # for the Jacobian's du/dU; every other model marches the identity too.
    # Either way each population is factored once
    import agebranch.operators as operators
    import agebranch.solver as solver

    spec = make_spec("density_diffusion", n_x=12, n_a=40) if name is None else \
        _mixed_models(12, 40)[name]
    g = build_grid(spec)
    u = 0.5 * rng.random((g.n_a + 1, g.n_x))
    U = total_population(u, g)
    calls = []

    def counted(module, fname):
        fun = getattr(module, fname)

        def wrapped(*args, **kwargs):
            calls.append(fname)
            return fun(*args, **kwargs)

        monkeypatch.setattr(module, fname, wrapped)

    for module in (operators, solver):
        counted(module, "evolve")
        counted(module, "_age_systems")
    marches = 0 if name is None else 1
    next_generation_operator(U, spec, g)
    assert calls == ["_age_systems"] + ["evolve"] * marches
    calls.clear()
    jacobian(1.7, U, u, spec, g)
    assert calls == ["_age_systems"] + ["evolve"] * (marches + 1)


# -- batched marches -------------------------------------------------------------

def test_march_cases_agree(rng, model_at):
    # single traces and a column block under one U are the same marches, by
    # products with the step inverse (one step system) or by per-age solves
    spec = model_at(12, 40)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    W = rng.random((g.n_x, 4))
    source = rng.random((g.n_a + 1, g.n_x, 4))
    cols = evolve(U, W, spec, g, source=source)
    for j in range(4):
        single = evolve(U, W[:, j], spec, g, source=source[:, :, j])
        assert np.allclose(cols[:, :, j], single, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("n_x, n_a", [(12, 40), (65, 6)])
def test_marches_solve_once_per_step_system(rng, model_at, monkeypatch, n_x, n_a):
    # one step system on at most 64 nodes, also when written with an age
    # axis: one solve, on the identity, then products; a death rate that
    # depends on age, or a wider grid: one solve per age step
    import agebranch.operators as operators

    base = model_at(n_x, n_a)
    g = build_grid(base)
    n, rows = g.n_x, g.n_a + 1
    U = rng.random(n)
    bands = (rng.random((rows, n - 1)), rng.random((rows, n)), rng.random((rows, n - 1)))
    solve, calls = operators.dpttrs, []

    def counted(d, e, b, **kwargs):
        calls.append(np.array(b))
        return solve(d, e, b, **kwargs)

    monkeypatch.setattr(operators, "dpttrs", counted)
    for spec in (base, _with_age_axis(base)):
        for w0, source in ((rng.random(n), None), (np.eye(n), None),
                           (rng.random(n), rng.random((rows, n))), (np.zeros((n, n)), bands)):
            calls.clear()
            evolve(U, w0, spec, g, source=source)
            if base.family is not None and n <= 64:
                assert len(calls) == 1 and np.array_equal(calls[0], np.eye(n))
            else:
                assert len(calls) == g.n_a


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_step_inverse_is_nonnegative_and_solves(rng, family):
    # the tabulated inverse of the one step system: nonnegative, and its
    # product is the solve by the same factor
    spec = make_spec(family, n_x=32, n_a=100)
    g = build_grid(spec)
    d, e = _age_systems(rng.random(g.n_x), spec, g, g.a_nodes)
    inverse = _step_inverse(d[0], e[0])
    assert inverse.shape == (g.n_x, g.n_x) and inverse.min() >= 0.0
    for x in (rng.random(g.n_x), rng.standard_normal(g.n_x)):
        solved = dpttrs(d[0], e[0, :-1], x)[0]
        assert np.abs(inverse @ x - solved).max() <= 1e-14 * np.abs(solved).max()


def test_banded_source_matches_its_dense_matrix(rng, logistic_spec, logistic_grid):
    # column j of the tridiagonal source is the source of march column j;
    # adding the diagonals in place does the same arithmetic as the dense add
    g = logistic_grid
    U = rng.random(g.n_x)
    W = rng.random((g.n_x, g.n_x))
    band_mask = np.abs(np.subtract.outer(np.arange(g.n_x), np.arange(g.n_x))) <= 1
    dense = rng.standard_normal((g.n_a + 1, g.n_x, g.n_x)) * band_mask
    bands = tuple(np.diagonal(dense, offset, 1, 2) for offset in (-1, 0, 1))
    banded = evolve(U, W, logistic_spec, g, source=bands)
    assert np.array_equal(banded, evolve(U, W, logistic_spec, g, source=dense))


def test_banded_source_rejects_other_shapes(rng, logistic_spec, logistic_grid):
    g = logistic_grid
    n, rows = g.n_x, g.n_a + 1
    bands = (np.zeros((rows, n - 1)), np.zeros((rows, n)), np.zeros((rows, n - 1)))
    with pytest.raises(ValueError, match="banded source"):
        evolve(np.zeros(n), np.zeros((n, 3)), logistic_spec, g, source=bands)
    with pytest.raises(ValueError, match=rf"total population has shape \({n}, {n}\), "
                                         rf"expected \({n},\)"):
        evolve(np.zeros((n, n)), np.zeros((n, n)), logistic_spec, g, source=bands)
    with pytest.raises(ValueError, match="source upper"):
        evolve(np.zeros(n), np.zeros((n, n)), logistic_spec, g,
               source=bands[:2] + (np.zeros((rows, n)),))
    with pytest.raises(ValueError, match="non-finite"):
        evolve(np.zeros(n), np.zeros((n, n)), logistic_spec, g,
               source=(bands[0], np.full((rows, n), np.nan), bands[2]))


def test_negative_death_rate_names_the_age(logistic_grid):
    g = logistic_grid
    bad_age = g.a_nodes[17]
    spec = ModelSpec(
        d=lambda z: np.ones_like(z),
        mu=lambda z, a: np.where(a == bad_age, -1.0, 1.0) * np.ones_like(z),
        b=lambda z, a: np.ones_like(z),
        d_lower=0.5,
        n_x=g.n_x,
        n_a=g.n_a,
    )
    with pytest.raises(CoefficientBoundError, match=f"negative at age {bad_age:.6g}"):
        evolve(np.zeros(g.n_x), np.ones(g.n_x), spec, g)


def test_non_finite_age_step_is_an_arithmetic_error(logistic_grid):
    # a finite but huge diffusivity overflows the assembled bands
    g = logistic_grid
    spec = ModelSpec(
        d=lambda z: np.full_like(z, 1e308),
        mu=lambda z, a: np.ones_like(z),
        b=lambda z, a: np.ones_like(z),
        d_lower=0.5,
        n_x=g.n_x,
        n_a=g.n_a,
    )
    with np.errstate(over="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
        evolve(np.zeros(g.n_x), np.ones(g.n_x), spec, g)


@pytest.mark.parametrize("run", [
    lambda U, u, spec, g: evolve(U, u[0], spec, g),
    lambda U, u, spec, g: advance_cohorts(U, u, spec, g),
])
def test_indefinite_age_step_is_an_arithmetic_error(run, logistic_spec, logistic_grid,
                                                    monkeypatch):
    # no admissible coefficient gets here (mu >= 0 and d >= d_lower make every
    # step SPD), so the diffusion diagonal is forced negative
    import agebranch.operators as operators

    bands = operators._diffusion_bands
    monkeypatch.setattr(operators, "_diffusion_bands",
                        lambda *args: (bands(*args)[0], np.full(logistic_grid.n_x, -1e6)))
    g = logistic_grid
    with pytest.raises(ArithmeticError, match=r"not positive definite \(dpttrf info 1\)"):
        run(np.zeros(g.n_x), np.ones((g.n_a + 1, g.n_x)), logistic_spec, g)


def test_cohort_step_matches_row_solves(rng, model_at):
    spec = model_at(12, 40)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    u = rng.random((g.n_a + 1, g.n_x))
    stepped = advance_cohorts(U, u, spec, g)
    for k in range(1, g.n_a + 1):
        op = assemble_elliptic(U, g.a_nodes[k], spec, g)
        assert np.allclose(stepped[k - 1], op.solve_shifted(g.da, u[k - 1]),
                           rtol=1e-13, atol=0.0)


def test_age_systems_are_the_symmetrized_steps(rng, model_at):
    # the march solves S = D M D^-1 with D = diag(1/sqrt2, 1, ..., 1, 1/sqrt2),
    # M = I + da * A the assembled step; S is symmetric and, as I plus da
    # times a matrix similar to a positive semidefinite one, SPD with
    # spectrum at or above 1.  The tables hold its LDL^T factors at every age:
    # S = L diag(d) L^T with L unit lower bidiagonal, subdiagonal e
    spec = model_at(12, 40)
    g = build_grid(spec)
    U = rng.random(g.n_x)
    d, e = _age_systems(U, spec, g, g.a_nodes)
    # one system for every age when mu has no age axis (the built-in families)
    rows = 1 if spec.family is not None else g.n_a + 1
    assert d.shape == e.shape == (rows, g.n_x)
    assert np.all(e[:, -1] == 0.0)
    scale = np.ones(g.n_x)
    scale[[0, -1]] = np.sqrt(0.5)
    for k, age in enumerate(g.a_nodes):
        M = np.eye(g.n_x) + g.da * to_dense(assemble_elliptic(U, age, spec, g))
        L = np.eye(g.n_x) + np.diag(e[k % rows, :-1], -1)
        S = L @ np.diag(d[k % rows]) @ L.T
        assert np.allclose(S, scale[:, None] * M / scale[None, :], rtol=1e-15, atol=0.0)
        assert np.linalg.eigvalsh(S).min() >= 1.0 - 1e-12


def _with_age_axis(base: ModelSpec) -> ModelSpec:
    """``base`` with each rate and its z-partial written with an explicit age
    axis: the same values, but one row per age."""
    def aged(f):
        return lambda z, a: f(z, a) + 0.0 * a

    return replace(base, mu=aged(base.mu), b=aged(base.b), mu_z=aged(base.mu_z),
                   b_z=aged(base.b_z))


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_age_free_rates_give_the_numbers_of_an_age_axis(family, rng):
    # one factored system for every age, or one per age: the same arithmetic
    base = make_spec(family, {"kappa": 1.3} if family != "constant" else None,
                     n_x=12, n_a=40)
    aged = _with_age_axis(base)
    g = build_grid(base)
    U, v = rng.random(g.n_x), rng.random(g.n_x)
    u = rng.random((g.n_a + 1, g.n_x))
    source = rng.random((g.n_a + 1, g.n_x))
    bands = (rng.random((g.n_a + 1, g.n_x - 1)), rng.random((g.n_a + 1, g.n_x)),
             rng.random((g.n_a + 1, g.n_x - 1)))
    for name in ("mu", "b", "mu_z", "b_z"):
        shared = base.rate_table(name, U, g.a_nodes)
        assert shared.strides[0] == 0 and not shared.flags.writeable
        table = aged.rate_table(name, U, g.a_nodes)
        assert table.strides[0] != 0 and table.flags.writeable
        assert np.array_equal(table, shared)

    def outputs(spec):
        state = simulate_transient(u, 1.7, 10, spec, g)
        return [evolve(U, v, spec, g),
                evolve(U, np.eye(g.n_x), spec, g),
                evolve(U, v, spec, g, source=source),
                evolve(U, np.zeros((g.n_x, g.n_x)), spec, g, source=bands),
                advance_cohorts(U, u, spec, g),
                state.field, state.drift_history, state.min_history,
                next_generation_operator(U, spec, g),
                jacobian(1.7, U, u, spec, g),
                full_residual(1.7, u, spec, g)]

    for got, want in zip(outputs(aged), outputs(base), strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("run, age_index", [
    (lambda U, u, spec, g: evolve(U, u[0], spec, g), 0),
    (lambda U, u, spec, g: advance_cohorts(U, u, spec, g), 1),
    (lambda U, u, spec, g: simulate_transient(u, 1.0, 1, spec, g), 1),
])
def test_age_free_negative_death_rate_names_the_age(run, age_index):
    spec = ModelSpec(d=lambda z: np.ones_like(z), mu=lambda z, a: -np.ones_like(z),
                     b=lambda z, a: np.ones_like(z), d_lower=0.5, n_x=6, n_a=10)
    g = build_grid(spec)
    with pytest.raises(CoefficientBoundError,
                       match=rf"^mu\(z, a\) = -1 is negative at age {g.a_nodes[age_index]:.6g}$"):
        run(np.ones(g.n_x), np.ones((g.n_a + 1, g.n_x)), spec, g)


@pytest.mark.parametrize("run", [
    lambda U, u, spec, g: simulate_transient(u, 1.0, 1, spec, g),
    lambda U, u, spec, g: birth_functional(U, u, 1.0, spec, g),
    lambda U, u, spec, g: next_generation_operator(U, spec, g),
])
def test_age_free_non_finite_birth_rate_names_the_age(run):
    spec = ModelSpec(d=lambda z: np.ones_like(z), mu=lambda z, a: np.ones_like(z),
                     b=lambda z, a: np.full_like(z, np.inf), d_lower=0.5, n_x=6, n_a=10)
    g = build_grid(spec)
    with pytest.raises(CoefficientBoundError,
                       match=r"^b\(z, a\) evaluated to a non-finite value at age 0$"):
        run(np.ones(g.n_x), np.ones((g.n_a + 1, g.n_x)), spec, g)


def test_divergence_form_matches_assembled_operator(rng):
    spec = make_spec("constant", {"d0": 1.7, "mu0": 0.0}, n_x=9, n_a=4)
    g = build_grid(spec)
    w = rng.random(g.n_x)
    op = assemble_elliptic(np.zeros(g.n_x), 0.0, spec, g)
    assert np.allclose(divergence_form(np.full(g.n_x, 1.7), w, g), op.apply(w),
                       rtol=1e-13, atol=1e-13)


def test_age_steps_call_the_lapack_of_a_later_scipy_linalg():
    # the kernel loads LAPACK without scipy.linalg; importing scipy.linalg
    # afterwards must reuse that extension, and the march must still agree
    # with the banded oracle solve step by step
    code = """
import numpy as np
import agebranch
import agebranch.operators as operators
import scipy.linalg
from agebranch import assemble_elliptic, build_grid, evolve, make_spec
assert scipy.linalg.lapack.dpttrf is operators.dpttrf
assert scipy.linalg.lapack.dpttrs is operators.dpttrs
spec = make_spec("logistic_death", n_x=12, n_a=40)
g = build_grid(spec)
rng = np.random.default_rng(7)
U, w0 = rng.random(g.n_x), rng.random(g.n_x)
u = evolve(U, w0, spec, g)
for k in range(1, g.n_a + 1):
    op = assemble_elliptic(U, g.a_nodes[k], spec, g)
    assert np.allclose(u[k], op.solve_shifted(g.da, u[k - 1]), rtol=1e-13, atol=0.0)
print("ok")
"""
    src = str(Path(agebranch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
