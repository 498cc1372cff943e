from dataclasses import fields, replace

import numpy as np
import pytest

from agebranch import build_grid, field_norm, make_spec, total_population
from agebranch.errors import CoefficientBoundError
from agebranch.model import FAMILY_NAMES, ModelSpec, family_parameters


def test_spatial_nodes_three_point():
    spec = make_spec("constant", n_x=3, n_a=2)
    g = build_grid(spec)
    assert np.allclose(g.x_nodes, [0.0, 0.5, 1.0])
    assert g.dx == 0.5


def test_age_nodes_and_trapezoid_weights():
    spec = make_spec("constant", n_x=3, n_a=2, a_max=1.0)
    g = build_grid(spec)
    assert np.allclose(g.a_nodes, [0.0, 0.5, 1.0])
    assert np.allclose(g.w_a, [0.25, 0.5, 0.25])


@pytest.mark.parametrize("bad", [
    {"n_a": 1},
    {"n_x": 2},
    {"a_max": 0.0},
    {"a_max": -1.0},
    {"x_min": 1.0, "x_max": 1.0},
    {"x_min": 2.0, "x_max": 1.0},
])
def test_build_grid_rejects_bad_resolutions(bad):
    spec = make_spec("constant", **bad)
    with pytest.raises(ValueError):
        build_grid(spec)


@pytest.mark.parametrize("n_a,a_max", [(2, 1.0), (7, 2.5), (100, 0.3)])
def test_age_weights_reproduce_length(n_a, a_max):
    g = build_grid(make_spec("constant", n_a=n_a, a_max=a_max))
    assert abs(g.w_a.sum() - a_max) <= 2e-14 * max(1.0, a_max)


@pytest.mark.parametrize("n_x,x_max", [(3, 1.0), (17, 4.0)])
def test_spatial_weights_reproduce_length(n_x, x_max):
    g = build_grid(make_spec("constant", n_x=n_x, x_max=x_max))
    assert abs(g.w_x.sum() - x_max) <= 2e-14 * max(1.0, x_max)


def test_total_population_zero_and_constant():
    spec = make_spec("constant", a_max=2.0, n_a=8)
    g = build_grid(spec)
    zero = np.zeros((g.n_a + 1, g.n_x))
    assert np.all(total_population(zero, g) == 0.0)
    ones = np.ones((g.n_a + 1, g.n_x))
    assert np.allclose(total_population(ones, g), 2.0, rtol=1e-14)


def test_total_population_exact_for_linear_integrand():
    g = build_grid(make_spec("constant", a_max=1.0, n_a=5))
    u = np.broadcast_to(g.a_nodes[:, None], (g.n_a + 1, g.n_x)).copy()
    assert np.allclose(total_population(u, g), 0.5, rtol=1e-14)


def test_total_population_linear_and_monotone(rng, constant_grid):
    g = constant_grid
    u1 = rng.random((g.n_a + 1, g.n_x))
    u2 = rng.random((g.n_a + 1, g.n_x))
    lhs = total_population(0.7 * u1 + 1.3 * u2, g)
    rhs = 0.7 * total_population(u1, g) + 1.3 * total_population(u2, g)
    assert np.allclose(lhs, rhs, rtol=1e-13)
    assert np.all(total_population(u1, g) >= 0.0)


def test_total_population_shape_mismatch(constant_grid):
    with pytest.raises(ValueError):
        total_population(np.zeros((3, 4)), constant_grid)


@pytest.mark.parametrize("n_x,n_a", [(3, 2), (10, 30), (32, 100), (101, 7)])
def test_field_norm_is_bitwise_the_linalg_norm_form(n_x, n_a, rng):
    g = build_grid(make_spec("constant", n_x=n_x, n_a=n_a, x_max=3.7))
    for scale in (1e-150, 1e-3, 1.0, 1e5, 1e150):
        u = scale * rng.standard_normal((n_a + 1, n_x))
        assert field_norm(u, g) == float(np.max(np.sqrt(g.dx) * np.linalg.norm(u, axis=1)))


def test_diffusivity_bound_is_enforced():
    spec = ModelSpec(
        d=lambda z: 1.0 - z,  # dips below the bound for z > 0.5
        mu=lambda z, a: np.zeros_like(z),
        b=lambda z, a: np.ones_like(z),
        d_lower=0.5,
    )
    assert np.all(spec.eval_d(np.zeros(4)) == 1.0)
    with pytest.raises(CoefficientBoundError):
        spec.eval_d(np.full(4, 0.9))


def test_negative_rates_are_hard_errors():
    spec = ModelSpec(
        d=lambda z: np.ones_like(z),
        mu=lambda z, a: -np.ones_like(z),
        b=lambda z, a: z - 1.0,
        d_lower=0.1,
    )
    with pytest.raises(CoefficientBoundError):
        spec.eval_mu(np.zeros(3), 0.0)
    with pytest.raises(CoefficientBoundError):
        spec.eval_b(np.zeros(3), 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_each_kind_of_bad_coefficient_value_is_named(bad):
    spec = ModelSpec(
        d=lambda z: np.where(z > 0.5, bad, 1.0),
        mu=lambda z, a: np.where((a == 0.5) & (z > 0.5), bad, 1.0),
        b=lambda z, a: np.ones_like(z),
        d_lower=0.1,
    )
    z = np.array([0.0, 1.0, 0.2])
    finite = np.isfinite(bad)
    with pytest.raises(CoefficientBoundError, match="fell below" if finite else "non-finite"):
        spec.eval_d(z)
    kind = "is negative" if finite else "evaluated to a non-finite value"
    with pytest.raises(CoefficientBoundError, match=f"{kind} at age 0.5$"):
        spec.rate_table("mu", z, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_derivative_fallback_is_flagged_and_accurate():
    spec = ModelSpec(
        d=lambda z: 1.0 + z**2,
        mu=lambda z, a: np.full_like(z, 1.0),
        b=lambda z, a: np.ones_like(z),
        d_lower=1.0,
    )
    assert spec.derivatives_from_fd
    z = np.linspace(0.0, 2.0, 9)
    assert np.allclose(spec.eval_d_prime(z), 2.0 * z, atol=1e-8)

    family = make_spec("density_diffusion")
    assert not family.derivatives_from_fd


def test_derivative_fallback_survives_replace():
    spec = ModelSpec(
        d=lambda z: 1.0 + z**2,
        mu=lambda z, a: np.full_like(z, 1.0),
        b=lambda z, a: np.ones_like(z),
        d_lower=1.0,
    )
    z = np.linspace(0.0, 2.0, 9)
    resized = replace(spec, n_x=8)
    assert resized.derivatives_from_fd
    assert resized.d_prime is spec.d_prime
    # a replaced coefficient gets the difference of the new function
    steeper = replace(spec, d=lambda z: 1.0 + 3.0 * z**2)
    assert steeper.derivatives_from_fd
    assert np.allclose(steeper.eval_d_prime(z), 6.0 * z, atol=1e-8)

    family = make_spec("density_diffusion")
    assert not replace(family, n_x=8, lambda_max_factor=1.5).derivatives_from_fd


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        family_parameters("lotka", {})
    with pytest.raises(ValueError):
        family_parameters("constant", {"kappa": 1.0})
    merged = family_parameters("logistic_death", {"kappa": 2.5})
    assert merged["kappa"] == 2.5 and merged["mu0"] == 1.0


def test_make_spec_passes_overrides_through():
    spec = make_spec("constant", n_x=7, ds0=1e-3, lambda_max_factor=3.0)
    assert spec.n_x == 7
    assert spec.ds0 == 1e-3
    assert spec.lambda_max_factor == 3.0
    assert spec.family == "constant"


def test_lambda_max_factor_is_the_only_box_on_lambda():
    assert len(fields(ModelSpec)) == 20
    assert "lambda_max" not in {f.name for f in fields(ModelSpec)}
    assert make_spec("constant").lambda_max_factor == 6.0
    with pytest.raises(TypeError, match="lambda_max"):
        make_spec("constant", lambda_max=3.0)


FIXED_GATES = {"newton_tol": 1e-10, "max_newton": 12, "ds_min": 1e-6, "pos_tol": 1e-12,
               "simplicity_tol": 1e-8, "gap_tol": 1e-6, "rank_tol": 1e-8,
               "radius_identity_tol": 1e-6}


def test_fixed_gates_are_class_constants_that_no_spec_can_set():
    assert not FIXED_GATES.keys() & {f.name for f in fields(ModelSpec)}
    spec = make_spec("constant", n_x=7)
    for name, value in FIXED_GATES.items():
        assert getattr(ModelSpec, name) == value and getattr(spec, name) == value
    with pytest.raises(TypeError, match="newton_tol"):
        make_spec("constant", newton_tol=1e-8)
    with pytest.raises(TypeError, match="rank_tol"):
        replace(spec, rank_tol=1.0)


# the parameters that each built-in family fixes at 0
FIXED_AT_ZERO = {"constant": ("d1", "kappa"), "logistic_death": ("d1",),
                 "density_diffusion": ()}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_family_coefficients_are_the_documented_formulas(family, rng):
    # d = d0 + d1 z^2, d' = 2 d1 z, mu = mu0 + kappa z, mu_z = kappa, b = b0,
    # b_z = 0, with a family's missing parameters read as 0
    free = set(family_parameters(family))
    assert free == {"d0", "d1", "mu0", "kappa", "b0"} - set(FIXED_AT_ZERO[family])
    p = {key: 0.5 + rng.random() for key in free}
    spec = make_spec(family, p)
    p.update(dict.fromkeys(FIXED_AT_ZERO[family], 0.0))
    z = np.concatenate([[0.0, -0.8], 3.0 * rng.random(4)])
    a = rng.random()
    expected = {
        "d": p["d0"] + p["d1"] * z**2,
        "d_prime": 2.0 * p["d1"] * z,
        "mu": p["mu0"] + p["kappa"] * z,
        "mu_z": np.full_like(z, p["kappa"]),
        "b": np.full_like(z, p["b0"]),
        "b_z": np.zeros_like(z),
    }
    for name, want in expected.items():
        fun = getattr(spec, name)
        got = fun(z) if name.startswith("d") else fun(z, a)
        assert np.array_equal(np.broadcast_to(got, z.shape), want), name


# -- rate tables: one broadcast call of the coefficient per table ------------

RATE_NAMES = ("mu", "b", "mu_z", "b_z")


def _age_dependent_spec():
    # b = exp(-a) as in the birth-quadrature oracle, with a z-dependence so the
    # fd-fallback derivatives are nonzero, and b_z negative
    return ModelSpec(
        d=lambda z: np.ones_like(z),
        mu=lambda z, a: (1.0 + a) * (1.0 + z**2),
        b=lambda z, a: np.exp(-a) / (1.0 + z),
        d_lower=0.5,
        n_x=7,
        n_a=12,
    )


def _per_age_table(fun, z, ages):
    return np.stack([np.broadcast_to(np.asarray(fun(z, age), float), z.shape)
                     for age in ages])


@pytest.mark.parametrize("z_shape", [(7,), (3, 7)])
@pytest.mark.parametrize("name", RATE_NAMES)
@pytest.mark.parametrize("family", ["constant", "logistic_death", "density_diffusion",
                                    "custom"])
def test_rate_table_matches_per_age_loop(family, name, z_shape, rng):
    spec = (_age_dependent_spec() if family == "custom"
            else make_spec(family, {"kappa": 1.3} if family != "constant" else None,
                           n_x=7, n_a=12))
    g = build_grid(spec)
    z = 2.0 * rng.random(z_shape)
    table = spec.rate_table(name, z, g.a_nodes)
    loop = _per_age_table(getattr(spec, name), z, g.a_nodes)
    assert table.shape == (g.n_a + 1,) + z_shape
    # a rate with an age axis owns a writeable table; the built-in families'
    # rates have none, and their table is a read-only view of one row
    if family == "custom":
        assert table.flags.writeable
    else:
        assert table.strides[0] == 0 and not table.flags.writeable
    if family == "custom":
        assert spec.derivatives_from_fd
        assert np.allclose(table, loop, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(table, loop)


def _counted(fun, calls):
    def wrapped(z, a):
        calls.append(np.shape(a))
        return fun(z, a)

    return wrapped


def test_one_table_is_one_coefficient_call():
    from agebranch.operators import evolve

    base = _age_dependent_spec()
    calls = []
    spec = ModelSpec(d=base.d, mu=_counted(base.mu, calls), b=base.b, d_lower=0.5,
                     n_x=base.n_x, n_a=base.n_a)
    g = build_grid(spec)
    spec.rate_table("mu", np.zeros((3, g.n_x)), g.a_nodes)
    assert calls == [(g.n_a + 1, 1, 1)]
    calls.clear()
    evolve(np.zeros(g.n_x), np.ones(g.n_x), spec, g)
    assert len(calls) == 1 and calls[0][0] == g.n_a + 1


@pytest.mark.parametrize("name", RATE_NAMES)
def test_rate_function_breaking_the_broadcast_contract_is_named(name):
    def bad(z, a):
        return np.ones((2,) + np.shape(z))

    spec = ModelSpec(d=lambda z: np.ones_like(z), mu=bad, b=bad, mu_z=bad, b_z=bad,
                     d_lower=0.5, n_x=5, n_a=10)
    g = build_grid(spec)
    with pytest.raises(ValueError, match=rf"^{name}\(z, a\) returned shape \(2, 1, 5\), "
                                         r"which does not broadcast to \(11, 5\): .*ages.*"
                                         r"broadcasts against z"):
        spec.rate_table(name, np.zeros(g.n_x), g.a_nodes)
