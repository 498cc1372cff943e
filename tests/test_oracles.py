import numpy as np
import pytest
from scipy.optimize import brentq

from agebranch import build_grid, make_spec
from agebranch.oracles import (
    closed_form_critical_intensity,
    discrete_critical_intensity,
    equilibrium_intensity,
    equilibrium_population,
    homogeneous_profile,
    survival_sum,
)


@pytest.fixture
def grid():
    return build_grid(make_spec("constant", n_x=5, n_a=60))


def test_survival_sum_matches_direct_loop(grid):
    m = 1.3
    total = sum(w * (1.0 + m * grid.da) ** (-k) for k, w in enumerate(grid.w_a))
    assert abs(survival_sum(m, grid) - total) <= 1e-15


def test_closed_form_limits():
    assert abs(closed_form_critical_intensity(0.0, 2.0, 4.0) - 0.125) <= 1e-15
    val = closed_form_critical_intensity(1.0, 1.0, 1.0)
    assert abs(val - 1.0 / (1.0 - np.exp(-1.0))) <= 1e-15


def test_discrete_intensity_converges_first_order():
    exact = closed_form_critical_intensity(1.0, 1.0, 1.0)
    coarse = build_grid(make_spec("constant", n_a=40))
    fine = build_grid(make_spec("constant", n_a=80))
    e_coarse = abs(discrete_critical_intensity(1.0, 1.0, coarse) - exact)
    e_fine = abs(discrete_critical_intensity(1.0, 1.0, fine) - exact)
    assert 1.6 <= e_coarse / e_fine <= 2.4


def test_equilibrium_roundtrip(grid):
    lam = 1.4 * discrete_critical_intensity(1.0, 1.0, grid)
    U = equilibrium_population(lam, 1.0, 1.0, 1.0, grid)
    assert U > 0.0
    assert abs(equilibrium_intensity(U, 1.0, 1.0, 1.0, grid) - lam) <= 1e-12 * lam


def test_equilibrium_at_or_below_critical_is_zero(grid):
    lam0 = discrete_critical_intensity(1.0, 1.0, grid)
    assert equilibrium_population(lam0, 1.0, 1.0, 1.0, grid) == 0.0
    assert equilibrium_population(0.5 * lam0, 1.0, 1.0, 1.0, grid) == 0.0


def _brentq_root(f, hi):
    # scipy's Brent root of a decreasing f with f(0) > 0, to its tightest tolerance
    while f(hi) > 0.0:
        hi *= 2.0
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("kappa", [0.3, 1.0, 30.0])
def test_roots_agree_with_brentq(kappa):
    g = build_grid(make_spec("logistic_death", n_x=4, n_a=100))
    mu0, b0 = 1.0, 1.0
    lam0 = discrete_critical_intensity(mu0, b0, g)
    for ratio in (1.0001, 1.2, 2.0, 50.0):
        lam = ratio * lam0
        U = equilibrium_population(lam, mu0, kappa, b0, g)
        ref = _brentq_root(lambda x: lam * b0 * survival_sum(mu0 + kappa * x, g) - 1.0, 1.0)
        assert abs(U - ref) <= 1e-12 * ref, (ratio, U, ref)


def test_unbracketed_equilibrium_raises(grid):
    # S(m) >= da / 2 for every m, so lam * b0 * da / 2 > 1 keeps f positive
    lam = 4.0 / grid.da
    with pytest.raises(ArithmeticError, match="failed to bracket"):
        equilibrium_population(lam, 1.0, 1.0, 1.0, grid)


def test_profile_starts_at_amplitude(grid):
    prof = homogeneous_profile(2.0, 0.7, grid)
    assert prof[0] == 2.0
    assert np.all(np.diff(prof) < 0.0)
