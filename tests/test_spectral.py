import numpy as np
import pytest

from agebranch import build_grid, make_spec
from agebranch.errors import NoPositiveEigenvalueError
from agebranch.oracles import closed_form_critical_intensity, survival_sum
from agebranch.spectral import bifurcation_point, check_simplicity, perron_eigenpair


def test_symmetric_two_by_two():
    res = perron_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert abs(res.radius - 3.0) <= 1e-10
    assert np.allclose(res.phi, [1.0, 1.0], atol=1e-10)
    assert res.positive


def test_zero_operator_has_no_positive_eigenvalue():
    with pytest.raises(NoPositiveEigenvalueError):
        perron_eigenpair(np.zeros((3, 3)))


def test_negative_entries_rejected():
    with pytest.raises(ValueError, match="negative entries"):
        perron_eigenpair(np.array([[1.0, -0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(bad):
    Q = np.ones((3, 3))
    Q[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite entries"):
        perron_eigenpair(Q)


def test_constant_coefficient_return_map_radius(constant_spec, constant_grid):
    from agebranch.operators import next_generation_operator

    g = constant_grid
    Q = next_generation_operator(np.zeros((g.n_a + 1, g.n_x)), constant_spec, g)
    res = perron_eigenpair(Q, weights=g.w_x)
    assert abs(res.radius - survival_sum(1.0, g)) <= 1e-12
    assert np.allclose(res.phi, 1.0, atol=1e-12)


def test_eigen_residual_invariant(rng):
    A = rng.random((7, 7))
    res = perron_eigenpair(A)
    assert np.max(np.abs(A @ res.phi - res.radius * res.phi)) <= 1e-11 * res.radius


def test_scaling_leaves_eigenvector_invariant(rng):
    A = rng.random((6, 6))
    base = perron_eigenpair(A)
    scaled = perron_eigenpair(4.0 * A)
    assert abs(scaled.radius - 4.0 * base.radius) <= 1e-10 * base.radius
    assert np.allclose(scaled.phi, base.phi, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_radius_against_dense_eigensolver(rng, n):
    complex_second = 0
    for _ in range(40):
        A = rng.random((n, n)) + 0.1
        w = rng.random(n) + 0.5
        res = perron_eigenpair(A, weights=w)
        eigs = np.linalg.eigvals(A)
        moduli = np.sort(np.abs(eigs))
        reference = moduli[-1]
        assert abs(res.radius - reference) <= 1e-12 * reference
        assert abs(res.gap - (1.0 - moduli[-2] / reference)) <= 1e-12 * res.gap
        assert np.max(np.abs(A @ res.phi - res.radius * res.phi)) <= 1e-13 * res.radius
        # psi is the left eigenvector in the w-weighted inner product
        left = w * res.psi
        assert (np.max(np.abs(A.T @ left - res.radius * left))
                <= 1e-13 * res.radius * np.max(np.abs(left)))
        assert abs(np.sum(w * res.psi * res.phi) - 1.0) <= 1e-12
        second = eigs[np.argsort(np.abs(eigs))[-2]]
        complex_second += bool(second.imag != 0.0)
    if n > 2:
        assert complex_second > 0  # the draws include a complex second pair


# -- bifurcation point ---------------------------------------------------------

def test_critical_intensity_approaches_closed_form():
    exact = closed_form_critical_intensity(1.0, 1.0, 1.0)
    errors = []
    for n_a in (50, 100):
        spec = make_spec("constant", n_x=8, n_a=n_a)
        g = build_grid(spec)
        errors.append(abs(bifurcation_point(spec, g).lambda0 - exact))
    ratio = errors[0] / errors[1]
    assert 1.6 <= ratio <= 2.4  # first-order in the age step


def test_birth_scaling_rescales_critical_intensity():
    base = make_spec("constant", {"b0": 1.0}, n_x=8, n_a=30)
    scaled = make_spec("constant", {"b0": 2.0}, n_x=8, n_a=30)
    g = build_grid(base)
    lam_base = bifurcation_point(base, g).lambda0
    lam_scaled = bifurcation_point(scaled, g).lambda0
    assert abs(lam_scaled - lam_base / 2.0) <= 1e-13 * lam_base


def test_vanishing_birth_rate_is_rejected():
    spec = make_spec("constant", {"b0": 0.0}, n_x=6, n_a=10)
    g = build_grid(spec)
    with pytest.raises(ValueError):
        bifurcation_point(spec, g)


# -- simplicity certificate ------------------------------------------------------

def test_certificate_for_symmetric_pair():
    res = perron_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
    cert = check_simplicity(res)
    assert abs(res.pairing - 1.0) <= 1e-12
    assert abs(res.gap - 2.0 / 3.0) <= 1e-9
    assert cert.passed


def test_certificate_fails_for_degenerate_spectrum():
    res = perron_eigenpair(2.0 * np.eye(3))
    cert = check_simplicity(res)
    assert cert.gap <= 1e-12
    assert not cert.passed


def test_certificate_for_constant_return_map(constant_spec, constant_grid):
    bif = bifurcation_point(constant_spec, constant_grid)
    cert = check_simplicity(bif.perron)
    assert cert.passed
    assert np.allclose(bif.phi0, 1.0, atol=1e-12)
