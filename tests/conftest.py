import numpy as np
import pytest

from agebranch import build_grid, make_spec
from agebranch.model import ModelSpec

# Stencil references of the tests, kept apart from the operators they check.


def to_dense(op) -> np.ndarray:
    """Dense matrix of an ``EllipticOperator`` assembled at one age."""
    return np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)


def divergence_form(c_nodes: np.ndarray, w: np.ndarray, g) -> np.ndarray:
    """Apply ``-(c w_x)_x`` with the same stencil and Neumann closure as
    ``assemble_elliptic``, for a nodal coefficient of arbitrary sign.
    Nodes run along the last axis; the leading axes broadcast."""
    c_face = 0.5 * (c_nodes[..., :-1] + c_nodes[..., 1:])
    flux = c_face * (w[..., 1:] - w[..., :-1])
    inv_dx2 = 1.0 / g.dx**2
    out = np.empty(flux.shape[:-1] + (g.n_x,))
    np.subtract(flux[..., :-1], flux[..., 1:], out=out[..., 1:-1])
    out[..., 1:-1] *= inv_dx2
    out[..., 0] = -2.0 * flux[..., 0] * inv_dx2
    out[..., -1] = 2.0 * flux[..., -1] * inv_dx2
    return out


@pytest.fixture
def constant_spec():
    return make_spec("constant", {"d0": 1.0, "mu0": 1.0, "b0": 1.0}, n_x=12, n_a=40)


@pytest.fixture
def constant_grid(constant_spec):
    return build_grid(constant_spec)


@pytest.fixture
def logistic_spec():
    return make_spec("logistic_death", {"d0": 1.0, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
                     n_x=12, n_a=40)


@pytest.fixture
def logistic_grid(logistic_spec):
    return build_grid(logistic_spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=["logistic_death", "density_diffusion", "age_dependent"])
def model_at(request):
    """``model_at(n_x, n_a)`` builds one of three models: constant ``d``,
    state-dependent ``d``, or state-dependent ``d`` with age-dependent ``mu``
    and ``b`` (the ``_age_dependent_model`` of the solver tests)."""
    def build(n_x, n_a):
        if request.param == "age_dependent":
            return ModelSpec(d=lambda z: 1.0 + 0.5 * z,
                             mu=lambda z, a: (1.0 + a) * (1.0 + z**2),
                             b=lambda z, a: np.exp(-a) / (1.0 + z),
                             d_lower=0.5, n_x=n_x, n_a=n_a)
        return make_spec(request.param, n_x=n_x, n_a=n_a)

    return build
