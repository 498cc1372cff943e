"""Problem definition: coefficient functions, grids, and discrete fields.

Discrete fields are plain numpy arrays with a fixed shape convention:

* a spatial field is a float vector of length ``n_x`` (one value per node of
  the spatial interval), used for traces, total populations and eigenvectors;
* an age-space field is an ``(n_a + 1, n_x)`` array whose row ``k`` holds the
  solution at age ``a_nodes[k]``.

All types are immutable after construction and every operation in this
package is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CoefficientBoundError

SpatialField = np.ndarray
AgeSpaceField = np.ndarray

DiffusivityFun = Callable[[np.ndarray], np.ndarray]
# ``rate(z, a)``: ``a`` is an array of ages that broadcasts against ``z``
RateFun = Callable[[np.ndarray, np.ndarray], np.ndarray]

_FD_REL_STEP = 1e-6


def _central_difference(f):
    """Central difference in ``z`` of ``f(z)`` or ``f(z, a)``."""
    def deriv(z, *age):
        z = np.asarray(z, dtype=float)
        h = _FD_REL_STEP * (1.0 + np.abs(z))
        return (np.asarray(f(z + h, *age), float) - np.asarray(f(z - h, *age), float)) / (2.0 * h)

    return deriv


def _broadcast(values, z: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != z.shape:
        values = np.broadcast_to(values, z.shape)
    return values


@dataclass(frozen=True)
class ModelSpec:
    """One problem instance: coefficients, domain, grid sizes and tolerances.

    The diffusivity ``d`` takes the local total population ``z`` and must stay
    at or above ``d_lower > 0``; death rate ``mu(z, a)`` and birth rate
    ``b(z, a)`` must be nonnegative.  All three bounds are enforced on every
    evaluation through the ``eval_*`` and ``rate_table`` methods, and a
    violation is a hard error.  A rate function is called once per table,
    with ``z`` of shape ``(1,) + z.shape`` and the ages ``a`` as a column of
    shape ``(n_ages,) + (1,) * z.ndim``; its result must broadcast to
    ``(n_ages,) + z.shape``.

    Derivatives ``d_prime``, ``mu_z``, ``b_z`` (partials in ``z``) are needed
    by the Newton corrector.  When omitted they are replaced by central
    differences with step ``1e-6 * (1 + |z|)`` and ``derivatives_from_fd`` is
    set so downstream diagnostics can flag the substitution.
    """

    d: DiffusivityFun
    mu: RateFun
    b: RateFun
    d_lower: float
    x_min: float = 0.0
    x_max: float = 1.0
    a_max: float = 1.0
    n_x: int = 32
    n_a: int = 100
    d_prime: DiffusivityFun | None = None
    mu_z: RateFun | None = None
    b_z: RateFun | None = None

    # solver tolerances
    newton_tol: float = 1e-10

    # continuation parameters
    t0: float = 1e-2
    ds0: float = 2e-2
    ds_min: float = 1e-6
    ds_max: float = 0.25
    lambda_max: float = 10.0
    u_norm_max: float = 50.0
    max_points: int = 200
    pos_tol: float = 1e-12

    # iteration budgets
    max_newton: int = 12

    # certificate thresholds
    simplicity_tol: float = 1e-8
    gap_tol: float = 1e-6
    rank_tol: float = 1e-8
    radius_identity_tol: float = 1e-6

    # provenance for configs built from a named coefficient family
    family: str | None = None
    family_params: dict | None = None

    derivatives_from_fd: bool = field(init=False, default=False)

    def __post_init__(self):
        fd_used = False
        if self.d_prime is None:
            object.__setattr__(self, "d_prime", _central_difference(self.d))
            fd_used = True
        if self.mu_z is None:
            object.__setattr__(self, "mu_z", _central_difference(self.mu))
            fd_used = True
        if self.b_z is None:
            object.__setattr__(self, "b_z", _central_difference(self.b))
            fd_used = True
        object.__setattr__(self, "derivatives_from_fd", fd_used)

    # -- checked coefficient evaluation ------------------------------------

    def eval_d(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        values = _broadcast(self.d(z), z)
        # two reductions pass valid values: NaN fails the first test, inf the second
        if values.size and not (values.min() >= self.d_lower and values.max() < np.inf):
            if not np.all(np.isfinite(values)):
                raise CoefficientBoundError("d(z) evaluated to a non-finite value")
            raise CoefficientBoundError(
                f"d(z) = {values.min():.6g} fell below the declared bound "
                f"d_lower = {self.d_lower:.6g}"
            )
        return values

    def eval_mu(self, z, age: float) -> np.ndarray:
        return self.rate_table("mu", z, (age,))[0]

    def eval_b(self, z, age: float) -> np.ndarray:
        return self.rate_table("b", z, (age,))[0]

    def rate_table(self, name: str, z, ages) -> np.ndarray:
        """``mu``, ``b`` or their partials ``mu_z``, ``b_z`` (by ``name``) at
        every age in ``ages``, stacked on a new leading axis, from one call of
        the coefficient with the ages broadcast against ``z``.  A ``mu`` or
        ``b`` table is checked at once; an entry that is negative or not
        finite is a hard error naming the first such age.  Derivatives may be
        negative and are not checked."""
        fun = {"mu": self.mu, "b": self.b, "mu_z": self.mu_z, "b_z": self.b_z}[name]
        z = np.asarray(z, dtype=float)
        ages = np.asarray(ages, dtype=float)
        values = np.empty((len(ages),) + z.shape)
        result = fun(z[None], ages.reshape((-1,) + (1,) * z.ndim))
        try:
            values[...] = result
        except ValueError:
            raise ValueError(
                f"{name}(z, a) returned shape {np.shape(result)}, which does not "
                f"broadcast to {values.shape}: a rate function receives the ages as "
                "an array that broadcasts against z") from None
        if name.endswith("_z"):
            return values
        # as in eval_d; the elementwise pass only names the first bad age
        if values.size and not (values.min() >= 0.0 and values.max() < np.inf):
            bad = ~(np.isfinite(values) & (values >= 0.0))
            k = int(np.argmax(bad.reshape(len(values), -1).any(axis=1)))
            if not np.all(np.isfinite(values[k])):
                raise CoefficientBoundError(
                    f"{name}(z, a) evaluated to a non-finite value at age {ages[k]:.6g}")
            raise CoefficientBoundError(
                f"{name}(z, a) = {values[k].min():.6g} is negative at age {ages[k]:.6g}")
        return values

    def eval_d_prime(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return _broadcast(self.d_prime(z), z)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid over age x space with trapezoidal quadrature."""

    x_nodes: np.ndarray
    dx: float
    a_nodes: np.ndarray
    da: float
    w_x: np.ndarray
    w_a: np.ndarray

    @property
    def n_x(self) -> int:
        return self.x_nodes.size

    @property
    def n_a(self) -> int:
        return self.a_nodes.size - 1


def _trapezoid_weights(n_nodes: int, h: float) -> np.ndarray:
    w = np.full(n_nodes, h)
    w[0] = 0.5 * h
    w[-1] = 0.5 * h
    return w


def build_grid(spec: ModelSpec) -> Grid:
    """Build the uniform grid and exact trapezoidal weights for ``spec``."""
    if spec.n_x < 3:
        raise ValueError(f"n_x must be >= 3, got {spec.n_x}")
    if spec.n_a < 2:
        raise ValueError(f"n_a must be >= 2, got {spec.n_a}")
    if spec.a_max <= 0.0:
        raise ValueError(f"a_max must be positive, got {spec.a_max}")
    if spec.x_max <= spec.x_min:
        raise ValueError(f"x_max must exceed x_min, got [{spec.x_min}, {spec.x_max}]")

    x_nodes = np.linspace(spec.x_min, spec.x_max, spec.n_x)
    dx = (spec.x_max - spec.x_min) / (spec.n_x - 1)
    a_nodes = np.linspace(0.0, spec.a_max, spec.n_a + 1)
    da = spec.a_max / spec.n_a
    return Grid(
        x_nodes=x_nodes,
        dx=dx,
        a_nodes=a_nodes,
        da=da,
        w_x=_trapezoid_weights(spec.n_x, dx),
        w_a=_trapezoid_weights(spec.n_a + 1, da),
    )


def check_shape(a, shape: tuple, name: str = "field") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_spatial(v: SpatialField, g: Grid, name: str = "field") -> np.ndarray:
    return check_shape(v, (g.n_x,), name)


def check_age_space(u: AgeSpaceField, g: Grid, name: str = "field") -> np.ndarray:
    return check_shape(u, (g.n_a + 1, g.n_x), name)


def total_population(u: AgeSpaceField, g: Grid) -> SpatialField:
    """Trapezoidal age integral of ``u``, node by node in space."""
    u = check_age_space(u, g, "age-space field")
    return g.w_a @ u


# -- discrete norms ---------------------------------------------------------

def trace_norm(v: SpatialField, g: Grid) -> float:
    """Spatial l2 norm scaled by sqrt(dx)."""
    return float(np.sqrt(g.dx) * np.linalg.norm(v))


def field_norm(u: AgeSpaceField, g: Grid) -> float:
    """Max over age rows of the sqrt(dx)-scaled spatial l2 norm."""
    # bitwise equal to max(sqrt(dx) * np.linalg.norm(u, axis=1)): the same row
    # sums without the conj() copy, and correctly rounded sqrt and positive
    # scaling are monotone, so they commute with the max
    u = np.asarray(u, dtype=float)
    return float(np.sqrt(g.dx) * np.sqrt(np.add.reduce(u * u, axis=1).max()))


def weighted_inner(a: SpatialField, b: SpatialField, g: Grid) -> float:
    """Trapezoid-weighted spatial inner product."""
    return float(np.sum(g.w_x * a * b))


# -- built-in coefficient families -----------------------------------------

FAMILY_NAMES = ("constant", "logistic_death", "density_diffusion")

_FAMILY_PARAMS = {
    "constant": {"d0": 1.0, "mu0": 1.0, "b0": 1.0},
    "logistic_death": {"d0": 1.0, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
    "density_diffusion": {"d0": 1.0, "d1": 0.5, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
}


def family_parameters(family: str, params: dict | None = None) -> dict:
    """Merge user parameters into a family's defaults, rejecting unknown keys."""
    if family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown coefficient family {family!r}; "
                         f"choose one of {FAMILY_NAMES}")
    merged = dict(_FAMILY_PARAMS[family])
    for key, value in (params or {}).items():
        if key not in merged:
            raise ValueError(f"family {family!r} has no parameter {key!r}")
        merged[key] = float(value)
    return merged


def make_spec(family: str, params: dict | None = None, **spec_kwargs) -> ModelSpec:
    """Build a ModelSpec from a named coefficient family.

    ``constant``           d = d0, mu = mu0, b = b0
    ``logistic_death``     d = d0, mu = mu0 + kappa*z, b = b0
    ``density_diffusion``  d = d0 + d1*z^2, mu = mu0 + kappa*z, b = b0

    Keyword arguments are passed through to :class:`ModelSpec` (grid sizes,
    domain bounds, tolerances, continuation parameters).
    """
    p = family_parameters(family, params)
    d0, mu0, b0 = p["d0"], p["mu0"], p["b0"]
    if d0 <= 0.0:
        raise ValueError("d0 must be positive")

    if family == "constant":
        coeffs = dict(
            d=lambda z: np.full_like(np.asarray(z, float), d0),
            d_prime=lambda z: np.zeros_like(np.asarray(z, float)),
            mu=lambda z, a: np.full_like(np.asarray(z, float), mu0),
            mu_z=lambda z, a: np.zeros_like(np.asarray(z, float)),
        )
    elif family == "logistic_death":
        kappa = p["kappa"]
        coeffs = dict(
            d=lambda z: np.full_like(np.asarray(z, float), d0),
            d_prime=lambda z: np.zeros_like(np.asarray(z, float)),
            mu=lambda z, a: mu0 + kappa * np.asarray(z, float),
            mu_z=lambda z, a: np.full_like(np.asarray(z, float), kappa),
        )
    else:  # density_diffusion; d0 + d1*z^2 stays >= d0 for every probed z
        d1, kappa = p["d1"], p["kappa"]
        if d1 < 0.0:
            raise ValueError("d1 must be nonnegative")
        coeffs = dict(
            d=lambda z: d0 + d1 * np.asarray(z, float) ** 2,
            d_prime=lambda z: 2.0 * d1 * np.asarray(z, float),
            mu=lambda z, a: mu0 + kappa * np.asarray(z, float),
            mu_z=lambda z, a: np.full_like(np.asarray(z, float), kappa),
        )

    return ModelSpec(
        b=lambda z, a: np.full_like(np.asarray(z, float), b0),
        b_z=lambda z, a: np.zeros_like(np.asarray(z, float)),
        d_lower=d0,
        family=family,
        family_params=p,
        **coeffs,
        **spec_kwargs,
    )
