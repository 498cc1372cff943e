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

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import CoefficientBoundError

SpatialField = np.ndarray
AgeSpaceField = np.ndarray

DiffusivityFun = Callable[[np.ndarray], np.ndarray]
# ``rate(z, a)``: ``a`` is an array of ages that broadcasts against ``z``; a
# value without an age axis (all built-in families) holds for every age
RateFun = Callable[[np.ndarray, np.ndarray], np.ndarray]

_FD_REL_STEP = 1e-6


def _central_difference(f):
    """Central difference in ``z`` of ``f(z)`` or ``f(z, a)``; the wrapper
    keeps ``f`` as ``fd_of``."""
    def deriv(z, *age):
        z = np.asarray(z, dtype=float)
        h = _FD_REL_STEP * (1.0 + np.abs(z))
        return (np.asarray(f(z + h, *age), float) - np.asarray(f(z - h, *age), float)) / (2.0 * h)

    deriv.fd_of = f
    return deriv


def _repeat_rows(row: np.ndarray, n: int) -> np.ndarray:
    """Read-only view of the contiguous ``row`` repeated ``n`` times on a new
    leading axis, with stride 0 on that axis."""
    table = np.ndarray((n,) + row.shape, row.dtype, row, 0, (0,) + row.strides)
    table.flags.writeable = False
    return table


def _broadcast(values, z: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != z.shape:
        values = np.broadcast_to(values, z.shape)
    return values


@dataclass(frozen=True)
class ModelSpec:
    """One problem instance: coefficients, domain, grid sizes and continuation
    settings; the tolerances are fixed class constants.

    The diffusivity ``d`` takes the local total population ``z`` and must stay
    at or above ``d_lower > 0``; death rate ``mu(z, a)`` and birth rate
    ``b(z, a)`` must be nonnegative.  All three bounds are enforced on every
    evaluation through the ``eval_*`` and ``rate_table`` methods, and a
    violation is a hard error.  A rate function is called once per table,
    with ``z`` of shape ``(1,) + z.shape`` and the ages ``a`` as a column of
    shape ``(n_ages,) + (1,) * z.ndim``; its result must broadcast to
    ``(n_ages,) + z.shape``.  A death rate whose result has no age axis
    gives one age-step system per frozen population, factored once.

    Derivatives ``d_prime``, ``mu_z``, ``b_z`` (partials in ``z``) are needed
    by the Newton corrector.  When omitted they are replaced by central
    differences with step ``1e-6 * (1 + |z|)`` and ``derivatives_from_fd``
    reports it, so downstream diagnostics can flag the substitution.  A
    difference wrapper follows its coefficient through ``dataclasses.replace``:
    it is rebuilt when the coefficient is replaced.
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

    # continuation parameters
    t0: float = 1e-2
    ds0: float = 2e-2
    ds_max: float = 0.25
    # the box on the intensity: lam <= lambda_max_factor * lambda0
    lambda_max_factor: float = 6.0
    u_norm_max: float = 50.0
    max_points: int = 200

    # Fixed gates: the corrector's stopping rule and budget, the smallest
    # step, and the certificate bounds that ``verify`` checks.  Class
    # constants, not fields, so no config or ``replace`` can loosen a check.
    newton_tol: ClassVar[float] = 1e-10
    max_newton: ClassVar[int] = 12
    ds_min: ClassVar[float] = 1e-6
    pos_tol: ClassVar[float] = 1e-12
    simplicity_tol: ClassVar[float] = 1e-8
    gap_tol: ClassVar[float] = 1e-6
    rank_tol: ClassVar[float] = 1e-8
    radius_identity_tol: ClassVar[float] = 1e-6

    # provenance for configs built from a named coefficient family
    family: str | None = None
    family_params: dict | None = None

    def __post_init__(self):
        for name, coeff in (("d_prime", self.d), ("mu_z", self.mu), ("b_z", self.b)):
            deriv = getattr(self, name)
            if deriv is None or getattr(deriv, "fd_of", coeff) is not coeff:
                object.__setattr__(self, name, _central_difference(coeff))

    @property
    def derivatives_from_fd(self) -> bool:
        return any(hasattr(f, "fd_of") for f in (self.d_prime, self.mu_z, self.b_z))

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
        negative and are not checked.

        A value without an age axis (no axes beyond those of ``z``, or a
        leading one of length 1) holds for every age: only that row is stored
        and checked, and the table is a read-only view of it with stride 0 on
        the age axis.  A value with an age axis gives a writeable table."""
        fun = {"mu": self.mu, "b": self.b, "mu_z": self.mu_z, "b_z": self.b_z}[name]
        z = np.asarray(z, dtype=float)
        ages = np.asarray(ages, dtype=float)
        shape = (len(ages),) + z.shape
        result = fun(z[None], ages.reshape((-1,) + (1,) * z.ndim))
        result_shape = np.shape(result)
        age_free = math.prod(result_shape[:max(len(result_shape) - z.ndim, 0)]) == 1
        values = np.empty(z.shape if age_free else shape)
        try:
            values[...] = result
        except ValueError:
            raise ValueError(
                f"{name}(z, a) returned shape {result_shape}, which does not "
                f"broadcast to {shape}: a rate function receives the ages as "
                "an array that broadcasts against z") from None
        table = _repeat_rows(values, len(ages)) if age_free else values
        if name.endswith("_z"):
            return table
        # as in eval_d; the elementwise pass only names the first bad age
        if table.size and not (values.min() >= 0.0 and values.max() < np.inf):
            bad = ~(np.isfinite(table) & (table >= 0.0))
            k = int(np.argmax(bad.reshape(len(table), -1).any(axis=1)))
            if not np.all(np.isfinite(table[k])):
                raise CoefficientBoundError(
                    f"{name}(z, a) evaluated to a non-finite value at age {ages[k]:.6g}")
            raise CoefficientBoundError(
                f"{name}(z, a) = {table[k].min():.6g} is negative at age {ages[k]:.6g}")
        return table

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
    try:
        a = np.asarray(a, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not an array of numbers") from None
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
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
    return math.sqrt(g.dx) * math.sqrt(np.add.reduce(u * u, axis=1).max())


def weighted_inner(a: SpatialField, b: SpatialField, g: Grid) -> float:
    """Trapezoid-weighted spatial inner product."""
    return float(np.sum(g.w_x * a * b))


# -- built-in coefficient families -----------------------------------------

_FAMILY_PARAMS = {
    "constant": {"d0": 1.0, "mu0": 1.0, "b0": 1.0},
    "logistic_death": {"d0": 1.0, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
    "density_diffusion": {"d0": 1.0, "d1": 0.5, "mu0": 1.0, "b0": 1.0, "kappa": 1.0},
}
FAMILY_NAMES = tuple(_FAMILY_PARAMS)


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

    Every family has d = d0 + d1*z^2, mu = mu0 + kappa*z, b = b0; a family
    fixes at 0 the parameters it lacks:

    ``constant``           d1 = kappa = 0
    ``logistic_death``     d1 = 0
    ``density_diffusion``  all five parameters free

    Keyword arguments are passed through to :class:`ModelSpec` (grid sizes,
    domain bounds, continuation parameters).
    """
    p = family_parameters(family, params)
    d0, d1, mu0, kappa, b0 = (p.get(k, 0.0) for k in ("d0", "d1", "mu0", "kappa", "b0"))
    if d0 <= 0.0:
        raise ValueError("d0 must be positive")
    if d1 < 0.0:  # then d0 + d1*z^2 stays >= d0 for every probed z
        raise ValueError("d1 must be nonnegative")
    return ModelSpec(
        d=lambda z: d0 + d1 * np.asarray(z, float) ** 2,
        d_prime=lambda z: 2.0 * d1 * np.asarray(z, float),
        mu=lambda z, a: mu0 + kappa * np.asarray(z, float),
        mu_z=lambda z, a: np.full_like(np.asarray(z, float), kappa),
        b=lambda z, a: np.full_like(np.asarray(z, float), b0),
        b_z=lambda z, a: np.zeros_like(np.asarray(z, float)),
        d_lower=d0,
        family=family,
        family_params=p,
        **spec_kwargs,
    )
