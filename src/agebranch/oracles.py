"""Scalar-reduction oracles for spatially homogeneous models.

When the coefficients do not depend on space, constants are invariant under
the Neumann diffusion step and the whole problem collapses to a scalar
recurrence in age: a cohort born with density ``c`` has density
``c * (1 + m*da)**(-k)`` at age node ``k``, where ``m`` is the (constant)
death rate.  These closed forms are kept independent of the operator layer
and serve as cross-checks for it.  The homogeneous equilibrium's root
problem is monotone in ``U`` and is solved by bisection to the last float.
"""

from __future__ import annotations

import numpy as np

from .model import Grid


def survival_sum(m: float, g: Grid) -> float:
    """Trapezoid age integral of the implicit-Euler survival profile."""
    return float(np.dot(g.w_a, homogeneous_profile(1.0, m, g)))


def homogeneous_profile(amplitude: float, m: float, g: Grid) -> np.ndarray:
    """Age profile of a cohort with constant death rate ``m``."""
    return amplitude * (1.0 + m * g.da) ** (-np.arange(g.n_a + 1, dtype=float))


def closed_form_critical_intensity(mu0: float, b0: float, a_max: float) -> float:
    """Continuum critical intensity for constant coefficients."""
    if b0 <= 0.0:
        raise ValueError("b0 must be positive")
    if mu0 == 0.0:
        return 1.0 / (b0 * a_max)
    return mu0 / (b0 * (1.0 - np.exp(-mu0 * a_max)))


def discrete_critical_intensity(mu0: float, b0: float, g: Grid) -> float:
    """Critical intensity of the discretized constant-coefficient model."""
    if b0 <= 0.0:
        raise ValueError("b0 must be positive")
    return 1.0 / (b0 * survival_sum(mu0, g))


def equilibrium_intensity(U: float, mu0: float, kappa: float, b0: float, g: Grid) -> float:
    """Intensity at which total population ``U`` is an equilibrium.

    Solves the homogeneous branch relation lam * b0 * S(mu0 + kappa*U) = 1
    for lam, given U.
    """
    return 1.0 / (b0 * survival_sum(mu0 + kappa * U, g))


def equilibrium_population(lam: float, mu0: float, kappa: float, b0: float,
                           g: Grid) -> float:
    """Total population of the homogeneous equilibrium at intensity ``lam``.

    Root of lam * b0 * S(mu0 + kappa*U) - 1 in U; returns 0 at or below the
    critical intensity.  Requires kappa > 0 so the branch relation is
    monotone.  The bracket is halved until its midpoint equals an endpoint,
    that is, until the two ends are neighbouring floats.  A root beyond
    ``U = 1e12`` is not bracketed: an ``ArithmeticError``.
    """
    if kappa <= 0.0:
        raise ValueError("equilibrium_population needs kappa > 0")

    def f(U):
        return lam * b0 * survival_sum(mu0 + kappa * U, g) - 1.0

    if f(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError(
                "failed to bracket the homogeneous equilibrium: lam * b0 * "
                f"S(mu0 + kappa * U) - 1 keeps its sign on [0, {hi / 2:.6g}]")
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
