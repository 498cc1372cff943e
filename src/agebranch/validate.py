"""Independent verification layer: transient runs and kernel certificates.

The transient scheme steps the time-dependent problem with the time step
locked to the age step, so the aging term is a pure shift along
characteristics and the only splitting error sits in the diffusion-death and
renewal stages.  Equilibria of the stationary problem are then fixed points
of the stepper up to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PositivityError
from .model import (
    AgeSpaceField,
    Grid,
    ModelSpec,
    SpatialField,
    check_age_space,
    check_spatial,
    field_norm,
)
from .operators import advance_cohorts, birth_functional, evolve, next_generation_operator
from .solver import jacobian


@dataclass(frozen=True)
class TransientState:
    """Field after a transient run plus per-step relative change and minima."""

    t: float
    field: AgeSpaceField
    drift_history: list[float]
    min_history: list[float]


def simulate_transient(u0: AgeSpaceField, lam: float, n_steps: int,
                       spec: ModelSpec, g: Grid) -> TransientState:
    """Step the evolution problem with characteristic-aligned dt = da.

    Per step: shift every cohort one age cell up (the oldest exits), apply the
    implicit diffusion-death solve to all rows at once with the population
    frozen at the start of the step, then fill the newborn row from the birth
    integral.
    The birth quadrature keeps the pre-step newborn row as its age-zero
    contribution, so stationary solutions reproduce themselves exactly.

    The field is validated once, here.  Each step builds its cohort block once
    (one ``d`` evaluation, one ``mu`` table for ages 1..n_a, the off-diagonal
    in a buffer kept for the trajectory) and solves it by one symmetric
    ``dptsv`` in place into rows 1..n_a of the new field.
    """
    u = check_age_space(u0, g, "initial field").copy()
    if u.min() < 0.0:
        raise ValueError("transient initial data must be nonnegative")

    drift: list[float] = []
    minima: list[float] = []
    off = np.empty((g.n_a, g.n_x))
    t = 0.0
    for _ in range(n_steps):
        U = g.w_a @ u
        new = np.empty_like(u)
        advance_cohorts(U, u, spec, g, out=new[1:], off=off)
        new[0] = u[0]
        new[0] = birth_functional(U, new, lam, spec, g)
        low = float(new.min())
        if low < -spec.pos_tol:
            raise PositivityError(f"transient step produced entry {low:.3e} below -pos_tol")
        drift.append(field_norm(new - u, g) / max(field_norm(u, g), 1e-300))
        minima.append(low)
        u = new
        t += g.da
    return TransientState(t=t, field=u, drift_history=drift, min_history=minima)


@dataclass(frozen=True)
class KernelReport:
    """SVD rank certificate of the corrector's Jacobian in ``(v, U)``,
    cross-checked against the frozen eigenproblem on traces."""

    dim: int
    dim_eigen: int
    singular_values: np.ndarray
    singular_values_eigen: np.ndarray
    agree: bool


def kernel_dimension(lam: float, v: SpatialField, U: SpatialField, spec: ModelSpec,
                     g: Grid) -> KernelReport:
    """Numerical kernel dimension of the corrector's equations at ``(lam, v, U)``.

    Counts singular values below ``rank_tol`` times the largest in the
    ``(v, U)`` columns of :func:`jacobian` at ``u = E(U) v``, and compares
    with the same count for ``I - lam * Q`` where ``Q`` is the birth-return
    map frozen at ``u``.
    """
    v = check_spatial(v, g, "trace")
    u = evolve(U, v, spec, g)
    J = jacobian(lam, U, u, spec, g)[:, :2 * g.n_x]
    sv = np.linalg.svd(J, compute_uv=False)
    dim = int(np.sum(sv < spec.rank_tol * sv[0]))

    eig_op = np.eye(g.n_x) - lam * next_generation_operator(u, spec, g)
    sv_eig = np.linalg.svd(eig_op, compute_uv=False)
    dim_eigen = int(np.sum(sv_eig < spec.rank_tol * sv_eig[0]))

    return KernelReport(dim=dim, dim_eigen=dim_eigen, singular_values=sv,
                        singular_values_eigen=sv_eig, agree=bool(dim == dim_eigen))
