"""Independent verification: transient runs, kernel certificates, branch checks.

The transient scheme steps the time-dependent problem with the time step
locked to the age step, so the aging term is a pure shift along
characteristics and the only splitting error sits in the diffusion-death and
renewal stages.  Equilibria of the stationary problem are then fixed points
of the stepper up to solver tolerance.
"""

from __future__ import annotations

import math
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
    total_population,
    trace_norm,
)
from .operators import advance_cohorts, birth_functional, evolve, next_generation_operator
from .records import fmt17
from .solver import BranchPoint, branch_invariant_check, jacobian
from .spectral import bifurcation_point


@dataclass(frozen=True)
class TransientState:
    """Field after a transient run plus per-step relative change and minima."""

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

    The field is validated once, here.  Each step factors its one age system
    (one ``d`` evaluation, one ``mu`` table for ages 1..n_a; a block of all
    ages when ``mu`` has an age axis) and solves the cohorts, copied and
    scaled in one pass, by one ``dpttrs`` in place into rows 1..n_a of the
    new field.  A birth row that is not finite is an ``ArithmeticError``
    naming the step.
    """
    u = check_age_space(u0, g, "initial field").copy()
    if u.min() < 0.0:
        raise ValueError("transient initial data must be nonnegative")

    drift: list[float] = []
    minima: list[float] = []
    for step in range(1, n_steps + 1):
        U = g.w_a @ u
        new = np.empty_like(u)
        advance_cohorts(U, u, spec, g, out=new[1:])
        new[0] = u[0]
        new[0] = birth_functional(U, new, lam, spec, g)
        if not np.isfinite(new[0]).all():
            raise ArithmeticError(
                f"transient step {step}: the birth integral produced non-finite values")
        low = float(new.min())
        if low < -spec.pos_tol:
            raise PositivityError(f"transient step produced entry {low:.3e} below -pos_tol")
        drift.append(field_norm(new - u, g) / max(field_norm(u, g), 1e-300))
        minima.append(low)
        u = new
    return TransientState(field=u, drift_history=drift, min_history=minima)


@dataclass(frozen=True)
class KernelReport:
    """SVD rank certificate of the corrector's Jacobian in ``(v, U)``,
    cross-checked against the frozen eigenproblem on traces."""

    dim: int
    dim_eigen: int
    singular_values: np.ndarray
    agree: bool


def kernel_dimension(lam: float, v: SpatialField, U: SpatialField, spec: ModelSpec,
                     g: Grid) -> KernelReport:
    """Numerical kernel dimension of the corrector's equations at ``(lam, v, U)``.

    Counts singular values below ``rank_tol`` times the largest in the
    ``(v, U)`` columns of :func:`jacobian` at ``u = E(U) v``, and compares
    with the same count for ``I - lam * Q`` where ``Q`` is the birth-return
    map frozen at the Jacobian's ``U``.
    """
    v = check_spatial(v, g, "trace")
    u = evolve(U, v, spec, g)
    J = jacobian(lam, U, u, spec, g)[:, :2 * g.n_x]
    sv = np.linalg.svd(J, compute_uv=False)
    dim = int(np.sum(sv < spec.rank_tol * sv[0]))

    eig_op = np.eye(g.n_x) - lam * next_generation_operator(U, spec, g)
    sv_eig = np.linalg.svd(eig_op, compute_uv=False)
    dim_eigen = int(np.sum(sv_eig < spec.rank_tol * sv_eig[0]))

    return KernelReport(dim=dim, dim_eigen=dim_eigen, singular_values=sv, agree=dim == dim_eigen)


def verify_branch(meta: dict, rows: list[dict], snapshots: list[dict], spec: ModelSpec,
                  g: Grid) -> list[tuple[str, bool, str]]:
    """Every check of an exported branch, in order, as ``(name, passed, detail)``.

    The inputs are the records of a branch: ``records.branch_records`` of a
    ``Branch`` in memory, or ``records.read_branch_outputs`` of the files that
    ``records.write_branch_outputs`` wrote, which give the same triple.  Per
    point: the CSV row round-trips against the snapshot (to 1e-12 relative,
    and never when either value is not finite; a failure names each column
    that differs, with both values), then the
    four checks of :func:`branch_invariant_check`; then the kernel dimension
    at ``lambda0`` and the transversality of the crossing.  A snapshot field
    of the wrong shape raises ``ValueError``.
    """
    def close(a, b):
        # a value that is not finite never round-trips: with b = inf both
        # sides of the bound would be infinite
        return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= 1e-12 * max(1.0, abs(b))

    checks = []
    for row, snap in zip(rows, snapshots):
        i = row["index"]
        v = check_spatial(snap["v"], g, f"snapshot {i} trace")
        u = check_age_space(snap["u"], g, f"snapshot {i}")
        lam = snap["lambda"]
        pt = BranchPoint(lam=lam, v=v, u=u, arclength=snap["arclength"], diagnostics=None)
        report = branch_invariant_check(pt, spec, g)
        resid = trace_norm(v - birth_functional(total_population(u, g), u, lam, spec, g), g)
        recomputed = {"lambda": lam, "arclength": snap["arclength"], "residual_norm": resid,
                      "u_norm": field_norm(u, g), "min_u": float(u.min()),
                      "r_Q_u": report.radius}
        differ = [f"{key} {fmt17(x)} vs CSV {fmt17(row[key])}"
                  for key, x in recomputed.items() if not close(x, row[key])]
        checks += [
            (f"point {i} roundtrip", not differ, "; ".join(differ)
             or f"residual {fmt17(resid)} vs CSV {fmt17(row['residual_norm'])}"),
            (f"point {i} radius identity", report.radius_ok,
             f"|lam*r - 1| = {fmt17(report.radius_defect)}"),
            (f"point {i} positivity", report.positivity_ok, f"min_u = {fmt17(report.min_u)}"),
            (f"point {i} oracle residual", report.residual_ok,
             f"full residual {fmt17(report.full_residual_norm)}"),
            (f"point {i} eigen consistency", report.eigen_ok,
             f"|lam*Q(u)v - v| = {fmt17(report.eigen_defect)}"),
        ]

    kernel = kernel_dimension(meta["lambda0"], np.zeros(g.n_x), np.zeros(g.n_x), spec, g)
    # the crossing is transversal when the left and right null vectors pair
    pairing = bifurcation_point(spec, g).perron.pairing
    return checks + [
        ("kernel dimension", kernel.dim == 1 and kernel.agree,
         f"dim = {kernel.dim}, eigen dim = {kernel.dim_eigen}"),
        ("transversality", pairing > spec.simplicity_tol, f"pairing = {fmt17(pairing)}"),
    ]
