"""Nonlinear residual, Newton correction and branch continuation.

The unknown is reduced to the newborn trace ``v = u(0, .)``: the full field is
always reconstructed from ``v`` by the quasilinear age march, so Newton runs
on ``n_x + 1`` unknowns ``(lam, v)`` instead of the whole age-space tensor.
A full-grid residual is kept alongside as an independent oracle for the
reduced formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InnerIterationError,
    NoPositiveEigenvalueError,
    SingularSystemError,
    StepFailureError,
)
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
    weighted_inner,
)
from .operators import (
    DenseOperator,
    assemble_elliptic,
    birth_functional,
    divergence_form,
    evolve,
    next_generation_operator,
)
from .spectral import bifurcation_point, check_simplicity, perron_eigenpair

TERMINATION_REASONS = (
    "box_lambda",
    "box_norm",
    "step_failure",
    "max_points",
    "left_positive_cone",
)


@dataclass(frozen=True)
class PointDiagnostics:
    residual_norm: float
    min_u: float
    u_norm: float
    next_gen_radius: float
    newton_iters: int
    inner_iters: int


@dataclass(frozen=True)
class BranchPoint:
    """One converged solution on the branch: intensity, trace, full field."""

    lam: float
    v: SpatialField
    u: AgeSpaceField
    arclength: float
    diagnostics: PointDiagnostics


@dataclass
class Branch:
    """Ordered branch points with arclength bookkeeping and stop reason."""

    points: list[BranchPoint]
    termination: str
    tangent_history: list[tuple[float, np.ndarray]]
    lambda0: float
    phi0: SpatialField
    psi0: SpatialField


@dataclass(frozen=True)
class AffineConstraint:
    """Affine functional ``coeff_lambda * lam + coeff_v . v`` used to border
    the corrector system."""

    coeff_lambda: float
    coeff_v: np.ndarray

    def __call__(self, lam: float, v: SpatialField) -> float:
        return self.coeff_lambda * lam + float(self.coeff_v @ v)


@dataclass(frozen=True)
class ContinuationParams:
    t0: float
    ds0: float
    ds_min: float
    ds_max: float
    lambda_max: float
    u_norm_max: float
    max_points: int
    pos_tol: float
    jac_mode: str = "fd"
    # when set, replaces lambda_max by this multiple of the critical intensity
    lambda_max_factor: float | None = None
    arc_weight_lambda: float = 1.0
    arc_weight_v: float = 1.0

    @classmethod
    def from_spec(cls, spec: ModelSpec, **overrides) -> "ContinuationParams":
        values = dict(
            t0=spec.t0,
            ds0=spec.ds0,
            ds_min=spec.ds_min,
            ds_max=spec.ds_max,
            lambda_max=spec.lambda_max,
            u_norm_max=spec.u_norm_max,
            max_points=spec.max_points,
            pos_tol=spec.pos_tol,
        )
        values.update(overrides)
        return cls(**values)


# -- quasilinear reconstruction ---------------------------------------------

def _fixed_point(traces: np.ndarray, U_start: np.ndarray, spec: ModelSpec,
                 g: Grid) -> tuple[np.ndarray, int]:
    """Damped quasilinear fixed point for m traces (shape (m, n_x)) marched in
    lockstep, each sweep one stacked march; returns the (n_a + 1, m, n_x)
    fields and the number of sweeps.  Converged when the largest update of
    any row is at or below ``inner_tol``."""
    current = evolve(U_start, traces, spec, g)
    omega = 1.0
    previous = current[:, 0]
    diffs: list[float] = []
    for it in range(1, spec.max_inner + 1):
        U_rows = (g.w_a @ current.reshape(g.n_a + 1, -1)).reshape(traces.shape)
        proposed = evolve(U_rows, traces, spec, g)
        diff = float(np.max(np.sqrt(g.dx) * np.linalg.norm(proposed - current, axis=2)))
        if diff <= spec.inner_tol:
            # the returned field is always an actual march output
            return proposed, it
        if diffs and diff > diffs[-1]:
            omega = max(0.03125, 0.5 * omega)
        elif diffs and diff < 0.25 * diffs[-1]:
            omega = min(1.0, 2.0 * omega)
        previous = current[:, 0].copy()  # a copy keeps no whole block alive
        current = proposed if omega == 1.0 else (1.0 - omega) * current + omega * proposed
        diffs.append(diff)
    raise InnerIterationError(
        f"quasilinear fixed point did not reach {spec.inner_tol:.1e} in "
        f"{spec.max_inner} iterations (last update {diffs[-1]:.3e})",
        last=current[:, 0],
        previous=previous,
        contraction=diffs[-1] / diffs[-2] if len(diffs) >= 2 else np.inf,
    )


def _march_info(v: SpatialField, spec: ModelSpec, g: Grid,
                u_guess: AgeSpaceField | None = None) -> tuple[AgeSpaceField, int]:
    v = check_spatial(v, g, "trace")
    U0 = np.zeros(g.n_x) if u_guess is None else total_population(u_guess, g)
    u, sweeps = _fixed_point(v[None, :], U0[None, :], spec, g)
    return u[:, 0], sweeps


def quasilinear_march(v: SpatialField, spec: ModelSpec, g: Grid,
                      u_guess: AgeSpaceField | None = None) -> AgeSpaceField:
    """Reconstruct the full field whose trace is ``v``.

    Damped fixed-point iteration on the frozen-population march: each sweep
    re-evolves ``v`` under the total population of the previous iterate, with
    the relaxation factor adapted downward when the update stops contracting.
    """
    u, _ = _march_info(v, spec, g, u_guess)
    return u


def _reduced_info(lam: float, v: SpatialField, spec: ModelSpec, g: Grid,
                  u_guess: AgeSpaceField | None = None
                  ) -> tuple[SpatialField, AgeSpaceField, int]:
    u, iters = _march_info(v, spec, g, u_guess)
    U = total_population(u, g)
    R = v - birth_functional(U, u, lam, spec, g)
    return R, u, iters


def reduced_residual(lam: float, v: SpatialField, spec: ModelSpec, g: Grid
                     ) -> tuple[SpatialField, AgeSpaceField]:
    """Trace residual ``v - lam * birth(u[v])`` and the reconstruction u[v]."""
    R, u, _ = _reduced_info(lam, v, spec, g)
    return R, u


def full_residual(lam: float, u: AgeSpaceField, spec: ModelSpec, g: Grid) -> AgeSpaceField:
    """Full-grid residual of the fixed-coefficient reformulation.

    Moves the quasilinear part to the right-hand side and solves with the
    zero-density operator; used only as an independent oracle for
    :func:`reduced_residual`.
    """
    u = check_age_space(u, g, "field")
    U = total_population(u, g)
    zero = np.zeros(g.n_x)
    src = np.empty_like(u)
    for k in range(g.n_a + 1):
        age = g.a_nodes[k]
        op_zero = assemble_elliptic(zero, age, spec, g)
        op_frozen = assemble_elliptic(U, age, spec, g)
        src[k] = op_zero.apply(u[k]) - op_frozen.apply(u[k])
    newborn = birth_functional(U, u, lam, spec, g)
    return u - evolve(zero, newborn, spec, g, source=src)


# -- Jacobian of the reduced residual ---------------------------------------

def jacobian(lam: float, v: SpatialField, spec: ModelSpec, g: Grid,
             mode: str = "fd", u_guess: AgeSpaceField | None = None) -> DenseOperator:
    """Jacobian of the trace residual at ``(lam, v)``.

    ``fd`` (default) differences the residual column by column with step
    ``fd_eps * (1 + |v_j|)``.  ``analytic`` assembles the directional
    derivative exactly: the march is differentiated through its population
    feedback via the divergence-form sensitivity ``-(d'(U) P w_x)_x +
    mu_z(U, a) P w`` and the birth derivative via ``b_z``, where ``P`` is the
    age integral of the tangent field.  The two modes agree to finite
    difference accuracy.  ``u_guess`` warm-starts the reconstruction of
    ``v``, as in :func:`quasilinear_march`.
    """
    if mode == "fd":
        return _jacobian_fd(lam, v, spec, g, u_guess)
    if mode == "analytic":
        return _jacobian_analytic(lam, v, spec, g, u_guess)
    raise ValueError(f"unknown jacobian mode {mode!r}")


def _jacobian_fd(lam: float, v: SpatialField, spec: ModelSpec, g: Grid,
                 u_guess: AgeSpaceField | None = None) -> DenseOperator:
    # row 0 of the block is the unperturbed trace, so the base residual goes
    # through the same sweeps as the perturbed ones
    v = check_spatial(v, g, "trace")
    if u_guess is None:
        u_guess = quasilinear_march(v, spec, g)
    steps = spec.fd_eps * (1.0 + np.abs(v))
    traces = v[None, :] + np.vstack([np.zeros(g.n_x), np.diag(steps)])
    U_start = np.tile(total_population(u_guess, g), (g.n_x + 1, 1))
    block, _ = _fixed_point(traces, U_start, spec, g)

    U_rows = np.einsum("k,kmn->mn", g.w_a, block)
    b_rows = spec.rate_table("b", U_rows, g.a_nodes)
    R = traces - lam * np.einsum("k,kmn,kmn->mn", g.w_a, b_rows, block)
    return ((R[1:] - R[0]) / steps[:, None]).T


def _population_sensitivity(u: AgeSpaceField, d_prime: np.ndarray, mu_z: np.ndarray,
                            g: Grid) -> np.ndarray:
    """Operator sensitivity applied to ``u`` for each unit population
    perturbation ``e_i``: entry ``[k, :, i]`` is
    ``divergence_form(d_prime * e_i, u[k]) + mu_z[k] * e_i * u[k]``."""
    sens = divergence_form(np.diag(d_prime), u[:, None, :], g).transpose(0, 2, 1)
    nodes = np.arange(g.n_x)
    sens[:, nodes, nodes] += mu_z * u
    return sens


def _jacobian_analytic(lam: float, v: SpatialField, spec: ModelSpec, g: Grid,
                       u_guess: AgeSpaceField | None = None) -> DenseOperator:
    v = check_spatial(v, g, "trace")
    u, _ = _march_info(v, spec, g, u_guess)
    U = total_population(u, g)
    n = g.n_x

    mu_z = np.stack([spec.eval_mu_z(U, age) for age in g.a_nodes])
    b_rows = spec.rate_table("b", U, g.a_nodes)
    bz_rows = np.stack([spec.eval_b_z(U, age) for age in g.a_nodes])
    sens = _population_sensitivity(u, spec.eval_d_prime(U), mu_z, g)

    # tangent march splits into a trace part and a population-feedback part
    trace_part = evolve(U, np.eye(n), spec, g)
    feedback = evolve(U, np.zeros((n, n)), spec, g, source=-sens)
    feed_map = np.einsum("k,kij->ij", g.w_a, feedback)
    trace_pop = np.einsum("k,kij->ij", g.w_a, trace_part)

    # population tangents solve (I - feed_map) P = age-integral of trace part
    pop_tangent = np.linalg.solve(np.eye(n) - feed_map, trace_pop)
    correction = evolve(
        U, np.zeros((n, n)), spec, g,
        source=-np.einsum("kni,ij->knj", sens, pop_tangent),
    )
    tangent = trace_part + correction

    birth_term = np.einsum("k,kn,knj->nj", g.w_a, b_rows, tangent)
    birth_z_term = np.einsum("k,kn,kn,nj->nj", g.w_a, bz_rows, u, pop_tangent)
    return np.eye(n) - lam * (birth_term + birth_z_term)


# -- bordered Newton corrector ----------------------------------------------

_COND_LIMIT = 1e13


def newton_correct(lam: float, v: SpatialField, constraint: AffineConstraint,
                   target: float, spec: ModelSpec, g: Grid,
                   jac_mode: str = "fd",
                   u_guess: AgeSpaceField | None = None) -> BranchPoint:
    """Solve the bordered system ``R(lam, v) = 0``, ``constraint = target``.

    Newton on ``(lam, v)`` jointly; converged when the residual norm and the
    last step norm are both at or below ``newton_tol``.  From the trivial
    branch with a pure amplitude constraint the bordered matrix is singular
    (the intensity column vanishes at ``v = 0``), which raises
    :class:`SingularSystemError`; linear models have no nontrivial solutions
    off the critical intensity for the corrector to find.
    """
    v = np.array(v, dtype=float, copy=True)
    lam = float(lam)
    n = g.n_x
    total_inner = 0
    last_step = 0.0
    rnorm = np.inf

    for newton_iters in range(spec.max_newton + 1):
        R, u, inner = _reduced_info(lam, v, spec, g, u_guess)
        total_inner += inner
        u_guess = u
        rnorm = trace_norm(R, g)
        cres = constraint(lam, v) - target
        if (rnorm <= spec.newton_tol
                and abs(cres) <= spec.newton_tol * (1.0 + abs(target))
                and last_step <= spec.newton_tol):
            return _finish_point(lam, v, u, rnorm, newton_iters, total_inner, spec, g)

        J = jacobian(lam, v, spec, g, mode=jac_mode, u_guess=u)
        U = total_population(u, g)
        dR_dlam = -birth_functional(U, u, 1.0, spec, g)

        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = J
        bordered[:n, n] = dR_dlam
        bordered[n, :n] = constraint.coeff_v
        bordered[n, n] = constraint.coeff_lambda
        cond = float(np.linalg.cond(bordered))
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularSystemError(
                f"bordered corrector system is singular (condition ~{cond:.3e}); "
                "fold point or defective constraint",
                condition_estimate=cond,
            )
        step = np.linalg.solve(bordered, -np.concatenate([R, [cres]]))
        v = v + step[:n]
        lam = lam + float(step[n])
        last_step = float(np.hypot(trace_norm(step[:n], g), step[n]))

    raise StepFailureError(
        f"Newton corrector stalled at residual {rnorm:.3e} after "
        f"{spec.max_newton} iterations",
        residual_norm=float(rnorm),
        iterations=spec.max_newton,
    )


def _finish_point(lam, v, u, rnorm, newton_iters, inner_iters, spec, g) -> BranchPoint:
    try:
        Q = next_generation_operator(u, spec, g)
        radius = perron_eigenpair(Q, tol=spec.eigen_tol, max_iter=spec.power_max_iter,
                                  weights=g.w_x).radius
    except NoPositiveEigenvalueError:
        radius = float("nan")
    diags = PointDiagnostics(
        residual_norm=float(rnorm),
        min_u=float(u.min()),
        u_norm=field_norm(u, g),
        next_gen_radius=float(radius),
        newton_iters=newton_iters,
        inner_iters=inner_iters,
    )
    return BranchPoint(lam=float(lam), v=v.copy(), u=u, arclength=0.0, diagnostics=diags)


# -- pseudo-arclength continuation ------------------------------------------

def _combined_norm(dlam: float, dv: np.ndarray, p: ContinuationParams, g: Grid) -> float:
    return float(np.sqrt(p.arc_weight_lambda * dlam**2
                         + p.arc_weight_v * trace_norm(dv, g) ** 2))


def _box_verdict(pt: BranchPoint, p: ContinuationParams) -> str | None:
    if pt.lam > p.lambda_max:
        return "box_lambda"
    if pt.diagnostics.u_norm > p.u_norm_max:
        return "box_norm"
    if pt.diagnostics.min_u < -p.pos_tol:
        return "left_positive_cone"
    return None


def continue_branch(spec: ModelSpec, g: Grid,
                    params: ContinuationParams | None = None) -> Branch:
    """Trace the positive branch from the bifurcation point to the box.

    The first point is corrected from the tangent predictor along the
    dominant eigenvector with its amplitude pinned against the left
    eigenvector; subsequent points use a secant tangent predictor with an
    arclength normalization constraint and an adaptive step.  Never raises:
    the stop reason is recorded on the returned branch.
    """
    p = params if params is not None else ContinuationParams.from_spec(spec)
    bif = bifurcation_point(spec, g)
    if p.lambda_max_factor is not None:
        p = replace(p, lambda_max=p.lambda_max_factor * bif.lambda0)
    cert = check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)
    if not cert.passed:
        raise ValueError(
            f"simplicity certificate failed (pairing {cert.pairing:.3e}, "
            f"gap {cert.gap:.3e}); cannot start the branch"
        )
    lam0, phi0, psi0 = bif.lambda0, bif.phi0, bif.psi0

    def make_branch(points, termination, tangents):
        return Branch(points=points, termination=termination,
                      tangent_history=tangents, lambda0=lam0, phi0=phi0, psi0=psi0)

    # first point: amplitude pinned against the left eigenvector,
    # halving the amplitude if the corrector misses
    amplitude_constraint = AffineConstraint(0.0, g.w_x * psi0)
    first = None
    t = p.t0
    for _ in range(8):
        try:
            first = newton_correct(
                lam0, t * phi0, amplitude_constraint,
                t * weighted_inner(psi0, phi0, g), spec, g, jac_mode=p.jac_mode,
            )
            break
        except (StepFailureError, SingularSystemError, InnerIterationError):
            t *= 0.5
    if first is None:
        return make_branch([], "step_failure", [])
    verdict = _box_verdict(first, p)
    if verdict is not None:
        return make_branch([], verdict, [])

    first = replace(first, arclength=_combined_norm(first.lam - lam0, first.v, p, g))
    points = [first]
    tangents: list[tuple[float, np.ndarray]] = []
    prev_lam, prev_v = lam0, np.zeros(g.n_x)
    current = first
    ds = p.ds0

    while True:
        if len(points) >= p.max_points:
            return make_branch(points, "max_points", tangents)

        dlam = current.lam - prev_lam
        dv = current.v - prev_v
        scale = _combined_norm(dlam, dv, p, g)
        tau_lam, tau_v = dlam / scale, dv / scale
        tangents.append((tau_lam, tau_v))

        while True:
            lam_pred = current.lam + ds * tau_lam
            v_pred = current.v + ds * tau_v
            constraint = AffineConstraint(
                p.arc_weight_lambda * tau_lam,
                p.arc_weight_v * g.dx * tau_v,
            )
            target = constraint(lam_pred, v_pred)
            try:
                accepted = newton_correct(lam_pred, v_pred, constraint, target,
                                          spec, g, jac_mode=p.jac_mode,
                                          u_guess=current.u)
                break
            except (StepFailureError, SingularSystemError, InnerIterationError):
                ds *= 0.5
                if ds < p.ds_min:
                    return make_branch(points, "step_failure", tangents)

        verdict = _box_verdict(accepted, p)
        if verdict is not None:
            return make_branch(points, verdict, tangents)

        step_len = _combined_norm(accepted.lam - current.lam,
                                  accepted.v - current.v, p, g)
        accepted = replace(accepted, arclength=current.arclength + step_len)
        points.append(accepted)
        if accepted.diagnostics.newton_iters <= 3:
            ds = min(2.0 * ds, p.ds_max)
        prev_lam, prev_v = current.lam, current.v
        current = accepted


# -- per-point invariant report ----------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Cross-checks at one branch point: the radius identity of the frozen
    return map, positivity, and the full-grid residual oracle."""

    lam: float
    radius: float
    radius_defect: float
    min_u: float
    full_residual_norm: float
    trivial: bool
    radius_ok: bool
    positivity_ok: bool
    residual_ok: bool
    passed: bool


def branch_invariant_check(pt: BranchPoint, spec: ModelSpec, g: Grid) -> InvariantReport:
    """Report the defect of ``lam * radius(u) = 1`` and the oracle residual.

    Trivial (zero) points report the radius but are not failed on the
    identity, which only holds for positive solutions.
    """
    Q = next_generation_operator(pt.u, spec, g)
    radius = perron_eigenpair(Q, tol=spec.eigen_tol, max_iter=spec.power_max_iter,
                              weights=g.w_x).radius
    defect = abs(pt.lam * radius - 1.0)
    fnorm = field_norm(full_residual(pt.lam, pt.u, spec, g), g)
    trivial = field_norm(pt.u, g) <= 1e-10
    radius_ok = trivial or defect <= spec.radius_identity_tol
    positivity_ok = bool(pt.u.min() >= -spec.pos_tol)
    residual_ok = bool(fnorm <= 10.0 * spec.newton_tol)
    return InvariantReport(
        lam=pt.lam,
        radius=float(radius),
        radius_defect=float(defect),
        min_u=float(pt.u.min()),
        full_residual_norm=float(fnorm),
        trivial=trivial,
        radius_ok=bool(radius_ok),
        positivity_ok=positivity_ok,
        residual_ok=residual_ok,
        passed=bool(radius_ok and positivity_ok and residual_ok),
    )
