"""Nonlinear residual, Newton correction and branch continuation.

The field is never an unknown: it is the linear age march ``u = E(U) v`` of
the newborn trace ``v = u(0, .)`` frozen at a total population ``U``.  Newton
runs on the ``2 n_x + 1`` unknowns ``(lam, v, U)`` with the residuals
``R_v = v - lam * B(U, u)`` and ``R_U = U - int u da`` instead of on the
whole age-space tensor.  A full-grid residual is kept alongside as an
independent oracle for this formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
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
    # when set, replaces lambda_max by this multiple of the critical intensity
    lambda_max_factor: float | None = None

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


# -- residual blocks --------------------------------------------------------

def _tangent_source(U: SpatialField, u: AgeSpaceField, spec: ModelSpec,
                    g: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source of ``du/dU`` at fixed ``v`` as the banded ``source`` of
    :func:`evolve`: column ``i`` of the tridiagonal matrix at age ``k`` is
    ``-(dA/dU_i) u[k]``, the divergence-form term ``-(d' e_i u_x)_x`` on rows
    ``i - 1, i, i + 1`` from the fluxes through the faces of node ``i`` plus
    ``-mu_z e_i u`` on the diagonal.  Returns ``(lower, diag, upper)``."""
    d_prime = spec.eval_d_prime(U)
    du = u[:, 1:] - u[:, :-1]
    left = 0.5 * d_prime[1:] * du    # face left of node i = 1..n_x-1
    right = 0.5 * d_prime[:-1] * du  # face right of node i = 0..n_x-2
    rows = np.full(g.n_x, 1.0 / g.dx**2)
    rows[[0, -1]] *= 2.0  # Neumann closure doubles the boundary rows
    diag = (np.pad(right, ((0, 0), (0, 1))) - np.pad(left, ((0, 0), (1, 0)))) * rows
    diag -= spec.rate_table("mu_z", U, g.a_nodes) * u
    return -right * rows[1:], diag, left * rows[:-1]


def _residual_jacobian(lam: float, U: SpatialField, u: AgeSpaceField,
                       spec: ModelSpec, g: Grid) -> np.ndarray:
    """Derivative of ``(R_v, R_U)`` in ``(v, U, lam)`` at ``u = E(U) v``,
    shape (2 n_x, 2 n_x + 1), where ``R_v = v - lam * B(U, u)`` and
    ``R_U = U - int u da``.  ``B`` depends on ``U`` through ``u`` and through
    ``b_z``.  Two marches under ``U``: ``du/dv`` from the identity and
    ``du/dU`` from zero with the banded :func:`_tangent_source`."""
    n = g.n_x
    wb = g.w_a[:, None] * spec.rate_table("b", U, g.a_nodes)
    J = np.zeros((2 * n, 2 * n + 1))
    # one march at a time, so that a single (n_a + 1, n_x, n_x) stack is alive
    for cols, w0, source in ((np.s_[:n], np.eye(n), None),
                             (np.s_[n:2 * n], np.zeros((n, n)), _tangent_source(U, u, spec, g))):
        du = evolve(U, w0, spec, g, source=source)
        J[:n, cols] = np.einsum("kn,knj->nj", wb, du)
        J[n:, cols] = -np.einsum("k,kij->ij", g.w_a, du)
        del du
    bz_rows = spec.rate_table("b_z", U, g.a_nodes)
    J[:n, n:2 * n][np.diag_indices(n)] += np.einsum("k,kn,kn->n", g.w_a, bz_rows, u)
    J[:n, :2 * n] *= -lam
    J[:n, 2 * n] = -np.einsum("kn,kn->n", wb, u)
    J[np.diag_indices(2 * n)] += 1.0
    return J


# -- field of a trace --------------------------------------------------------

def _population_newton(v: SpatialField, spec: ModelSpec, g: Grid
                       ) -> tuple[SpatialField, AgeSpaceField, int]:
    """Newton on ``R_U = U - int E(U) v da`` at fixed ``v``, from ``U = 0``.

    Returns the population, its field ``E(U) v`` and the number of Newton
    steps taken; converged when ``|R_U|`` is at or below ``newton_tol``.
    """
    v = check_spatial(v, g, "trace")
    U = np.zeros(g.n_x)
    rnorm = np.inf
    for steps in range(spec.max_newton + 1):
        u = evolve(U, v, spec, g)
        R_U = U - g.w_a @ u
        rnorm = trace_norm(R_U, g)
        if rnorm <= spec.newton_tol:
            return U, u, steps
        du_dU = evolve(U, np.zeros((g.n_x, g.n_x)), spec, g,
                       source=_tangent_source(U, u, spec, g))
        dRU_dU = np.eye(g.n_x) - np.einsum("k,kij->ij", g.w_a, du_dU)
        U = U - np.linalg.solve(dRU_dU, R_U)
    raise StepFailureError(
        f"population Newton stalled at residual {rnorm:.3e} after "
        f"{spec.max_newton} iterations",
        residual_norm=float(rnorm),
        iterations=spec.max_newton,
    )


def quasilinear_march(v: SpatialField, spec: ModelSpec, g: Grid) -> AgeSpaceField:
    """Reconstruct the full field whose trace is ``v``.

    The field is the march ``E(U) v`` frozen at the total population ``U``
    that it reproduces, found by Newton on ``U`` from zero.
    """
    return _population_newton(v, spec, g)[1]


def reduced_residual(lam: float, v: SpatialField, spec: ModelSpec, g: Grid
                     ) -> tuple[SpatialField, AgeSpaceField]:
    """Trace residual ``v - lam * birth(u[v])`` and the reconstruction u[v]."""
    U, u, _ = _population_newton(v, spec, g)
    return v - birth_functional(U, u, lam, spec, g), u


def full_residual(lam: float, u: AgeSpaceField, spec: ModelSpec, g: Grid) -> AgeSpaceField:
    """Full-grid residual of the fixed-coefficient reformulation.

    Moves the quasilinear part to the right-hand side and solves with the
    zero-density operator, each assembled once for all ages by
    :func:`assemble_elliptic`; an independent oracle for :func:`reduced_residual`.
    """
    u = check_age_space(u, g, "field")
    U = total_population(u, g)
    zero = np.zeros(g.n_x)
    src = (assemble_elliptic(zero, g.a_nodes, spec, g).apply(u)
           - assemble_elliptic(U, g.a_nodes, spec, g).apply(u))
    return u - evolve(zero, birth_functional(U, u, lam, spec, g), spec, g, source=src)


def jacobian(lam: float, v: SpatialField, spec: ModelSpec, g: Grid) -> DenseOperator:
    """Jacobian of the trace residual :func:`reduced_residual` at ``(lam, v)``.

    The Schur complement ``dR_v/dv - dR_v/dU (dR_U/dU)^{-1} dR_U/dv`` of the
    corrector's blocks, taken at the population of the reconstruction of
    ``v``.  The field depends on ``U`` through the divergence-form
    sensitivity ``-(d'(U) P w_x)_x + mu_z(U, a) P w`` of the operator in a
    population direction ``P``, the birth integral also through ``b_z``.
    """
    U, u, _ = _population_newton(v, spec, g)
    J = _residual_jacobian(lam, U, u, spec, g)
    n = g.n_x
    return J[:n, :n] - J[:n, n:2 * n] @ np.linalg.solve(J[n:, n:2 * n], J[n:, :n])


# -- bordered Newton corrector ----------------------------------------------

_COND_LIMIT = 1e13


def newton_correct(lam: float, v: SpatialField, constraint: AffineConstraint,
                   target: float, spec: ModelSpec, g: Grid,
                   U: SpatialField | None = None) -> BranchPoint:
    """Solve ``R_v = 0``, ``R_U = 0``, ``constraint = target`` for ``(lam, v, U)``.

    ``R_v = v - lam * B(U, E(U) v)`` and ``R_U = U - int E(U) v da``, with
    ``E(U)`` the age march frozen at ``U`` and ``U`` starting from the given
    guess (zero by default).  Newton on the bordered system of size
    ``2 n_x + 1``; converged when both residual norms, the constraint defect
    and the last ``(v, lam)`` step norm are at or below ``newton_tol``.  An
    iterate whose residuals already meet ``newton_tol`` takes its certifying
    step with the bordered matrix already assembled, without a new Jacobian.  From
    the trivial branch with a pure amplitude constraint the bordered matrix is
    singular (the intensity column vanishes at ``v = 0``), which raises
    :class:`SingularSystemError`; linear models have no nontrivial solutions
    off the critical intensity for the corrector to find.
    """
    v = np.array(v, dtype=float, copy=True)
    U = np.zeros(g.n_x) if U is None else np.array(U, dtype=float, copy=True)
    lam = float(lam)
    n = g.n_x
    last_step = 0.0
    rnorm = np.inf

    for newton_iters in range(spec.max_newton + 1):
        u = evolve(U, v, spec, g)
        R_v = v - birth_functional(U, u, lam, spec, g)
        R_U = U - g.w_a @ u
        rnorm = trace_norm(R_v, g)
        cres = constraint(lam, v) - target
        converged = (rnorm <= spec.newton_tol
                     and trace_norm(R_U, g) <= spec.newton_tol
                     and abs(cres) <= spec.newton_tol * (1.0 + abs(target)))
        if converged and last_step <= spec.newton_tol:
            return _finish_point(lam, v, u, rnorm, newton_iters, spec, g)

        # a converged point only needs its certifying step: the chord step on
        # the last bordered matrix, one iterate back, matches Newton's to far
        # below round-off of v
        if not converged:
            # unknowns ordered (v, U, lam); the constraint sees (v, lam) only
            bordered = np.vstack([
                _residual_jacobian(lam, U, u, spec, g),
                np.concatenate([constraint.coeff_v, np.zeros(n), [constraint.coeff_lambda]]),
            ])
            cond = float(np.linalg.cond(bordered))
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise SingularSystemError(
                    f"bordered corrector system is singular (condition ~{cond:.3e}); "
                    "fold point or defective constraint",
                    condition_estimate=cond,
                )
        step = np.linalg.solve(bordered, -np.concatenate([R_v, R_U, [cres]]))
        v = v + step[:n]
        U = U + step[n:2 * n]
        lam = lam + float(step[2 * n])
        last_step = float(np.hypot(trace_norm(step[:n], g), step[2 * n]))

    raise StepFailureError(
        f"Newton corrector stalled at residual {rnorm:.3e} after "
        f"{spec.max_newton} iterations",
        residual_norm=float(rnorm),
        iterations=spec.max_newton,
    )


def _finish_point(lam, v, u, rnorm, newton_iters, spec, g) -> BranchPoint:
    try:
        Q = next_generation_operator(u, spec, g)
        radius = perron_eigenpair(Q, weights=g.w_x).radius
    except NoPositiveEigenvalueError:
        radius = float("nan")
    diags = PointDiagnostics(
        residual_norm=float(rnorm),
        min_u=float(u.min()),
        u_norm=field_norm(u, g),
        next_gen_radius=float(radius),
        newton_iters=newton_iters,
    )
    return BranchPoint(lam=float(lam), v=v.copy(), u=u, arclength=0.0, diagnostics=diags)


# -- pseudo-arclength continuation ------------------------------------------

def _combined_norm(dlam: float, dv: np.ndarray, g: Grid) -> float:
    return float(np.sqrt(dlam**2 + trace_norm(dv, g) ** 2))


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
    arclength normalization constraint and an adaptive step.  Before the
    first correction it raises the errors of :func:`bifurcation_point` (for
    the critical eigenpair) and :class:`ValueError` when the simplicity
    certificate fails.  A corrector that stalls or meets a singular bordered
    system never raises: the step is halved, and the stop reason is recorded
    on the returned branch.
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
                t * weighted_inner(psi0, phi0, g), spec, g,
            )
            break
        except (StepFailureError, SingularSystemError):
            t *= 0.5
    if first is None:
        return make_branch([], "step_failure", [])
    verdict = _box_verdict(first, p)
    if verdict is not None:
        return make_branch([], verdict, [])

    first = replace(first, arclength=_combined_norm(first.lam - lam0, first.v, g))
    points = [first]
    tangents: list[tuple[float, np.ndarray]] = []
    prev_lam, prev_v, prev_U = lam0, np.zeros(g.n_x), np.zeros(g.n_x)
    current, current_U = first, total_population(first.u, g)
    ds = p.ds0

    while True:
        if len(points) >= p.max_points:
            return make_branch(points, "max_points", tangents)

        dlam = current.lam - prev_lam
        dv = current.v - prev_v
        scale = _combined_norm(dlam, dv, g)
        tau_lam, tau_v = dlam / scale, dv / scale
        tangents.append((tau_lam, tau_v))
        # U rides along the (lam, v) secant without entering the arclength
        tau_U = (current_U - prev_U) / scale

        while True:
            lam_pred = current.lam + ds * tau_lam
            v_pred = current.v + ds * tau_v
            constraint = AffineConstraint(tau_lam, g.dx * tau_v)
            target = constraint(lam_pred, v_pred)
            try:
                accepted = newton_correct(lam_pred, v_pred, constraint, target,
                                          spec, g, U=current_U + ds * tau_U)
                break
            except (StepFailureError, SingularSystemError):
                ds *= 0.5
                if ds < p.ds_min:
                    return make_branch(points, "step_failure", tangents)

        verdict = _box_verdict(accepted, p)
        if verdict is not None:
            return make_branch(points, verdict, tangents)

        step_len = _combined_norm(accepted.lam - current.lam,
                                  accepted.v - current.v, g)
        accepted = replace(accepted, arclength=current.arclength + step_len)
        points.append(accepted)
        if accepted.diagnostics.newton_iters <= 3:
            ds = min(2.0 * ds, p.ds_max)
        prev_lam, prev_v, prev_U = current.lam, current.v, current_U
        current, current_U = accepted, total_population(accepted.u, g)


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
    radius = perron_eigenpair(Q, weights=g.w_x).radius
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
