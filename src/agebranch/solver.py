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
    field_norm,
    total_population,
    trace_norm,
    weighted_inner,
)
from .operators import (
    _age_systems,
    _load_flapack,
    assemble_elliptic,
    birth_functional,
    evolve,
    identity_age_sums,
    next_generation_operator,
)
from .spectral import bifurcation_point, check_simplicity, perron_eigenpair

@dataclass(frozen=True)
class PointDiagnostics:
    residual_norm: float
    min_u: float
    u_norm: float
    next_gen_radius: float
    newton_iters: int
    # bordered matrices the correction assembled (newton_iters minus chord steps)
    jacobians: int = 0


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


def jacobian(lam: float, U: SpatialField, u: AgeSpaceField,
             spec: ModelSpec, g: Grid) -> np.ndarray:
    """Derivative of ``(R_v, R_U)`` in ``(v, U, lam)`` at ``u = E(U) v``,
    shape (2 n_x, 2 n_x + 1), where ``R_v = v - lam * B(U, u)`` and
    ``R_U = U - int u da``.  ``B`` depends on ``U`` through ``u`` and through
    ``b_z``.  One factorization under ``U``: ``du/dv`` gives the age sums of
    :func:`identity_age_sums`, and ``du/dU`` is one march from zero with the
    banded :func:`_tangent_source`."""
    n = g.n_x
    b = spec.rate_table("b", U, g.a_nodes)
    factors = _age_systems(U, spec, g, g.a_nodes)
    J = np.zeros((2 * n, 2 * n + 1))
    J[:n, :n], K = identity_age_sums(U, b, factors, spec, g, plain=True)
    J[n:, :n] = -K
    wb = g.w_a[:, None] * b
    du = evolve(U, np.zeros((n, n)), spec, g, source=_tangent_source(U, u, spec, g),
                factors=factors)
    J[:n, n:2 * n] = np.einsum("kn,knj->nj", wb, du)
    J[n:, n:2 * n] = -np.einsum("k,kij->ij", g.w_a, du)
    bz_rows = spec.rate_table("b_z", U, g.a_nodes)
    J[:n, n:2 * n][np.diag_indices(n)] += np.einsum("k,kn,kn->n", g.w_a, bz_rows, u)
    J[:n, :2 * n] *= -lam
    J[:n, 2 * n] = -np.einsum("kn,kn->n", wb, u)
    J[np.diag_indices(2 * n)] += 1.0
    return J


def full_residual(lam: float, u: AgeSpaceField, spec: ModelSpec, g: Grid) -> AgeSpaceField:
    """Full-grid residual of the fixed-coefficient reformulation.

    Moves the quasilinear part to the right-hand side and solves with the
    zero-density operator, each assembled once for all ages by
    :func:`assemble_elliptic`; an independent oracle for the corrector's
    residuals ``(R_v, R_U)``, which march the trace alone.
    """
    u = check_age_space(u, g, "field")
    U = total_population(u, g)
    zero = np.zeros(g.n_x)
    src = (assemble_elliptic(zero, g.a_nodes, spec, g).apply(u)
           - assemble_elliptic(U, g.a_nodes, spec, g).apply(u))
    return u - evolve(zero, birth_functional(U, u, lam, spec, g), spec, g, source=src)


# -- bordered Newton corrector ----------------------------------------------

_COND_LIMIT = 1e13
# a chord step on the stored factors is kept while it cuts the residual
# norm hypot(|R_v|, |R_U|) to at most this fraction of the previous iterate's
_CHORD_CONTRACTION = 0.1

_flapack = _load_flapack()
dgetrf, dgecon, dgetrs = _flapack.dgetrf, _flapack.dgecon, _flapack.dgetrs


def _factor_bordered(bordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors ``(lu, piv)`` of the bordered matrix by LAPACK ``dgetrf``;
    :class:`SingularSystemError` on an exact zero pivot or when the 1-norm
    condition estimate of ``dgecon`` exceeds ``_COND_LIMIT``."""
    anorm = float(np.abs(bordered).sum(axis=0).max())
    lu, piv, info = dgetrf(bordered)
    rcond = dgecon(lu, anorm)[0] if info == 0 else 0.0
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    if not cond <= _COND_LIMIT:
        raise SingularSystemError(
            f"bordered corrector system is singular (LAPACK 1-norm condition "
            f"estimate ~{cond:.3e}, within about a factor {len(lu)} of the 2-norm "
            "condition); fold point or defective constraint",
            condition_estimate=cond,
        )
    return lu, piv


def newton_correct(lam: float, v: SpatialField, constraint: AffineConstraint,
                   target: float, spec: ModelSpec, g: Grid,
                   U: SpatialField | None = None) -> BranchPoint:
    """Solve ``R_v = 0``, ``R_U = 0``, ``constraint = target`` for ``(lam, v, U)``.

    ``R_v = v - lam * B(U, E(U) v)`` and ``R_U = U - int E(U) v da``, with
    ``E(U)`` the age march frozen at ``U`` and ``U`` starting from the given
    guess (zero by default).  Newton on the bordered system of size
    ``2 n_x + 1``; converged when both residual norms, the constraint defect
    and the last ``(v, lam)`` step norm are at or below ``newton_tol``.

    The first iteration assembles the bordered matrix (:func:`jacobian` plus
    the constraint row) and factors it once with LAPACK ``dgetrf``; every
    step is one ``dgetrs`` on the stored factors.  A later iteration takes a
    chord step on those factors while the residual norm
    ``hypot(|R_v|, |R_U|)`` falls to at most ``_CHORD_CONTRACTION`` of the
    previous iterate's, and reassembles and refactors otherwise; an iterate
    whose residuals already meet ``newton_tol`` takes its certifying step on
    the stored factors.  ``max_newton`` bounds every iteration, chord steps
    included; the iterate after the last allowed step is only evaluated, and
    stops the corrector unless it has converged.  The singularity test
    compares LAPACK ``dgecon``'s 1-norm reciprocal condition estimate, which
    is within about a factor ``2 n_x + 1`` of the 2-norm condition number,
    with ``_COND_LIMIT``; an exact zero pivot is singular too.  From the
    trivial branch with a pure amplitude constraint the bordered matrix is
    singular (the intensity column vanishes at ``v = 0``), which raises
    :class:`SingularSystemError`; linear models have no nontrivial solutions
    off the critical intensity for the corrector to find.
    """
    v = np.array(v, dtype=float, copy=True)
    U = np.zeros(g.n_x) if U is None else np.array(U, dtype=float, copy=True)
    lam = float(lam)
    n = g.n_x
    last_step = 0.0
    factors, jacobians, previous = None, 0, np.inf

    for newton_iters in range(spec.max_newton + 1):
        u = evolve(U, v, spec, g)
        R_v = v - birth_functional(U, u, lam, spec, g)
        R_U = U - g.w_a @ u
        rnorm, unorm = trace_norm(R_v, g), trace_norm(R_U, g)
        cres = constraint(lam, v) - target
        converged = (rnorm <= spec.newton_tol
                     and unorm <= spec.newton_tol
                     and abs(cres) <= spec.newton_tol * (1.0 + abs(target)))
        if converged and last_step <= spec.newton_tol:
            return _finish_point(lam, v, u, rnorm, newton_iters, jacobians, spec, g)
        if newton_iters == spec.max_newton:
            break

        residual = float(np.hypot(rnorm, unorm))
        if factors is None or not (converged or residual <= _CHORD_CONTRACTION * previous):
            # unknowns ordered (v, U, lam); the constraint sees (v, lam) only
            factors = _factor_bordered(np.vstack([
                jacobian(lam, U, u, spec, g),
                np.concatenate([constraint.coeff_v, np.zeros(n), [constraint.coeff_lambda]]),
            ]))
            jacobians += 1
        previous = residual
        step = dgetrs(*factors, -np.concatenate([R_v, R_U, [cres]]))[0]
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


def _finish_point(lam, v, u, rnorm, newton_iters, jacobians, spec, g) -> BranchPoint:
    """The converged point with its diagnostics.  The radius of ``Q(u)`` comes
    from one march of the positive trace: ``y = Q(u) v`` and the radius
    ``<w v, y> / <w v, v>``, which the Collatz-Wielandt ratios ``y_i / v_i``
    bracket (Horn & Johnson, Matrix Analysis, ch. 8).  A trace with a
    non-positive entry takes the dense return map and its Perron solve."""
    U = total_population(u, g)
    if v.min() > 0.0:
        y = birth_functional(U, evolve(U, v, spec, g), 1.0, spec, g)
        wv = g.w_x * v
        radius = float(wv @ y) / float(wv @ v)
    else:
        try:
            radius = perron_eigenpair(next_generation_operator(U, spec, g), weights=g.w_x).radius
        except NoPositiveEigenvalueError:
            radius = float("nan")
    diags = PointDiagnostics(
        residual_norm=float(rnorm),
        min_u=float(u.min()),
        u_norm=field_norm(u, g),
        next_gen_radius=float(radius),
        newton_iters=newton_iters,
        jacobians=jacobians,
    )
    return BranchPoint(lam=float(lam), v=v.copy(), u=u, arclength=0.0, diagnostics=diags)


# -- pseudo-arclength continuation ------------------------------------------

def _combined_norm(dlam: float, dv: np.ndarray, g: Grid) -> float:
    return float(np.sqrt(dlam**2 + trace_norm(dv, g) ** 2))


def _box_verdict(pt: BranchPoint, lambda_max: float, spec: ModelSpec) -> str | None:
    if pt.lam > lambda_max:
        return "box_lambda"
    if pt.diagnostics.u_norm > spec.u_norm_max:
        return "box_norm"
    if pt.diagnostics.min_u < -spec.pos_tol:
        return "left_positive_cone"
    return None


def continue_branch(spec: ModelSpec, g: Grid) -> Branch:
    """Trace the positive branch from the bifurcation point to the box.

    One loop starts at the bifurcation point ``(lambda0, v = 0, U = 0)`` at
    arclength 0.  The first correction predicts ``t0 * phi0`` and pins its
    amplitude against the left eigenvector ``psi0``; every later one predicts
    along the secant under an arclength constraint.  Every attempt follows
    the same rules: a corrector that stalls or meets a singular bordered
    system halves the step, and a step below ``ds_min`` stops the branch in
    ``step_failure``; an accepted point outside the box (``lam >
    lambda_max_factor * lambda0``, ``u_norm > u_norm_max`` or ``min_u <
    -pos_tol``) stops it with the bound it broke.  The step is ``ds0`` after
    the first point and doubles, up to ``ds_max``, after a later point whose
    correction assembled at most 2 Jacobians.  Before the first correction it
    raises the errors of :func:`bifurcation_point` (for the critical
    eigenpair) and :class:`ValueError` when the simplicity certificate fails.
    """
    bif = bifurcation_point(spec, g)
    cert = check_simplicity(bif.perron, spec.simplicity_tol, spec.gap_tol)
    if not cert.passed:
        raise ValueError(
            f"simplicity certificate failed (pairing {cert.pairing:.3e}, "
            f"gap {cert.gap:.3e}); cannot start the branch"
        )
    lam0, phi0, psi0 = bif.lambda0, bif.phi0, bif.psi0
    lambda_max = spec.lambda_max_factor * lam0
    branch = Branch(points=[], termination="max_points", lambda0=lam0, phi0=phi0, psi0=psi0)
    points = branch.points

    # the current point (lam, v, U) and the predictor's direction: phi0 at the
    # bifurcation point, then the unit (lam, v) secant with U riding along
    lam, v, U, arclength = lam0, np.zeros(g.n_x), np.zeros(g.n_x), 0.0
    tau_lam, tau_v, tau_U = 0.0, phi0, np.zeros(g.n_x)
    ds = spec.t0
    while len(points) < spec.max_points:
        lam_pred, v_pred = lam + ds * tau_lam, v + ds * tau_v
        if points:
            constraint = AffineConstraint(tau_lam, g.dx * tau_v)
            target = constraint(lam_pred, v_pred)
        else:
            constraint = AffineConstraint(0.0, g.w_x * psi0)
            target = ds * weighted_inner(psi0, phi0, g)
        try:
            pt = newton_correct(lam_pred, v_pred, constraint, target, spec, g,
                                U=U + ds * tau_U)
        except (StepFailureError, SingularSystemError):
            ds *= 0.5
            if ds < spec.ds_min:
                branch.termination = "step_failure"
                return branch
            continue
        verdict = _box_verdict(pt, lambda_max, spec)
        if verdict is not None:
            branch.termination = verdict
            return branch

        # the step's length is both its arclength and the next secant's scale
        dlam, dv, U_pt = pt.lam - lam, pt.v - v, total_population(pt.u, g)
        step_len = _combined_norm(dlam, dv, g)
        tau_lam, tau_v, tau_U = dlam / step_len, dv / step_len, (U_pt - U) / step_len
        lam, v, U, arclength = pt.lam, pt.v, U_pt, arclength + step_len
        if not points:
            ds = spec.ds0
        elif pt.diagnostics.jacobians <= 2:
            ds = min(2.0 * ds, spec.ds_max)
        points.append(replace(pt, arclength=arclength))
    return branch


# -- per-point invariant report ----------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    """Cross-checks at one branch point: the radius and eigen identities of the
    frozen return map, positivity, and the full-grid residual oracle."""

    radius: float
    radius_defect: float
    eigen_defect: float
    min_u: float
    full_residual_norm: float
    trivial: bool
    radius_ok: bool
    eigen_ok: bool
    positivity_ok: bool
    residual_ok: bool
    passed: bool


def branch_invariant_check(pt: BranchPoint, spec: ModelSpec, g: Grid) -> InvariantReport:
    """Report the defects of ``lam * radius(Q) = 1`` and ``lam * Q v = v``,
    with ``Q`` the return map frozen at ``u``'s population, and the oracle residual.

    Reads ``pt.lam``, ``pt.v`` and ``pt.u`` only.  The eigen defect
    ``max|lam * Q v - v|`` passes at or below ``radius_identity_tol * max|v|``.
    Trivial (zero) points report the radius but are not failed on the radius
    identity, which only holds for positive solutions.
    """
    Q = next_generation_operator(total_population(pt.u, g), spec, g)
    radius = perron_eigenpair(Q, weights=g.w_x).radius
    defect = abs(pt.lam * radius - 1.0)
    eigen_defect = float(np.max(np.abs(pt.lam * (Q @ pt.v) - pt.v)))
    fnorm = field_norm(full_residual(pt.lam, pt.u, spec, g), g)
    trivial = field_norm(pt.u, g) <= 1e-10
    radius_ok = trivial or defect <= spec.radius_identity_tol
    eigen_ok = eigen_defect <= spec.radius_identity_tol * max(float(np.max(np.abs(pt.v))), 1e-300)
    positivity_ok = bool(pt.u.min() >= -spec.pos_tol)
    residual_ok = bool(fnorm <= 10.0 * spec.newton_tol)
    return InvariantReport(
        radius=float(radius),
        radius_defect=float(defect),
        eigen_defect=eigen_defect,
        min_u=float(pt.u.min()),
        full_residual_norm=float(fnorm),
        trivial=trivial,
        radius_ok=bool(radius_ok),
        eigen_ok=bool(eigen_ok),
        positivity_ok=positivity_ok,
        residual_ok=residual_ok,
        passed=bool(radius_ok and eigen_ok and positivity_ok and residual_ok),
    )
