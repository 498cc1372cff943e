"""Perron eigenpairs of the birth-return map and the bifurcation point.

The return map assembled at zero density is entrywise nonnegative and compact
at the discrete level, so its spectral radius carries a positive eigenvector.
The critical fertility intensity is the reciprocal of that radius; left and
right eigenvectors certify simplicity and transversality of the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveEigenvalueError, PositivityError, PowerIterationError
from .model import Grid, ModelSpec, SpatialField
from .operators import next_generation_operator

_RADIUS_FLOOR = 1e-14


@dataclass(frozen=True)
class PerronResult:
    """Dominant eigenpair of a nonnegative operator.

    ``phi`` is normalized to max entry one; ``psi`` is the left eigenvector in
    the dx-weighted inner product, scaled so that ``<psi, phi>_w = 1`` when
    the pairing allows it.  ``pairing`` is the cosine of the angle between the
    left and right eigenvectors (1 for weighted-self-adjoint operators, ~0 for
    a defective radius) and ``gap`` the relative separation from the second
    eigenvalue estimate.
    """

    radius: float
    phi: SpatialField
    psi: SpatialField
    gap: float
    iterations: int
    pairing: float
    positive: bool


@dataclass(frozen=True)
class SimplicityCertificate:
    pairing: float
    gap: float
    simplicity_tol: float
    gap_tol: float
    passed: bool


@dataclass(frozen=True)
class BifurcationPoint:
    lambda0: float
    phi0: SpatialField
    psi0: SpatialField
    perron: PerronResult


def _power(Q: np.ndarray, x0: np.ndarray, tol: float, max_iter: int,
           w: np.ndarray) -> tuple[np.ndarray, float, int]:
    def wnorm(z):
        return np.sqrt(np.sum(w * z * z))

    x = x0 / wnorm(x0)
    y = Q @ x
    r = 0.0
    for it in range(1, max_iter + 1):
        r = float(np.sum(w * x * y))
        # scale-invariant residual test on the current iterate
        if np.max(np.abs(y - r * x)) <= tol * max(r, _RADIUS_FLOOR) * np.max(np.abs(x)):
            return x, r, it
        ynorm = wnorm(y)
        if ynorm < 1e-300:
            raise NoPositiveEigenvalueError(
                "no positive eigenvalue: power iterate was annihilated"
            )
        x = y / ynorm
        y = Q @ x
    raise PowerIterationError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(last residual {np.max(np.abs(y - r * x)):.3e}, estimate {r:.6g})",
        last_iterate=x,
        last_estimate=r,
    )


def _second_radius(Q: np.ndarray, radius: float, phi: np.ndarray,
                   psi_scaled: np.ndarray, w: np.ndarray, max_iter: int = 400) -> float:
    """Largest remaining eigenvalue modulus after deflating the Perron pair."""
    deflated = Q - radius * np.outer(phi, w * psi_scaled)
    n = Q.shape[0]
    x = np.linspace(-1.0, 1.0, n)
    x -= phi * np.sum(w * psi_scaled * x)
    norm = np.sqrt(np.sum(w * x * x))
    if norm < 1e-300:
        x = np.zeros(n)
        x[0] = 1.0
        x -= phi * np.sum(w * psi_scaled * x)
        norm = np.sqrt(np.sum(w * x * x))
        if norm < 1e-300:
            return 0.0
    x /= norm

    estimates: list[float] = []
    for _ in range(max_iter):
        y = deflated @ x
        est = float(np.sqrt(np.sum(w * y * y)))
        if est < 1e-300:
            return 0.0
        estimates.append(est)
        if len(estimates) >= 3 and abs(estimates[-1] - estimates[-2]) <= 1e-10 * estimates[-1] \
                and abs(estimates[-2] - estimates[-3]) <= 1e-10 * estimates[-1]:
            return est
        x = y / est
    # ratios oscillate for a complex pair; the median of the tail is a fair
    # modulus estimate, and the gap is only certified against gap_tol
    tail = estimates[-25:]
    return float(np.median(tail))


def perron_eigenpair(Q: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000,
                     weights: np.ndarray | None = None) -> PerronResult:
    """Spectral radius and positive eigenvector of a nonnegative operator.

    Power iteration from the constant positive vector; the left eigenvector is
    found the same way on the adjoint with respect to the weighted inner
    product, and a deflated second iteration estimates the spectral gap.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"operator must be square, got shape {Q.shape}")
    if np.any(Q < 0.0):
        raise ValueError("operator has negative entries")
    n = Q.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)

    if np.max(Q) == 0.0:
        raise NoPositiveEigenvalueError("no positive eigenvalue: operator is zero")

    phi, radius, iterations = _power(Q, np.ones(n), tol, max_iter, w)
    if radius < _RADIUS_FLOOR:
        raise NoPositiveEigenvalueError(
            f"no positive eigenvalue: radius estimate {radius:.3e} below floor"
        )
    phi = phi / np.max(phi)

    adjoint = (Q.T * w[None, :]) / w[:, None]
    psi, _, _ = _power(adjoint, np.ones(n), tol, max_iter, w)

    pairing_raw = float(np.sum(w * psi * phi))
    pairing = pairing_raw / float(
        np.sqrt(np.sum(w * psi * psi)) * np.sqrt(np.sum(w * phi * phi))
    )
    pairing = float(np.clip(pairing, -1.0, 1.0))
    if abs(pairing) > 1e-12:
        psi = psi / pairing_raw
        gap = max(0.0, (radius - _second_radius(Q, radius, phi, psi, w)) / radius)
    else:
        # defective radius: left and right eigenvectors (numerically)
        # orthogonal, no spectral projector to deflate with
        psi = psi / np.sqrt(np.sum(w * psi * psi))
        gap = 0.0

    return PerronResult(
        radius=radius,
        phi=phi,
        psi=psi,
        gap=gap,
        iterations=iterations,
        pairing=pairing,
        positive=bool(np.min(phi) > 0.0),
    )


def check_simplicity(res: PerronResult, simplicity_tol: float = 1e-8,
                     gap_tol: float = 1e-6) -> SimplicityCertificate:
    """Certificate that the radius is an algebraically simple eigenvalue.

    Reports the left-right eigenvector pairing and the spectral gap; never
    raises.
    """
    return SimplicityCertificate(
        pairing=res.pairing,
        gap=res.gap,
        simplicity_tol=simplicity_tol,
        gap_tol=gap_tol,
        passed=bool(res.pairing > simplicity_tol and res.gap > gap_tol),
    )


def bifurcation_point(spec: ModelSpec, g: Grid) -> BifurcationPoint:
    """Critical intensity and eigenvectors where the positive branch starts.

    The critical value is the reciprocal spectral radius of the birth-return
    map at zero density.  Errors if the birth rate vanishes identically on the
    age grid, or if the computed eigenvector is not strictly positive.
    """
    if not np.any(spec.rate_table("b", np.zeros(g.n_x), g.a_nodes)):
        raise ValueError("birth rate at zero density vanishes on the entire age grid")

    Q0 = next_generation_operator(np.zeros((g.n_a + 1, g.n_x)), spec, g)
    res = perron_eigenpair(Q0, tol=spec.eigen_tol, max_iter=spec.power_max_iter,
                           weights=g.w_x)
    if not res.positive:
        raise PositivityError(
            "dominant eigenvector has a non-positive entry; the return map is "
            "not strongly positive for this model"
        )
    return BifurcationPoint(lambda0=1.0 / res.radius, phi0=res.phi, psi0=res.psi,
                            perron=res)
