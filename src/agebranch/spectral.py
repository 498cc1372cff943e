"""Perron eigenpairs of the birth-return map and the bifurcation point.

The return map assembled at zero density is entrywise nonnegative and compact
at the discrete level, so its spectral radius carries a positive eigenvector.
The critical fertility intensity is the reciprocal of that radius; left and
right eigenvectors certify simplicity and transversality of the crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoPositiveEigenvalueError, PositivityError
from .model import Grid, ModelSpec, SpatialField
from .operators import _load_flapack, next_generation_operator

dgeev = _load_flapack().dgeev

_RADIUS_FLOOR = 1e-14


@dataclass(frozen=True)
class PerronResult:
    """Dominant eigenpair of a nonnegative operator.

    ``phi`` is normalized to max entry one; ``psi`` is the left eigenvector in
    the dx-weighted inner product, scaled so that ``<psi, phi>_w = 1`` when
    the pairing allows it.  ``pairing`` is the cosine of the angle between the
    left and right eigenvectors (1 for weighted-self-adjoint operators, ~0 for
    a defective radius) and ``gap`` is ``1 - |second eigenvalue| / radius``,
    the second eigenvalue being the largest in modulus of the others.
    """

    radius: float
    phi: SpatialField
    psi: SpatialField
    gap: float
    pairing: float
    positive: bool


@dataclass(frozen=True)
class SimplicityCertificate:
    pairing: float
    gap: float
    passed: bool


@dataclass(frozen=True)
class BifurcationPoint:
    lambda0: float
    phi0: SpatialField
    psi0: SpatialField
    perron: PerronResult


def perron_eigenpair(Q: np.ndarray, weights: np.ndarray | None = None) -> PerronResult:
    """Spectral radius and positive eigenvector of a nonnegative operator.

    One LAPACK ``dgeev`` gives every eigenvalue with its left and right
    eigenvectors.  The radius of a nonnegative matrix is its eigenvalue of
    largest real part; the left vector is taken to the adjoint in the
    weighted inner product, and the gap compares the largest modulus among
    the other eigenvalues with the radius.  Negative or non-finite entries
    are rejected before LAPACK sees the matrix.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"operator must be square, got shape {Q.shape}")
    # two reductions pass valid entries: NaN fails the first test, inf the second
    if not (Q.min() >= 0.0 and Q.max() < np.inf):
        if not np.all(np.isfinite(Q)):
            raise ValueError("operator has non-finite entries")
        raise ValueError("operator has negative entries")
    w = np.ones(Q.shape[0]) if weights is None else np.asarray(weights, dtype=float)

    wr, wi, vl, vr, info = dgeev(Q)
    if info != 0:
        raise ArithmeticError(f"LAPACK dgeev failed (info {info})")
    k = int(np.argmax(wr))
    radius = float(wr[k])
    if radius < _RADIUS_FLOOR:
        raise NoPositiveEigenvalueError(
            f"no positive eigenvalue: radius {radius:.3e} below floor"
        )
    others = np.delete(np.hypot(wr, wi), k)
    gap = max(0.0, 1.0 - others.max() / radius) if others.size else 1.0

    # unit vectors of either sign: scale each by its entry of largest modulus
    phi = vr[:, k] / vr[np.argmax(np.abs(vr[:, k])), k]
    # a left vector l of Q is the weighted-adjoint eigenvector l / w
    psi = vl[:, k] / w
    psi = psi / psi[np.argmax(np.abs(psi))]

    pairing_raw = float(np.sum(w * psi * phi))
    pairing = pairing_raw / float(
        np.sqrt(np.sum(w * psi * psi)) * np.sqrt(np.sum(w * phi * phi))
    )
    pairing = float(np.clip(pairing, -1.0, 1.0))
    if abs(pairing) > 1e-12:
        psi = psi / pairing_raw
    else:
        # defective radius: left and right eigenvectors (numerically)
        # orthogonal, no pairing to normalise against
        psi = psi / np.sqrt(np.sum(w * psi * psi))

    return PerronResult(
        radius=radius,
        phi=phi,
        psi=psi,
        gap=gap,
        pairing=pairing,
        positive=bool(np.min(phi) > 0.0),
    )


def check_simplicity(res: PerronResult, simplicity_tol: float,
                     gap_tol: float) -> SimplicityCertificate:
    """Certificate that the radius is an algebraically simple eigenvalue.

    Reports the left-right eigenvector pairing and the spectral gap, which
    must exceed ``simplicity_tol`` and ``gap_tol`` (``ModelSpec`` holds the
    thresholds of a run); never raises.
    """
    return SimplicityCertificate(
        pairing=res.pairing,
        gap=res.gap,
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

    Q0 = next_generation_operator(np.zeros(g.n_x), spec, g)
    res = perron_eigenpair(Q0, weights=g.w_x)
    if not res.positive:
        raise PositivityError(
            "dominant eigenvector has a non-positive entry; the return map is "
            "not strongly positive for this model"
        )
    return BifurcationPoint(lambda0=1.0 / res.radius, phi0=res.phi, psi0=res.psi,
                            perron=res)
