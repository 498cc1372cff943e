"""Discrete operators: diffusion-death assembly, age march, birth integral.

The elliptic part is a conservative finite-difference operator on the uniform
spatial grid with zero-flux (Neumann) closure by ghost-node reflection.  Face
diffusivities are arithmetic means of the nodal values.  The age direction is
integrated by implicit Euler, which keeps the M-matrix sign pattern and hence
preserves nonnegativity unconditionally.

Every age march runs through one kernel.  ``W A`` is symmetric, so each step
``M = I + da * A`` is solved as the SPD M-matrix ``S = D M D^-1``,
``D = diag(1/sqrt2, 1, ..., 1, 1/sqrt2)``, on the state ``D w``.  The systems
of one frozen population are factored once, by one LAPACK ``dpttrf``
(LDL^T): a single system when the death rate has no age axis or the same row
at every age, else the block of all ages with zero coupling between them.
A march under a single system on at most 64 nodes advances each age step by
one BLAS product with that system's inverse, tabulated by one ``dpttrs`` on
the identity: cheaper than ``dpttrs``'s serial recurrence per column.  Above
64 nodes numpy's OpenBLAS threads the products, and its threads slow the
LAPACK calls between marches, so there, as under an age-dependent death rate,
each age step is one ``dpttrs`` solve in place on the factor of its age.  The
return map's age sum of the identity march takes the inverse's powers by
binary doubling when the birth rate is age-free too.  The transient's cohorts
are the right-hand sides of one ``dpttrs`` (Golub & Van Loan, Matrix
Computations, 4.3; LAPACK Users' Guide, 3rd ed.).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .model import (
    AgeSpaceField,
    Grid,
    ModelSpec,
    SpatialField,
    check_age_space,
    check_shape,
    check_spatial,
)

DenseOperator = np.ndarray

# memory cap on the age stack of one march of identity columns (return map,
# Jacobian du/dv): all columns at once on the shipped grids, 40 at 128 x 400
_STACK_BYTES = 16 * 2**20

# the widest grid whose marches and age sums under one step system take products
# with its inverse; wider grids solve each step.  numpy's OpenBLAS runs a
# product of at most 64^3 multiply-adds on one thread and threads larger ones,
# whose spinning workers slow scipy's LAPACK calls between the marches: without
# this bound a logistic `continue` process at 128 x 400 (lambda_max_factor
# 1.075, BLAS threads unpinned, 2-core host) took 1.49 s instead of 1.01 s
_INVERSE_MAX_NODES = 64

_SQRT2 = np.sqrt(2.0)
_RSQRT2 = 1.0 / _SQRT2


@functools.cache
def _d_scale(n: int) -> np.ndarray:
    """The diagonal of ``D`` on ``n`` nodes, read-only."""
    scale = np.ones(n)
    scale[[0, -1]] = _RSQRT2
    scale.flags.writeable = False
    return scale


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded without the ``scipy.linalg``
    package: its ``__init__`` builds scipy's array-API layer, which touches
    every lazy numpy submodule (f2py, testing, ma, ...) and costs about 0.3 s
    of each CLI start.  The extension imports only numpy.  It is registered
    under its own name, so a later ``import scipy.linalg`` reuses it."""
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy_dir, "linalg")])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_flapack = _load_flapack()
dpttrf, dpttrs = _flapack.dpttrf, _flapack.dpttrs


def solve_banded(*args, **kwargs):
    """``scipy.linalg.solve_banded``, imported on first call: only the test
    oracle ``EllipticOperator.solve_shifted`` uses it."""
    from scipy.linalg import solve_banded as solve
    return solve(*args, **kwargs)


@dataclass(frozen=True)
class EllipticOperator:
    """Tridiagonal diffusion-death operator acting on spatial fields.

    Row sums equal the nodal reaction coefficients (the diffusion part
    annihilates constants), and the dx-weighted matrix ``W A`` is symmetric.
    Assembled at an array of ages, ``diag`` is stacked ages first and ``apply``
    broadcasts over leading axes; ``solve_shifted`` takes one age.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        out = self.diag * w
        out[..., :-1] += self.upper * w[..., 1:]
        out[..., 1:] += self.lower * w[..., :-1]
        return out

    def solve_shifted(self, step: float, rhs):
        """Solve ``(I + step * A) w = rhs``; rhs may carry extra RHS columns.
        Kept apart from the age-march kernel as its test oracle."""
        ab = np.zeros((3, self.diag.size))
        ab[0, 1:] = step * self.upper
        ab[1, :] = 1.0 + step * self.diag
        ab[2, :-1] = step * self.lower
        w = solve_banded((1, 1), ab, rhs, check_finite=False)
        if not np.all(np.isfinite(w)):
            raise ArithmeticError("shifted solve produced non-finite values")
        return w


def _diffusion_bands(U: np.ndarray, spec: ModelSpec, g: Grid):
    """Symmetric coupling (n_x - 1,) and diagonal (n_x,) of the diffusion part
    at the frozen population ``U``; the coupling of each face is
    ``-face / dx^2``.

    Face diffusivities are arithmetic means of nodal values.  The ghost nodes
    of the Neumann closure reflect the nodes next to the boundary, so each
    boundary row sees its single face twice.
    """
    d_nodes = spec.eval_d(U)
    ghosted = np.concatenate((d_nodes[1:2], d_nodes, d_nodes[-2:-1]))
    face = 0.5 * (ghosted[:-1] + ghosted[1:])
    inv_dx2 = 1.0 / g.dx**2
    return face[1:-1] * -inv_dx2, (face[:-1] + face[1:]) * inv_dx2


def assemble_elliptic(U: SpatialField, age, spec: ModelSpec, g: Grid) -> EllipticOperator:
    """Assemble the diffusion-death operator at total population ``U`` for a
    scalar ``age``, or for a 1-D array of ages at once with ``diag`` stacked."""
    U = check_spatial(U, g, "total population")
    outside = np.extract((age < -1e-12) | (age > spec.a_max * (1.0 + 1e-12)), age)
    if outside.size:
        raise ValueError(f"age {outside[0]} outside [0, {spec.a_max}]")
    coupling, diag = _diffusion_bands(U, spec, g)
    upper, lower = coupling.copy(), coupling
    upper[0] *= 2.0
    lower[-1] *= 2.0
    mu = spec.rate_table("mu", U, np.reshape(age, -1)).reshape(np.shape(age) + U.shape)
    return EllipticOperator(lower=lower, diag=diag + mu, upper=upper)


def _age_systems(U: np.ndarray, spec: ModelSpec, g: Grid, ages: np.ndarray):
    """LDL^T factors of the symmetrized implicit age-step systems
    ``S = D (I + da * A(U, a)) D^-1`` at ``ages`` for one frozen population
    ``U`` (n_x,), from one ``mu`` table (one coefficient call and bound
    check) and one LAPACK ``dpttrf``.  The off-diagonal of ``S`` is ``da``
    times the face coupling, times ``sqrt2`` on the two boundary faces that
    the Neumann closure doubles.

    Returns the factor diagonals and off-diagonals ``(d, e)``, both
    (rows, n_x), ``e`` with a zero last column.  A ``mu`` without an age axis,
    or with the same row at every age, gives one system for every age,
    ``rows = 1``; otherwise row ``k`` factors the step at ``ages[k]``, all
    rows as one block tridiagonal system whose zero coupling between ages
    leaves each row's factor as if factored alone.
    """
    coupling, dif_diag = _diffusion_bands(U, spec, g)
    diag = _one_row(spec.rate_table("mu", U, ages)) + dif_diag
    diag *= g.da
    diag += 1.0
    off = np.zeros(diag.shape)
    np.multiply(coupling, g.da, out=off[:, :-1])
    off[:, :-1:g.n_x - 2] *= _SQRT2  # the first and last face
    # factored in place: the tables become the factors
    info = dpttrf(diag.reshape(-1), off.reshape(-1)[:-1], overwrite_d=True, overwrite_e=True)[-1]
    if info > 0:
        number = g.da * -coupling.min()  # the largest da * d / dx^2
        raise ArithmeticError(
            f"implicit age step is not positive definite (dpttrf info {info}); largest diffusion "
            f"number da*d/dx^2 {number:.3e}" + ("" if number < 1.0 / np.finfo(float).eps else
            ", at or above 1/eps: the step rounds to the singular Neumann Laplacian"))
    return diag, off


def _one_row(table: np.ndarray) -> np.ndarray:
    """``table[:1]`` when every age has the same row, else ``table``; the
    scalar test first, so an age-dependent table pays no pass over it."""
    same = table.strides[0] == 0 or table[-1, 0] == table[0, 0] and (table == table[0]).all()
    return table[:1] if same else table


def _step_inverse(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The inverse of one symmetrized step system ``S`` from its LDL^T factor
    row ``(d, e)`` of ``_age_systems``, by one ``dpttrs`` on the identity.
    Each solve of the nonpositive-coupled factor only adds nonnegative terms,
    so the inverse is entrywise nonnegative, as the M-matrix's is."""
    return dpttrs(d, e[:-1], np.eye(d.size, order="F"), overwrite_b=True)[0]


def _check_finite(w: np.ndarray) -> np.ndarray:
    if not np.isfinite(w).all():
        raise ArithmeticError(
            "implicit age step produced non-finite values; the shifted "
            "operator should be an invertible M-matrix for mu >= 0"
        )
    return w


def evolve(U, w0, spec: ModelSpec, g: Grid,
           source: np.ndarray | tuple | None = None, factors: tuple | None = None) -> np.ndarray:
    """March the linear age problem from trace ``w0`` by implicit Euler.

    Solves ``d_age w + A(U, age) w = source`` with ``w(0) = w0``, where the
    operator is frozen at the supplied total population ``U`` (n_x,) (age
    enters only through the death rate).  With ``source=None`` this is the
    positive evolution from age zero applied to ``w0``; supplying both a
    source and a trace gives the general inhomogeneous solve.

    ``w0`` is one trace (n_x,) or m columns (n_x, m), marched together.  When
    every age has the same step system and ``n_x <= _INVERSE_MAX_NODES`` (64;
    wider products run threaded, see there), the inverse of that system is
    tabulated once and each age step is one product with it, written into
    the next row of the result; otherwise each age step is one multi-RHS
    solve on the factor of its age.  The result has the age axis first,
    shape (n_a + 1,) + ``w0.shape``, and ``source``, when given as an array,
    has the shape of the result.

    With ``n_x`` columns, ``source`` may instead be the diagonals
    ``(lower, diag, upper)``, of shapes (n_a + 1, n_x - 1), (n_a + 1, n_x)
    and (n_a + 1, n_x - 1), of one tridiagonal matrix per age whose column
    ``j`` is the source of column ``j``: entry ``[j + 1, j]`` of the matrix at
    age ``k`` is ``lower[k, j]`` and entry ``[j, j + 1]`` is ``upper[k, j]``.
    The three diagonals are added in place to the column-major march state
    before each age step; no dense source is formed.  ``factors`` are the
    ``(d, e)`` of :func:`_age_systems` at ``g.a_nodes`` if the caller has them.
    """
    U = check_spatial(U, g, "total population")
    w0 = check_shape(w0, (g.n_x,) + np.shape(w0)[1:2], "initial trace")
    n = g.n_x
    # the march carries D w column-major, (n_x,) or (n_x, m), so that every
    # step solves it in place
    w = np.array(w0, order="F")
    w[::n - 1] *= _RSQRT2
    out = np.empty((g.n_a + 1,) + w.shape)
    banded = isinstance(source, tuple)
    if banded:
        if w0.shape != (n, n):
            raise ValueError(f"a banded source marches {n} columns, "
                             f"not initial traces of shape {w0.shape}")
        # scaled once by da and by D (rows 0 and n - 1); entries [1::n+1],
        # [::n+1] and [n::n+1] of the flat state are the sub-, main and
        # superdiagonal, disjoint, so one indexed add per step adds all three
        bands = [g.da * check_shape(band, (g.n_a + 1, n - off), f"source {name}")
                 for band, name, off in zip(source, ("lower", "diag", "upper"), (1, 0, 1))]
        bands[0][:, -1] *= _RSQRT2
        bands[1][:, ::n - 1] *= _RSQRT2
        bands[2][:, 0] *= _RSQRT2
        band_at = np.concatenate([np.arange(start, n * n, n + 1) for start in (1, 0, n)])
        bands = np.concatenate(bands, axis=1)
        flat = w.reshape(-1, order="F")
    elif source is not None:
        src = g.da * check_shape(source, out.shape, "source")
        src[:, ::n - 1] *= _RSQRT2

    d, e = _age_systems(U, spec, g, g.a_nodes) if factors is None else factors
    inverse = _step_inverse(d[0], e[0]) if len(d) == 1 and n <= _INVERSE_MAX_NODES else None
    if inverse is None:
        d, e = (np.broadcast_to(f, out.shape[:1] + f.shape[1:]) for f in (d, e))
    for k in range(1, g.n_a + 1):
        if banded:
            flat[band_at] += bands[k]
        elif source is not None:
            w += src[k]
        if inverse is None:
            # the factor of this age: one row repeated, or one row per age
            dpttrs(d[k], e[k, :-1], w, overwrite_b=True)
            out[k] = w
        elif source is None:
            w = np.dot(inverse, w, out=out[k])
        else:
            # the state stays the source's buffer
            w[...] = np.dot(inverse, w, out=out[k])
    out[:, ::n - 1] *= _SQRT2
    out[0] = w0
    return _check_finite(out)


def advance_cohorts(U: SpatialField, u: AgeSpaceField, spec: ModelSpec, g: Grid,
                    out: np.ndarray | None = None) -> np.ndarray:
    """One implicit age step for every cohort of ``u`` under one frozen ``U``.

    Row ``k - 1`` of ``u`` moves to age node ``k``, solving
    ``(I + da * A(U, a_k)) w = u[k - 1]`` for k = 1..n_a, by one ``dpttrs``
    in place: with a death rate without an age axis the n_a cohorts are the
    right-hand sides of the one factored system, otherwise one block system
    of all ages.  The cohorts are copied and scaled by ``D`` in one pass.
    Returns the (n_a, n_x) rows at ages 1..n_a, written into ``out`` when
    given (C-contiguous).  ``U`` and ``u`` are used as given: a stepper
    validates its field once, not per step.
    """
    n = g.n_x
    out = np.empty((g.n_a, n)) if out is None else out
    d, e = _age_systems(U, spec, g, g.a_nodes[1:])
    np.multiply(u[:-1], _d_scale(n), out=out)
    if len(d) == 1:
        dpttrs(d[0], e[0, :-1], out.T, overwrite_b=True)
    else:
        dpttrs(d.reshape(-1), e.reshape(-1)[:-1], out.reshape(-1), overwrite_b=True)
    out[:, ::n - 1] *= _SQRT2
    return _check_finite(out)


def birth_functional(V: SpatialField, u: AgeSpaceField, lam: float,
                     spec: ModelSpec, g: Grid) -> SpatialField:
    """Age integral ``lam * int b(V(x), a) u(a, x) da`` by the trapezoid rule.

    ``V`` is the total population of the field that defines the nonlinearity;
    keeping it consistent with ``u`` is the caller's responsibility.
    """
    V = check_spatial(V, g, "density argument")
    u = check_age_space(u, g, "age-space field")
    return lam * np.einsum("k,kn,kn->n", g.w_a, spec.rate_table("b", V, g.a_nodes), u)


def identity_age_sums(U: SpatialField, b: np.ndarray, factors: tuple, spec: ModelSpec,
                      g: Grid, plain: bool = False) -> tuple[DenseOperator, DenseOperator | None]:
    """Trapezoid sums over ages of the identity march ``E_k`` (row ``k`` of
    ``evolve(U, I)`` on the ``factors`` of :func:`_age_systems` under ``U``):
    ``sum_k w_k diag(b[k]) E_k`` for the ``b`` table at ``U`` and, with
    ``plain``, ``K = sum_k w_k E_k``.  Under one step system on at most
    ``_INVERSE_MAX_NODES`` nodes and a ``b`` of one row, ``E_k = D^-1 P^k D``
    (``P`` the step inverse) and ``K = D^-1 (da T + da/2 (P^n_a - I)) D``
    with ``T = sum_{k < n_a} P^k``; ``T_2m = (I + P^m) T_m`` and ``T_m+1 =
    T_m + P^m`` over the bits of ``n_a`` (Knuth, TAOCP 2, 4.6.3) take
    ``~2 log2 n_a`` products, not ``n_a``, summing the march's nonnegative
    terms in another order.  Else the identity is marched in as many columns
    at a time as keep one stack within ``_STACK_BYTES``."""
    (d, e), n = factors, g.n_x
    if len(d) == 1 and n <= _INVERSE_MAX_NODES and len(row := _one_row(b)) == 1:
        step = _step_inverse(d[0], e[0])
        power, total = step, np.eye(n)  # P^m and T_m at m = 1
        for bit in bin(g.n_a)[3:]:
            total += power @ total
            power = power @ power
            if bit == "1":
                total += power
                power = power @ step
        K = g.da * total + 0.5 * g.da * (power - np.eye(n))
        K = _check_finite(K * (_d_scale(n) / _d_scale(n)[:, None]))
        return row[0][:, None] * K, K
    wb, eye = g.w_a[:, None] * b, np.eye(n)
    width = max(1, _STACK_BYTES // ((g.n_a + 1) * n * eye.itemsize))
    weighted, K = np.empty((n, n)), np.empty((n, n)) if plain else None
    for cols in (np.s_[j:j + width] for j in range(0, n, width)):
        marched = evolve(U, eye[:, cols], spec, g, factors=factors)
        np.einsum("kn,knj->nj", wb, marched, out=weighted[:, cols])
        if plain:
            np.einsum("k,knj->nj", g.w_a, marched, out=K[:, cols])
        del marched  # so that the next march reuses its memory
    return weighted, K


def next_generation_operator(U: SpatialField, spec: ModelSpec, g: Grid) -> DenseOperator:
    """Dense birth-return map on traces, frozen at the total population ``U``.

    Column ``j`` equals ``birth_functional(U, evolve(U, e_j), 1)``: newborns
    placed at node ``j`` are evolved through all ages and weighted by the
    birth rate: the weighted age sum of :func:`identity_age_sums`,
    ``diag(b) K`` when ``b`` is age-free.
    """
    U = check_spatial(U, g, "total population")
    b = spec.rate_table("b", U, g.a_nodes)
    return identity_age_sums(U, b, _age_systems(U, spec, g, g.a_nodes), spec, g)[0]
