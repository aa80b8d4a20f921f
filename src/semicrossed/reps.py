"""Finite matrix compressions of the covariant representation families.

Four layouts (all numpy complex128, entries indexed from 0):

* orbit truncation      -- n x n along a forward orbit; the shift is the
  lower subdiagonal, so power k of an element lands on band k with
  M[i+k, i] = f_k(x_i) evaluated at the column's orbit point
  (``orbit_bands`` returns just those bands).
* periodic orbit        -- p x p over a period-p point; the shift is the
  cyclic permutation scaled by a unit scalar lambda.
* bilateral window      -- (2M+1) x (2M+1) compression over the two-sided
  orbit of an extended point, coordinates -M..M.
* backward orbit        -- n x n for right-form (relation-2) elements along
  a backward orbit, with band entries evaluated at the row's coordinate.

``covariance_defect`` measures the defining relation on any of these and
``invariant_subspaces_are_tails`` enumerates coordinate subspaces invariant
under an orbit representation's generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .elements import Element, RightFormElement, require_semicrossed
from .errors import (
    BadLambda,
    NotPeriodic,
    OrbitCollision,
    WindowTooSmall,
    WrongForm,
)
from .extension import ExtPoint, PeriodicLift, project, shift_power
from .functions import BaseFunction, compose_map, evaluate, evaluate_base
from .systems import Point, System, classify, forward_orbit, point_key

# ---------------------------------------------------------------------------
# representation specs (used by covariance_defect and the CLI)


@dataclass(frozen=True)
class OrbitTruncation:
    point: Point
    size: int


@dataclass(frozen=True)
class PeriodicOrbitRep:
    point: Point
    lam: complex


@dataclass(frozen=True)
class BilateralWindowRep:
    point: ExtPoint
    half_width: int


@dataclass(frozen=True)
class BackwardOrbitRep:
    point: ExtPoint
    size: int


RepSpec = Union[OrbitTruncation, PeriodicOrbitRep, BilateralWindowRep, BackwardOrbitRep]


def _check_lambda(lam: complex) -> complex:
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise BadLambda(f"|lambda| = {abs(lam)!r} is not 1")
    return lam


def _cyclic_shift(p: int) -> np.ndarray:
    c = np.zeros((p, p), dtype=complex)
    for i in range(p):
        c[i, (i - 1) % p] = 1.0
    return c


def _twisted_shift(p: int, lam: complex) -> np.ndarray:
    # lambda on the wraparound entry instead of a global scalar; unitarily
    # equivalent to lam^(1/p) scaling and used for the periodic-vector check
    c = _cyclic_shift(p)
    c[0, p - 1] = lam
    return c


# ---------------------------------------------------------------------------
# matrix builders


def orbit_bands(sys: System, x: Point, el: Element, n: int) -> np.ndarray:
    """(band+1) x n band values of the n x n forward-orbit truncation at x.

    Requires a semicrossed element; row k holds V[k, c] = M[c+k, c] = f_k at
    the c-th orbit point, zero where c+k >= n.
    """
    require_semicrossed(el)
    if n < 1:
        raise ValueError("size must be >= 1")
    orbit = forward_orbit(sys, x, n)
    out = np.zeros((el.max_power + 1, n), dtype=complex)
    for k, f in el.coeffs:
        if k >= n:
            continue
        out[k, : n - k] = [evaluate_base(sys, f.base, orbit[i]) for i in range(n - k)]
    return out


def _scatter_bands(bands: np.ndarray, n: int) -> np.ndarray:
    """Leading n x n block of the lower-banded matrix with bands V[k, c] = M[c+k, c]."""
    out = np.zeros((n, n), dtype=complex)
    for k in range(min(bands.shape[0], n)):
        out[np.arange(k, n), np.arange(0, n - k)] = bands[k, : n - k]
    return out


def orbit_matrix(sys: System, x: Point, el: Element, n: int) -> np.ndarray:
    """n x n compression of the forward-orbit representation at x.

    Requires a semicrossed element; band k holds f_k evaluated along the
    first n-k orbit points.
    """
    return _scatter_bands(orbit_bands(sys, x, el, n), n)


def periodic_matrix(sys: System, y: Point, lam: complex, el: Element) -> np.ndarray:
    """p x p periodic-orbit representation with the shift scaled by lambda."""
    require_semicrossed(el)
    lam = _check_lambda(lam)
    cls = classify(sys, y)
    if not cls.is_periodic:
        raise NotPeriodic(f"point is {cls.kind}")
    p = cls.period
    orbit = forward_orbit(sys, y, p)
    shift_mat = lam * _cyclic_shift(p)
    return _assemble_periodic(
        shift_mat,
        {k: [evaluate_base(sys, f.base, pt) for pt in orbit] for k, f in el.coeffs},
        p,
    )


def periodic_ext_matrix(sys: System, lift: PeriodicLift, lam: complex, el: Element) -> np.ndarray:
    """Periodic representation over a periodic lift; accepts any element.

    Coefficients of depth > 1 and negative powers are meaningful here
    because the lift carries the whole backward orbit.
    """
    lam = _check_lambda(lam)
    p = lift.period
    pts = [shift_power(sys, lift, j) for j in range(p)]
    shift_mat = lam * _cyclic_shift(p)
    return _assemble_periodic(
        shift_mat,
        {k: [evaluate(sys, f, pt) for pt in pts] for k, f in el.coeffs},
        p,
    )


def _assemble_periodic(shift_mat: np.ndarray, diag_values, p: int) -> np.ndarray:
    out = np.zeros((p, p), dtype=complex)
    powers: dict[int, np.ndarray] = {0: np.eye(p, dtype=complex)}

    def shift_pow(k: int) -> np.ndarray:
        if k not in powers:
            if k > 0:
                powers[k] = shift_pow(k - 1) @ shift_mat
            else:
                powers[k] = np.linalg.inv(shift_mat) @ shift_pow(k + 1)
        return powers[k]

    for k, vals in diag_values.items():
        out += shift_pow(k) @ np.diag(np.asarray(vals, dtype=complex))
    return out


def bilateral_matrix(sys: System, xt: ExtPoint, el: Element, half_width: int) -> np.ndarray:
    """(2M+1) x (2M+1) window of the two-sided orbit representation.

    Column j (coordinate j-M) evaluates each coefficient at the j-M step of
    the extended point's orbit; raises WindowTooSmall when the element's
    band does not fit.
    """
    m = half_width
    band = max((abs(k) for k, _ in el.coeffs), default=0)
    if m < band:
        raise WindowTooSmall(f"half width {m} < band {band}")
    size = 2 * m + 1
    pts = [shift_power(sys, xt, j - m) for j in range(size)]
    out = np.zeros((size, size), dtype=complex)
    for k, f in el.coeffs:
        cols = np.arange(max(0, -k), min(size, size - k))
        rows = cols + k
        vals = [evaluate(sys, f, pts[j]) for j in cols]
        out[rows, cols] = vals
    return out


def backward_matrix(sys: System, orbit_pt: ExtPoint, g: RightFormElement, n: int) -> np.ndarray:
    """n x n backward-orbit representation of a right-form element.

    Band k holds g_k evaluated at the row's backward-orbit coordinate:
    M[i, i-k] = g_k(x_{i+1}) with x_j the j-th coordinate of the orbit.
    """
    if not isinstance(g, RightFormElement):
        raise WrongForm("backward-orbit representations take right-form elements")
    if any(k < 0 or f.depth != 1 for k, f in g.coeffs):
        raise WrongForm("right-form element must have nonnegative powers and depth-1 coefficients")
    if n < 1:
        raise ValueError("size must be >= 1")
    coords = [orbit_pt.coordinate(j) for j in range(1, n + 1)]
    out = np.zeros((n, n), dtype=complex)
    for k, f in g.coeffs:
        if k >= n:
            continue
        rows = np.arange(k, n)
        vals = [evaluate_base(sys, f.base, coords[i]) for i in rows]
        out[rows, rows - k] = vals
    return out


def rep_matrix(sys: System, spec: RepSpec, el) -> np.ndarray:
    """Dispatch an element (right-form for backward orbits) to its layout."""
    if isinstance(spec, OrbitTruncation):
        return orbit_matrix(sys, spec.point, el, spec.size)
    if isinstance(spec, PeriodicOrbitRep):
        return periodic_matrix(sys, spec.point, spec.lam, el)
    if isinstance(spec, BilateralWindowRep):
        return bilateral_matrix(sys, spec.point, el, spec.half_width)
    if isinstance(spec, BackwardOrbitRep):
        return backward_matrix(sys, spec.point, el, spec.size)
    raise TypeError(f"unknown representation spec {spec!r}")


# ---------------------------------------------------------------------------
# covariance defect


def covariance_defect(
    sys: System,
    spec: RepSpec,
    f: BaseFunction,
    relation: int | None = None,
) -> float:
    """Operator norm of the defining-relation defect for one base function.

    relation 1 checks rho(f) rho(U) - rho(U) rho(f∘phi); relation 2 checks
    rho(U) rho(f) - rho(f∘phi) rho(U).  The default matches the layout
    (relation 2 for backward orbits, relation 1 otherwise); passing the
    other relation demonstrates the mismatch.
    """
    if relation is None:
        relation = 2 if isinstance(spec, BackwardOrbitRep) else 1
    if relation not in (1, 2):
        raise ValueError("relation must be 1 or 2")
    rho_u, rho_f, rho_fphi = _relation_pieces(sys, spec, f)
    # rho(f) is diagonal in every layout, so the commutator entry factors as
    # (value difference) * u[i, j]; the factored form keeps exact symbolic
    # evaluations exactly covariant where matmul rounding would not.
    df = np.diagonal(rho_f)
    dphi = np.diagonal(rho_fphi)
    if relation == 1:
        defect = (df[:, None] - dphi[None, :]) * rho_u
    else:
        defect = (df[None, :] - dphi[:, None]) * rho_u
    return float(np.linalg.norm(defect, 2))


def _relation_pieces(sys: System, spec: RepSpec, f: BaseFunction):
    fphi = compose_map(sys, f)
    if isinstance(spec, OrbitTruncation):
        orbit = forward_orbit(sys, spec.point, spec.size)
        n = spec.size
        u = np.zeros((n, n), dtype=complex)
        u[np.arange(1, n), np.arange(0, n - 1)] = 1.0
        d = np.diag([evaluate_base(sys, f, x) for x in orbit])
        dphi = np.diag([evaluate_base(sys, fphi, x) for x in orbit])
        return u, d, dphi
    if isinstance(spec, PeriodicOrbitRep):
        lam = _check_lambda(spec.lam)
        cls = classify(sys, spec.point)
        if not cls.is_periodic:
            raise NotPeriodic(f"point is {cls.kind}")
        orbit = forward_orbit(sys, spec.point, cls.period)
        u = lam * _cyclic_shift(cls.period)
        d = np.diag([evaluate_base(sys, f, x) for x in orbit])
        dphi = np.diag([evaluate_base(sys, fphi, x) for x in orbit])
        return u, d, dphi
    if isinstance(spec, BilateralWindowRep):
        m = spec.half_width
        size = 2 * m + 1
        pts = [project(shift_power(sys, spec.point, j - m)) for j in range(size)]
        u = np.zeros((size, size), dtype=complex)
        u[np.arange(1, size), np.arange(0, size - 1)] = 1.0
        d = np.diag([evaluate_base(sys, f, x) for x in pts])
        dphi = np.diag([evaluate_base(sys, fphi, x) for x in pts])
        return u, d, dphi
    if isinstance(spec, BackwardOrbitRep):
        n = spec.size
        coords = [spec.point.coordinate(j) for j in range(1, n + 1)]
        u = np.zeros((n, n), dtype=complex)
        u[np.arange(1, n), np.arange(0, n - 1)] = 1.0
        d = np.diag([evaluate_base(sys, f, x) for x in coords])
        dphi = np.diag([evaluate_base(sys, fphi, x) for x in coords])
        return u, d, dphi
    raise TypeError(f"unknown representation spec {spec!r}")


# ---------------------------------------------------------------------------
# invariant coordinate subspaces


def invariant_subspaces_are_tails(
    sys: System,
    x: Point,
    funcs: Sequence[BaseFunction],
    n: int,
    tol: float = 1e-12,
) -> bool:
    """True when the only invariant coordinate subspaces are the tails.

    Builds the n x n orbit matrices of the shift and of each listed base
    function, then enumerates all 2^n coordinate subsets (n <= 12): a subset
    S is invariant when every generator maps span{e_i : i in S} into itself.
    The expected family is the empty set plus the suffix subspaces
    {k, ..., n-1}.  Raises OrbitCollision if the first n orbit points repeat.
    """
    if n < 1 or n > 12:
        raise ValueError("n must be between 1 and 12")
    orbit = forward_orbit(sys, x, n)
    keys = [point_key(p) for p in orbit]
    if len(set(keys)) != n:
        raise OrbitCollision("forward orbit repeats inside the window")
    mats = [np.zeros((n, n), dtype=complex)]
    mats[0][np.arange(1, n), np.arange(0, n - 1)] = 1.0
    for f in funcs:
        mats.append(np.diag([evaluate_base(sys, f, p) for p in orbit]))
    expected = {frozenset()} | {frozenset(range(k, n)) for k in range(n)}
    found = set()
    for mask in range(2 ** n):
        s = frozenset(i for i in range(n) if mask >> i & 1)
        comp = [i for i in range(n) if i not in s]
        cols = list(s)
        if all(
            np.max(np.abs(m[np.ix_(comp, cols)])) <= tol if comp and cols else True
            for m in mats
        ):
            found.add(s)
    return found == expected
