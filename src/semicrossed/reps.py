"""Finite matrix compressions of the covariant representation families.

Each layout puts coefficient values along a sequence of points on band k
(power k of the shift), through one of two placements (numpy complex128,
entries indexed from 0):

* ``_chain``, an open chain: column c of band k goes to (c+k, c).
* ``_cycle``, a p-cycle at a unit scalar lambda: column c of band k goes to
  ((c+k) mod p, c) times lambda^k (lambda scales the shift) or
  lambda^((c+k)//p) (lambda sits on the wraparound entry,
  ``norms.twisted_periodic_matrix``).

Four public families call them: ``orbit_matrix`` (chain along a forward
orbit, M[i+k, i] = f_k(x_i); ``orbit_bands`` returns just those bands),
``periodic_matrix`` (cycle over a period-p point), ``bilateral_matrix``
(chain over the two-sided orbit of an extended point, coordinates -M..M)
and ``backward_matrix`` (right-form elements along a backward orbit, band
entries read at the row's coordinate).  The two relations give opposite
algebras, so the backward layout is the forward orbit truncation at the
orbit's last coordinate, flipped and transposed.  All of them read
``functions._orbit_values`` once per forward orbit: on an extended point,
coordinate j-1 is phi(coordinate j).

``covariance_defect`` measures the defining relation on any of these and
``invariant_subspaces_are_tails`` decides whether a list of base functions
separates the first n points of a forward orbit, which is what leaves the
tails as the only subspaces invariant under the orbit representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .elements import (
    Element,
    RightFormElement,
    from_base,
    from_right_form,
    require_semicrossed,
    to_right_form,
)
from .errors import BadLambda, OrbitCollision, WindowTooSmall, WrongForm
from .extension import ExtPoint, PeriodicLift, periodic_lift
from .functions import BaseFunction, _orbit_values, compose_map
from .systems import Point, System, forward_orbit, point_key

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


def _coeff_orbits(sys: System, coeffs, x: Point, n: int) -> dict[int, np.ndarray]:
    """{k: f_k at x, phi(x), ..., phi^(n-1)(x)} for the (k, f_k) pairs in coeffs."""
    return dict(zip([k for k, _ in coeffs], _orbit_values(sys, [f.base for _, f in coeffs], x, n)))


def _lift_orbits(sys: System, coeffs, xt: ExtPoint, offset: int, n: int) -> dict[int, np.ndarray]:
    """{k: f_k along the n-point forward orbit of xt.coordinate(offset + f_k.depth)},
    one ``_orbit_values`` batch per depth, in coefficient order (the order
    ``_cycle`` adds entries that share a position in)."""
    rows: dict[int, np.ndarray] = {}
    for d in {f.depth: None for _, f in coeffs}:
        group = [(k, f) for k, f in coeffs if f.depth == d]
        rows |= _coeff_orbits(sys, group, xt.coordinate(offset + d), n)
    return {k: rows[k] for k, _ in coeffs}


# ---------------------------------------------------------------------------
# band placement: the only code that puts values into matrix entries


def _chain(values, n: int) -> np.ndarray:
    """n x n open chain: values[k][..., i] goes to (c+k, c) with c = max(0, -k) + i,
    one chain per leading index of the values."""
    out = np.zeros(np.shape(next(iter(values.values()), ()))[:-1] + (n, n), dtype=complex)
    for k, vals in values.items():
        cols = max(0, -k) + np.arange(np.shape(vals)[-1])
        out[..., cols + k, cols] = vals
    return out


def _cycle(values, p: int, lam: complex, wraps: bool = False) -> np.ndarray:
    """p x p cycle: values[k][c] times lam^e at ((c+k) mod p, c), with e = k,
    or with ``wraps`` the wrap count (c+k) // p.

    Each power of lam is one Python ``complex ** int``, and entries that
    share a position (p <= band) are added in coefficient order.
    """
    cols = np.arange(p)
    out = np.zeros((p, p), dtype=complex)
    for k, vals in values.items():
        vals = np.asarray(vals, dtype=complex)
        exps = (cols + k) // p if wraps else np.full(p, k)
        for e in range(exps[0], exps[-1] + 1):  # exps never decreases along c
            at = exps == e
            out[(cols[at] + k) % p, cols[at]] += lam**e * vals[at]
    return out


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
    out = np.zeros((el.max_power + 1, n), dtype=complex)
    for k, vals in _coeff_orbits(sys, [(k, f) for k, f in el.coeffs if k < n], x, n).items():
        out[k, : n - k] = vals[: n - k]
    return out


def _scatter_bands(bands: np.ndarray, n: int) -> np.ndarray:
    """Leading n x n block of the lower-banded matrix with bands V[..., k, c] = M[c+k, c],
    one block per leading index of the bands."""
    return _chain({k: bands[..., k, : n - k] for k in range(min(bands.shape[-2], n))}, n)


def orbit_matrix(sys: System, x: Point, el: Element, n: int) -> np.ndarray:
    """n x n compression of the forward-orbit representation at x.

    Requires a semicrossed element; band k holds f_k evaluated along the
    first n-k orbit points.
    """
    return _scatter_bands(orbit_bands(sys, x, el, n), n)


def periodic_matrix(sys: System, y: Point, lam: complex, el: Element) -> np.ndarray:
    """p x p periodic-orbit representation with the shift scaled by lambda:
    the periodic-lift representation at the lift through the period-p point
    y (raises NotPeriodic otherwise)."""
    require_semicrossed(el)
    lam = _check_lambda(lam)
    return periodic_ext_matrix(sys, periodic_lift(sys, y), lam, el)


def periodic_ext_matrix(sys: System, lift: PeriodicLift, lam: complex, el: Element) -> np.ndarray:
    """Periodic representation over a periodic lift; accepts any element.

    Coefficients of depth > 1 and negative powers are meaningful here
    because the lift carries the whole backward orbit.
    """
    lam = _check_lambda(lam)
    p = lift.period
    return _cycle(_lift_orbits(sys, el.coeffs, lift, 0, p), p, lam)


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
    rows = _lift_orbits(sys, el.coeffs, xt, m, size)
    return _chain({k: vals[max(0, -k) : size - max(0, k)] for k, vals in rows.items()}, size)


def backward_matrix(sys: System, orbit_pt: ExtPoint, g: RightFormElement, n: int) -> np.ndarray:
    """n x n backward-orbit representation of a right-form element.

    Band k holds g_k evaluated at the row's backward-orbit coordinate:
    M[i, i-k] = g_k(x_{i+1}) with x_j the j-th coordinate of the orbit.
    Coordinates 1..n are the forward orbit of coordinate n reversed, so M is
    the flipped transpose of that point's forward-orbit truncation.
    """
    if not isinstance(g, RightFormElement):
        raise WrongForm("backward-orbit representations take right-form elements")
    if any(k < 0 or f.depth != 1 for k, f in g.coeffs):
        raise WrongForm("right-form element must have nonnegative powers and depth-1 coefficients")
    if n < 1:
        raise ValueError("size must be >= 1")
    return orbit_matrix(sys, orbit_pt.coordinate(n), from_right_form(g), n)[::-1, ::-1].T


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
    backward = isinstance(spec, BackwardOrbitRep)
    if relation is None:
        relation = 2 if backward else 1
    if relation not in (1, 2):
        raise ValueError("relation must be 1 or 2")
    form = to_right_form if backward else (lambda el: el)
    els = [form(from_base(sys, g)) for g in (f, compose_map(sys, f))]
    df, dphi = (np.diag(rep_matrix(sys, spec, el)) for el in els)
    n = len(df)
    # rho(U) is placed directly: the bilateral layout of U needs half width >= 1
    if isinstance(spec, PeriodicOrbitRep):
        rho_u = _cycle({1: np.ones(n)}, n, _check_lambda(spec.lam))
    else:
        rho_u = _chain({1: np.ones(n - 1)}, n)
    # rho(f) is diagonal in every layout, so the commutator entry factors as
    # (value difference) * u[i, j]; the factored form keeps exact symbolic
    # evaluations exactly covariant where matmul rounding would not.
    if relation == 1:
        defect = (df[:, None] - dphi[None, :]) * rho_u
    else:
        defect = (df[None, :] - dphi[:, None]) * rho_u
    return float(np.linalg.norm(defect, 2))


# ---------------------------------------------------------------------------
# invariant coordinate subspaces


def invariant_subspaces_are_tails(
    sys: System, x: Point, funcs: Sequence[BaseFunction], n: int
) -> bool:
    """True when the listed base functions separate the first n orbit points.

    The compressed shift is one nilpotent Jordan block, so its only invariant
    subspaces are the tails whatever the functions are.  The functions
    contribute separation (each pair i != j has a function whose values differ
    by more than the fixed tolerance 1e-12; a NaN never counts): exactly then
    their diagonals and the identity generate every coordinate projection.
    That is the part that carries to the full orbit representation, where the
    projections leave only coordinate subspaces and the shift only the tails
    among them.  Raises OrbitCollision if the first n orbit points repeat.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    orbit = forward_orbit(sys, x, n)
    if len({point_key(p) for p in orbit}) != n:
        raise OrbitCollision("forward orbit repeats inside the window")
    vals = _orbit_values(sys, list(funcs), x, n)
    gaps = np.abs(vals[:, :, None] - vals[:, None, :]) > 1e-12
    return bool((gaps.any(axis=0) | np.eye(n, dtype=bool)).all())
