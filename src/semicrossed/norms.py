"""Certified norm brackets for elements and the associated comparisons.

The norm of a semicrossed element is the larger of two suprema: orbit
representations over all points (estimated from below by sampled truncations,
bounded above by the coefficient l1 sum) and periodic-orbit representations
over all periodic points and unit scalars (sampled on a lambda grid with a
Lipschitz certificate).  The comparison helpers measure, at finite size, the
identities that make those families cofinal: the periodic-vector transfer,
the bilateral-window versus orbit-supremum agreement, and the isometric
embedding into the extension's crossed product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import Element, l1_upper_bound, require_semicrossed
from .errors import NonFinite, NotPeriodic, WindowTooSmall
from .extension import ExtPoint
from .functions import NormBracket, ext_sup_norm
from .reps import (
    _check_lambda,
    _coeff_orbits,
    _cycle,
    _lambda_sum,
    _period,
    _scatter_bands,
    bilateral_matrix,
    orbit_bands,
    orbit_matrix,
)
from .systems import Point, System, classify, point_key


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value (deterministic SVD path)."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    if not np.all(np.isfinite(mat.view(float) if mat.dtype == complex else mat)):
        raise NonFinite("matrix has non-finite entries")
    return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class NormEstimate:
    """Bracket plus the monotone evidence trail that produced it."""

    bracket: NormBracket
    traces: tuple[tuple[str, float], ...]
    witness: str


def _ladder(n_max: int) -> list[int]:
    out = []
    n = 4
    while n < n_max:
        out.append(n)
        n *= 2
    out.append(n_max)
    return out


def orbit_norm_estimate(
    sys: System,
    el: Element,
    points: Sequence[Point],
    n_max: int = 256,
) -> NormEstimate:
    """Orbit-representation supremum: sampled truncations below, l1 above.

    Truncation norms increase in n (compressions), so the trace of running
    maxima over the size ladder is nondecreasing and its last entry is the
    certified lower bound.

    The lower end is the largest dense-SVD norm ``spectral_norm`` of an
    n x n truncation M_n(x) over the sample points x and the ladder sizes n.
    A cell (x, n) whose SVD cannot move that maximum is skipped: for each n,
    power iteration on all points gives a floor T_n <= max_x ||M_n(x)||, and
    a banded LDL^H of T_n^2 (1 - delta) I - M_n M_n^H with only positive
    pivots proves ||M_n(x)|| < T_n.  The slack delta = _SKIP_SLACK (about
    1e-9) exceeds the rounding of that factorization, of the Rayleigh floor
    and of the SVD, so a skipped cell's computed norm lies strictly below
    the computed maximum at its size: the bracket, traces and witness are
    exactly those of computing every cell.  The certificate runs only when
    ``_skip_pays``: for a single point, or a band too wide for the ladder,
    every cell gets its SVD, one point at a time.
    """
    require_semicrossed(el)
    if not points:
        raise ValueError("need at least one sample point")
    band = el.max_power
    if n_max < band + 1:
        raise WindowTooSmall(f"n_max must be at least the band width {band + 1}")
    sizes = _ladder(n_max)
    skip = np.zeros((len(sizes), len(points)), dtype=bool)
    if _skip_pays(len(points), band, sizes):
        bands = np.stack([orbit_bands(sys, x, el, n_max) for x in points])
        if not np.all(np.isfinite(bands.view(float))):
            raise NonFinite("matrix has non-finite entries")
        skip = _skip_mask(bands, sizes)
    else:
        bands = (orbit_bands(sys, x, el, n_max) for x in points)
    best = 0.0
    witness = ""
    by_size = {n: 0.0 for n in sizes}
    for p, (x, vb) in enumerate(zip(points, bands)):
        for s, n in enumerate(sizes):
            if skip[s, p]:
                continue
            val = spectral_norm(_scatter_bands(vb, n))
            if val > by_size[n]:
                by_size[n] = val
            if val > best:
                best = val
                witness = f"orbit x={_point_label(x)} n={n}"
    running = 0.0
    traces = []
    for n in sizes:
        running = max(running, by_size[n])
        traces.append((f"n={n}", running))
    upper = max(l1_upper_bound(el), best)
    return NormEstimate(
        NormBracket(best, upper, witness, "coefficient l1 sum"),
        tuple(traces),
        witness,
    )


# ---------------------------------------------------------------------------
# skip certificate for the orbit ladder
#
# A lane that passes _certify_below has positive pivots for the banded LDL^H
# of A = T^2 (1 - delta) I - H, with H = M M^H formed in floating point.
# Forming H (inner products of at most band+1 terms, each entry bounded by
# row norms of M) and factoring A (Higham, Accuracy and Stability of
# Numerical Algorithms, Thm 10.3, whose Cauchy-Schwarz step bounds each
# entry by the diagonal of A, at most T^2) each perturb at most 2*band+1
# entries per row by gamma_{band+2} T^2, gamma_m = m u / (1 - m u),
# u = 2^-53.  With a factor 4 for complex arithmetic the two together have
# norm below 8 (2 band + 1)(band + 2) u T^2, which is at most delta/2 for
# band <= _SKIP_BAND_LIMIT.  A pass thus proves ||M_n|| < T (1 - delta/4),
# and that relative gap is far above the rounding of the Rayleigh floor and
# of LAPACK's largest singular value (a small multiple of n u).
# Floors below _SKIP_FLOOR_MIN certify nothing, so no rounding is subnormal.
#
# The certificate costs about len(sizes) * (n_max + w) * w^2 operations and
# holds a len(sizes) * w^2 window per point, w = band + 1; the dense ladder
# costs sum(n^3) per point.  Requiring len(sizes) * w * _SKIP_WIDTH_RATIO <=
# n_max keeps the window below the point's own bands / _SKIP_WIDTH_RATIO and
# the work below sum(n^3) / 8.  With 93 random points on one BLAS thread
# (n_max 16..256), the certificate took 8-52% of the time of all the ladder
# SVDs at that edge, and up to 2.2 times as long at widths beyond it.

_SKIP_BAND_LIMIT = 512
_SKIP_SLACK = 16 * (2 * _SKIP_BAND_LIMIT + 1) * (_SKIP_BAND_LIMIT + 2) * 2.0**-53
_SKIP_FLOOR_MIN = 2.0**-400
_SKIP_WIDTH_RATIO = 4
_POWER_STEPS = 8


def _skip_pays(n_points: int, band: int, sizes: Sequence[int]) -> bool:
    """Whether the skip certificate is worth running before the ladder SVDs.

    A single point is its own floor, so none of its cells can be skipped;
    bands above _SKIP_BAND_LIMIT fall outside the slack derivation.
    """
    return (
        n_points > 1
        and band <= _SKIP_BAND_LIMIT
        and len(sizes) * (band + 1) * _SKIP_WIDTH_RATIO <= sizes[-1]
    )


def _skip_mask(bands: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(len(sizes), P) mask of the ladder cells the certificate clears.

    Its own function so that the rescaled copy is freed before the SVDs run.
    """
    # an exact power-of-two rescale keeps the squares below overflow
    e = np.frexp(np.max(np.abs(bands)))[1]
    unit = np.ldexp(bands.view(float), -e).view(complex)
    return _certify_below(unit, _rayleigh_floor(unit, sizes), sizes)


def _band_mul(bands: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M_n x for every stacked point; bands (P, w, >=n), x (P, n)."""
    n = x.shape[1]
    y = bands[:, 0, :n] * x
    for k in range(1, min(bands.shape[1], n)):
        y[:, k:] += bands[:, k, : n - k] * x[:, : n - k]
    return y


def _band_rmul(conj: np.ndarray, y: np.ndarray) -> np.ndarray:
    """M_n^H y for every stacked point, given the conjugated bands."""
    n = y.shape[1]
    x = conj[:, 0, :n] * y
    for k in range(1, min(conj.shape[1], n)):
        x[:, : n - k] += conj[:, k, : n - k] * y[:, k:]
    return x


def _unit_rows(v: np.ndarray) -> np.ndarray:
    nrm = np.sqrt(np.sum(v.real**2 + v.imag**2, axis=1, keepdims=True))
    return v / np.where(nrm > 0, nrm, 1.0)


def _rayleigh_floor(bands: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Per ladder size n, a lower bound on max over points of ||M_n||.

    Runs _POWER_STEPS steps of power iteration on M_n^H M_n for all points at
    once, each size warm-started from the previous one, and keeps the largest
    ||M_n v|| over unit iterates v (compressions make it valid for every
    larger size too).
    """
    conj = bands.conj()
    p, _, n_max = bands.shape
    # a small tail keeps the warm start dominant but revives zero iterates
    x = np.full((p, n_max), 1.0 / n_max, dtype=complex)
    floor = np.zeros(len(sizes))
    best = 0.0
    for s, n in enumerate(sizes):
        v = x[:, :n]
        for _ in range(_POWER_STEPS):
            y = _band_mul(bands, _unit_rows(v))
            best = max(best, float(np.max(np.sum(y.real**2 + y.imag**2, axis=1))))
            v = _band_rmul(conj, y)
        x[:, :n] = _unit_rows(v)
        floor[s] = math.sqrt(best)
    return floor


def _certify_below(bands: np.ndarray, thr: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(len(sizes), P) mask: True where ||M_n(p)|| < thr[s] is certified, n = sizes[s].

    ``bands`` (P, band+1, N) stacks the lower bands V[k, c] = M[c+k, c] of
    each point's N x N matrix M.  M is lower triangular, so M_n M_n^H is the
    leading n-block of H = M M^H, a Hermitian matrix of bandwidth ``band``.
    A banded LDL^H of T^2 (1 - delta) I - H with T = thr[s] runs in lockstep
    over all lanes (s, p) and certifies a lane when its first n pivots are
    positive.  ``sizes`` is ascending.  The factorization is right-looking on
    a (band+1)-square window of the Schur complement, seeded with identity
    rows ahead of column 0.
    """
    p, w, n = bands.shape
    b = w - 1
    conj = bands.conj()
    # rows[:, r, q] = -H[r, r-b+q], the row entering the window after column r-w
    rows = np.zeros((p, n + w, w), dtype=complex)
    for off in range(w):
        for s in range(min(w - off, n - off)):
            m = n - off - s
            rows[:, off + s : n, b - off] -= bands[:, off + s, :m] * conj[:, s, :m]
    thr = np.asarray(thr, dtype=float)
    shift = np.where(thr > _SKIP_FLOOR_MIN, thr**2 * (1.0 - _SKIP_SLACK), 0.0)
    ok = np.ones((len(sizes), p), dtype=bool)
    win = np.zeros((len(sizes), p, w, w), dtype=complex)
    win[:, :] = np.eye(w)
    lo = 0
    for t in range(sizes[-1] + w):
        while sizes[lo] <= t - w:  # lanes past their size are done
            lo += 1
        live = win[lo:]
        piv = live[:, :, 0, 0].real
        good = piv > 0  # never `not piv <= 0`: a NaN pivot must fail
        ok[lo:] &= good
        # a failed lane drops its L column and resets its pivot, so it keeps
        # factoring bounded numbers instead of overflowing
        col = np.where(good[..., None], live[:, :, 1:, 0], 0.0)
        inv = 1.0 / np.where(good, piv, 1.0)
        live[:, :, :b, :b] = live[:, :, 1:, 1:] - col[..., :, None] * (
            col.conj() * inv[..., None]
        )[..., None, :]
        live[:, :, b, :] = rows[:, t]
        live[:, :, b, b] += shift[lo:, None]
    return ok


def periodic_norm_estimate(
    sys: System,
    el: Element,
    periodic_points: Sequence[Point],
    grid_size: int = 256,
) -> NormEstimate:
    """Periodic-family supremum over a lambda grid with a Lipschitz certificate.

    For a sample of period p the matrix at lambda * zeta, zeta a p-th root of
    unity, is U M(lambda) U^-1 with U = diag(zeta^i): every entry of power k
    sits at ((c+k) mod p, c) and picks up zeta^k either way.  So the norm
    depends only on mu = lambda^p, and on the grid of G = grid_size angles
    angle j and angle j + m agree, m = G / gcd(p, G).  Only the first m grid
    scalars are assembled, in one stack reduced by batched SVD, and angle j
    reads the value at j mod m.  The norm as a function of the angle is
    Lipschitz with constant sum |n| * sup|f_n|, so the grid maximum plus
    L*pi/grid_size certifies an upper bound for the sampled family, capped by
    the l1 bound.
    """
    require_semicrossed(el)
    if not periodic_points:
        raise ValueError("need at least one periodic sample")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    lams = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    lip = sum(abs(k) * ext_sup_norm(f).upper for k, f in el.coeffs)
    per_lambda = np.zeros(grid_size)
    best = 0.0
    witness = ""
    for y in periodic_points:
        cls = classify(sys, y)
        if not cls.is_periodic:
            raise NotPeriodic(f"sample {_point_label(y)} is {cls.kind}")
        if not el.coeffs:  # the zero element: every matrix is 0
            continue
        # stack sum_k lam^k * C^k D_k over the m distinct mu in one shot
        m = grid_size // math.gcd(cls.period, grid_size)
        bands = _cycle(_coeff_orbits(sys, el.coeffs, y, cls.period), cls.period)
        powers = np.stack([lams[:m] ** k for k in bands], axis=1)  # (m, nbands)
        mats = np.einsum("lk,kij->lij", powers, np.stack(list(bands.values())))
        if not np.all(np.isfinite(mats.view(float))):
            raise NonFinite("matrix has non-finite entries")
        svals = np.linalg.svd(mats, compute_uv=False)[:, 0]
        per_lambda = np.maximum(per_lambda, np.tile(svals, grid_size // m))
        j = int(np.argmax(svals))
        if svals[j] > best:
            best = float(svals[j])
            witness = f"periodic y={_point_label(y)} angle={j}/{grid_size}"
    certified = best + lip * math.pi / grid_size
    upper = min(certified, l1_upper_bound(el))
    upper = max(upper, best)
    traces = tuple(
        (f"angle={j}/{grid_size}", float(per_lambda[j])) for j in range(grid_size)
    )
    return NormEstimate(
        NormBracket(best, upper, witness, "lambda grid + Lipschitz certificate"),
        traces,
        witness,
    )


def semicrossed_norm(
    sys: System,
    el: Element,
    points: Sequence[Point],
    periodic_points: Sequence[Point],
    n_max: int = 256,
    grid_size: int = 256,
) -> NormEstimate:
    """Combined bracket: max of the family lower bounds, min of their uppers.

    The witness records which family achieved the lower bound.
    """
    a = orbit_norm_estimate(sys, el, points, n_max)
    b = periodic_norm_estimate(sys, el, periodic_points, grid_size)
    if b.bracket.lower >= a.bracket.lower:
        lower, witness = b.bracket.lower, "periodic"
        lower_detail = b.witness
    else:
        lower, witness = a.bracket.lower, "orbit"
        lower_detail = a.witness
    upper = min(a.bracket.upper, b.bracket.upper)
    upper = max(upper, lower)
    upper_method = (
        a.bracket.upper_method
        if a.bracket.upper <= b.bracket.upper
        else b.bracket.upper_method
    )
    traces = tuple((f"orbit {k}", v) for k, v in a.traces) + tuple(
        (f"periodic {k}", v) for k, v in b.traces
    )
    return NormEstimate(
        NormBracket(lower, upper, lower_detail, upper_method), traces, witness
    )


# ---------------------------------------------------------------------------
# periodic test vectors (orbit representations dominate periodic ones)


def embed_periodic_vector(xi: Sequence[complex], lam: complex, blocks: int) -> np.ndarray:
    """Unit vector of length blocks*p with block j carrying lam^(blocks-j) xi."""
    lam = _check_lambda(lam)
    xi = np.asarray(list(xi), dtype=complex)
    p = xi.shape[0]
    if p == 0 or not np.all(np.isfinite(xi.view(float))):
        raise ValueError("xi must be a nonempty finite vector")
    nrm = float(np.linalg.norm(xi))
    if nrm == 0.0:
        raise ValueError("xi must be nonzero")
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    out = np.zeros(blocks * p, dtype=complex)
    for j in range(blocks):
        out[j * p : (j + 1) * p] = lam ** (blocks - j) * xi
    return out / (math.sqrt(blocks) * nrm)


def twisted_periodic_matrix(sys: System, y: Point, lam: complex, el: Element) -> np.ndarray:
    """Periodic representation with lambda on the wraparound entry.

    Unitarily equivalent to the scalar placement; this is the convention the
    embedded periodic vectors reproduce coordinatewise.
    """
    require_semicrossed(el)
    lam = _check_lambda(lam)
    p = _period(sys, y)
    return _lambda_sum(_cycle(_coeff_orbits(sys, el.coeffs, y, p), p, wraps=True), lam, p)


def periodic_vector_check(
    sys: System,
    y: Point,
    lam: complex,
    el: Element,
    blocks: int,
    size: int | None = None,
) -> dict:
    """Compare the orbit representation applied to an embedded periodic vector
    against the periodic representation's top singular pair.

    Returns lhs (orbit side), rhs (periodic side) and their deficit; the
    transfer predicts lhs >= rhs - O(band/(blocks*p)).
    """
    require_semicrossed(el)
    mat = twisted_periodic_matrix(sys, y, lam, el)
    p = mat.shape[0]
    band = el.max_power
    n = size if size is not None else blocks * p + band
    if n < blocks * p + band:
        raise ValueError("size must cover the embedded vector plus the band")
    svals = np.linalg.svd(mat)
    xi = svals[2][0].conj()
    rhs = float(svals[1][0])
    eta = embed_periodic_vector(xi, lam, blocks)
    padded = np.zeros(n, dtype=complex)
    padded[: eta.shape[0]] = eta
    lhs = float(np.linalg.norm(orbit_matrix(sys, y, el, n) @ padded))
    return {"lhs": lhs, "rhs": rhs, "deficit": rhs - lhs, "blocks": blocks, "period": p}


# ---------------------------------------------------------------------------
# bilateral window versus orbit supremum


def bilateral_orbit_check(
    sys: System,
    xt: ExtPoint,
    el: Element,
    half_width: int,
    size: int | None = None,
) -> dict:
    """Windowed two-sided norm against the supremum of orbit truncations
    taken over backward shifts of the extended point."""
    require_semicrossed(el)
    n = size if size is not None else 2 * half_width + 1
    bilateral = spectral_norm(bilateral_matrix(sys, xt, el, half_width))
    seen = set()
    orbit_sup = 0.0
    for k in range(2 * half_width + 1):
        y = xt.coordinate(k + 1)
        key = point_key(y)
        if key in seen:
            continue
        seen.add(key)
        orbit_sup = max(orbit_sup, spectral_norm(orbit_matrix(sys, y, el, n)))
    return {
        "bilateral": bilateral,
        "orbit_sup": orbit_sup,
        "gap": abs(bilateral - orbit_sup),
    }


# ---------------------------------------------------------------------------
# isometric embedding into the extension's crossed product


def embedding_check(
    sys: System,
    el: Element,
    points: Sequence[Point],
    periodic_points: Sequence[Point],
    ext_points: Sequence[ExtPoint],
    n_max: int = 256,
    grid_size: int = 256,
    half_width: int = 128,
) -> dict:
    """Bracket the element in both algebras and test that they overlap."""
    semi = semicrossed_norm(sys, el, points, periodic_points, n_max, grid_size)
    lower = 0.0
    witness = ""
    for xt in ext_points:
        val = spectral_norm(bilateral_matrix(sys, xt, el, half_width))
        if val > lower:
            lower = val
            witness = "bilateral window"
    upper = max(l1_upper_bound(el), lower)
    crossed = NormBracket(lower, upper, witness, "coefficient l1 sum")
    overlap = (
        semi.bracket.lower <= crossed.upper + 1e-9
        and crossed.lower <= semi.bracket.upper + 1e-9
    )
    return {"semicrossed": semi.bracket, "crossed": crossed, "overlap": overlap}


def _point_label(x: Point) -> str:
    from .systems import RationalPoint, StatePoint, WordPoint

    if isinstance(x, RationalPoint):
        return f"{x.value.numerator}/{x.value.denominator}"
    if isinstance(x, WordPoint):
        pre = "".join(map(str, x.preperiod))
        cyc = "".join(map(str, x.cycle))
        return f"{pre}({cyc})"
    if isinstance(x, StatePoint):
        return str(x.state)
    return repr(x)
