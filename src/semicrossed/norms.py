"""Certified norm brackets for elements and the associated comparisons.

The norm of a semicrossed element is the larger of two suprema: orbit
representations over all points (estimated from below by sampled truncations,
bounded above by the coefficient l1 sum) and periodic-orbit representations
over all periodic points and unit scalars (sampled on a lambda grid with a
Lipschitz certificate).  Both scans SVD each distinct operator once: sample
points whose coefficient values agree byte for byte give the same matrices,
so only the first of them is assembled, certified and SVD'd.  Both also
skip, with proof, the SVDs that cannot move their result: a banded LDL^H
(``_certify_below``) shows a truncation or a periodic cell below a floor
that the scan's own SVDs have already reached.  The comparison helpers
measure, at finite size, the identities that make those families cofinal:
the periodic-vector transfer, the bilateral-window versus orbit-supremum
agreement, and the isometric embedding into the extension's crossed
product.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import Element, l1_upper_bound, require_semicrossed
from .errors import NonFinite, NotPeriodic, WindowTooSmall
from .extension import ExtPoint
from .functions import NormBracket, _orbit_values, ext_sup_norm
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


def _require_finite(mat: np.ndarray) -> None:
    if not np.all(np.isfinite(mat.view(float) if mat.dtype == complex else mat)):
        raise NonFinite("matrix has non-finite entries")


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value (deterministic SVD path)."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0.0
    _require_finite(mat)
    return float(np.linalg.norm(mat, 2))


@dataclass(frozen=True)
class NormEstimate:
    """Bracket plus the monotone evidence trail that produced it."""

    bracket: NormBracket
    traces: tuple[tuple[str, float], ...]
    witness: str


def _distinct(lanes):
    """The (label, array) lanes whose array repeats no earlier lane's bytes.

    Lanes are keyed by a 256-bit BLAKE2b digest of their bytes, so lanes that
    differ in any bit, the sign of a zero or a NaN payload included, stay
    apart; only the digests are kept.
    """
    seen = set()
    for label, a in lanes:
        key = hashlib.blake2b(np.ascontiguousarray(a), digest_size=32).digest()
        if key not in seen:
            seen.add(key)
            yield label, a


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
    A point whose bands equal an earlier point's byte for byte is dropped
    before anything else runs: its truncations are the same matrices, and
    the maxima per size and the witness (the first strict maximum in point
    order) move only on a strict >, so it could change nothing.  An element
    with constant coefficients (U, 1 + U) thus takes one point's ladder.
    A cell (x, n) whose SVD cannot move that maximum is skipped
    (``_ladder_norms``): every point is SVD'd at the sizes up to _BATCH_MAX,
    the first point of largest norm at the last of them is SVD'd at each
    larger size, and the running maxima T_n of its values are floors at most
    the computed max_x ||M_n(x)||, up to the SVD's rounding.  A banded LDL^H
    of T_n^2 (1 - delta) I - M_n M_n^H with only positive pivots proves
    ||M_n(x)|| < T_n (1 - delta/4).  The slack delta = _SKIP_SLACK (about
    1e-9) exceeds the rounding of that factorization and of the SVD, so a
    skipped cell's computed norm lies strictly below the computed maximum at
    its size: the bracket, traces and witness are exactly those of computing
    every cell.  The certificate runs only when ``_skip_pays``: for a single
    distinct point, or a band too wide for the ladder, every cell gets its
    SVD, one point at a time.
    """
    require_semicrossed(el)
    if not points:
        raise ValueError("need at least one sample point")
    band = el.max_power
    if n_max < band + 1:
        raise WindowTooSmall(f"n_max must be at least the band width {band + 1}")
    sizes = _ladder(n_max)
    computed = None  # per (size, lane) once the lanes are stacked, NaN where skipped
    lanes = _distinct((x, orbit_bands(sys, x, el, n_max)) for x in points)
    if _skip_pays(len(points), band, sizes):  # narrow bands: stack the distinct lanes
        xs, bands = zip(*lanes)
        bands = np.stack(bands)
        _require_finite(bands)
        if _skip_pays(len(xs), band, sizes):
            computed = _ladder_norms(bands, sizes)
        lanes = zip(xs, bands)
    best = 0.0
    witness = ""
    by_size = {n: 0.0 for n in sizes}
    for p, (x, vb) in enumerate(lanes):
        for s, n in enumerate(sizes):
            val = spectral_norm(_scatter_bands(vb, n)) if computed is None else float(computed[s, p])
            if val > by_size[n]:  # never for NaN
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
# skip certificates for the orbit ladder and the periodic scan
#
# A lane that passes _certify_below has positive pivots for the LDL^H of
# A = T^2 (1 - delta) I - H, with H = M M^H formed in floating point.
#
# The orbit ladder (the chain, border 0).  Forming H (inner products of at
# most band+1 terms, each entry bounded by row norms of M) and factoring A
# (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3, whose
# Cauchy-Schwarz step bounds each entry by the diagonal of A, at most T^2)
# each perturb at most 2*band+1 entries per row by gamma_{band+2} T^2,
# gamma_m = m u / (1 - m u), u = 2^-53.  With a factor 4 for complex
# arithmetic the two together have norm below 8 (2 band + 1)(band + 2) u T^2,
# which is at most delta/2 for band <= _SKIP_BAND_LIMIT.  A pass thus proves
# ||M_n|| < T (1 - delta/4), and that relative gap is far above the rounding
# of LAPACK's largest singular value (a small multiple of n u), which T is.
#
# The periodic scan (the p-cycle, border b = band, 2b + 1 < p).  H is
# cyclic banded, and the rows swept as a band couple to the last b rows,
# which the factorization carries whole.  Forming H still perturbs 2b+1
# entries per row by gamma_{b+2} T^2, and so do the band-band updates.  A
# band-border entry sums at most b+1 terms, but its row runs the length of
# the band: the p x b block of those errors has Frobenius norm at most
# gamma_{b+2} sqrt(b p) T^2 (Cauchy-Schwarz on each entry).  A border-border
# entry sums up to p terms, so the b x b corner moves by b gamma_{p+2} T^2.
# With b < p/2 the sum is below (2 (2b+1) + sqrt(b p) + b) gamma_{p+2} T^2
# < 4 p gamma_{p+2} T^2, and with the factor 4 for complex arithmetic below
# 16 p (p + 2) u T^2 (1 + o(1)): _cycle_slack(p) = 64 p (p + 2) u is twice
# that with room to spare.  The certificate reads the very cells the SVD
# would, so a pass proves the cell's norm below T (1 - delta/4), a relative
# gap far above the rounding of LAPACK's largest singular value, and the
# computed value it would add lies strictly below the trace rows it covers.
# _CYCLE_SKIP_LIMIT keeps that slack below 2e-6.
#
# Floors below _SKIP_FLOOR_MIN certify nothing, so no rounding is subnormal.
#
# The ladder certificate costs about len(sizes) * (n_max + w) * w^2
# operations and holds a len(sizes) * w^2 window per point, w = band + 1; the
# dense ladder costs sum(n^3) per point.  Requiring len(sizes) * w *
# _SKIP_WIDTH_RATIO <= n_max keeps the window below the point's own bands /
# _SKIP_WIDTH_RATIO and the work below sum(n^3) / 8.  With 93 random points on
# one BLAS thread (n_max 16..256), the certificate took 8-52% of the time of
# all the ladder SVDs at that edge, and up to 2.2 times as long at widths
# beyond it.  Its floors cost one SVD of every point at the sizes up to
# _BATCH_MAX, one stack per size, and one of the candidate at each larger
# size.  On the 32 circle-norm benchmark elements (seed 5, one BLAS thread,
# Intel Xeon), the orbit ladders took 1.04 s in all with sizes up to 16
# batched, 1.20 s up to 32 and 1.58 s up to 8.  The cycle certificate costs
# m p (2b + 1)^2 against m p^3 for the m SVDs of a sample, so it runs on
# every sample longer than _CYCLE_SKIP_MIN (and than 2b + 1, below which the
# cycle wraps onto itself).
#
# The kept cells go to the SVD in stacks of at most _SVD_CHUNK entries (1 MB),
# which the allocator recycles; whole-period stacks of up to 7 MB, each in
# fresh pages, raised the peak RSS of the circle-norm benchmark by 4 MB.

_SKIP_BAND_LIMIT = 512
_SKIP_SLACK = 16 * (2 * _SKIP_BAND_LIMIT + 1) * (_SKIP_BAND_LIMIT + 2) * 2.0**-53
_SKIP_FLOOR_MIN = 2.0**-400
_SKIP_WIDTH_RATIO = 4
_BATCH_MAX = 16
_CYCLE_SKIP_MIN = 8
_CYCLE_SKIP_LIMIT = 2**14
_SVD_CHUNK = 2**16


def _cycle_slack(p: int) -> float:
    return 64 * p * (p + 2) * 2.0**-53


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


def _cycle_skip_pays(period: int, band: int) -> bool:
    """Whether a periodic sample's cells go through the skip certificate.

    Short cycles are SVD'd whole (they set the floors, and their SVDs are
    cheap); a cycle of at most 2 band + 1 points wraps onto itself, so its
    H = P P^H has no band structure to factor.
    """
    return max(_CYCLE_SKIP_MIN, 2 * band + 1) < period <= _CYCLE_SKIP_LIMIT


def _skip_mask(
    bands: np.ndarray, sizes: Sequence[int], floor: np.ndarray, border: int = 0
) -> np.ndarray:
    """Mask of the lanes the certificate clears, as ``_certify_below``.

    ``floor`` gives one threshold per size (the ladder) or per stacked
    matrix (the periodic cells).  Its own function so that the rescaled copy
    is freed before the SVDs run.
    """
    # an exact power-of-two rescale keeps the squares below overflow
    e = np.frexp(np.max(np.abs(bands)))[1]
    unit = np.ldexp(bands.view(float), -e).view(complex)
    # the unit cells have norm at most band + 1, far below 2^64
    thr = np.minimum(np.ldexp(floor, -e), 2.0**64)
    return _certify_below(unit, thr, sizes, border)


def _ladder_norms(bands: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(len(sizes), P) ``spectral_norm`` values of the stacked lanes' M_n,
    n = sizes[s], NaN where the certificate proves a cell below its size's
    floor.

    The sizes up to _BATCH_MAX are SVD'd whole, one stack per size.  The
    first lane of largest norm at the last of them is the candidate: it is
    SVD'd at each larger size, the running maxima of those values are the
    floors, and only the cells ``_skip_mask`` does not clear are SVD'd.
    """
    out = np.full((len(sizes), len(bands)), np.nan)
    small = sum(n <= _BATCH_MAX for n in sizes)
    for s, n in enumerate(sizes[:small]):
        out[s] = np.linalg.svd(_scatter_bands(bands, n), compute_uv=False)[:, 0]
    if small < len(sizes):
        top = int(np.argmax(out[small - 1]))
        for s in range(small, len(sizes)):
            out[s, top] = spectral_norm(_scatter_bands(bands[top], sizes[s]))
        keep = ~_skip_mask(bands, sizes[small:], np.maximum.accumulate(out[small:, top]))
        keep[:, top] = False
        for s, p in zip(*np.nonzero(keep)):
            out[small + s, p] = spectral_norm(_scatter_bands(bands[p], sizes[small + s]))
    return out


def _certify_below(
    bands: np.ndarray, thr: np.ndarray, sizes: Sequence[int], border: int = 0
) -> np.ndarray:
    """(len(sizes), P) mask: True where ||M_n(p)|| < T is certified, n = sizes[s].

    ``bands`` (P, band+1, N) stacks the bands V[k, c] = M[(c+k) mod N, c] of
    each lane's N x N matrix M.  ``thr`` holds T per size, or for a single
    size per lane.  With ``border`` 0, M is the lower triangular chain (V
    zero where c+k >= N), so M_n M_n^H is the leading n-block of H = M M^H, a
    Hermitian matrix of bandwidth ``band``, and ``sizes`` is an ascending
    ladder.  With ``border`` = band, M is the p-cycle, N = p > 2 band + 1
    and sizes = [N]: H is cyclic banded, its first N - border rows form a
    band, and they couple to the last ``border`` rows only.

    An LDL^H of T^2 (1 - delta) I - H runs in lockstep over all lanes and
    certifies a lane when all its pivots are positive.  It is right-looking
    on a Hermitian window of w = band+1 slots for the band rows in flight
    (row r in slot r mod w) and ``border`` slots for the last rows, which
    stay to the end and are factored last.
    """
    p, w, n = bands.shape
    nb = n - border  # rows swept as a band
    conj = bands.conj()
    thr = np.asarray(thr, dtype=float).reshape(len(sizes), -1)
    slack = _cycle_slack(n) if border else _SKIP_SLACK
    shift = np.where(thr > _SKIP_FLOOR_MIN, thr**2 * (1.0 - slack), 0.0)
    shift = np.broadcast_to(shift, (len(sizes), p))
    ok = np.ones((len(sizes), p), dtype=bool)
    # enter[r, :, 0]: row r of -H in window slots.  A partner before row 0
    # wraps to border row n + r - d, in slot w + border + r - d; the chain has
    # no such partner, and its zero lands in a band slot that is still empty.
    # win[:, :, s, q]: the window of lane (s, q), lanes last for speed, which
    # starts with the border rows' own block.
    rows = np.arange(nb)
    width = w + border
    enter = np.zeros((nb, width, 1, p), dtype=complex)
    win = np.zeros((width, width, len(sizes), p), dtype=complex)
    for d in range(w):
        # a[r] = -H[r, (r - d) mod n], from the terms k = d..band at column r - k
        a = np.zeros((n, p), dtype=complex)
        for k in range(d, min(w, n)):
            term = (bands[:, k] * conj[:, k - d]).T
            a[k:] -= term[: n - k]
            if border:
                a[:k] -= term[n - k :]
        slots = np.where(rows >= d, (rows - d) % w, w + border + rows - d)
        enter[rows, slots, 0] = a[:nb]
        for i in range(border):  # border row nb + i against row nb + i - d
            if d > i:
                enter[nb + i - d, w + i, 0] = a[nb + i].conj()
            elif d:
                win[w + i, w + i - d] = a[nb + i]
                win[w + i - d, w + i] = a[nb + i].conj()
            else:
                win[w + i, w + i] = shift + a[nb + i]

    buf = np.empty_like(win)

    def eliminate(lo: int, j: int) -> None:
        live = win[:, :, lo:]
        piv = live[j, j].real
        good = piv > 0  # never `not piv <= 0`: a NaN pivot must fail
        ok[lo:] &= good
        # a failed lane drops its L column and resets its pivot, so it keeps
        # factoring bounded numbers instead of overflowing
        col = np.where(good, live[:, j], 0.0)
        inv = 1.0 / np.where(good, piv, 1.0)
        upd = buf[:, :, lo:]
        np.multiply(col[:, None], (col.conj() * inv)[None, :], out=upd)
        live -= upd

    lo = 0
    for t in range(nb + w):
        while sizes[lo] <= t - w:  # lanes past their size are done
            lo += 1
        j = t % w
        if t >= w:
            eliminate(lo, j)  # row t - w leaves slot j, row t enters it
        if t < nb:  # past the band the slot stays empty
            live = win[:, :, lo:]
            live[j] = enter[t]
            live[:, j] = enter[t].conj()
            live[j, j] += shift[lo:]
    for i in range(border):
        eliminate(lo, w + i)
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
    angle j and angle j + m agree, m = G / gcd(p, G): cell j < m stands for
    the angles j, j + m, ...  The norm as a function of the angle is
    Lipschitz with constant sum |n| * sup|f_n|, so the grid maximum plus
    L*pi/grid_size certifies an upper bound for the sampled family, capped by
    the l1 bound.

    The samples are scanned in ascending period, those of one period
    together.  Samples of one period whose coefficient values along the
    cycle agree byte for byte have the same cells, so only the first of them
    is assembled, certified and SVD'd; the copies could set no trace row or
    strict maximum that it does not.  A cell's SVD runs only where it could
    raise a trace row.
    Short samples (``_cycle_skip_pays``) are SVD'd whole.  For a longer one,
    cell j's floor is the least trace row over its angles that the shorter
    samples set, and a cyclic banded LDL^H (``_certify_below`` with a
    border) skips every cell it proves strictly below its floor, with the
    slack ``_cycle_slack(p)``.  A skipped cell's computed norm could move no
    trace row and could not be the maximum, so the bracket, the traces and
    the witness (the first strict maximum in sample order, picked after the
    scan) are exactly those of SVDing every cell.
    """
    require_semicrossed(el)
    if not periodic_points:
        raise ValueError("need at least one periodic sample")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    periods = []
    for y in periodic_points:
        cls = classify(sys, y)
        if not cls.is_periodic:
            raise NotPeriodic(f"sample {_point_label(y)} is {cls.kind}")
        periods.append(cls.period)
    lams = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    lip = sum(abs(k) * ext_sup_norm(f).upper for k, f in el.coeffs)
    per_lambda = np.zeros(grid_size)
    svals = [np.zeros(0)] * len(periods)
    band = el.max_power
    ks = [k for k, _ in el.coeffs]
    bases = [f.base for _, f in el.coeffs]
    # the zero element scans nothing: every matrix is 0
    order = sorted(range(len(periods)), key=periods.__getitem__) if ks else []
    for p, group in itertools.groupby(order, key=periods.__getitem__):
        # a later copy keeps no singular values: it could set no strict maximum
        samples = ((i, _orbit_values(sys, bases, periodic_points[i], p)) for i in group)
        lanes = list(_distinct(samples))
        m = grid_size // math.gcd(p, grid_size)
        # cells[g m + j, :, c]: lam_j^k f_k(y_c) on lane g, at ((c+k) mod p, c)
        powers = np.stack([lams[:m] ** k for k in ks], axis=1)  # (m, nbands)
        cells = np.concatenate([np.einsum("lk,kc->lkc", powers, v) for _, v in lanes])
        keep = np.ones(len(cells), dtype=bool)
        if _cycle_skip_pays(p, band):
            _require_finite(cells)  # raise before any cell is certified
            bands = np.zeros((len(cells), band + 1, p), dtype=complex)
            bands[:, ks] = cells
            floor = np.tile(per_lambda.reshape(-1, m).min(axis=0), len(lanes))
            keep = ~_skip_mask(bands, [p], floor, band)[0]
        s = np.zeros(len(cells))
        cols = np.arange(p)
        kept = np.flatnonzero(keep)
        step = max(1, _SVD_CHUNK // (p * p))
        for c in range(0, len(kept), step):  # in chunks, so that no stack is large
            at = kept[c : c + step]
            # summed in coefficient order from 0, as an einsum over the placements
            mats = np.zeros((len(at), p, p), dtype=complex)
            with np.errstate(over="ignore"):  # bands sharing entries (p <= band) may overflow
                for b, k in enumerate(ks):
                    mats[:, (cols + k) % p, cols] += cells[at, b]
            _require_finite(mats)
            s[at] = np.linalg.svd(mats, compute_uv=False)[:, 0]
        for g, (i, _) in enumerate(lanes):
            svals[i] = s[g * m : (g + 1) * m]
            per_lambda = np.maximum(per_lambda, np.tile(svals[i], grid_size // m))
    best = 0.0
    witness = ""
    for y, s in zip(periodic_points, svals):
        if s.size and s.max() > best:
            j = int(np.argmax(s))
            best = float(s[j])
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
    # M padded from the bands, without the n x n matrix: band k maps c to c + k
    bands = orbit_bands(sys, y, el, n)
    image = np.zeros(n, dtype=complex)
    for k in range(bands.shape[0]):
        image[k:] += bands[k, : n - k] * padded[: n - k]
    lhs = float(np.linalg.norm(image))
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
    ys = {point_key(y): y for y in map(xt.coordinate, range(1, 2 * half_width + 2))}
    orbit_sup = 0.0
    for _, mat in _distinct((y, orbit_matrix(sys, y, el, n)) for y in ys.values()):
        orbit_sup = max(orbit_sup, spectral_norm(mat))
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
    for _, mat in _distinct((xt, bilateral_matrix(sys, xt, el, half_width)) for xt in ext_points):
        val = spectral_norm(mat)
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
