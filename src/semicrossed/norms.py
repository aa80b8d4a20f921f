"""Certified norm brackets for elements and the associated comparisons.

The norm of a semicrossed element is the larger of two suprema: orbit
representations over all points (estimated from below by sampled truncations,
bounded above by the coefficient l1 sum) and periodic-orbit representations
over all periodic points and unit scalars (sampled on a lambda grid with a
Lipschitz certificate).  Every lower end is a norm of some representation, so
it holds outright.  Of the upper ends, the l1 sum holds for every point; the
Lipschitz grid end holds only for the sampled cycles, and on the circle it
can miss the norm (``1 - e(100x)`` on x -> 2x reads 1.999378, while its
truncation at 1/200 has norm 2).

Elements of band <= 1 on a shift of finite type or a permutation take
neither scan (``_pivot_norm``).  Their lower end starts from one SVD per
sampled cycle y at the lambda* that maximizes ||P_y(lambda)||, which is at
least every grid angle's value and, since each truncation at y compresses
the block Laurent operator with symbol P_y, every ||M_n(y)||: the ladder and
the grid could add nothing.  Their upper end is a pivot-graph certificate: a
table over the states of the system, checked exactly, that bounds every LDL^H
pivot of T^2 I - M_n M_n^H at every point, so it holds for all points and
a sample point that is not periodic adds nothing.  The circle and bands
>= 2 keep the two scans.

Both scans SVD each distinct operator once: sample points whose coefficient
values agree byte for byte give the same matrices, so only the first of them
is assembled, certified and SVD'd.  Both also skip, with proof, the SVDs
that cannot move their result: a banded LDL^H (``_certify_below``) shows a
truncation or a periodic cell below a floor that the scan's own SVDs have
already reached.  Every matrix this module SVDs is placed by ``reps._chain``
(through ``_scatter_bands``) or ``reps._cycle``.  The comparison helpers
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
from .extension import ExtPoint, periodic_lift
from .functions import NormBracket, _orbit_values, ext_sup_norm, validate_base
from .reps import (
    _check_lambda,
    _cycle,
    _lift_orbits,
    _scatter_bands,
    bilateral_matrix,
    orbit_bands,
    orbit_matrix,
)
from .systems import (
    PermutationSystem,
    Point,
    ShiftOfFiniteType,
    StatePoint,
    System,
    admissible_words,
    classify,
    point_key,
)


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


def _check_orbit_args(el: Element, points: Sequence[Point], n_max: int) -> None:
    """The orbit ladder's argument checks, which ``_pivot_norm`` shares."""
    require_semicrossed(el)
    if not points:
        raise ValueError("need at least one sample point")
    if n_max < el.max_power + 1:
        raise WindowTooSmall(f"n_max must be at least the band width {el.max_power + 1}")


def _sample_periods(sys: System, periodic_points: Sequence[Point], grid_size: int) -> list[int]:
    """The period of each periodic sample, after the periodic scan's argument
    checks, which ``_pivot_norm`` shares; a sample off every cycle raises."""
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
    return periods


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
    The distinct points' bands are stacked and go to ``_ladder_norms``,
    which skips a cell (x, n) whose SVD cannot move that maximum: every point
    is SVD'd at the sizes up to _BATCH_MAX, the first point of largest norm
    at the last of them is SVD'd at each larger size, and the running maxima
    T_n of its values are floors at most the computed max_x ||M_n(x)||, up
    to the SVD's rounding.  A banded LDL^H of T_n^2 (1 - delta) I - M_n M_n^H
    with only positive pivots proves ||M_n(x)|| < T_n (1 - delta/4).  The
    slack delta = _SKIP_SLACK (about 1e-9) exceeds the rounding of that
    factorization and of the SVD, so a skipped cell's computed norm lies
    strictly below the computed maximum at its size: the bracket, traces and
    witness are exactly those of computing every cell.  A single distinct
    point, or a band too wide for the ladder (not ``_skip_pays``), has every
    cell SVD'd.
    """
    _check_orbit_args(el, points, n_max)
    sizes = _ladder(n_max)
    xs, bands = zip(*_distinct((x, orbit_bands(sys, x, el, n_max)) for x in points))
    bands = np.stack(bands)  # rebound, so that the per-lane tuple is freed
    vals = np.fmax(_ladder_norms(bands, sizes), 0.0)  # a skipped cell (NaN) reads 0
    running = np.maximum.accumulate(vals.max(axis=1))
    best = float(running[-1])
    # argmax takes the first maximum, points outer and sizes inner
    p, s = divmod(int(np.argmax(vals.T)), len(sizes))
    witness = f"orbit x={_point_label(xs[p])} n={sizes[s]}" if best else ""
    upper = max(l1_upper_bound(el), best)
    return NormEstimate(
        NormBracket(best, upper, witness, "coefficient l1 sum"),
        tuple((f"n={n}", float(v)) for n, v in zip(sizes, running)),
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
# every sample longer than 2b + 1, below which the cycle wraps onto itself;
# the first period scanned has zero floors, which certify nothing.
#
# The kept cells go to the SVD in stacks of at most _SVD_CHUNK entries (1 MB),
# which the allocator recycles; whole-period stacks of up to 7 MB, each in
# fresh pages, raised the peak RSS of the circle-norm benchmark by 4 MB.

_SKIP_BAND_LIMIT = 512
_SKIP_SLACK = 16 * (2 * _SKIP_BAND_LIMIT + 1) * (_SKIP_BAND_LIMIT + 2) * 2.0**-53
_SKIP_FLOOR_MIN = 2.0**-400
_SKIP_WIDTH_RATIO = 4
_BATCH_MAX = 16
_CYCLE_SKIP_LIMIT = 2**14
_SVD_CHUNK = 2**16


def _cycle_slack(p: int) -> float:
    return 64 * p * (p + 2) * 2.0**-53


def _skip_pays(band: int, sizes: Sequence[int]) -> bool:
    """Whether the skip certificate is worth running before the ladder SVDs
    of more than one lane; bands above _SKIP_BAND_LIMIT fall outside the
    slack derivation."""
    return band <= _SKIP_BAND_LIMIT and len(sizes) * (band + 1) * _SKIP_WIDTH_RATIO <= sizes[-1]


def _cycle_skip_pays(period: int, band: int) -> bool:
    """Whether a periodic sample's cells go through the skip certificate.

    A cycle of at most 2 band + 1 points wraps onto itself, so its
    H = P P^H has no band structure to factor, and it is SVD'd whole; every
    longer one is certified against the floors the shorter samples set.
    """
    return 2 * band + 1 < period <= _CYCLE_SKIP_LIMIT


def _ladder_norms(bands: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """(len(sizes), P) ``spectral_norm`` values of the stacked lanes' M_n,
    n = sizes[s], NaN where the certificate proves a cell below its size's
    floor.  Raises NonFinite before any SVD if a band entry is not finite.

    The sizes up to _BATCH_MAX are SVD'd whole, one stack per size.  With
    more than one lane and ``_skip_pays``, the first lane of largest norm at
    the last of them is the candidate: it is SVD'd at each larger size, the
    running maxima of those values are the floors, and a cell that
    ``_certify_below`` proves below its floor is not SVD'd.  Otherwise every
    larger cell is.
    """
    _require_finite(bands)
    out = np.full((len(sizes), len(bands)), np.nan)
    small = sum(n <= _BATCH_MAX for n in sizes)
    for s, n in enumerate(sizes[:small]):
        out[s] = np.linalg.svd(_scatter_bands(bands, n), compute_uv=False)[:, 0]
    keep = np.ones((len(sizes) - small, len(bands)), dtype=bool)
    if small < len(sizes) and len(bands) > 1 and _skip_pays(bands.shape[1] - 1, sizes):
        top = int(np.argmax(out[small - 1]))
        for s in range(small, len(sizes)):
            out[s, top] = spectral_norm(_scatter_bands(bands[top], sizes[s]))
        keep = ~_certify_below(bands, np.maximum.accumulate(out[small:, top]), sizes[small:])
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

    It first scales the bands by 2^-e, e the binary exponent of the largest
    |entry|, and the thresholds alike, capped at 2^64.  The scale is exact,
    so the certificate is the same at every scale, and no square overflows
    or underflows.  A scaled cell has norm at most band + 1, far below 2^64,
    so the cap keeps T^2 finite and still clears every cell.
    """
    e = np.frexp(np.max(np.abs(bands)))[1]
    bands = np.ldexp(bands.view(float), -e).view(complex)
    thr = np.minimum(np.ldexp(np.asarray(thr, dtype=float), -e), 2.0**64)
    thr = thr.reshape(len(sizes), -1)
    p, w, n = bands.shape
    nb = n - border  # rows swept as a band
    conj = bands.conj()
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


# ---------------------------------------------------------------------------
# band <= 1 on shifts of finite type and permutations: the pivot certificate
#
# For A = f_0 + U f_1 and the orbit x_0, x_1, ... of any point, M_n M_n^H is
# tridiagonal: row r has diagonal A0(x_r) + A1(x_{r-1}) (the second term
# from r = 1 on), A_k = |f_k|^2, and subdiagonal f_1(x_{r-1}) conj(f_0(x_{r-1})).
# So T^2 I - M_n M_n^H has the LDL^H pivots p_0 = T^2 - A0(x_0) and
#     p_r = T^2 - A0(x_r) - A1(x_{r-1}) - A1(x_{r-1}) A0(x_{r-1}) / p_{r-1},
# ||M_n|| < T exactly when all n are positive, and p_r grows with p_{r-1}.
# The values at x_r depend only on its state: on a shift of finite type the
# admissible word of length d, the largest coefficient depth, that x_r
# starts with, and consecutive states are an edge u -> v, v = u[1:] + (b,);
# on a permutation the state itself, with the edges s -> images[s].  A table
# F > 0 over the states with F(v) <= T^2 - A0(v) and
#     F(v) F(u) <= (T^2 - A0(v) - A1(u)) F(u) - A1(u) A0(u)
# on every edge gives p_r >= F(state of x_r) > 0 along every orbit, by
# induction on r.  So every truncation at every point, sampled or not, has
# norm below T, and so has every orbit representation, and every periodic
# one, which they dominate.  ``_exact_pass`` checks the three conditions on
# the exact values of the stored floats, as integers at one power-of-two
# scale, so the upper end needs no slack.
#
# The table is the min recursion F(v) <- min(F(v), min over u -> v of the
# pivot after u), from F = T^2 - A0, run in floats at T (1 - _PIVOT_SHRINK)
# until no entry moves.  After k sweeps F(v) is the least last pivot of a
# word of at most k + 1 states ending at v.  An entry <= 0 traces back
# through the minimizing predecessors to such a word; every admissible word
# starts the orbit of some point, so the truncation along it is a leading
# block of an orbit truncation, and its norm is a lower end.
#
# The search starts from the periodic samples.  For a cycle y of period p,
# every orbit truncation at y is a compression of the block Laurent operator
# whose symbol is P_y(lambda) (Boettcher & Silbermann, Analysis of Toeplitz
# Operators), so ||M_n(y)|| <= max over |lambda| = 1 of ||P_y(lambda)||.  By
# the Floquet argument above ``checks._oracle_periodic_scan``, ||P_y(lambda)||
# grows with Re(lambda^p pi), pi = prod conj(f_0(y_i)) f_1(y_i), so it is
# largest at lambda* with lambda*^p = exp(-i arg pi) (any lambda when
# pi = 0).  One p x p SVD there is at least every grid angle's value and
# every truncation at y, so the orbit ladder and the lambda grid add nothing
# on this class.  The search tries T = lower (1 + _PIVOT_WIDTH) and, after
# each refusal, max(lower, T) (1 + _PIVOT_WIDTH), so T always grows and a
# pass right after a failing word leaves a bracket of relative width
# _PIVOT_WIDTH; reaching the l1 sum stops it with that upper end.

_PIVOT_WIDTH = 1e-3  # relative step of the search, and so the bracket's width
_PIVOT_SHRINK = 1e-9  # the float recursion runs at T (1 - _PIVOT_SHRINK)
_PIVOT_SWEEPS = 4096  # sweeps at one T before it counts as a failure without a witness


def _state_graph(sys: System, el: Element):
    """(index, vals, src, dst): the states (words or ints) by index, the
    (2, S) values of f_0 and f_1 at each (zero for a missing power), and the
    edges u -> v as index arrays sorted by v.  Every state has a predecessor:
    the transition matrix has a 1 in every column."""
    bases = [(k, f.base) for k, f in el.coeffs]
    for _, g in bases:
        validate_base(sys, g)
    if isinstance(sys, PermutationSystem):
        index = {s: s for s in range(sys.size)}
        vals = np.zeros((2, sys.size), dtype=complex)
        for k, g in bases:
            vals[k] = g.values
        src, dst = np.arange(sys.size), np.array(sys.images)
    else:
        index = {w: i for i, w in enumerate(admissible_words(sys, max(g.depth for _, g in bases)))}
        vals = np.zeros((2, len(index)), dtype=complex)
        for k, g in bases:
            table = g.as_dict()
            vals[k] = [table[w[: g.depth]] for w in index]
        ends = [(w, b) for w in index for b, t in enumerate(sys.transition[w[-1]]) if t]
        src = np.array([index[w] for w, _ in ends])
        dst = np.array([index[w[1:] + (b,)] for w, b in ends])
    order = np.argsort(dst, kind="stable")
    return index, vals, src[order], dst[order]


def _cycle_states(sys: System, y: Point, period: int, index) -> list[int]:
    """Indices of the states a periodic point visits along its cycle."""
    if isinstance(y, StatePoint):
        out = [y.state]
        for _ in range(period - 1):
            out.append(sys.images[out[-1]])
        return out
    depth = len(next(iter(index)))
    return [index[tuple(y.symbol(i + j) for j in range(depth))] for i in range(period)]


def _pivot_sweeps(a0, a1, src, dst, t: float, trace: bool):
    """Run the min recursion at t (1 - _PIVOT_SHRINK) on the squared values
    a0, a1.  Returns (table, None) when no entry moves, (None, word) when an
    entry falls to <= 0, and (None, None) after _PIVOT_SWEEPS sweeps.  With
    ``trace`` the word lists the states of a word whose last float pivot is
    the least such entry, found by walking back through the minimizing
    predecessors of every sweep's table; without it the word is empty."""
    t2 = (t * (1.0 - _PIVOT_SHRINK)) ** 2
    starts = np.searchsorted(dst, np.arange(len(a0)))
    a = t2 - a0[dst] - a1[src]
    c = a1[src] * a0[src]
    history = [t2 - a0]
    for _ in range(_PIVOT_SWEEPS):
        table = history[-1]
        if not np.all(table > 0):
            return None, (_walk_back(a, c, src, dst, history) if trace else [])
        with np.errstate(over="ignore"):  # a tiny pivot gives -inf, which fails
            new = np.minimum(table, np.minimum.reduceat(a - c / table[src], starts))
        if np.array_equal(new, table):
            return table, None
        if trace:
            history.append(new)
        else:
            history = [new]
    return None, None


def _walk_back(a, c, src, dst, history) -> list[int]:
    """The word behind the least entry of the last table, as ``_pivot_sweeps``."""
    v = int(np.argmin(history[-1]))
    word = [v]
    for j in range(len(history) - 1, 0, -1):
        if history[j][v] == history[j - 1][v]:
            continue  # carried over from the sweep before
        ins = np.flatnonzero(dst == v)
        with np.errstate(over="ignore"):  # the sweep's own operations, so its bits
            cand = a[ins] - c[ins] / history[j - 1][src[ins]]
        v = int(src[ins[np.argmin(cand)]])
        word.append(v)
    return word[::-1]


def _dyadic(x: np.ndarray, scale: int) -> np.ndarray:
    """Integers X (an object array) with x = X 2^-scale exactly; ``scale``
    must be at least ``_scale_needed(x)``."""
    m, e = np.frexp(x)
    mant = np.ldexp(m, 53).astype(np.int64)
    shift = np.where(mant == 0, 0, e - 53 + scale)
    return mant.astype(object) << shift.astype(object)


def _scale_needed(x: np.ndarray) -> int:
    m, e = np.frexp(x)
    return int(np.max(np.where(m == 0, -(2**20), 53 - e), initial=-(2**20)))


def _exact_pass(t: float, vals: np.ndarray, src, dst, table: np.ndarray, e: int) -> bool:
    """Whether the table 2^(2e) ``table`` certifies T = t exactly: F > 0,
    F(v) <= T^2 - A0(v), and the edge inequality on every edge, with A_k the
    exact |f_k|^2 of the stored values, all as integers at the scale 2^-2s."""
    parts = np.concatenate([[t], vals.real.ravel(), vals.imag.ravel()])
    s = max(_scale_needed(parts), -((2 * e - _scale_needed(table)) // 2), 0)
    re, im = _dyadic(vals.real, s), _dyadic(vals.imag, s)
    sq = re * re + im * im  # (2, S): A0 and A1 at the scale 2^-2s
    a0, a1 = sq[0], sq[1]
    tt = int(_dyadic(np.array([t]), s)[0]) ** 2
    f = _dyadic(table, 2 * s + 2 * e)
    fu, fv = f[src], f[dst]
    if not (np.all(f > 0) and np.all(f <= tt - a0)):
        return False
    return bool(np.all(fv * fu <= (tt - a0[dst] - a1[src]) * fu - a1[src] * a0[src]))


def _cycle_norms(lanes):
    """[(turn, norm)] for the (2, p) values of f_0 and f_1 along each cycle:
    the norm of P_y(lambda*), lambda* = exp(2 pi i turn), in the periodic
    scan's placement, one batched SVD per period."""
    found = {}
    for p in sorted({v.shape[1] for v in lanes}):
        group = [(i, v) for i, v in enumerate(lanes) if v.shape[1] == p]
        turns = []
        for _, (f0, f1) in group:
            if not (f0.all() and f1.all()):
                turns.append(0.0)  # pi = 0: every lambda gives the same norm
            else:  # arg pi as a sum of angles, so that no product over- or underflows
                arg = math.fsum(np.angle(f1).tolist()) - math.fsum(np.angle(f0).tolist())
                turns.append((-arg / (2 * math.pi * p)) % 1.0)
        lam = np.exp(2j * np.pi * np.array(turns))
        with np.errstate(over="ignore"):  # entries sharing a position (p = 1) may overflow
            cells = {k: lam[:, None] ** k * np.stack([v[k] for _, v in group]) for k in (0, 1)}
            mats = _cycle(cells, p, None)
        _require_finite(mats)
        for (i, _), turn, val in zip(group, turns, np.linalg.svd(mats, compute_uv=False)[:, 0]):
            found[i] = (turn, float(val))
    return [found[i] for i in range(len(lanes))]


def _pivot_norm(
    sys: System,
    el: Element,
    points: Sequence[Point],
    periodic_points: Sequence[Point],
    n_max: int,
    grid_size: int,
):
    """(estimate, certificate) of an element of band <= 1 on a shift of
    finite type or a permutation.

    The lower end is the largest of ||P_y(lambda*)|| over the distinct cycles
    among the samples and the truncations along the failing words of the
    search, which reach points no sample does.  A sample point that is not
    periodic is only classified: the certificate bounds its truncations.
    The upper end is the first T that ``_exact_pass`` accepts, or the l1 sum.
    The certificate is (T, states, table, e), the accepted table being
    2^(2e) ``table``, or None when the upper end is the l1 sum.  ``n_max``
    and ``grid_size`` are only checked, by the scans' own checks.
    """
    _check_orbit_args(el, points, n_max)
    cycles = {}
    for y, p in zip(periodic_points, _sample_periods(sys, periodic_points, grid_size)):
        cycles.setdefault(point_key(y), (y, p))
    for x in points:  # a periodic orbit sample is one more cycle; the others add nothing
        if point_key(x) not in cycles:
            cls = classify(sys, x)
            if cls.is_periodic:
                cycles[point_key(x)] = (x, cls.period)
    if not el.coeffs:  # the zero element
        return NormEstimate(NormBracket(0.0, 0.0, "", "coefficient l1 sum"), (), "periodic"), None
    l1 = l1_upper_bound(el)
    if not math.isfinite(l1):
        raise NonFinite("bracket endpoints must be finite")
    index, vals, src, dst = _state_graph(sys, el)
    # cycles along which the values repeat an earlier one's byte for byte share its SVD
    walks = ((y, vals[:, _cycle_states(sys, y, p, index)]) for y, p in cycles.values())
    lanes = list(_distinct(walks))
    traces = []
    lower, witness, detail = 0.0, "periodic", ""
    for (y, _), (turn, val) in zip(lanes, _cycle_norms([v for _, v in lanes])):
        label = f"y={_point_label(y)} angle={turn:.6f}"
        traces.append((f"cycle {label}", val))
        if val > lower:
            lower, detail = val, f"periodic {label}"
    states = list(index)
    # the search runs on values rescaled by a power of two, so no square overflows
    e = int(np.frexp(np.max(np.abs(vals.view(float))))[1])
    a0, a1 = np.abs(np.ldexp(vals.view(float), -e).view(complex)) ** 2
    cert = None
    # zero at every sampled cycle: start where a failing word has room to show
    t = lower * (1.0 + _PIVOT_WIDTH) or l1 * _PIVOT_WIDTH
    while t < l1:
        table, word = _pivot_sweeps(a0, a1, src, dst, math.ldexp(t, -e), trace=False)
        if table is not None and _exact_pass(t, vals, src, dst, table, e):
            traces.append((f"pivot states={len(states)} pass", t))
            cert = (t, states, table, e)
            break
        traces.append((f"pivot states={len(states)} fail", t))
        if word is not None:  # a float pivot fell to <= 0: find its word
            word = _pivot_sweeps(a0, a1, src, dst, math.ldexp(t, -e), trace=True)[1]
            val = spectral_norm(_scatter_bands(vals[:, word], len(word)))
            if val > lower:
                lower, witness = val, "orbit"
                detail = f"orbit word={_word_label(states, word)} n={len(word)}"
        t = max(lower, t) * (1.0 + _PIVOT_WIDTH)
    if cert is None:  # l1 dominates every truncation; max() only absorbs the SVD's rounding
        bracket = NormBracket(lower, max(l1, lower), detail, "coefficient l1 sum")
    else:
        bracket = NormBracket(lower, cert[0], detail, "pivot-graph certificate")
    return NormEstimate(bracket, tuple(traces), witness), cert


def _word_label(states, word: list[int]) -> str:
    """The symbols of the word that a walk through the states reads: on a
    shift, the first state's word and the last symbol of each later one; on
    a permutation, the states."""
    if isinstance(states[0], tuple):
        return "".join(map(str, states[word[0]] + tuple(states[s][-1] for s in word[1:])))
    return ",".join(str(states[s]) for s in word)


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

    The samples are scanned in ascending period, those of one period together.
    Samples of one period whose coefficient values along the cycle agree byte
    for byte have the same cells, so only the first of them is assembled,
    certified and SVD'd; the copies could set no trace row or strict maximum
    that it does not.  A cell's SVD runs only where it could raise a trace
    row.  A sample of at most 2b + 1 points, b the band, wraps onto itself and
    is SVD'd whole.  For a longer one, cell j's floor is the least trace row
    over its angles that the shorter samples set (zero, which certifies
    nothing, in the first period), and a cyclic banded LDL^H
    (``_certify_below``) skips every cell it proves strictly below its floor,
    with the slack ``_cycle_slack(p)``.  A skipped cell's computed norm could
    move no trace row and could not be the maximum, so the bracket, the traces
    and the witness (the first strict maximum in sample order, picked after
    the scan) are exactly those of SVDing every cell.
    """
    require_semicrossed(el)
    periods = _sample_periods(sys, periodic_points, grid_size)
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
            keep = ~_certify_below(bands, floor, [p], band)[0]
        s = np.zeros(len(cells))
        kept = np.flatnonzero(keep)
        step = max(1, _SVD_CHUNK // (p * p))
        for c in range(0, len(kept), step):  # in chunks, so that no stack is large
            at = kept[c : c + step]
            with np.errstate(over="ignore"):  # bands sharing entries (p <= band) may overflow
                mats = _cycle({k: cells[at, b] for b, k in enumerate(ks)}, p, None)
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

    The witness records which family achieved the lower bound.  Band <= 1
    on a shift of finite type or a permutation takes ``_pivot_norm``.
    """
    if isinstance(sys, (ShiftOfFiniteType, PermutationSystem)) and el.max_power <= 1:
        return _pivot_norm(sys, el, points, periodic_points, n_max, grid_size)[0]
    a = orbit_norm_estimate(sys, el, points, n_max)
    b = periodic_norm_estimate(sys, el, periodic_points, grid_size)
    low = b if b.bracket.lower >= a.bracket.lower else a  # a tie goes to the periodic family
    high = a if a.bracket.upper <= b.bracket.upper else b  # and to the orbit family
    lower = low.bracket.lower
    traces = tuple((f"orbit {k}", v) for k, v in a.traces) + tuple(
        (f"periodic {k}", v) for k, v in b.traces
    )
    return NormEstimate(
        NormBracket(lower, max(high.bracket.upper, lower), low.witness, high.bracket.upper_method),
        traces,
        "periodic" if low is b else "orbit",
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
    lift = periodic_lift(sys, y)
    p = lift.period
    return _cycle(_lift_orbits(sys, el.coeffs, lift, 0, p), p, lam, wraps=True)


def periodic_vector_check(
    sys: System,
    y: Point,
    lam: complex,
    el: Element,
    blocks: int,
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
    n = blocks * p + band
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
) -> dict:
    """Windowed two-sided norm against the supremum of the (2M+1)-point orbit
    truncations taken over backward shifts of the extended point."""
    require_semicrossed(el)
    n = 2 * half_width + 1
    bilateral = spectral_norm(bilateral_matrix(sys, xt, el, half_width))
    ys = {point_key(y): y for y in map(xt.coordinate, range(1, n + 1))}
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
