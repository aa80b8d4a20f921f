"""Verification suite: each check exercises one headline behavior over a
seeded corpus and reports pass/fail rows with measured defects.

The CLI's verify command and the acceptance tests both run these; budgets
control corpus sizes but the tolerances are fixed.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

import numpy as np

from . import corpus
from .corpus import Budgets
from .elements import (
    Element,
    add,
    compose_shift_element,
    constant_element,
    from_base,
    is_semicrossed,
    l1_upper_bound,
    shift_element,
    times_shift_power,
)
from .errors import NonFinite
from .extension import (
    AlwaysMin,
    ExplicitTail,
    SeededRandom,
    classify_lift,
    lift_point,
    periodic_lift,
    shift,
    verify_transfer,
)
from .functions import TrigPoly, evaluate, evaluate_base
from .norms import (
    bilateral_orbit_check,
    embedding_check,
    periodic_vector_check,
    semicrossed_norm,
    spectral_norm,
    _point_label,
)
from .reps import (
    BackwardOrbitRep,
    BilateralWindowRep,
    OrbitTruncation,
    PeriodicOrbitRep,
    bilateral_matrix,
    covariance_defect,
    invariant_subspaces_are_tails,
    orbit_matrix,
    periodic_ext_matrix,
)
from .systems import (
    CircleTimesK,
    PermutationSystem,
    RationalPoint,
    ShiftOfFiniteType,
    StatePoint,
    WordPoint,
    classify,
    forward_orbit,
    point_key,
    preimages,
    rational,
    separating_function,
)


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    check: str
    rows: tuple[CheckRow, ...]

    @property
    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed]


def _system_pool():
    """(label, system, its periodic points of period at most 5)."""
    systems = [
        ("circle2", corpus.doubling_map()),
        ("circle3", CircleTimesK(3)),
        ("goldenmean", corpus.golden_mean_shift()),
        ("full2", ShiftOfFiniteType(((1, 1), (1, 1)))),
        ("perm3", PermutationSystem((1, 2, 0))),
    ]
    return [(label, sys, corpus.periodic_points(sys, 5)) for label, sys in systems]


def _some_point(sys, periodic, rng: random.Random):
    if isinstance(sys, CircleTimesK):
        q = rng.randrange(3, 64)
        return RationalPoint(Fraction(rng.randrange(q), q))
    return rng.choice(periodic)


# ---------------------------------------------------------------------------
# 1. covariance identities on randomized representations


def check_covariance(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    rng = random.Random(b.seed)
    pool = _system_pool()
    rows = []
    for i in range(200):
        label, sys, periodic = pool[i % len(pool)]
        f = corpus.random_base(sys, rng)
        per = rng.choice(periodic)
        kind = i % 4
        if kind == 0:
            spec = OrbitTruncation(_some_point(sys, periodic, rng), 5 + rng.randrange(12))
            spec_label = f"orbit n={spec.size}"
        elif kind == 1:
            lam = complex(np.exp(2j * np.pi * rng.randrange(16) / 16))
            spec = PeriodicOrbitRep(per, lam)
            spec_label = "periodic"
        elif kind == 2:
            xt = (
                periodic_lift(sys, per)
                if i % 8 < 4
                else lift_point(sys, per, SeededRandom(b.seed + i))
            )
            spec = BilateralWindowRep(xt, 3 + rng.randrange(6))
            spec_label = f"bilateral M={spec.half_width}"
        else:
            xt = (
                periodic_lift(sys, per)
                if i % 8 < 4
                else lift_point(sys, per, SeededRandom(b.seed + i))
            )
            spec = BackwardOrbitRep(xt, 5 + rng.randrange(10))
            spec_label = f"backward n={spec.size}"
        defect = covariance_defect(sys, spec, f)
        tol = 1e-12 if isinstance(sys, CircleTimesK) else 0.0
        rows.append(
            CheckRow(
                f"case{i:03d} {label} {spec_label}",
                defect <= tol,
                f"defect={defect:.3e} tol={tol:.0e}",
            )
        )
    return CheckReport("covariance", tuple(rows))


# ---------------------------------------------------------------------------
# 2. classification of lifts: periodic points lift periodically, the orbit
#    of 1/2 never looks periodic upstairs


def check_periodic_lifts(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    sys = corpus.doubling_map()
    rows = []
    for x in corpus.periodic_rationals(sys, 63):
        want = classify(sys, x)
        lifted = periodic_lift(sys, x)
        got = classify_lift(sys, lifted, 128)
        ok = got.is_periodic and got.period == want.period
        rows.append(
            CheckRow(
                f"lift {_point_label(x)}",
                ok,
                f"base period={want.period} lift={got.kind}({got.period})",
            )
        )
    half = rational(1, 2)
    choosers = [AlwaysMin()] + [SeededRandom(b.seed * 100 + i) for i in range(8)]
    choosers.append(ExplicitTail(lambda s, p: preimages(s, p)[-1], "max-preimage"))
    for ch in choosers:
        lifted = lift_point(sys, half, ch)
        got = classify_lift(sys, lifted, 128)
        rows.append(
            CheckRow(
                f"lift 1/2 via {ch.describe()}",
                not got.is_periodic,
                f"classified {got.kind} after {got.steps_examined} coords",
            )
        )
    return CheckReport("periodic-lift", tuple(rows))


# ---------------------------------------------------------------------------
# 3. base/extension property transfer over every small transition matrix


def check_transfer(budgets: Budgets | None = None) -> CheckReport:
    rows = []
    for size in (1, 2, 3):
        for bits in product((0, 1), repeat=size * size):
            mat = tuple(
                tuple(bits[r * size + c] for c in range(size)) for r in range(size)
            )
            if any(not any(row) for row in mat):
                continue
            if any(not any(mat[r][c] for r in range(size)) for c in range(size)):
                continue
            sys = ShiftOfFiniteType(mat)
            results = []
            ok = True
            for prop in ("transitive", "dense_periodic", "minimal", "dense_recurrent"):
                base, extension = verify_transfer(sys, prop)
                results.append(f"{prop}={base}/{extension}")
                ok = ok and base == extension
            name = "".join(str(v) for v in bits)
            rows.append(CheckRow(f"matrix {size}x{size} {name}", ok, " ".join(results)))
    return CheckReport("transfer", tuple(rows))


# ---------------------------------------------------------------------------
# 4. compression monotonicity and the l1 cap


def check_compression(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    rng = random.Random(b.seed + 4)
    pool = _system_pool()
    sizes = [4, 8, 16, 32, 64]
    rows = []
    for i in range(100):
        label, sys, periodic = pool[i % len(pool)]
        el = corpus.random_semicrossed_element(sys, b.seed * 1000 + i)
        cap = l1_upper_bound(el) + 1e-10
        pts = [_some_point(sys, periodic, rng) for _ in range(3)]
        worst_drop = 0.0
        worst_over = 0.0
        ok = True
        for x in pts:
            full = orbit_matrix(sys, x, el, sizes[-1])
            prev = 0.0
            for n in sizes:
                val = spectral_norm(full[:n, :n])
                worst_drop = max(worst_drop, prev - val)
                worst_over = max(worst_over, val - cap)
                if val < prev - 1e-9 or val > cap:
                    ok = False
                prev = val
        rows.append(
            CheckRow(
                f"element{i:03d} {label}",
                ok,
                f"max_drop={worst_drop:.3e} over_cap={worst_over:.3e}",
            )
        )
    return CheckReport("compression", tuple(rows))


# ---------------------------------------------------------------------------
# 5. norm brackets for the named element family, with an independent oracle


def _named_elements(sys: CircleTimesK, seed: int) -> list[tuple[str, Element]]:
    rng = random.Random(seed + 5)
    f0 = corpus.random_trig(rng, 3, 0.9)
    f1 = corpus.random_trig(rng, 3, 0.9)
    rand = add(from_base(sys, f0), from_base(sys, f1, power=1))
    return [
        ("U", shift_element(sys)),
        ("1+U", add(constant_element(sys, 1.0), shift_element(sys))),
        ("U*cos", corpus.cosine_element(sys)),
        ("random", rand),
    ]


def _oracle_values(sys, el: Element, walk, trim: bool, memo: dict | None = None):
    """Each coefficient's values along the walk, by scalar evaluation; an
    open orbit of n points reads the first n - k of them at power k.
    ``memo`` maps each coefficient to the values at the point keys met so
    far, which are not evaluated again."""
    memo = {} if memo is None else memo
    n = len(walk)
    out = []
    for k, f in el.coeffs:
        seen = memo.setdefault(f.base, {})
        vals = []
        for pt in walk[: n - k] if trim else walk:
            key = point_key(pt)
            if key not in seen:
                seen[key] = evaluate_base(sys, f.base, pt)
            vals.append(seen[key])
        out.append((k, np.array(vals, dtype=complex)))
    return out


# The orbit oracle's norms, by LDL^H pivot bisection
#
# An open orbit of n points with values v_k (v_k[i] = f_k at point i, zero
# from n - k on) gives M = sum_k S^k diag(v_k), S the down shift, so
# H = M^H M is a Hermitian band of width b = the largest power:
# H[i, i + d] = sum_{k >= d} conj(v_k[i]) v_{k-d}[i + d].  sigma lies above
# lambda_max(H) exactly when sigma I - H has an LDL^H with every pivot
# positive, and its factor keeps the band, so one test costs O(n b^2).
#
# Forming H (at most b + 1 products per entry, each sum bounded by
# Cauchy-Schwarz by lambda = ||M||^2) and factoring A = sigma I - H (Higham,
# Accuracy and Stability of Numerical Algorithms, Thm 10.3, with entries of
# |L| D |L^H| at most sigma) each perturb 2b + 1 entries per row by
# gamma_{b+2} max(sigma, lambda).  With a factor 4 for complex numbers held
# as real pairs, the test at sigma is exact for some H + E with
# ||E|| <= eps max(sigma, lambda), eps = 8 (2b + 1)(b + 2) u, u = 2^-53: a
# pass shows lambda < sigma (1 + eps), and a failure sigma < lambda (1 + eps)
# (Thm 10.7: the factorization completes when the least eigenvalue of A
# clears its backward error).  Multisection keeps a failing lo (or 0) below
# a passing hi, from hi = (sum_k max_i |v_k[i]|)^2 (1 + _BISECT_HEADROOM),
# above ||M||^2 by the triangle inequality and tested before the first
# round, until hi - lo <= _BISECT_WIDTH hi.  hi is then ||M||^2 to within a
# relative _BISECT_WIDTH + eps, and sqrt(hi) is ||M|| to within half that.
#
# The arithmetic is real and elementwise, one ufunc per operation, and a
# lane's sigmas depend on its own [lo, hi] only, so a lane reads the same
# bits alone or in any batch; zero bands padding a narrower lane add exact
# (signed) zeros, which move no pivot.  This path shares no code with the
# estimator's skip certificate, whose faults it exists to catch.

_BISECT_POINTS = 15  # shifts tested per lane and round: 4 bits of sigma
_BISECT_WIDTH = 2.0**-46
_BISECT_HEADROOM = 2.0**-20


def _pivots_positive(hre: np.ndarray, him: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(lanes, shifts) mask: True where sigma I - H has only positive pivots.

    ``hre`` and ``him`` (b + 1, lanes, b + n) hold the real and imaginary parts
    of H[i, i + d] at column b + i, after b zero columns that stand for the
    rows before row 0.  Row i meets only the previous b rows: it forms
    w_r = L[i, i - r] D[i - r] from r = b down to 1, then its pivot D[i].
    """
    b = hre.shape[0] - 1
    n = hre.shape[2] - b
    ok = np.ones(sigma.shape, dtype=bool)
    piv = [1.0] * b  # piv[r - 1] = D[i - r]
    # low[r - 1][s - 1] = L[i - r, i - r - s] as (re, im), the offsets s < b
    # the later rows read
    low = [[(0.0, 0.0)] * (b - 1) for _ in range(b - 1)]
    for i in range(n):
        c = b + i
        w = {}
        for r in range(b, 0, -1):
            # A[i, i - r] = -conj(H[i - r, i])
            wr, wi = -hre[r, :, c - r, None], him[r, :, c - r, None]
            for t in range(b, r, -1):  # - w_t conj(L[i - r, i - t])
                lr, li = low[r - 1][t - r - 1]
                tr, ti = w[t]
                wr = wr - (tr * lr + ti * li)
                wi = wi - (ti * lr - tr * li)
            w[r] = wr, wi
        d = sigma - hre[0, :, c, None]
        for r in range(b, 0, -1):
            wr, wi = w[r]
            d = d - (wr * wr + wi * wi) / piv[r - 1]
        good = d > 0  # never `not d <= 0`: a NaN pivot must fail
        ok &= good
        # a failed entry restarts from a unit pivot and a zero row, so it
        # keeps factoring bounded numbers
        row = [
            (np.where(good, w[s][0] / piv[s - 1], 0.0), np.where(good, w[s][1] / piv[s - 1], 0.0))
            for s in range(1, b)
        ]
        piv = [np.where(good, d, 1.0), *piv][:b]
        low = [row, *low][: b - 1]
    return ok


def _oracle_orbit_norms(lanes, n: int) -> list[float]:
    """||M|| of each open orbit lane of n points, given as its [(k, v_k)]
    with v_k of length n - k, by one multisection over all the lanes."""
    if not lanes:
        return []
    b = max((k for vals in lanes for k, _ in vals), default=0)
    re = np.zeros((b + 1, len(lanes), n))
    im = np.zeros_like(re)
    for j, vals in enumerate(lanes):
        for k, v in vals:
            re[k, j, : n - k] = v.real
            im[k, j, : n - k] = v.imag
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise NonFinite("oracle values are not finite")
    # an exact power-of-two rescale puts every lane's entries below 1
    e = np.frexp(np.maximum(np.abs(re), np.abs(im)).max(axis=(0, 2)))[1]
    re = np.ldexp(re, -e[:, None])
    im = np.ldexp(im, -e[:, None])
    hre = np.zeros((b + 1, len(lanes), b + n))
    him = np.zeros_like(hre)
    for d in range(b + 1):
        for k in range(d, b + 1):  # conj(v_k[i]) v_{k-d}[i + d]
            ar, ai = re[k, :, : n - d], im[k, :, : n - d]
            br, bi = re[k - d, :, d:], im[k - d, :, d:]
            hre[d, :, b : b + n - d] += ar * br + ai * bi
            him[d, :, b : b + n - d] += ar * bi - ai * br
    top = np.sqrt(re * re + im * im).max(axis=2).sum(axis=0)
    hi_end = top * top * (1.0 + _BISECT_HEADROOM)
    lo_end = np.zeros_like(hi_end)
    live = np.flatnonzero(hi_end > 0)  # an all-zero lane has norm 0
    if not _pivots_positive(hre[:, live], him[:, live], hi_end[live, None]).all():
        raise ArithmeticError("oracle start bound fails its own pivot test")
    frac = np.arange(1, _BISECT_POINTS + 1) / (_BISECT_POINTS + 1)
    while live.size:
        lo, up = lo_end[live, None], hi_end[live, None]
        grid = np.concatenate([lo, lo + (up - lo) * frac, up], axis=1)
        ok = _pivots_positive(hre[:, live], him[:, live], grid[:, 1:-1])
        # the first passing shift is the new hi, the one below it the new lo
        first = np.where(ok.any(axis=1), ok.argmax(axis=1), _BISECT_POINTS)
        rows = np.arange(live.size)
        lo_end[live] = grid[rows, first]
        hi_end[live] = grid[rows, first + 1]
        live = live[hi_end[live] - lo_end[live] > _BISECT_WIDTH * hi_end[live]]
    return np.ldexp(np.sqrt(hi_end), e).tolist()


# The periodic oracle's lambda choice, by the Floquet phase
#
# A cycle of period p with values v_0, v_1 (band <= 1; a missing power reads
# zero) gives P(lambda) = D_0 + lambda Z D_1, Z the cyclic down shift
# (Z e_i = e_{i+1 mod p}), |lambda| = 1.  Column i of P is
# v_0[i] e_i + lambda v_1[i] e_{i+1}, so for p >= 3 the Gram G = P^H P is a
# periodic Jacobi matrix with G[i, i] = |v_0[i]|^2 + |v_1[i]|^2 and
# G[i + 1, i] = lambda conj(v_0[i + 1]) v_1[i].  No modulus depends on
# lambda; only the loop product kappa = prod_i G[i + 1, i] = lambda^p pi,
# pi = prod_i conj(v_0[i]) v_1[i], does.  Expanding det(E - G) over
# permutations, the p-cycle i -> i + 1 gives sign (-1)^(p-1) times
# (-1)^p kappa = -kappa, its inverse gives -conj(kappa), and every other
# permutation reads only the diagonal and the |G[i + 1, i]|^2.  So
# det(E - G) = Delta_0(E) - 2 Re kappa with Delta_0 monic and free of
# lambda.  For p = 2 the diagonal is fixed and
# G[1, 0] = conj(lambda v_1[1]) v_0[0] + lambda conj(v_0[1]) v_1[0] has
# |G[1, 0]|^2 = |v_1[1] v_0[0]|^2 + |v_0[1] v_1[0]|^2 + 2 Re(lambda^2 pi);
# for p = 1, |P|^2 = |v_0|^2 + |v_1|^2 + 2 Re(lambda pi).
#
# In every case ||P(lambda)||^2 = lambda_max(G) is nondecreasing in
# c = Re(lambda^p pi).  For p >= 3 take c' > c and E = lambda_max(G_c):
# det(E - G_c') = Delta_0(E) - 2c' = -2 (c' - c) < 0, while the monic
# det(E' - G_c') is positive for large E', so G_c' has an eigenvalue above E.
# For p = 2, lambda_max = tr/2 + sqrt((G00 - G11)^2 / 4 + |G10|^2) grows
# with |G10|^2, and for p = 1 the claim is the formula.  With
# lambda = exp(2 pi i theta), c = |pi| cos(2 pi p theta + arg pi), so over
# any set of angles the norm is largest at the angles of largest key
# cos(2 pi p theta + arg pi), and when some v_0[i] or v_1[i] is zero
# (pi = 0) it is one number for every lambda.  arg pi is taken as the
# exactly rounded sum of the angles of v_1 minus those of v_0, so no
# product over- or underflows.
#
# The key's rounding error stays below 100 (p + 1) u, u = 2^-53, far under
# _KEY_TIE for every period classify can return (p <= 4097); angles whose
# key lies within _KEY_TIE of the best one, which include every angle
# with the same lambda^p, are evaluated too, and the largest computed norm
# among them is the set's maximum.  The coarse winner j fixes the fine
# window (j + [-1, 1]) / grid; tied coarse angles share lambda^p, so their
# windows cover the same lambda^p.  The norms come from eigvalsh of the
# same Gram matrices a dense scan of every angle builds, so the result
# agrees with that scan to its rounding.  This path shares no code with
# the estimator's lambda scan, whose faults it exists to catch.

_ORACLE_REFINE = 100  # fine angles on each side of the coarse argmax
_KEY_TIE = 2.0**-30  # keys this close to the best one are evaluated too


def _oracle_periodic_scan(vals, p: int, grid: int) -> float:
    """Largest ||P(lambda)|| of a cycle of p points with values [(k, v_k)],
    k <= 1, over ``grid`` angles and the refined window around the coarse
    maximizer; each set takes one batched Gram eigvalsh at its best keys."""
    band = max((k for k, _ in vals), default=0)
    if band > 1:
        raise ValueError(f"the periodic oracle takes bands 0 and 1, not band {band}")
    if not all(np.isfinite(v).all() for _, v in vals):
        raise NonFinite("oracle values are not finite")
    by_power = dict(vals)
    v0, v1 = (by_power.get(k, np.zeros(p, dtype=complex)) for k in (0, 1))
    flat = not (v0.all() and v1.all())  # pi = 0
    phase = math.fmod(math.fsum(np.concatenate([np.angle(v1), -np.angle(v0)])), 2 * math.pi)
    stack = np.zeros((len(vals), p, p), dtype=complex)
    for m, (k, v) in enumerate(vals):
        stack[m, (np.arange(p) + k) % p, np.arange(p)] = v  # U^k f_k moves e_i to e_{i+k mod p}
    ks = np.array([k for k, _ in vals])

    def best(angles: np.ndarray):
        """Indices of the angles of best key, and their norms."""
        if flat:
            pick = np.zeros(1, dtype=int)
        else:
            key = np.cos(2 * np.pi * p * angles + phase)
            pick = np.flatnonzero(key >= key.max() - _KEY_TIE)
        # lambda^k at every angle, so the picked ones carry a dense scan's bits
        powers = np.exp(2j * np.pi * angles)[:, None] ** ks[None, :]
        mats = np.einsum("lk,kij->lij", powers[pick], stack)
        grams = np.matmul(mats.conj().transpose(0, 2, 1), mats)
        return pick, np.sqrt(np.clip(np.linalg.eigvalsh(grams)[:, -1], 0.0, None))

    pick, coarse = best(np.arange(grid) / grid)
    j = int(pick[np.argmax(coarse)])
    _, fine = best((j + np.linspace(-1.0, 1.0, 2 * _ORACLE_REFINE + 1)) / grid)
    return max(float(coarse.max()), float(fine.max()))


_ORACLE_N = 512  # size of the oracle's orbit truncations


def _norm_oracles(sys, els, points, periodic_points, grid: int) -> list[float]:
    """Oracle norm of each element: the largest over the _ORACLE_N-square
    orbit truncations at ``points`` and the lambda scans at ``periodic_points``.

    Each orbit and cycle is walked once, for all the elements, and dropped
    before the next.  Walks along which an element's coefficients read the
    same values build the same matrices, so each distinct (kind, length,
    powers, values) is computed once, keyed by a SHA-256 digest of the
    values: U and 1 + U take one lane for all their orbits.  The distinct
    orbit lanes go through one pivot bisection (``_oracle_orbit_norms``),
    which gives each truncation's norm to within a relative
    (2^-46 + 8 (2b + 1)(b + 2) 2^-53) / 2, b the largest power.  Each
    distinct cycle takes the Floquet-phase scan (``_oracle_periodic_scan``):
    a Gram eigvalsh at the coarse and at the fine angles of best key, where
    a dense scan of all of them takes its maximum.  Elements of band above 1
    raise ValueError there.
    """
    memo: dict[tuple, float] = {}
    values: dict = {}  # coefficient -> point key -> value, for _oracle_values
    lanes: dict[tuple, list] = {}  # distinct orbit lanes, for the bisection
    keys: list[set] = [set() for _ in els]
    orbits = ((True, forward_orbit(sys, x, _ORACLE_N)) for x in points)
    cycles = ((False, forward_orbit(sys, y, classify(sys, y).period)) for y in periodic_points)
    for is_orbit, walk in chain(orbits, cycles):
        for e, el in enumerate(els):
            vals = _oracle_values(sys, el, walk, is_orbit, values)
            key = (is_orbit, len(walk)) + tuple((k, hashlib.sha256(v).digest()) for k, v in vals)
            keys[e].add(key)
            if is_orbit:
                lanes.setdefault(key, vals)
            elif key not in memo:
                memo[key] = _oracle_periodic_scan(vals, len(walk), grid)
    memo.update(zip(lanes, _oracle_orbit_norms(list(lanes.values()), _ORACLE_N)))
    return [max([0.0, *(memo[k] for k in ks)]) for ks in keys]


def check_norm_families(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    sys = corpus.doubling_map()
    points, periodic = corpus.default_samples(sys, b)
    oracle_points = sorted(points, key=point_key)[:24]
    named = _named_elements(sys, b.seed)
    oracles = _norm_oracles(sys, [el for _, el in named], oracle_points, periodic, b.grid_size)
    rows = []
    for (name, el), oracle in zip(named, oracles):
        est = semicrossed_norm(sys, el, points, periodic, b.n_max, b.grid_size)
        lower, upper = est.bracket.lower, est.bracket.upper
        width = est.bracket.width
        ok = width <= 5e-2 and lower - 1e-8 <= oracle <= upper + 1e-8
        detail = (
            f"bracket=[{lower:.6f},{upper:.6f}] width={width:.3e} "
            f"oracle={oracle:.6f} witness={est.witness}"
        )
        if name == "1+U":
            ok = ok and abs(lower - 2.0) <= 1e-9 and upper <= 2.0 + 1e-6
            ok = ok and est.witness == "periodic"
        rows.append(CheckRow(f"element {name}", ok, detail))
    return CheckReport("norm-families", tuple(rows))


# ---------------------------------------------------------------------------
# 6. embedded periodic vectors: orbit side dominates the periodic side and
#    the deficit halves when the block count doubles


def check_periodic_vectors(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    sys = corpus.doubling_map()
    rng = random.Random(b.seed + 6)
    pool = [
        y
        for y in corpus.orbit_representatives(sys, corpus.periodic_rationals(sys, 63))
        if classify(sys, y).period <= 10
    ]
    rows = []
    for i in range(50):
        y = pool[rng.randrange(len(pool))]
        lam = complex(np.exp(2j * np.pi * rng.randrange(32) / 32))
        f0 = corpus.random_trig(rng, 2, 0.8)
        f1 = corpus.random_trig(rng, 2, 0.8)
        el = add(from_base(sys, f0), from_base(sys, f1, power=1))
        if rng.random() < 0.3:
            el = add(el, from_base(sys, corpus.random_trig(rng, 2, 0.4), power=2))
        r64 = periodic_vector_check(sys, y, lam, el, 64)
        r128 = periodic_vector_check(sys, y, lam, el, 128)
        d64, d128 = r64["deficit"], r128["deficit"]
        floor = 1e-6 * max(1.0, r64["rhs"])
        if abs(d64) <= floor:
            ok = abs(d128) <= floor
            ratio_note = "degenerate"
        else:
            ratio = d128 / d64
            ok = 0.4 <= ratio <= 0.6
            ratio_note = f"ratio={ratio:.4f}"
        ok = ok and r64["lhs"] >= r64["rhs"] - 0.1
        rows.append(
            CheckRow(
                f"triple{i:02d} y={_point_label(y)} p={r64['period']}",
                ok,
                f"lhs64={r64['lhs']:.6f} rhs={r64['rhs']:.6f} "
                f"d64={d64:.3e} d128={d128:.3e} {ratio_note}",
            )
        )
    return CheckReport("periodic-vector", tuple(rows))


# ---------------------------------------------------------------------------
# 7. bilateral windows against orbit suprema


def check_bilateral(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    circle = corpus.doubling_map()
    cos = TrigPoly.from_coeffs({1: 0.5, -1: 0.5})
    cases = [
        (
            "perm3",
            PermutationSystem((1, 2, 0)),
            None,
            StatePoint(0),
        ),
        (
            "perm5",
            PermutationSystem((1, 2, 3, 4, 0)),
            None,
            StatePoint(0),
        ),
        ("circle 1+U*cos", circle, add(constant_element(circle, 1.0), corpus.cosine_element(circle)), rational(1, 3)),
        ("circle random", circle, None, rational(1, 7)),
        ("circle U*cos", circle, corpus.cosine_element(circle), rational(1, 5)),
    ]
    rows = []
    for i, (label, sys, el, base_pt) in enumerate(cases):
        if el is None:
            el = corpus.random_semicrossed_element(sys, b.seed * 50 + i, max_power=2)
        xt = periodic_lift(sys, base_pt)
        gaps = []
        for m in (32, 64, b.half_width):
            res = bilateral_orbit_check(sys, xt, el, m)
            gaps.append(res["gap"])
        ok = gaps[-1] <= 1e-2 and gaps[-1] <= gaps[0] + 1e-9
        rows.append(
            CheckRow(
                f"case {label}",
                ok,
                f"gaps={','.join(f'{g:.3e}' for g in gaps)}",
            )
        )
    return CheckReport("bilateral-orbit", tuple(rows))


# ---------------------------------------------------------------------------
# 8. the shift endomorphism on coefficients, plus the window interior block


def check_endomorphism(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    pool = _system_pool()
    samples_by = [
        corpus.canonical_ext_samples(sys, b.seed, max_period=3, lift_count=2)[:4]
        for _, sys, _ in pool
    ]
    rows = []
    for i in range(100):
        label, sys, periodic = pool[i % len(pool)]
        if i % 2 == 0:
            el = corpus.random_semicrossed_element(sys, b.seed * 300 + i)
        else:
            el = corpus.random_crossed_element(sys, b.seed * 300 + i)
        al = compose_shift_element(el)
        ok = al.powers == el.powers
        if is_semicrossed(el):
            ok = ok and is_semicrossed(al)
        worst = 0.0
        for xt in samples_by[i % len(pool)]:
            moved = shift(sys, xt)
            for (_, f1), (_, f2) in zip(el.coeffs, al.coeffs):
                lhs = evaluate(sys, f2, xt)
                rhs = evaluate(sys, f1, moved)
                worst = max(worst, abs(lhs - rhs))
        ok = ok and worst <= 1e-12
        block = ""
        if i % 5 == 0:
            xt = periodic_lift(sys, random.Random(i).choice(periodic))
            m = max(4, el.max_power + 2, -el.min_power + 2)
            w = bilateral_matrix(sys, xt, el, m)
            a = bilateral_matrix(sys, xt, al, m)
            defect = float(np.abs(a[: 2 * m, : 2 * m] - w[1:, 1:]).max())
            ok = ok and defect <= 1e-12
            block = f" interior_defect={defect:.3e}"
        rows.append(
            CheckRow(
                f"element{i:03d} {label}",
                ok,
                f"pointwise_defect={worst:.3e}{block}",
            )
        )
    return CheckReport("endomorphism", tuple(rows))


# ---------------------------------------------------------------------------
# 9a. pushdown mechanics: semicrossed output, unitary-invariant norms


def _periodic_lifts_for(sys):
    """Lifts of two orbits of period at most 4, of period 2 or more if any."""
    pts = corpus.periodic_points(sys, 4)
    reps = corpus.orbit_representatives(sys, pts)
    picked = [y for y in reps if classify(sys, y).period >= 2][:2]
    if not picked:
        picked = reps[:2]
    return [periodic_lift(sys, y) for y in picked]


def check_pushdown(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    pool = _system_pool()
    lifts_by = [_periodic_lifts_for(sys) for _, sys, _ in pool]
    rows = []
    for i in range(50):
        label, sys, _ = pool[i % len(pool)]
        g = corpus.random_crossed_element(
            sys, b.seed * 700 + i, max_power=2, max_depth=4, min_power=0
        )
        d = g.max_depth
        lifts = lifts_by[i % len(pool)]
        ok = True
        details = []
        for j in (0, 1, 2):
            m = d - 1 + j
            h = times_shift_power(g, m)
            ok = ok and is_semicrossed(h)
            worst = 0.0
            for lift in lifts:
                for lam in (1.0 + 0.0j, complex(np.exp(2j * np.pi / 3))):
                    before = spectral_norm(periodic_ext_matrix(sys, lift, lam, g))
                    after = spectral_norm(periodic_ext_matrix(sys, lift, lam, h))
                    worst = max(worst, abs(before - after))
            ok = ok and worst <= 1e-10
            details.append(f"m={m}:drift={worst:.3e}")
        rows.append(CheckRow(f"element{i:02d} {label} depth={d}", ok, " ".join(details)))
    return CheckReport("pushdown", tuple(rows))


# ---------------------------------------------------------------------------
# 9b. the two algebras bracket the same norms


def check_embedding(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    sys = corpus.doubling_map()
    points, periodic = corpus.default_samples(sys, b)
    # lift the sampled orbits themselves: the two-sided windows then probe
    # the same operators the one-sided estimate certifies, longest first
    by_period = sorted(periodic, key=lambda y: -classify(sys, y).period)
    lift_bases = [rational(0, 1), rational(1, 3), rational(1, 7)] + by_period[:8]
    seen = set()
    ext_pts = []
    for y in lift_bases:
        if point_key(y) not in seen:
            seen.add(point_key(y))
            ext_pts.append(periodic_lift(sys, y))
    rng = random.Random(b.seed + 9)
    elements = _named_elements(sys, b.seed)[:3]
    for i in range(3):
        elements.append(
            (
                f"random{i}",
                add(
                    from_base(sys, corpus.random_trig(rng, 3, 0.8)),
                    from_base(sys, corpus.random_trig(rng, 3, 0.8), power=1),
                ),
            )
        )
    rows = []
    for name, el in elements:
        res = embedding_check(
            sys, el, points, periodic, ext_pts, n_max=128, grid_size=b.grid_size, half_width=b.half_width
        )
        semi, crossed = res["semicrossed"], res["crossed"]
        rows.append(
            CheckRow(
                f"element {name}",
                bool(res["overlap"]),
                f"semicrossed=[{semi.lower:.6f},{semi.upper:.6f}] "
                f"crossed=[{crossed.lower:.6f},{crossed.upper:.6f}]",
            )
        )
    return CheckReport("embedding", tuple(rows))


# ---------------------------------------------------------------------------
# 10. invariant coordinate subspaces are exactly the tails


def check_nest_tails(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    circle = corpus.doubling_map()
    gm = corpus.golden_mean_shift()
    dens = [11, 13, 19, 23, 29, 37, 43, 53, 59, 61, 67, 71, 79, 83, 101, 103]
    rows = []
    cases = []
    for idx, q in enumerate(dens):
        n = 4 + idx % 7
        cases.append(("circle", circle, RationalPoint(Fraction(1, q)), n))
    gm_words = [
        WordPoint((0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1), (0,)),
        WordPoint((1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1), (0,)),
        WordPoint((0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1), (0, 1)),
        WordPoint((1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 1), (0,)),
    ]
    for idx, w in enumerate(gm_words):
        cases.append(("goldenmean", gm, w, 4 + (idx + 3) % 7))
    for idx, (label, sys, x, n) in enumerate(cases):
        orbit = forward_orbit(sys, x, n)
        funcs = [separating_function(sys, orbit, j, n) for j in range(n)]
        good = invariant_subspaces_are_tails(sys, x, funcs, n)
        rows.append(
            CheckRow(
                f"case{idx:02d} {label} x={_point_label(x)} n={n}",
                bool(good),
                f"pairs={n * (n - 1) // 2}",
            )
        )
    return CheckReport("nest-tails", tuple(rows))


ALL_CHECKS = {
    "covariance": check_covariance,
    "periodic-lift": check_periodic_lifts,
    "transfer": check_transfer,
    "compression": check_compression,
    "norm-families": check_norm_families,
    "periodic-vector": check_periodic_vectors,
    "bilateral-orbit": check_bilateral,
    "endomorphism": check_endomorphism,
    "pushdown": check_pushdown,
    "embedding": check_embedding,
    "nest-tails": check_nest_tails,
}
