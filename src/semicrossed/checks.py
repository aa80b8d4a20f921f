"""Verification suite: each check exercises one headline behavior over a
seeded corpus and reports pass/fail rows with measured defects.

The CLI's verify command and the acceptance tests both run these; budgets
control corpus sizes but the tolerances are fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

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
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[CheckRow]:
        return [r for r in self.rows if not r.passed]


def _system_pool():
    return [
        ("circle2", corpus.doubling_map()),
        ("circle3", CircleTimesK(3)),
        ("goldenmean", corpus.golden_mean_shift()),
        ("full2", ShiftOfFiniteType(((1, 1), (1, 1)))),
        ("perm3", PermutationSystem((1, 2, 0))),
    ]


def _some_periodic_point(sys, rng: random.Random):
    pts = corpus.periodic_points(sys, 5)
    return pts[rng.randrange(len(pts))]


def _some_point(sys, rng: random.Random):
    if isinstance(sys, CircleTimesK):
        q = rng.randrange(3, 64)
        return RationalPoint(Fraction(rng.randrange(q), q))
    return _some_periodic_point(sys, rng)


# ---------------------------------------------------------------------------
# 1. covariance identities on randomized representations


def check_covariance(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    rng = random.Random(b.seed)
    pool = _system_pool()
    rows = []
    for i in range(200):
        label, sys = pool[i % len(pool)]
        f = corpus.random_base(sys, rng)
        per = _some_periodic_point(sys, rng)
        kind = i % 4
        if kind == 0:
            spec = OrbitTruncation(_some_point(sys, rng), 5 + rng.randrange(12))
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
        label, sys = pool[i % len(pool)]
        el = corpus.random_semicrossed_element(sys, b.seed * 1000 + i)
        cap = l1_upper_bound(el) + 1e-10
        pts = [_some_point(sys, rng) for _ in range(3)]
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


def _oracle_orbit_norm(sys, el: Element, x, n: int) -> float:
    # independent assembly + eigenvalue route (M^H M), not the svd path
    orbit = forward_orbit(sys, x, n)
    m = np.zeros((n, n), dtype=complex)
    for k, f in el.coeffs:
        for i in range(n - k):
            m[i + k, i] = evaluate_base(sys, f.base, orbit[i])
    h = m.conj().T @ m
    top = float(np.linalg.eigvalsh(h)[-1])
    return math.sqrt(max(top, 0.0))


def _oracle_periodic_scan(sys, el: Element, y, grid: int, refine: int = 100):
    """Independent lambda scan: coarse grid plus a refined window around the
    coarse argmax, singular values via the Gram eigenvalue route."""
    cls = classify(sys, y)
    p = cls.period
    orbit = forward_orbit(sys, y, p)
    bands = []
    for k, f in el.coeffs:
        ck = np.zeros((p, p), dtype=complex)
        for i, pt in enumerate(orbit):  # U^k f_k moves e_i to e_{i+k mod p}
            ck[(i + k) % p, i] = evaluate_base(sys, f.base, pt)
        bands.append((k, ck))
    stack = np.stack([m for _, m in bands])
    ks = np.array([k for k, _ in bands])

    def scan(angles: np.ndarray) -> np.ndarray:
        lams = np.exp(2j * np.pi * angles)
        powers = lams[:, None] ** ks[None, :]
        mats = np.einsum("lk,kij->lij", powers, stack)
        grams = np.matmul(mats.conj().transpose(0, 2, 1), mats)
        eigs = np.linalg.eigvalsh(grams)[:, -1]
        return np.sqrt(np.clip(eigs, 0.0, None))

    coarse_angles = np.arange(grid) / grid
    coarse = scan(coarse_angles)
    j = int(np.argmax(coarse))
    fine_angles = (j + np.linspace(-1.0, 1.0, 2 * refine + 1)) / grid
    fine = scan(fine_angles)
    return max(float(coarse.max()), float(fine.max()))


def _norm_oracle(sys, el: Element, points, periodic_points, grid: int) -> float:
    best = 0.0
    for x in points:
        best = max(best, _oracle_orbit_norm(sys, el, x, 512))
    for y in periodic_points:
        best = max(best, _oracle_periodic_scan(sys, el, y, grid))
    return best


def check_norm_families(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    sys = corpus.doubling_map()
    points, periodic = corpus.default_samples(sys, b)
    oracle_points = sorted(points, key=point_key)[:24]
    rows = []
    for name, el in _named_elements(sys, b.seed):
        est = semicrossed_norm(sys, el, points, periodic, b.n_max, b.grid_size)
        lower, upper = est.bracket.lower, est.bracket.upper
        width = est.bracket.width
        oracle = _norm_oracle(sys, el, oracle_points, periodic, b.grid_size)
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
    rows = []
    for i in range(100):
        label, sys = pool[i % len(pool)]
        if i % 2 == 0:
            el = corpus.random_semicrossed_element(sys, b.seed * 300 + i)
        else:
            el = corpus.random_crossed_element(sys, b.seed * 300 + i)
        al = compose_shift_element(el)
        ok = al.powers == el.powers
        if is_semicrossed(el):
            ok = ok and is_semicrossed(al)
        samples = corpus.canonical_ext_samples(sys, b.seed, max_period=3, lift_count=2)
        worst = 0.0
        for xt in samples[:4]:
            moved = shift(sys, xt)
            for (_, f1), (_, f2) in zip(el.coeffs, al.coeffs):
                lhs = evaluate(sys, f2, xt)
                rhs = evaluate(sys, f1, moved)
                worst = max(worst, abs(lhs - rhs))
        ok = ok and worst <= 1e-12
        block = ""
        if i % 5 == 0:
            xt = periodic_lift(sys, _some_periodic_point(sys, random.Random(i)))
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


def _periodic_lifts_for(sys, count: int = 2):
    pts = corpus.periodic_points(sys, 4)
    reps = corpus.orbit_representatives(sys, pts)
    picked = [y for y in reps if classify(sys, y).period >= 2][:count]
    if not picked:
        picked = reps[:count]
    return [periodic_lift(sys, y) for y in picked]


def check_pushdown(budgets: Budgets | None = None) -> CheckReport:
    b = budgets or Budgets()
    pool = _system_pool()
    rows = []
    for i in range(50):
        label, sys = pool[i % len(pool)]
        g = corpus.random_crossed_element(
            sys, b.seed * 700 + i, max_power=2, max_depth=4, min_power=0
        )
        d = g.max_depth
        lifts = _periodic_lifts_for(sys)
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


def run_checks(names, budgets: Budgets | None = None) -> list[CheckReport]:
    out = []
    for name in names:
        if name not in ALL_CHECKS:
            raise KeyError(f"unknown check {name!r}")
        out.append(ALL_CHECKS[name](budgets))
    return out
