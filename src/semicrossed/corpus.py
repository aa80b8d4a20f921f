"""Deterministic sample corpora: points, lifts, and random elements.

Everything here is reproducible from a small integer seed so that norm
estimates, CLI output, and the verification suite are stable across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Sequence

from .elements import Element, element, from_base
from .errors import ConfigError
from .extension import ExtPoint, SeededRandom, lift_point, periodic_lift
from .functions import (
    BaseFunction,
    CylinderFunction,
    TabularFunction,
    TrigPoly,
    ext,
)
from .systems import (
    CircleTimesK,
    PermutationSystem,
    Point,
    RationalPoint,
    ShiftOfFiniteType,
    StatePoint,
    System,
    WordPoint,
    _MAX_STEPS,
    _orbit_ids,
    point_key,
)


@dataclass(frozen=True)
class Budgets:
    """Default sizes for the estimate and verification machinery."""

    n_max: int = 256
    grid_size: int = 256
    half_width: int = 128
    seed: int = 7

    def __post_init__(self):
        if self.n_max < 4 or self.grid_size < 8 or self.half_width < 1:
            raise ConfigError("budgets out of range")


# ---------------------------------------------------------------------------
# point corpora


def periodic_rationals(sys: CircleTimesK, max_den: int = 63) -> list[RationalPoint]:
    """All rationals in [0,1) whose denominator is coprime to the base.

    These are exactly the periodic points of multiplication by k.
    """
    pts = []
    for q in range(1, max_den + 1):
        if gcd(q, sys.k) != 1:
            continue
        for p in range(q):
            f = Fraction(p, q)
            if f.denominator == q:
                pts.append(RationalPoint(f))
    return pts


def orbit_representatives(sys: System, pts: Sequence[Point]) -> list[Point]:
    """Keep one point per forward orbit (smallest key wins).

    Orbit representations at points on the same periodic orbit are unitarily
    equivalent, so estimates only need one representative.  Points share an
    orbit when their ``_orbit_ids`` sets agree (distinct points only on a
    common cycle); a walk that does not close in _MAX_STEPS is its own orbit.
    """
    seen = set()
    out = []
    for x in sorted(pts, key=point_key):
        ids, first = _orbit_ids(sys, x, _MAX_STEPS)
        orbit = frozenset(ids if first is not None else ids[:1])
        if orbit in seen:
            continue
        seen.add(orbit)
        out.append(x)
    return out


def seeded_aperiodic_rationals(
    sys: CircleTimesK, count: int = 32, seed: int = 7, max_den: int = 63
) -> list[RationalPoint]:
    """Eventually periodic but not periodic points: denominator shares a
    factor with the base, so the orbit needs a settling prefix."""
    rng = random.Random(seed)
    out = []
    keys = set()
    while len(out) < count:
        a = rng.randint(1, 4)
        q = rng.randrange(1, max_den + 1, 2 if sys.k % 2 == 0 else 1)
        if gcd(q, sys.k) != 1:
            continue
        p = rng.randrange(1, sys.k**a * q)
        f = Fraction(p, sys.k**a * q)
        if gcd(f.denominator, sys.k) == 1:
            continue
        x = RationalPoint(f)
        if point_key(x) in keys:
            continue
        keys.add(point_key(x))
        out.append(x)
    return out


def periodic_points(sys: System, max_period: int = 6) -> list[Point]:
    """Every periodic point of period at most max_period, deduplicated."""
    if isinstance(sys, CircleTimesK):
        fracs = set()
        for p in range(1, max_period + 1):
            den = sys.k**p - 1
            for num in range(den):
                fracs.add(Fraction(num, den))
        return [RationalPoint(f) for f in sorted(fracs)]
    if isinstance(sys, ShiftOfFiniteType):
        pts: dict = {}
        for p in range(1, max_period + 1):
            for cyc in product(range(sys.alphabet), repeat=p):
                ok = all(
                    sys.allows(cyc[i], cyc[(i + 1) % p]) for i in range(p)
                )
                if not ok:
                    continue
                w = WordPoint((), cyc)
                pts.setdefault(point_key(w), w)
        return [pts[k] for k in sorted(pts)]
    if isinstance(sys, PermutationSystem):
        return [StatePoint(s) for s in range(sys.size)]
    raise TypeError(f"unsupported system {type(sys).__name__}")


def seeded_lifts(
    sys: System, base_points: Sequence[Point], count: int = 32, seed: int = 7
) -> list[ExtPoint]:
    """Lazy lifts through seeded backward choices, one chooser per lift."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        x = base_points[rng.randrange(len(base_points))]
        out.append(lift_point(sys, x, SeededRandom(seed * 1000 + i)))
    return out


def canonical_ext_samples(
    sys: System, seed: int = 7, max_period: int = 6, lift_count: int = 32
) -> list[ExtPoint]:
    """Periodic lifts of all short-period points plus seeded lazy lifts."""
    base = periodic_points(sys, max_period)
    out: list[ExtPoint] = [periodic_lift(sys, y) for y in base]
    out.extend(seeded_lifts(sys, base, lift_count, seed))
    return out


def default_samples(sys: System, budgets: Budgets | None = None):
    """(orbit sample points, periodic sample points) for norm estimates."""
    b = budgets or Budgets()
    if isinstance(sys, CircleTimesK):
        reps = orbit_representatives(sys, periodic_rationals(sys))
        return reps + seeded_aperiodic_rationals(sys, seed=b.seed), reps
    reps = orbit_representatives(sys, periodic_points(sys, 6))
    return reps, reps


# ---------------------------------------------------------------------------
# random elements


def random_trig(rng: random.Random, max_freq: int = 3, scale: float = 1.0) -> TrigPoly:
    """Trig polynomial with l1 mass at most scale."""
    coeffs = {}
    for k in range(-max_freq, max_freq + 1):
        if rng.random() < 0.4:
            coeffs[k] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    if not coeffs:
        coeffs[0] = complex(rng.uniform(0.25, 1.0), 0.0)
    mass = sum(abs(c) for c in coeffs.values())
    return TrigPoly.from_coeffs({k: c * scale / mass for k, c in coeffs.items()})


def random_base(sys: System, rng: random.Random, scale: float = 1.0) -> BaseFunction:
    if isinstance(sys, CircleTimesK):
        return random_trig(rng, scale=scale)
    if isinstance(sys, ShiftOfFiniteType):
        from .systems import admissible_words

        words = admissible_words(sys, 2)
        vals = {
            w: complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            for w in words
        }
        return CylinderFunction.from_values(2, vals)
    if isinstance(sys, PermutationSystem):
        return TabularFunction(
            tuple(
                complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
                for _ in range(sys.size)
            )
        )
    raise TypeError(f"unsupported system {type(sys).__name__}")


def random_semicrossed_element(
    sys: System, seed: int, max_power: int = 3, scale: float = 2.0
) -> Element:
    """Nonzero element with nonnegative powers, depth-1 coefficients, and
    weighted l1 mass (sum |n| sup|f_n|) kept near scale."""
    rng = random.Random(seed)
    coeffs = {}
    for n in range(max_power + 1):
        if rng.random() < 0.6 or n == 0:
            coeffs[n] = ext(1, random_base(sys, rng, scale=scale / (2.0 * (n + 1))))
    return element(sys, coeffs)


def random_crossed_element(
    sys: System,
    seed: int,
    max_power: int = 2,
    max_depth: int = 3,
    scale: float = 2.0,
    min_power: int | None = None,
) -> Element:
    """Element with signed powers and deeper coefficients, for extension-side
    mechanics (pushdown, embedding).  min_power=0 restricts to the
    nonnegative-power deep-coefficient shape the pushdown step consumes."""
    rng = random.Random(seed)
    lo = -max_power if min_power is None else min_power
    coeffs = {}
    for n in range(lo, max_power + 1):
        if rng.random() < 0.5 or n == 0:
            depth = rng.randint(1, max_depth)
            coeffs[n] = ext(depth, random_base(sys, rng, scale=scale / (2.0 * (abs(n) + 1))))
    return element(sys, coeffs)


def golden_mean_shift() -> ShiftOfFiniteType:
    """Two symbols, the word 11 forbidden."""
    return ShiftOfFiniteType(((1, 1), (1, 0)))


def doubling_map() -> CircleTimesK:
    return CircleTimesK(2)


def cosine_element(sys: CircleTimesK) -> Element:
    """U * cos(2 pi x): the standard worked example on the circle."""
    cos = TrigPoly.from_coeffs({1: 0.5, -1: 0.5})
    return from_base(sys, cos, power=1)
