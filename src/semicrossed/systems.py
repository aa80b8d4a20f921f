"""Computable dynamical systems on compact spaces and their point arithmetic.

Three system kinds are supported, each with an exact point representation:

* ``CircleTimesK(k)``       -- x -> k*x mod 1 on the circle, points are
  ``fractions.Fraction`` values in [0, 1).
* ``ShiftOfFiniteType(T)``  -- the one-sided shift on sequences admissible
  for a 0/1 transition matrix T, points are eventually periodic words or
  procedural (black-box) words.
* ``PermutationSystem(p)``  -- a bijection of a finite state set.

All operations are deterministic and exact where the representation allows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import (
    InvalidMatrix,
    KindMismatch,
    SeparationImpossible,
)

# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class CircleTimesK:
    """Multiplication by an integer k >= 2 on the circle R/Z."""

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError("k must be an integer >= 2")


@dataclass(frozen=True)
class ShiftOfFiniteType:
    """One-sided subshift defined by a square 0/1 transition matrix.

    transition[a][b] == 1 means symbol b may follow symbol a.  Every row and
    every column must contain a 1, which makes the shift surjective.
    """

    transition: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        validate_transition(self.transition)

    @property
    def alphabet(self) -> int:
        return len(self.transition)

    def allows(self, a: int, b: int) -> bool:
        return self.transition[a][b] == 1


@dataclass(frozen=True)
class PermutationSystem:
    """A bijection s -> images[s] of {0, ..., n-1}."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0 or sorted(self.images) != list(range(n)):
            raise ValueError("images must be a permutation of 0..n-1")

    @property
    def size(self) -> int:
        return len(self.images)

    def inverse(self, s: int) -> int:
        return self.images.index(s)


System = Union[CircleTimesK, ShiftOfFiniteType, PermutationSystem]


def validate_transition(transition: Sequence[Sequence[int]]) -> None:
    """Raise InvalidMatrix unless transition is square 0/1 with nonzero rows and columns."""
    n = len(transition)
    if n == 0:
        raise InvalidMatrix("empty transition matrix")
    for row in transition:
        if len(row) != n:
            raise InvalidMatrix("transition matrix must be square")
        for v in row:
            if v not in (0, 1):
                raise InvalidMatrix("transition entries must be 0 or 1")
    for i in range(n):
        if not any(transition[i][j] for j in range(n)):
            raise InvalidMatrix(f"row {i} has no admissible successor")
        if not any(transition[j][i] for j in range(n)):
            raise InvalidMatrix(f"column {i} has no admissible predecessor")


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class RationalPoint:
    """Exact circle point p/q in [0, 1)."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 <= self.value < 1:
            object.__setattr__(self, "value", self.value % 1)


def rational(p, q=None) -> RationalPoint:
    return RationalPoint(Fraction(p) if q is None else Fraction(p, q))


def _primitive_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


def _canonical_word(pre: tuple[int, ...], cyc: tuple[int, ...]):
    # primitive cycle, then absorb any cycle tail duplicated at the end of
    # the preperiod (shortest-preperiod normal form)
    cyc = _primitive_cycle(cyc)
    pre = list(pre)
    cyc = list(cyc)
    while pre and pre[-1] == cyc[-1]:
        pre.pop()
        cyc = [cyc[-1]] + cyc[:-1]
    return tuple(pre), tuple(cyc)


@dataclass(frozen=True)
class WordPoint:
    """Eventually periodic one-sided sequence preperiod . cycle^infinity.

    Stored in canonical form: the cycle is primitive and the preperiod is as
    short as possible, so equal sequences compare equal structurally.
    """

    preperiod: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise ValueError("cycle must be nonempty")
        pre, cyc = _canonical_word(tuple(self.preperiod), tuple(self.cycle))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "cycle", cyc)

    def symbol(self, i: int) -> int:
        q = len(self.preperiod)
        if i < q:
            return self.preperiod[i]
        return self.cycle[(i - q) % len(self.cycle)]


def word(pre: Sequence[int], cyc: Sequence[int]) -> WordPoint:
    return WordPoint(tuple(pre), tuple(cyc))


@dataclass(frozen=True)
class StatePoint:
    """Point of a finite permutation system."""

    state: int


Point = Union[RationalPoint, WordPoint, StatePoint]


def point_key(x: Point):
    """Deterministic sortable/hashable key for a point (used by choosers)."""
    if isinstance(x, RationalPoint):
        return ("r", x.value.numerator, x.value.denominator)
    if isinstance(x, WordPoint):
        return ("w", x.preperiod, x.cycle)
    if isinstance(x, StatePoint):
        return ("s", x.state)
    raise KindMismatch(f"not a point: {x!r}")


def check_point(sys: System, x: Point) -> None:
    """Validate that x belongs to sys (variant match plus admissibility)."""
    if isinstance(sys, CircleTimesK):
        if not isinstance(x, RationalPoint):
            raise KindMismatch("circle systems use RationalPoint")
    elif isinstance(sys, ShiftOfFiniteType):
        if isinstance(x, WordPoint):
            seq = x.preperiod + x.cycle + (x.cycle[0],)
            n = sys.alphabet
            for s in seq:
                if not 0 <= s < n:
                    raise KindMismatch(f"symbol {s} outside alphabet of size {n}")
            for a, b in zip(seq, seq[1:]):
                if not sys.allows(a, b):
                    raise KindMismatch(f"word contains forbidden transition {a}->{b}")
        else:
            raise KindMismatch("SFT systems use WordPoint")
    elif isinstance(sys, PermutationSystem):
        if not isinstance(x, StatePoint) or not 0 <= x.state < sys.size:
            raise KindMismatch("permutation systems use StatePoint in range")
    else:
        raise KindMismatch(f"unknown system {sys!r}")


# ---------------------------------------------------------------------------
# classification record


PERIODIC = "periodic"
EVENTUALLY_PERIODIC = "eventually-periodic"
UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class Classification:
    kind: str
    preperiod: int = 0
    period: int = 0
    steps_examined: int = 0

    @staticmethod
    def periodic(period: int) -> "Classification":
        return Classification(PERIODIC, 0, period)

    @staticmethod
    def eventually_periodic(preperiod: int, period: int) -> "Classification":
        if preperiod < 1:
            raise ValueError("eventually-periodic points have preperiod >= 1")
        return Classification(EVENTUALLY_PERIODIC, preperiod, period)

    @staticmethod
    def unresolved(steps: int) -> "Classification":
        return Classification(UNRESOLVED, steps_examined=steps)

    @property
    def is_periodic(self) -> bool:
        return self.kind == PERIODIC


# ---------------------------------------------------------------------------
# core operations


def apply_map(sys: System, x: Point) -> Point:
    """One forward step of the dynamics."""
    check_point(sys, x)
    if isinstance(sys, CircleTimesK):
        return RationalPoint((sys.k * x.value) % 1)
    if isinstance(sys, ShiftOfFiniteType):
        if x.preperiod:
            return WordPoint(x.preperiod[1:], x.cycle)
        c = x.cycle
        return WordPoint((), c[1:] + c[:1])
    return StatePoint(sys.images[x.state])


def preimages(sys: System, x: Point) -> list[Point]:
    """All one-step preimages, sorted by point_key (deterministic)."""
    check_point(sys, x)
    if isinstance(sys, CircleTimesK):
        out: list[Point] = [
            RationalPoint(Fraction(x.value + j, sys.k)) for j in range(sys.k)
        ]
    elif isinstance(sys, ShiftOfFiniteType):
        first = x.symbol(0)
        out = [
            WordPoint((a,) + x.preperiod, x.cycle)
            for a in range(sys.alphabet)
            if sys.allows(a, first)
        ]
    else:
        out = [StatePoint(sys.inverse(x.state))]
    return sorted(out, key=point_key)


def forward_orbit(sys: System, x: Point, n: int) -> list[Point]:
    """[x, phi(x), ..., phi^(n-1)(x)] for n >= 1."""
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    out = [x]
    for _ in range(n - 1):
        out.append(apply_map(sys, out[-1]))
    return out


def classify(sys: System, x: Point, max_steps: int = 4096) -> Classification:
    """Decide periodic / eventually periodic by walking the forward orbit.

    Exact for rational, word, and state points whenever max_steps covers the
    orbit's transient (for p/q under CircleTimesK at most q steps are ever
    needed).
    """
    check_point(sys, x)
    if isinstance(x, WordPoint):
        p = len(x.cycle)
        q = len(x.preperiod)
        return (
            Classification.periodic(p)
            if q == 0
            else Classification.eventually_periodic(q, p)
        )
    if isinstance(sys, CircleTimesK):
        # a/q walks the residues r -> k*r mod q; equal residues, equal points
        q, k = x.value.denominator, sys.k
        cur, step, point_id = x.value.numerator, (lambda r: k * r % q), int
    else:
        cur, step, point_id = x, (lambda y: apply_map(sys, y)), point_key
    seen: dict = {}
    for i in range(max_steps + 1):
        key = point_id(cur)
        if key in seen:
            first = seen[key]
            period = i - first
            if first == 0:
                return Classification.periodic(period)
            return Classification.eventually_periodic(first, period)
        seen[key] = i
        cur = step(cur)
    return Classification.unresolved(max_steps)


# ---------------------------------------------------------------------------
# SFT structure report


@dataclass(frozen=True)
class SftReport:
    transitive: bool
    dense_periodic: bool
    minimal: bool
    dense_recurrent: bool


def _reachable_sets(transition) -> list[set[int]]:
    n = len(transition)
    out = []
    for s in range(n):
        seen = {s} if transition[s][s] else set()
        stack = [b for b in range(n) if transition[s][b]]
        reach: set[int] = set()
        while stack:
            v = stack.pop()
            if v in reach:
                continue
            reach.add(v)
            stack.extend(b for b in range(n) if transition[v][b] and b not in reach)
        out.append(reach | seen)
    return out


def sft_properties(transition: Sequence[Sequence[int]]) -> SftReport:
    """Structure report for the one-sided SFT of a transition matrix.

    transitive: the transition graph is strongly connected.
    dense_periodic: every admissible word extends to a word lying on a cycle
        through its first vertex; since a word from a to b exists exactly
        when b is reachable from a, this reduces to reachability being
        symmetric (no edges leave a strongly connected component).
    minimal: the graph is a single simple cycle.
    dense_recurrent: same cycle-extension criterion as dense_periodic.
    """
    transition = tuple(tuple(row) for row in transition)
    validate_transition(transition)
    n = len(transition)
    reach = _reachable_sets(transition)
    transitive = all(len(reach[s]) == n for s in range(n))
    symmetric = all(s in reach[t] for s in range(n) for t in reach[s])
    rows_single = all(sum(row) == 1 for row in transition)
    cols_single = all(sum(transition[i][j] for i in range(n)) == 1 for j in range(n))
    minimal = False
    if rows_single and cols_single:
        images = [row.index(1) for row in transition]
        seen = {0}
        v = images[0]
        while v not in seen:
            seen.add(v)
            v = images[v]
        minimal = len(seen) == n
    return SftReport(
        transitive=transitive,
        dense_periodic=symmetric,
        minimal=minimal,
        dense_recurrent=symmetric,
    )


def admissible_words(sys: ShiftOfFiniteType, length: int) -> list[tuple[int, ...]]:
    """All admissible words of the given length, lexicographically sorted."""
    if length < 1:
        raise ValueError("length must be >= 1")
    words = [(a,) for a in range(sys.alphabet)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in range(sys.alphabet) if sys.allows(w[-1], b)]
    return words


# ---------------------------------------------------------------------------
# separating functions (Tietze-style interpolants)


def _fejer_square_coeffs(r: int, shift: Fraction) -> np.ndarray:
    # (sin(r*pi*(x-shift)) / (r*sin(pi*(x-shift))))^2 at frequencies -(r-1)..r-1;
    # (k*num) mod den stays in Python ints, den may exceed int64
    num, den = shift.numerator, shift.denominator
    ks = range(-(r - 1), r)
    phases = np.array([cmath.exp(-2j * cmath.pi * (((k * num) % den) / den)) for k in ks])
    return (r - np.abs(ks)) / (r * r) * phases


def separating_function(sys: System, orbit: Sequence[Point], target: int, upto: int):
    """Function equal to 1 at orbit[target] and 0 at orbit[j] for j < upto.

    Indices are 0-based and require target < upto <= len(orbit).  The result
    is a real base function with range in [0, 1]: a product of shifted
    Fejer-square bumps for circle systems (interpolation exact up to float
    rounding), an exact cylinder indicator for SFTs, and an exact state
    indicator for permutation systems.  Raises SeparationImpossible when the
    listed points are not pairwise distinct from the target.
    """
    from . import functions as fn

    if not 0 <= target < upto <= len(orbit):
        raise ValueError("need 0 <= target < upto <= len(orbit)")
    pts = list(orbit[:upto])
    for x in pts:
        check_point(sys, x)
    tkey = point_key(pts[target])
    for j, x in enumerate(pts):
        if j != target and point_key(x) == tkey:
            raise SeparationImpossible(f"orbit[{j}] equals orbit[{target}]")

    if isinstance(sys, CircleTimesK):
        # product of the factors 1 - bump, dense from frequency lo upwards
        prod, lo = np.ones(1, dtype=complex), 0
        xt = pts[target].value
        for j, x in enumerate(pts):
            if j == target:
                continue
            b = ((xt - x.value) % 1).denominator  # diff != 0 so b >= 2
            factor = -_fejer_square_coeffs(b, x.value)
            factor[b - 1] += 1.0
            prod = np.convolve(prod, factor)
            lo -= b - 1
        return fn.TrigPoly.from_coeffs({lo + i: c for i, c in enumerate(prod)})

    if isinstance(sys, ShiftOfFiniteType):
        # depth: first position separating the target word from every other
        depth = 1
        for j, x in enumerate(pts):
            if j == target:
                continue
            i = 0
            while pts[target].symbol(i) == x.symbol(i):
                i += 1
                if i > 4096:
                    raise SeparationImpossible("words agree to depth 4096")
            depth = max(depth, i + 1)
        prefix = tuple(pts[target].symbol(i) for i in range(depth))
        values = {w: (1.0 if w == prefix else 0.0) for w in admissible_words(sys, depth)}
        return fn.CylinderFunction.from_values(depth, values)

    vals = [0.0] * sys.size
    vals[pts[target].state] = 1.0
    return fn.TabularFunction(tuple(complex(v) for v in vals))
