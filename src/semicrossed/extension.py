"""Points of the homeomorphism extension and its shift.

An extended point is a backward orbit (x1, x2, x3, ...) with
phi(x_{j+1}) = x_j.  Two concrete representations:

* ``PeriodicLift``  -- a finite cyclic tuple of coordinates (exact, total),
* ``LazyLift``      -- coordinates materialized on demand from a seed point
  and a preimage chooser, memoized.

The extension shift prepends phi(x1); its inverse drops the first
coordinate.  ``project`` reads coordinate 1.  Classification of lifts never
returns eventually-periodic (the extension map is invertible); a lazy lift
is certified periodic only when the coordinate walk closes a cycle that is
consistent all the way back to the first coordinate, which is sound because
all three chooser types (``AlwaysMin``, ``SeededRandom``, ``ExplicitTail``)
pick a preimage from the current point alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import KindMismatch, NotPeriodic
from .systems import (
    Classification,
    Point,
    ShiftOfFiniteType,
    SftReport,
    System,
    _primitive_cycle,
    apply_map,
    check_point,
    classify,
    forward_orbit,
    point_key,
    preimages,
    sft_properties,
    validate_transition,
)

# ---------------------------------------------------------------------------
# preimage choosers


@dataclass(frozen=True)
class AlwaysMin:
    """Pick the smallest preimage in the canonical point order."""

    def pick(self, sys: System, x: Point) -> Point:
        return preimages(sys, x)[0]

    def describe(self) -> str:
        return "min"


@dataclass(frozen=True)
class SeededRandom:
    """Deterministic pseudo-random choice keyed by (seed, current point)."""

    seed: int

    def pick(self, sys: System, x: Point) -> Point:
        options = preimages(sys, x)
        h = hashlib.blake2b(digest_size=8)
        h.update(str(self.seed).encode())
        h.update(repr(point_key(x)).encode())
        idx = int.from_bytes(h.digest(), "big") % len(options)
        return options[idx]

    def describe(self) -> str:
        return f"seeded:{self.seed}"


@dataclass(frozen=True)
class ExplicitTail:
    """Chooser wrapping a user rule current-point -> preimage, which must
    depend on the current point alone."""

    rule: Callable[[System, Point], Point]
    label: str = "explicit"

    def pick(self, sys: System, x: Point) -> Point:
        y = self.rule(sys, x)
        keys = [point_key(z) for z in preimages(sys, x)]
        if point_key(y) not in keys:
            raise ValueError("explicit rule returned a non-preimage")
        return y

    def describe(self) -> str:
        return self.label


Chooser = Union[AlwaysMin, SeededRandom, ExplicitTail]


# ---------------------------------------------------------------------------
# extended points


@dataclass(frozen=True)
class PeriodicLift:
    """Backward orbit that cycles with the (primitive) period len(coords)."""

    system: System
    coords: tuple[Point, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("coords must be nonempty")
        for x in coords:
            check_point(self.system, x)
        p = len(coords)
        for j in range(p):
            expected = coords[j - 1] if j >= 1 else coords[p - 1]
            if point_key(apply_map(self.system, coords[j])) != point_key(expected):
                raise ValueError("coords do not form a backward orbit cycle")
        keys = tuple(point_key(x) for x in coords)
        if len(_primitive_cycle(keys)) != p:
            raise ValueError("coords repeat a shorter cycle")

    @property
    def period(self) -> int:
        return len(self.coords)

    def coordinate(self, depth: int) -> Point:
        if depth < 1:
            raise ValueError("coordinate depth must be >= 1")
        return self.coords[(depth - 1) % self.period]


class _BackwardCache:
    """Shared memoized coordinate store for lazy lifts.

    coord(1) is the anchor point; coord(j) for j >= 2 extends backward via
    the chooser; coord(j) for j <= 0 is a forward image of the anchor.
    """

    def __init__(self, sys: System, anchor: Point, chooser: Chooser):
        check_point(sys, anchor)
        self.system = sys
        self.chooser = chooser
        self._back: list[Point] = [anchor]  # index j-1 holds coord(j), j >= 1
        self._fwd: list[Point] = []  # index i holds coord(-i), i >= 0 -> coord(0), coord(-1), ...

    def coord(self, j: int) -> Point:
        if j >= 1:
            while j > len(self._back):
                self._back.append(self.chooser.pick(self.system, self._back[-1]))
            return self._back[j - 1]
        i = -j  # want coord(-i) = phi^(i+1)(anchor)
        while i >= len(self._fwd):
            prev = self._fwd[-1] if self._fwd else self._back[0]
            self._fwd.append(apply_map(self.system, prev))
        return self._fwd[i]


@dataclass(frozen=True, eq=False)
class LazyLift:
    """View into a backward cache starting at cache coordinate ``start``.

    Equality of lazy lifts is only semi-decidable; use ``ext_points_equal``
    with an explicit depth.
    """

    cache: _BackwardCache = field(compare=False)
    start: int = 1

    @property
    def system(self) -> System:
        return self.cache.system

    def coordinate(self, depth: int) -> Point:
        if depth < 1:
            raise ValueError("coordinate depth must be >= 1")
        return self.cache.coord(self.start + depth - 1)


ExtPoint = Union[PeriodicLift, LazyLift]


# ---------------------------------------------------------------------------
# constructors


def lift_point(sys: System, x: Point, chooser: Chooser) -> LazyLift:
    """Backward orbit through x selected coordinatewise by the chooser."""
    return LazyLift(_BackwardCache(sys, x, chooser))


def periodic_lift(sys: System, x: Point) -> PeriodicLift:
    """The unique periodic backward orbit through a periodic point x.

    Coordinate j is phi^(n+1-j)(x) for a period-n point; raises NotPeriodic
    otherwise.
    """
    cls = classify(sys, x)
    if not cls.is_periodic:
        raise NotPeriodic(f"point is {cls.kind}")
    n = cls.period
    orbit = forward_orbit(sys, x, n)
    coords = [orbit[0]] + orbit[1:][::-1]
    return PeriodicLift(sys, tuple(coords))


# ---------------------------------------------------------------------------
# shift dynamics on the extension


def shift_power(sys: System, xt: ExtPoint, n: int) -> ExtPoint:
    if isinstance(xt, PeriodicLift):
        p = xt.period
        r = (-n) % p
        c = xt.coords
        return PeriodicLift(sys, c[r:] + c[:r])
    return LazyLift(xt.cache, xt.start - n)


def shift(sys: System, xt: ExtPoint) -> ExtPoint:
    """Extension map: prepend phi(x1)."""
    return shift_power(sys, xt, 1)


def shift_inverse(sys: System, xt: ExtPoint) -> ExtPoint:
    """Inverse extension map: drop the first coordinate."""
    return shift_power(sys, xt, -1)


def project(xt: ExtPoint) -> Point:
    """Coordinate 1 (the factor-map image of the extended point)."""
    return xt.coordinate(1)


def ext_points_equal(sys: System, a: ExtPoint, b: ExtPoint, depth: int) -> bool:
    """Coordinatewise equality up to the stated depth (semi-decidable)."""
    return all(
        point_key(a.coordinate(j)) == point_key(b.coordinate(j)) for j in range(1, depth + 1)
    )


def classify_lift(sys: System, xt: ExtPoint, max_depth: int = 256) -> Classification:
    """Classify an extended point; never eventually-periodic.

    PeriodicLift is periodic by construction.  A LazyLift is walked until a
    coordinate repeats: because choosers are memoryless the tail beyond the
    repeat is certified cyclic, so the lift is periodic exactly when that
    cycle is consistent back to coordinate 1.  Otherwise Unresolved(steps).
    """
    if isinstance(xt, PeriodicLift):
        return Classification.periodic(xt.period)
    seen: dict = {}
    coords = []
    for j in range(1, max_depth + 1):
        x = xt.coordinate(j)
        key = point_key(x)
        coords.append(key)
        if key in seen:
            first = seen[key]  # 1-based index of the first occurrence
            p = j - first
            # cycle certified from index `first`; check consistency before it
            if all(coords[t] == coords[t + p] for t in range(first - 1)):
                return Classification.periodic(len(_primitive_cycle(tuple(coords[:p]))))
            return Classification.unresolved(j)
        seen[key] = j
    return Classification.unresolved(max_depth)


# ---------------------------------------------------------------------------
# transfer of SFT structure to the two-sided extension


def two_sided_sft_properties(transition) -> SftReport:
    """Structure report computed on the two-sided SFT of the same matrix.

    Independent route from ``sft_properties``: reachability by boolean
    matrix closure (numpy) instead of per-vertex search.

    * transitive: the closure of T is all-ones.
    * dense periodic: a centered admissible word extends to a bi-infinite
      periodic path exactly when its endpoints lie in a common cycle, so
      every edge must stay inside one strongly connected component.
    * minimal: strongly connected with edge count equal to vertex count.
    * dense recurrent: same extension criterion as dense periodic.
    """
    transition = tuple(tuple(row) for row in transition)
    validate_transition(transition)
    t = np.array(transition, dtype=np.int64)
    n = t.shape[0]
    closure = t > 0
    power = t.copy()
    for _ in range(n - 1):
        power = np.minimum(power @ t, 1)
        closure |= power > 0
    transitive = bool(closure.all())
    edges_in_scc = all(
        closure[b, a] for a in range(n) for b in range(n) if transition[a][b]
    )
    minimal = transitive and int(t.sum()) == n
    return SftReport(
        transitive=transitive,
        dense_periodic=edges_in_scc,
        minimal=minimal,
        dense_recurrent=edges_in_scc,
    )


def verify_transfer(sys: ShiftOfFiniteType, prop: str) -> tuple[bool, bool]:
    """(base value, extension value) for one of the SftReport fields.

    The two sides are computed by independent code paths and the structure
    transfer predicts they agree.
    """
    if not isinstance(sys, ShiftOfFiniteType):
        raise KindMismatch("transfer checks require an SFT system")
    fields = ("transitive", "dense_periodic", "minimal", "dense_recurrent")
    if prop not in fields:
        raise ValueError(f"prop must be one of {fields}")
    base = getattr(sft_properties(sys.transition), prop)
    ext = getattr(two_sided_sft_properties(sys.transition), prop)
    return bool(base), bool(ext)
