"""Function algebras over the base systems and their extensions.

Base functions stand in for dense subalgebras of C(X):

* ``TrigPoly``          -- finite trigonometric polynomials on the circle,
* ``CylinderFunction``  -- depth-d cylinder functions on an SFT,
* ``TabularFunction``   -- arbitrary functions on a finite state set.

An ``ExtFunction(depth m, base g)`` represents the function on the extension
space that reads coordinate m of an extended point and applies g; these
realize the union of the pulled-back copies of C(X) inside C(X~).  The
endomorphism g -> g∘phi is ``compose_map``; the extension automorphism
f -> f∘phi~ is ``compose_shift`` with inverse ``compose_shift_inverse``.
``evaluate_base`` is the scalar reference; every matrix builder reads whole
forward orbits through ``_orbit_values``, which validates once per orbit.

Sup norms are certified brackets, exact for cylinder/tabular functions and
grid-plus-derivative-bound brackets (capped by the coefficient l1 sum) for
trigonometric polynomials.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import BadParameter, KindMismatch, NonFinite
from .systems import (
    CircleTimesK,
    PermutationSystem,
    Point,
    ShiftOfFiniteType,
    StatePoint,
    System,
    _orbit_ids,
    _unrolled,
    _words,
    admissible_words,
    check_point,
)


def _finite(c: complex, what: str) -> complex:
    c = complex(c)
    if not (np.isfinite(c.real) and np.isfinite(c.imag)):
        raise NonFinite(f"{what} must be finite, got {c!r}")
    return c


# ---------------------------------------------------------------------------
# base function variants


@dataclass(frozen=True)
class TrigPoly:
    """Finite sum of c_k * exp(2*pi*i*k*x), stored as sorted (k, c) pairs."""

    coeffs: tuple[tuple[int, complex], ...]

    @staticmethod
    def from_coeffs(mapping) -> "TrigPoly":
        items = [(k, complex(c)) for k, c in dict(mapping).items()]
        items = [(int(k), c) for k, c in items if c != 0]
        finite = np.isfinite(np.array([c for _, c in items], dtype=complex))
        if not finite.all():
            _finite(items[int(finite.argmin())][1], "coefficient")  # raises, naming the first
        return TrigPoly(tuple(sorted(items)))

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    @property
    def max_freq(self) -> int:
        return max((abs(k) for k, _ in self.coeffs), default=0)

    def l1(self) -> float:
        return float(sum(abs(c) for _, c in self.coeffs))

    def eval_fraction(self, x: Fraction) -> complex:
        # exact argument reduction: k*x mod 1 computed in integers
        p, q = x.numerator, x.denominator
        total = 0.0 + 0.0j
        for k, c in self.coeffs:
            total += c * cmath.exp(2j * cmath.pi * (((k * p) % q) / q))
        return total

    def grid_values(self, n: int) -> np.ndarray:
        """Values on the uniform grid j/n, via FFT binning (needs n > 2*max_freq).

        Values beyond the float range come out non-finite, without a warning,
        so that the bracket built from them raises ``NonFinite``.
        """
        bins = np.zeros(n, dtype=complex)
        for k, c in self.coeffs:
            bins[k % n] += c
        with np.errstate(over="ignore", invalid="ignore"):
            return np.fft.ifft(bins) * n


@dataclass(frozen=True)
class CylinderFunction:
    """Function of the first ``depth`` symbols of an SFT point.

    ``values`` maps every admissible word of that length to a value; the
    factory validates exact coverage against the system when one is given.
    """

    depth: int
    values: tuple[tuple[tuple[int, ...], complex], ...]

    @staticmethod
    def from_values(depth: int, mapping) -> "CylinderFunction":
        if depth < 1:
            raise BadParameter("cylinder depth must be >= 1")
        items = tuple(
            sorted((tuple(w), _finite(c, "cylinder value")) for w, c in dict(mapping).items())
        )
        return CylinderFunction(depth, items)

    def as_dict(self) -> dict[tuple[int, ...], complex]:
        return dict(self.values)

    def value_at(self, w: tuple[int, ...]) -> complex:
        for key, c in self.values:
            if key == w:
                return c
        raise KeyError(f"word {w} not covered")


@dataclass(frozen=True)
class TabularFunction:
    """Value table over the states of a permutation system."""

    values: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", tuple(_finite(c, "table value") for c in self.values)
        )


BaseFunction = Union[TrigPoly, CylinderFunction, TabularFunction]


def validate_base(sys: System, g: BaseFunction) -> None:
    """Raise KindMismatch unless g suits sys; cylinder keys must be the cached ``_words``."""
    if isinstance(sys, CircleTimesK):
        if not isinstance(g, TrigPoly):
            raise KindMismatch("circle systems use TrigPoly")
    elif isinstance(sys, ShiftOfFiniteType):
        if not isinstance(g, CylinderFunction):
            raise KindMismatch("SFT systems use CylinderFunction")
        words = _words(tuple(map(tuple, sys.transition)), g.depth)
        # built from a list: a tuple grown from a generator raised verify-all's peak RSS 0.3 MB
        covered = tuple([w for w, _ in g.values])
        if covered != words and sorted(covered) != list(words):
            raise KindMismatch("cylinder values must cover exactly the admissible words")
    elif isinstance(sys, PermutationSystem):
        if not isinstance(g, TabularFunction) or len(g.values) != sys.size:
            raise KindMismatch("permutation systems use TabularFunction over all states")
    else:
        raise KindMismatch(f"unknown system {sys!r}")


def constant_base(sys: System, c: complex) -> BaseFunction:
    c = complex(c)
    if isinstance(sys, CircleTimesK):
        return TrigPoly.from_coeffs({0: c})
    if isinstance(sys, ShiftOfFiniteType):
        return CylinderFunction.from_values(1, {(a,): c for a in range(sys.alphabet)})
    return TabularFunction(tuple(c for _ in range(sys.size)))


def evaluate_base(sys: System, g: BaseFunction, x: Point) -> complex:
    check_point(sys, x)
    validate_base(sys, g)
    if isinstance(g, TrigPoly):
        return g.eval_fraction(x.value)
    if isinstance(g, CylinderFunction):
        w = tuple(x.symbol(i) for i in range(g.depth))
        return g.value_at(w)
    assert isinstance(x, StatePoint)
    return g.values[x.state]


def _orbit_values(sys: System, bases, x: Point, n: int) -> np.ndarray:
    """(len(bases), n) values of each base at x, phi(x), ..., phi^(n-1)(x):
    ``evaluate_base``'s values bit for bit, validating x and each base once.

    Every point is eventually periodic, so the orbit is walked only until it
    repeats: the bases are evaluated at its first ``pre + per`` points (at
    most n) and gathered out to n.  A word slides a window along its symbols;
    circle residues and permutation states are walked by
    ``systems._orbit_ids``, which checks x."""
    if isinstance(sys, ShiftOfFiniteType):
        check_point(sys, x)
    else:
        ids, pre = _orbit_ids(sys, x, n - 1)
    for g in bases:
        validate_base(sys, g)
    if isinstance(sys, CircleTimesK):  # integer residues p k^i mod q, with ids (r, q)
        q = x.value.denominator
        res = [r for r, _ in ids]
        # zero terms pad each base to a common length from the front, so that
        # each sum runs from 0.0 as in eval_fraction (-0.0 terms sum to 0.0)
        size = 1 + max((len(g.coeffs) for g in bases), default=0)
        terms = [(m, c) for g in bases for m, c in ((0, 0j),) * (size - len(g.coeffs)) + g.coeffs]
        ms = [m for m, _ in terms]
        # division rounds correctly, so unreduced residues give eval_fraction's doubles
        exact = (max(map(abs, ms), default=0) + 1) * q < 2**53  # m r and q exact in int64, float64
        t = np.outer(ms, res) % q / q if exact else np.array([[m * r % q / q for r in res] for m in ms])
        shape = (len(bases), size, len(res))
        c = np.array([c for _, c in terms]).reshape(shape[:2] + (1,))
        with np.errstate(all="ignore"):  # overflow gives inf, as in evaluate_base
            e = 2j * np.pi * t.reshape(shape)
            np.exp(e, out=e)
            # Python's complex product, written over e and summed in coefficient
            # order by one sequential ufunc
            e.real, e.imag = c.real * e.real - c.imag * e.imag, c.real * e.imag + c.imag * e.real
            out = np.add.accumulate(e, axis=1, out=e)[:, -1]
    elif isinstance(sys, ShiftOfFiniteType):  # a window sliding along the word
        pre = len(x.preperiod)
        size = min(n, pre + len(x.cycle))
        seq = [x.symbol(i) for i in range(size + max((g.depth for g in bases), default=1) - 1)]
        out = np.zeros((len(bases), size), dtype=complex)
        for row, g in zip(out, bases):
            table = g.as_dict()
            row[:] = [table[tuple(seq[i : i + g.depth])] for i in range(size)]
    else:  # permutation states
        out = np.array([[g.values[s.state] for s in ids] for g in bases], dtype=complex)
        out = out.reshape(len(bases), len(ids))
    return out.take(_unrolled(list(range(out.shape[1])), pre, n), axis=1)


def refine_cylinder(sys: ShiftOfFiniteType, g: CylinderFunction, depth: int) -> CylinderFunction:
    """Same function expressed at a finer depth (value of a word = value of its prefix)."""
    if depth < g.depth:
        raise ValueError("refinement depth must be >= current depth")
    if depth == g.depth:
        return g
    table = g.as_dict()
    return CylinderFunction.from_values(
        depth, {w: table[w[: g.depth]] for w in admissible_words(sys, depth)}
    )


def base_add(sys: System, g: BaseFunction, h: BaseFunction) -> BaseFunction:
    validate_base(sys, g)
    validate_base(sys, h)
    if isinstance(g, TrigPoly):
        out = g.as_dict()
        for k, c in h.coeffs:
            out[k] = out.get(k, 0.0) + c
        return TrigPoly.from_coeffs(out)
    if isinstance(g, CylinderFunction):
        d = max(g.depth, h.depth)
        g = refine_cylinder(sys, g, d)
        h = refine_cylinder(sys, h, d)
        hv = h.as_dict()
        return CylinderFunction.from_values(d, {w: c + hv[w] for w, c in g.values})
    return TabularFunction(tuple(a + b for a, b in zip(g.values, h.values)))


def base_mul(sys: System, g: BaseFunction, h: BaseFunction) -> BaseFunction:
    validate_base(sys, g)
    validate_base(sys, h)
    if isinstance(g, TrigPoly):
        out: dict[int, complex] = {}
        for k1, c1 in g.coeffs:
            for k2, c2 in h.coeffs:
                k = k1 + k2
                out[k] = out.get(k, 0.0) + c1 * c2
        return TrigPoly.from_coeffs(out)
    if isinstance(g, CylinderFunction):
        d = max(g.depth, h.depth)
        g = refine_cylinder(sys, g, d)
        h = refine_cylinder(sys, h, d)
        hv = h.as_dict()
        return CylinderFunction.from_values(d, {w: c * hv[w] for w, c in g.values})
    return TabularFunction(tuple(a * b for a, b in zip(g.values, h.values)))


def base_scale(g: BaseFunction, c: complex) -> BaseFunction:
    c = complex(c)
    if isinstance(g, TrigPoly):
        return TrigPoly.from_coeffs({k: c * v for k, v in g.coeffs})
    if isinstance(g, CylinderFunction):
        return CylinderFunction.from_values(g.depth, {w: c * v for w, v in g.values})
    return TabularFunction(tuple(c * v for v in g.values))


def base_conj(g: BaseFunction) -> BaseFunction:
    if isinstance(g, TrigPoly):
        return TrigPoly.from_coeffs({-k: v.conjugate() for k, v in g.coeffs})
    if isinstance(g, CylinderFunction):
        return CylinderFunction.from_values(g.depth, {w: v.conjugate() for w, v in g.values})
    return TabularFunction(tuple(v.conjugate() for v in g.values))


def base_is_zero(g: BaseFunction) -> bool:
    if isinstance(g, TrigPoly):
        return not g.coeffs
    if isinstance(g, CylinderFunction):
        return all(c == 0 for _, c in g.values)
    return all(v == 0 for v in g.values)


def compose_map(sys: System, g: BaseFunction) -> BaseFunction:
    """g∘phi: precompose with one step of the dynamics."""
    validate_base(sys, g)
    if isinstance(g, TrigPoly):
        return TrigPoly.from_coeffs({sys.k * k: c for k, c in g.coeffs})
    if isinstance(g, CylinderFunction):
        table = g.as_dict()
        return CylinderFunction.from_values(
            g.depth + 1,
            {w: table[w[1:]] for w in admissible_words(sys, g.depth + 1)},
        )
    return TabularFunction(tuple(g.values[sys.images[s]] for s in range(sys.size)))


# ---------------------------------------------------------------------------
# sup-norm brackets


@dataclass(frozen=True)
class NormBracket:
    """Certified interval [lower, upper] around a supremum, with provenance."""

    lower: float
    upper: float
    lower_witness: str = ""
    upper_method: str = ""

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise NonFinite("bracket endpoints must be finite")
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"bracket inverted: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def sup_norm(g: BaseFunction) -> NormBracket:
    """Certified bracket for sup |g|.

    Exact (width 0) for cylinder and tabular functions.  For trigonometric
    polynomials: a uniform grid of size 8*max_freq + 64 gives the lower
    bound; the upper bound widens it by the derivative bound
    2*pi*max_freq*sum|c_k| times half the grid spacing, capped by sum|c_k|.
    """
    if isinstance(g, CylinderFunction):
        if not g.values:
            return NormBracket(0.0, 0.0, "empty", "exact")
        w, v = max(g.values, key=lambda item: abs(item[1]))
        return NormBracket(abs(v), abs(v), f"word {''.join(map(str, w))}", "exact")
    if isinstance(g, TabularFunction):
        if not g.values:
            return NormBracket(0.0, 0.0, "empty", "exact")
        s = max(range(len(g.values)), key=lambda i: abs(g.values[i]))
        m = abs(g.values[s])
        return NormBracket(m, m, f"state {s}", "exact")
    if not g.coeffs:
        return NormBracket(0.0, 0.0, "empty", "exact")
    n = 8 * g.max_freq + 64
    vals = np.abs(g.grid_values(n))
    j = int(np.argmax(vals))
    lower = float(vals[j])
    l1 = g.l1()
    upper = min(lower + (2.0 * np.pi * g.max_freq * l1) / (2.0 * n), l1)
    upper = max(upper, lower)
    return NormBracket(lower, upper, f"x={j}/{n}", f"grid {n} + derivative bound")


# ---------------------------------------------------------------------------
# extension functions


@dataclass(frozen=True)
class ExtFunction:
    """Base function read through coordinate ``depth`` of an extended point."""

    depth: int
    base: BaseFunction

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise BadParameter("depth must be >= 1")


def ext(depth: int, base: BaseFunction) -> ExtFunction:
    return ExtFunction(depth, base)


def constant_ext(sys: System, c: complex) -> ExtFunction:
    return ExtFunction(1, constant_base(sys, c))


def evaluate(sys: System, f: ExtFunction, xt) -> complex:
    """Evaluate f at an extended point (reads coordinate f.depth)."""
    return evaluate_base(sys, f.base, xt.coordinate(f.depth))


def lift_to_depth(sys: System, f: ExtFunction, depth: int) -> ExtFunction:
    """Rewrite f at a higher depth without changing it as a function."""
    if depth < f.depth:
        raise ValueError("can only lift to a greater or equal depth")
    g = f.base
    for _ in range(depth - f.depth):
        g = compose_map(sys, g)
    return ExtFunction(depth, g)


def compose_shift(sys: System, f: ExtFunction) -> ExtFunction:
    """f∘phi~: one step of the extension automorphism (depth drops by 1)."""
    if f.depth >= 2:
        return ExtFunction(f.depth - 1, f.base)
    return ExtFunction(1, compose_map(sys, f.base))


def compose_shift_inverse(sys: System, f: ExtFunction) -> ExtFunction:
    """f∘phi~^(-1): depth rises by 1."""
    return ExtFunction(f.depth + 1, f.base)


def compose_shift_power(sys: System, f: ExtFunction, n: int) -> ExtFunction:
    out = f
    if n >= 0:
        for _ in range(n):
            out = compose_shift(sys, out)
    else:
        for _ in range(-n):
            out = compose_shift_inverse(sys, out)
    return out


def ext_add(sys: System, f: ExtFunction, h: ExtFunction) -> ExtFunction:
    d = max(f.depth, h.depth)
    return ExtFunction(d, base_add(sys, lift_to_depth(sys, f, d).base, lift_to_depth(sys, h, d).base))


def ext_mul(sys: System, f: ExtFunction, h: ExtFunction) -> ExtFunction:
    d = max(f.depth, h.depth)
    return ExtFunction(d, base_mul(sys, lift_to_depth(sys, f, d).base, lift_to_depth(sys, h, d).base))


def ext_scale(f: ExtFunction, c: complex) -> ExtFunction:
    return ExtFunction(f.depth, base_scale(f.base, c))


def ext_conj(f: ExtFunction) -> ExtFunction:
    return ExtFunction(f.depth, base_conj(f.base))


def ext_is_zero(f: ExtFunction) -> bool:
    return base_is_zero(f.base)


def ext_sup_norm(f: ExtFunction) -> NormBracket:
    # coordinate maps are onto, so the sup over the extension equals the sup
    # of the base function over X
    return sup_norm(f.base)


def ext_equal(sys: System, f: ExtFunction, h: ExtFunction) -> bool:
    """Structural equality after lifting to a common depth: every pair of
    values or coefficients agrees within the fixed tolerance 1e-12."""
    tol = 1e-12
    d = max(f.depth, h.depth)
    a = lift_to_depth(sys, f, d).base
    b = lift_to_depth(sys, h, d).base
    if isinstance(a, TrigPoly) and isinstance(b, TrigPoly):
        keys = {k for k, _ in a.coeffs} | {k for k, _ in b.coeffs}
        da, db = a.as_dict(), b.as_dict()
        return all(abs(da.get(k, 0.0) - db.get(k, 0.0)) <= tol for k in keys)
    if isinstance(a, CylinderFunction) and isinstance(b, CylinderFunction):
        dd = max(a.depth, b.depth)
        a = refine_cylinder(sys, a, dd)
        b = refine_cylinder(sys, b, dd)
        bv = b.as_dict()
        return all(abs(c - bv[w]) <= tol for w, c in a.values)
    if isinstance(a, TabularFunction) and isinstance(b, TabularFunction):
        return all(abs(x - y) <= tol for x, y in zip(a.values, b.values))
    return False
