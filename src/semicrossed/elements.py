"""Finite Laurent elements sum_n U^n f_n over a dynamical system.

Coefficients are extension functions; multiplication threads coefficients
through the shift automorphism (f U^n = U^n (f∘phi~^n)), the adjoint sends
U^n f to U^{-n} (conj f ∘ phi~^{-n}), and ``times_shift_power`` rewrites
G * U^m back into nonnegative powers with depth-1 coefficients.  An element
with nonnegative powers and depth-1 coefficients is called semicrossed; a
tagged right-form wrapper carries coefficient data for the backward-orbit
(relation-2) representations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DepthTooLarge, NotSemicrossed, WrongForm
from .functions import (
    BaseFunction,
    ExtFunction,
    compose_shift_power,
    constant_base,
    ext_add,
    ext_conj,
    ext_is_zero,
    ext_mul,
    ext_scale,
    ext_sup_norm,
)
from .systems import System


@dataclass(frozen=True)
class Element:
    """sum over (power, coefficient) with zero coefficients pruned."""

    system: System
    coeffs: tuple[tuple[int, ExtFunction], ...]

    def __post_init__(self) -> None:
        items = tuple(
            sorted(
                ((int(n), f) for n, f in self.coeffs if not ext_is_zero(f)),
                key=lambda item: item[0],
            )
        )
        powers = [n for n, _ in items]
        if len(set(powers)) != len(powers):
            raise ValueError("duplicate powers")
        object.__setattr__(self, "coeffs", items)

    def as_dict(self) -> dict[int, ExtFunction]:
        return dict(self.coeffs)

    @property
    def powers(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.coeffs)

    @property
    def max_power(self) -> int:
        return max((n for n, _ in self.coeffs), default=0)

    @property
    def min_power(self) -> int:
        return min((n for n, _ in self.coeffs), default=0)

    @property
    def max_depth(self) -> int:
        return max((f.depth for _, f in self.coeffs), default=1)

    def __add__(self, other: "Element") -> "Element":
        return add(self, other)

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def __neg__(self) -> "Element":
        return scale(self, -1.0)


def element(sys: System, coeffs: Mapping[int, ExtFunction]) -> Element:
    return Element(sys, tuple(coeffs.items()))


def constant_element(sys: System, c: complex) -> Element:
    return element(sys, {0: ExtFunction(1, constant_base(sys, c))})


def shift_element(sys: System, power: int = 1) -> Element:
    """U^power with coefficient 1."""
    return element(sys, {power: ExtFunction(1, constant_base(sys, 1.0))})


def from_base(sys: System, g: BaseFunction, power: int = 0) -> Element:
    return element(sys, {power: ExtFunction(1, g)})


def is_semicrossed(el: Element) -> bool:
    """Nonnegative powers and depth-1 coefficients only."""
    return all(n >= 0 and f.depth == 1 for n, f in el.coeffs)


def require_semicrossed(el: Element) -> None:
    if not is_semicrossed(el):
        raise NotSemicrossed("element has negative powers or coefficients of depth > 1")


def add(a: Element, b: Element) -> Element:
    _same_system(a, b)
    out = a.as_dict()
    for n, f in b.coeffs:
        out[n] = ext_add(a.system, out[n], f) if n in out else f
    return element(a.system, out)


def scale(a: Element, c: complex) -> Element:
    return element(a.system, {n: ext_scale(f, c) for n, f in a.coeffs})


def multiply(a: Element, b: Element) -> Element:
    """(U^m f)(U^n g) = U^{m+n} (f∘phi~^n) g, extended bilinearly."""
    _same_system(a, b)
    sys = a.system
    out: dict[int, ExtFunction] = {}
    for m, f in a.coeffs:
        for n, g in b.coeffs:
            term = ext_mul(sys, compose_shift_power(sys, f, n), g)
            p = m + n
            out[p] = ext_add(sys, out[p], term) if p in out else term
    return element(sys, out)


def adjoint(a: Element) -> Element:
    """(U^n f)* = U^{-n} (conj f ∘ phi~^{-n})."""
    sys = a.system
    return element(
        sys,
        {-n: compose_shift_power(sys, ext_conj(f), -n) for n, f in a.coeffs},
    )


def compose_shift_element(a: Element) -> Element:
    """Coefficientwise f_n -> f_n∘phi~ (conjugation of the element by the shift)."""
    sys = a.system
    return element(sys, {n: compose_shift_power(sys, f, 1) for n, f in a.coeffs})


def times_shift_power(a: Element, m: int) -> Element:
    """a * U^m = sum U^{n+m} (f_n∘phi~^m); needs every depth <= m+1.

    With nonnegative powers and m at least max_depth-1 the result is
    semicrossed.  Raises DepthTooLarge when a coefficient is too deep for
    the shift to absorb.
    """
    if m < 0:
        raise ValueError("power shift must be >= 0")
    if any(n < 0 for n, _ in a.coeffs):
        raise NotSemicrossed("power shift requires nonnegative powers")
    sys = a.system
    out: dict[int, ExtFunction] = {}
    for n, f in a.coeffs:
        if f.depth > m + 1:
            raise DepthTooLarge(f"coefficient at power {n} has depth {f.depth} > {m + 1}")
        out[n + m] = compose_shift_power(sys, f, m)
    return element(sys, out)


def l1_upper_bound(a: Element) -> float:
    """Sum of certified coefficient sup-norm uppers; dominates every representation norm."""
    return float(sum(ext_sup_norm(f).upper for _, f in a.coeffs))


@dataclass(frozen=True)
class RightFormElement:
    """Tagged right-coefficient form sum_n g_n U^n (relation-2 bookkeeping).

    Pure data transport: conversion does not move coefficients through the
    shift, it reinterprets the same table for backward-orbit representations.
    """

    system: System
    coeffs: tuple[tuple[int, ExtFunction], ...]

    def as_dict(self) -> dict[int, ExtFunction]:
        return dict(self.coeffs)


def to_right_form(a: Element) -> RightFormElement:
    return RightFormElement(a.system, a.coeffs)


def from_right_form(g: RightFormElement) -> Element:
    if not isinstance(g, RightFormElement):
        raise WrongForm("expected a right-form element")
    return Element(g.system, g.coeffs)


def _same_system(a: Element, b: Element) -> None:
    if a.system != b.system:
        raise ValueError("elements live over different systems")
