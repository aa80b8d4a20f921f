from fractions import Fraction

import numpy as np
import pytest

import semicrossed as sc
from helpers import dense_trig_sup, random_cylinder
from semicrossed.functions import _orbit_values

# the three shifts of the SFT benchmark
SFTS = {
    "goldenmean": ((1, 1), (1, 0)),
    "full2": ((1, 1), (1, 1)),
    "sft3": ((1, 1, 0), (1, 0, 1), (1, 0, 0)),
}


def cosine():
    return sc.TrigPoly.from_coeffs({1: 0.5, -1: 0.5})


def test_compose_map_trig(doubling):
    squished = sc.compose_map(doubling, cosine())
    assert squished.as_dict() == {2: 0.5, -2: 0.5}


def test_compose_map_cylinder(golden_mean):
    f = sc.CylinderFunction.from_values(1, {(0,): 2.0, (1,): -1.0})
    fphi = sc.compose_map(golden_mean, f)
    assert fphi.depth == 2
    for x in (sc.WordPoint((), (0, 1)), sc.WordPoint((0, 0, 1), (0,))):
        lhs = sc.evaluate_base(golden_mean, fphi, x)
        rhs = sc.evaluate_base(golden_mean, f, sc.apply_map(golden_mean, x))
        assert lhs == rhs


def test_compose_map_tabular(perm3):
    f = sc.TabularFunction((1.0, 2.0, 3.0))
    fphi = sc.compose_map(perm3, f)
    for s in range(3):
        x = sc.StatePoint(s)
        assert sc.evaluate_base(perm3, fphi, x) == sc.evaluate_base(
            perm3, f, sc.apply_map(perm3, x)
        )


def test_evaluate_base_trig_exact(doubling):
    f = cosine()
    assert sc.evaluate_base(doubling, f, sc.rational(0, 1)) == pytest.approx(1.0)
    val = sc.evaluate_base(doubling, f, sc.rational(1, 3))
    assert val == pytest.approx(-0.5)


def test_validate_base_kind(doubling, golden_mean):
    with pytest.raises(sc.KindMismatch):
        sc.validate_base(golden_mean, cosine())
    with pytest.raises(sc.KindMismatch):
        sc.validate_base(doubling, sc.TabularFunction((1.0,)))


def test_sup_norm_exact_kinds(golden_mean):
    f = sc.CylinderFunction.from_values(1, {(0,): 3.0, (1,): -4.0})
    b = sc.sup_norm(f)
    assert (b.lower, b.upper) == (4.0, 4.0)
    t = sc.sup_norm(sc.TabularFunction((1.0, -2.5, 0.5)))
    assert (t.lower, t.upper) == (2.5, 2.5)


def test_sup_norm_trig_bracket():
    b = sc.sup_norm(cosine())
    assert b.lower <= 1.0 <= b.upper
    assert b.width <= 1e-3
    assert b.upper <= cosine().l1() + 1e-15


def test_sup_norm_vs_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        freqs = rng.integers(-4, 5, size=3)
        coeffs = {}
        for k in freqs:
            coeffs[int(k)] = complex(rng.normal(), rng.normal())
        g = sc.TrigPoly.from_coeffs(coeffs)
        b = sc.sup_norm(g)
        oracle = dense_trig_sup(g.as_dict())
        assert b.lower - 1e-12 <= oracle <= b.upper + 1e-12


def test_ext_depth_semantics(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    deep = sc.ext(2, cosine())
    want = sc.evaluate_base(doubling, cosine(), sc.rational(4, 7))
    assert sc.evaluate(doubling, deep, lift) == want


def test_ext_mul_mixed_depths(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    f = sc.ext(1, cosine())
    h = sc.ext(2, cosine())
    prod = sc.ext_mul(doubling, f, h)
    lhs = sc.evaluate(doubling, prod, lift)
    rhs = sc.evaluate(doubling, f, lift) * sc.evaluate(doubling, h, lift)
    assert abs(lhs - rhs) <= 1e-12


def test_lift_to_depth_pointwise(doubling):
    lift = sc.lift_point(doubling, sc.rational(1, 5), sc.SeededRandom(2))
    f = sc.ext(1, cosine())
    for d in (2, 3, 5):
        g = sc.lift_to_depth(doubling, f, d)
        assert abs(sc.evaluate(doubling, g, lift) - sc.evaluate(doubling, f, lift)) <= 1e-12
    with pytest.raises(ValueError):
        sc.lift_to_depth(doubling, sc.ext(3, cosine()), 2)


def test_compose_shift_depth_moves(doubling):
    f = sc.ext(2, cosine())
    down = sc.compose_shift(doubling, f)
    assert down.depth == 1 and down.base.as_dict() == cosine().as_dict()
    shallow = sc.compose_shift(doubling, down)
    assert shallow.depth == 1 and shallow.base.as_dict() == {2: 0.5, -2: 0.5}
    up = sc.compose_shift_inverse(doubling, down)
    assert up.depth == 2


def test_compose_shift_roundtrip(doubling):
    f = sc.ext(1, cosine())
    back = sc.compose_shift(doubling, sc.compose_shift_inverse(doubling, f))
    assert sc.ext_equal(doubling, back, f)
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    moved = sc.compose_shift(doubling, f)
    # f∘phi~ evaluated at xt equals f at the shifted point
    lhs = sc.evaluate(doubling, moved, lift)
    rhs = sc.evaluate(doubling, f, sc.shift(doubling, lift))
    assert abs(lhs - rhs) <= 1e-12


def test_ext_equal_across_depths(doubling):
    f = sc.ext(1, cosine())
    assert sc.ext_equal(doubling, f, sc.lift_to_depth(doubling, f, 3))
    assert not sc.ext_equal(doubling, f, sc.ext(1, sc.TrigPoly.from_coeffs({1: 1.0})))


def test_ext_sup_norm_matches_base():
    f = sc.ext(4, cosine())
    assert sc.ext_sup_norm(f) == sc.sup_norm(cosine())


def test_nonfinite_rejected():
    with pytest.raises((sc.NonFinite, ValueError)):
        sc.TrigPoly.from_coeffs({1: complex(np.inf, 0.0)})


# ---------------------------------------------------------------------------
# the batched orbit evaluator against the scalar evaluate_base


def assert_orbit_values_match(sys, bases, x, n):
    got = _orbit_values(sys, bases, x, n)
    orbit = sc.forward_orbit(sys, x, n)
    want = np.array([[sc.evaluate_base(sys, g, pt) for pt in orbit] for g in bases], dtype=complex)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # bit for bit, signs of zero included
    assert got.view(float).shape == (len(bases), 2 * n)  # gathered C-contiguous
    return got


def _lengths(pre_plus_period: int) -> list[int]:
    """Orbit lengths below, at and far above where the orbit first repeats."""
    m = pre_plus_period
    return sorted({1, max(m - 1, 1), m, m + 1, 10 * m + 3})


def _trig(seed, freqs):
    rng = np.random.default_rng(seed)
    return sc.TrigPoly.from_coeffs({k: complex(*rng.normal(size=2)) for k in freqs})


TRIG_BASES = [cosine(), _trig(1, [-3, 0, 2]), _trig(2, [-300, -17, 0, 299, 300])]


@pytest.mark.parametrize(
    "k,x",
    [
        (2, Fraction(1, 7)),
        (2, Fraction(3, 28)),  # preperiodic
        (2, Fraction(5, 96)),
        (2, Fraction(0)),
        (3, Fraction(1, 13)),
        (3, Fraction(7, 45)),
        (3, Fraction(2, 81)),  # reaches the fixed point 0
        (2, Fraction(1, 2**61 - 1)),  # denominators above 2^53
        (3, Fraction(5, 3**40)),
        (2, Fraction(12345, 2**45 + 1)),  # int64-exact for |m| = 1, not for 300
        (2, Fraction(1, 2**44 - 1)),  # period 44 < n; int64-exact for |m| <= 300, 301 q within 1.8x of 2^53
    ],
)
def test_orbit_values_circle(k, x):
    sys = sc.CircleTimesK(k)
    assert_orbit_values_match(sys, TRIG_BASES, sc.RationalPoint(x), 70)
    assert_orbit_values_match(sys, TRIG_BASES[:2], sc.RationalPoint(x), 70)


@pytest.mark.parametrize(
    "k,x",
    [(2, Fraction(1, 7)), (2, Fraction(3, 28)), (2, Fraction(5, 96)), (3, Fraction(2, 81)), (2, Fraction(0))],
)
def test_orbit_values_circle_gathered_past_the_cycle(k, x):
    sys = sc.CircleTimesK(k)
    cls = sc.classify(sys, sc.RationalPoint(x))
    for n in _lengths(cls.preperiod + cls.period):
        assert_orbit_values_match(sys, TRIG_BASES, sc.RationalPoint(x), n)


def test_orbit_values_sft_gathered_past_the_cycle(golden_mean):
    bases = [random_cylinder(SFTS["goldenmean"], 3, 4), random_cylinder(SFTS["goldenmean"], 1, 5)]
    x = sc.WordPoint((), (0, 1))
    for steps in range(1, 13):  # preperiods 1 to 12
        x = next(p for p in sc.preimages(golden_mean, x) if p.preperiod)
        assert len(x.preperiod) == steps
        for n in _lengths(steps + len(x.cycle)):
            assert_orbit_values_match(golden_mean, bases, x, n)


def test_orbit_values_permutation_gathered_past_the_cycle():
    sys = sc.PermutationSystem((1, 2, 3, 4, 0, 6, 5, 7))  # cycles of length 5, 2 and 1
    bases = [sc.TabularFunction(tuple(complex(s, 1 - s) for s in range(8)))]
    for s, period in [(0, 5), (3, 5), (5, 2), (7, 1)]:
        for n in _lengths(period):
            assert_orbit_values_match(sys, bases, sc.StatePoint(s), n)


def test_orbit_values_overflow_matches_scalar(doubling):
    huge = sc.TrigPoly.from_coeffs({-2: 1e308j, 0: 1e308, 1: 1e308})
    got = assert_orbit_values_match(doubling, [huge, cosine()], sc.rational(1, 7), 30)
    assert np.isinf(got.real).any() and not np.isnan(got.view(float)).any()


@pytest.mark.parametrize("name", sorted(SFTS))
@pytest.mark.parametrize("depth", [1, 2, 10])
def test_orbit_values_sft(name, depth):
    sys = sc.ShiftOfFiniteType(SFTS[name])
    bases = [random_cylinder(SFTS[name], depth, 1), random_cylinder(SFTS[name], 1, 2)]
    assert_orbit_values_match(sys, bases, sc.periodic_points(sys, 3)[-1], 25)
    x = sc.WordPoint((), (0,))
    for steps in range(1, 13):  # preperiodic words, preperiods 1 to 12
        x = next(p for p in sc.preimages(sys, x) if p.preperiod)
        assert len(x.preperiod) == steps
        if steps in (1, 2, 12):
            assert_orbit_values_match(sys, bases, x, 25)


def test_orbit_values_permutation():
    sys = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    bases = [sc.TabularFunction(tuple(complex(s, -s) for s in range(6))), sc.TabularFunction((2.5,) * 6)]
    for s in range(6):
        assert_orbit_values_match(sys, bases, sc.StatePoint(s), 13)
    assert _orbit_values(sys, [], sc.StatePoint(0), 5).shape == (0, 5)


@pytest.mark.parametrize(
    "sys,g,x",
    [
        (sc.CircleTimesK(2), cosine(), sc.StatePoint(0)),
        (sc.CircleTimesK(2), sc.TabularFunction((1.0,)), sc.rational(1, 3)),
        (sc.golden_mean_shift(), cosine(), sc.WordPoint((), (0, 1))),
        (
            sc.golden_mean_shift(),
            sc.CylinderFunction.from_values(1, {(0,): 1.0}),
            sc.WordPoint((), (0, 1)),
        ),
        (
            sc.golden_mean_shift(),
            sc.CylinderFunction.from_values(1, {(0,): 1.0, (1,): 2.0}),
            sc.WordPoint((), (1,)),  # 11 is forbidden
        ),
        (sc.PermutationSystem((1, 0)), sc.TabularFunction((1.0,)), sc.StatePoint(0)),
        (sc.PermutationSystem((1, 0)), sc.TabularFunction((1.0, 2.0)), sc.StatePoint(2)),
    ],
    ids=["circle-point", "circle-base", "sft-base", "sft-cover", "sft-word", "perm-base", "perm-state"],
)
def test_orbit_values_kind_mismatch_texts(sys, g, x):
    with pytest.raises(sc.KindMismatch) as scalar:
        sc.evaluate_base(sys, g, x)
    with pytest.raises(sc.KindMismatch) as batched:
        _orbit_values(sys, [g], x, 4)
    assert str(batched.value) == str(scalar.value)
