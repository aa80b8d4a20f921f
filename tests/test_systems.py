import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicrossed as sc
from semicrossed import functions, systems
from helpers import (
    brute_admissible_words,
    brute_sft_properties,
    nonzero_transitions,
    ref_classify,
    ref_orbit_representatives,
)


def test_doubling_apply(doubling):
    assert sc.apply_map(doubling, sc.rational(1, 3)).value == Fraction(2, 3)
    assert sc.apply_map(doubling, sc.rational(5, 6)).value == Fraction(2, 3)
    assert sc.apply_map(doubling, sc.rational(0, 1)).value == 0


def test_doubling_preimages(doubling):
    pre = sc.preimages(doubling, sc.rational(1, 3))
    assert [p.value for p in pre] == [Fraction(1, 6), Fraction(2, 3)]
    pre0 = sc.preimages(doubling, sc.rational(0, 1))
    assert [p.value for p in pre0] == [Fraction(0), Fraction(1, 2)]


def test_tripling_preimages(tripling):
    pre = sc.preimages(tripling, sc.rational(0, 1))
    assert [p.value for p in pre] == [Fraction(0), Fraction(1, 3), Fraction(2, 3)]
    for p in pre:
        assert sc.apply_map(tripling, p).value == 0


def test_classify_circle(doubling):
    assert sc.classify(doubling, sc.rational(1, 3)) == sc.Classification.periodic(2)
    assert sc.classify(doubling, sc.rational(1, 7)).period == 3
    assert sc.classify(doubling, sc.rational(0, 1)).period == 1
    half = sc.classify(doubling, sc.rational(1, 2))
    assert (half.kind, half.preperiod, half.period) == ("eventually-periodic", 1, 1)
    sixth = sc.classify(doubling, sc.rational(1, 6))
    assert (sixth.preperiod, sixth.period) == (1, 2)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_classify_circle_matches_point_walk(k, monkeypatch):
    # the integer residue walk against the Fraction walk, on every a/q, q < 80;
    # then the state walk on a k-cycle, a 2-cycle and a fixed point, each
    # with the walk cut at 0, 3 and the default 4096 steps
    sys = sc.CircleTimesK(k)
    points = {Fraction(a, q) for q in range(1, 80) for a in range(q)}
    perm = sc.PermutationSystem(tuple(range(1, k)) + (0, k + 1, k, k + 2))
    assert systems._MAX_STEPS == 4096
    for steps in (0, 3, 4096):
        monkeypatch.setattr(systems, "_MAX_STEPS", steps)
        for value in sorted(points):
            x = sc.RationalPoint(value)
            assert sc.classify(sys, x) == ref_classify(sys, x, steps)
        for s in range(perm.size):
            x = sc.StatePoint(s)
            assert sc.classify(perm, x) == ref_classify(perm, x, steps)


@pytest.mark.parametrize("k", [2, 3])
def test_orbit_representatives_circle(k):
    sys = sc.CircleTimesK(k)
    aperiodic = sc.seeded_aperiodic_rationals(sys, count=40, seed=k)
    pts = sc.periodic_rationals(sys, 45) + aperiodic + aperiodic[:5]
    pts += [sc.apply_map(sys, x) for x in aperiodic[:10]]
    reps = sc.orbit_representatives(sys, pts)
    assert reps == ref_orbit_representatives(sys, pts)
    assert len(reps) < len(pts)


def test_orbit_representatives_unresolved_point(doubling):
    x = sc.RationalPoint(Fraction(1, 2**5000))
    ids, first = systems._orbit_ids(doubling, x, 4096)
    assert first is None and len(ids) == 4097
    pts = [sc.rational(2, 3), x, sc.apply_map(doubling, x), sc.rational(1, 3)]
    reps = sc.orbit_representatives(doubling, pts)
    assert reps == ref_orbit_representatives(doubling, pts)
    assert reps == [sc.rational(1, 3), pts[2], x]


def test_orbit_representatives_words(golden_mean):
    words = [
        sc.WordPoint((1, 0, 1), (0,)),
        sc.WordPoint((0, 1, 0, 1), (0, 0, 1)),
        sc.WordPoint((1, 0, 0, 1), (0, 1)),
        sc.WordPoint((0, 0, 1), (0,)),
    ]
    for w in list(words):
        words += sc.forward_orbit(golden_mean, w, 5)[1:]
    pts = words + sc.periodic_points(golden_mean, 4)
    reps = sc.orbit_representatives(golden_mean, pts)
    assert reps == ref_orbit_representatives(golden_mean, pts)
    assert any(y.preperiod for y in reps)


def test_orbit_representatives_two_cycles():
    sys = sc.PermutationSystem((1, 2, 0, 4, 3))
    pts = [sc.StatePoint(s) for s in (4, 2, 0, 1, 3, 0)]
    reps = sc.orbit_representatives(sys, pts)
    assert reps == ref_orbit_representatives(sys, pts)
    assert reps == [sc.StatePoint(0), sc.StatePoint(3)]


@pytest.mark.parametrize("k", [2, 3])
def test_default_samples_circle_walks_no_points(k, monkeypatch):
    sys = sc.CircleTimesK(k)
    want = ref_orbit_representatives(sys, sc.periodic_rationals(sys))

    def boom(*args):
        raise AssertionError("circle samples walked a point")

    monkeypatch.setattr(systems, "apply_map", boom)
    monkeypatch.setattr(systems, "forward_orbit", boom)
    pts, per = sc.default_samples(sys)
    assert per == want
    assert pts[: len(per)] == per


def test_classify_checks_point(doubling, golden_mean, perm3, monkeypatch):
    monkeypatch.setattr(systems, "_MAX_STEPS", 0)
    for sys, x in [
        (doubling, sc.StatePoint(0)),
        (doubling, sc.WordPoint((), (0,))),
        (golden_mean, sc.rational(1, 3)),
        (perm3, sc.StatePoint(3)),
    ]:
        with pytest.raises(sc.KindMismatch):
            sc.classify(sys, x)
        with pytest.raises(sc.KindMismatch):
            ref_classify(sys, x, 0)


def test_rational_normalizes():
    assert sc.rational(5, 3).value == Fraction(2, 3)
    assert sc.rational(-1, 3).value == Fraction(2, 3)


def test_kind_mismatch(doubling, golden_mean):
    with pytest.raises(sc.KindMismatch):
        sc.apply_map(doubling, sc.StatePoint(0))
    with pytest.raises(sc.KindMismatch):
        sc.apply_map(golden_mean, sc.rational(1, 3))


def test_word_point_shift(golden_mean):
    x = sc.WordPoint((), (1, 0))
    y = sc.apply_map(golden_mean, x)
    assert sc.point_key(y) == sc.point_key(sc.WordPoint((), (0, 1)))


def test_word_point_canonical():
    # a preperiod letter that just rewinds the cycle collapses away
    a = sc.WordPoint((1,), (0, 1))
    b = sc.WordPoint((), (1, 0))
    assert sc.point_key(a) == sc.point_key(b)


def test_word_point_classify(golden_mean):
    cls = sc.classify(golden_mean, sc.WordPoint((0, 0, 1), (0,)))
    assert (cls.kind, cls.preperiod, cls.period) == ("eventually-periodic", 3, 1)
    assert sc.classify(golden_mean, sc.WordPoint((), (0, 1))).period == 2


def test_golden_mean_preimages(golden_mean):
    x = sc.WordPoint((), (1, 0))
    pre = sc.preimages(golden_mean, x)
    # prepending 1 to (10)^inf would create the forbidden word 11
    assert len(pre) == 1
    assert sc.point_key(pre[0]) == sc.point_key(sc.WordPoint((), (0, 1)))
    for p in pre:
        assert sc.point_key(sc.apply_map(golden_mean, p)) == sc.point_key(x)


def test_full_shift_preimages():
    full = sc.ShiftOfFiniteType(((1, 1), (1, 1)))
    pre = sc.preimages(full, sc.WordPoint((), (0,)))
    assert len(pre) == 2


def test_permutation_orbits(perm3):
    orbit = sc.forward_orbit(perm3, sc.StatePoint(0), 3)
    assert [p.state for p in orbit] == [0, 1, 2]
    assert sc.classify(perm3, sc.StatePoint(1)).period == 3
    pre = sc.preimages(perm3, sc.StatePoint(0))
    assert [p.state for p in pre] == [2]


def test_admissible_words(golden_mean):
    assert sc.admissible_words(golden_mean, 2) == [(0, 0), (0, 1), (1, 0)]
    got = sc.admissible_words(golden_mean, 3)
    assert got == brute_admissible_words(golden_mean.transition, 3)


@pytest.mark.parametrize(
    "transition",
    [((1, 1), (1, 0)), ((1, 1), (1, 1)), ((1, 1, 0), (1, 0, 1), (1, 0, 0)), [[1, 1], [1, 0]]],
    ids=["goldenmean", "full2", "sft3", "goldenmean-lists"],
)
def test_admissible_words_match_brute_force(transition):
    sys = sc.ShiftOfFiniteType(transition)
    for length in range(1, 9):
        assert sc.admissible_words(sys, length) == brute_admissible_words(transition, length)


def test_admissible_words_returns_a_fresh_list(golden_mean):
    words = sc.admissible_words(golden_mean, 4)
    words[0] = (1, 1, 1, 1)
    words.append((0, 0, 0, 0))
    assert sc.admissible_words(golden_mean, 4) == brute_admissible_words(golden_mean.transition, 4)
    with pytest.raises(ValueError):
        sc.admissible_words(golden_mean, 0)


def test_validate_transition_messages():
    with pytest.raises(sc.InvalidMatrix, match="row 1"):
        sc.validate_transition(((1, 1), (0, 0)))
    with pytest.raises(sc.InvalidMatrix, match="column 1"):
        sc.validate_transition(((1, 0), (1, 0)))
    with pytest.raises(sc.InvalidMatrix):
        sc.validate_transition(((1, 2), (1, 0)))


def test_sft_properties_hand_cases(golden_mean):
    rep = sc.sft_properties(golden_mean.transition)
    assert (rep.transitive, rep.dense_periodic, rep.minimal) == (True, True, False)
    cycle3 = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    rep = sc.sft_properties(cycle3)
    assert (rep.transitive, rep.minimal) == (True, True)
    # one-way bridge: transitive fails, recurrence fails at the bridge word
    bridge = ((1, 1), (0, 1))
    rep = sc.sft_properties(bridge)
    assert (rep.transitive, rep.dense_periodic, rep.dense_recurrent) == (
        False,
        False,
        False,
    )


def test_sft_properties_vs_brute_force():
    for size in (2, 3):
        for mat in nonzero_transitions(size):
            want = brute_sft_properties(mat)
            got = sc.sft_properties(mat)
            for prop, expected in want.items():
                assert getattr(got, prop) == expected, f"{prop} on {mat}"


def test_separating_function_circle(doubling):
    orbit = sc.forward_orbit(doubling, sc.rational(1, 7), 3)
    for target in range(3):
        f = sc.separating_function(doubling, orbit, target, 3)
        for j, x in enumerate(orbit):
            want = 1.0 if j == target else 0.0
            assert abs(sc.evaluate_base(doubling, f, x) - want) <= 1e-12


def test_separating_function_sft(golden_mean):
    orbit = sc.forward_orbit(golden_mean, sc.WordPoint((0, 0, 1), (0,)), 4)
    f = sc.separating_function(golden_mean, orbit, 2, 4)
    vals = [sc.evaluate_base(golden_mean, f, x) for x in orbit]
    assert vals == [0, 0, 1, 0]


def test_separating_function_makes_no_base_mul(doubling, monkeypatch):
    calls = []
    real = functions.base_mul
    monkeypatch.setattr(functions, "base_mul", lambda *a: calls.append(1) or real(*a))
    orbit = sc.forward_orbit(doubling, sc.rational(1, 19), 8)
    sc.separating_function(doubling, orbit, 3, 8)
    assert calls == []


def _product_by_dicts(sys, orbit, target, upto):
    """The circle separating function built factor by factor with base_mul."""
    one = sc.TrigPoly.from_coeffs({0: 1.0})
    f = one
    xt = orbit[target].value
    for j, x in enumerate(orbit[:upto]):
        if j == target:
            continue
        r = ((xt - x.value) % 1).denominator
        num, den = x.value.numerator, x.value.denominator
        bump = sc.TrigPoly.from_coeffs(
            {
                k: (r - abs(k)) / (r * r) * cmath.exp(-2j * cmath.pi * ((k * num) % den / den))
                for k in range(-(r - 1), r)
            }
        )
        factor = functions.base_add(sys, one, functions.base_scale(bump, -1.0))
        f = functions.base_mul(sys, f, factor)
    return f


@pytest.mark.parametrize("q,n", [(7, 3), (19, 8), (103, 10)])
def test_separating_function_matches_dict_product(doubling, q, n):
    orbit = sc.forward_orbit(doubling, sc.rational(1, q), n)
    for target in (0, n - 1):
        got = sc.separating_function(doubling, orbit, target, n).as_dict()
        want = _product_by_dicts(doubling, orbit, target, n).as_dict()
        assert max(abs(got.get(k, 0) - want.get(k, 0)) for k in got.keys() | want.keys()) <= 1e-12


def test_separating_function_collision(doubling):
    orbit = sc.forward_orbit(doubling, sc.rational(1, 3), 3)  # 1/3, 2/3, 1/3
    with pytest.raises(sc.SeparationImpossible):
        sc.separating_function(doubling, orbit, 0, 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(num=st.integers(0, 200), den=st.integers(1, 99))
def test_periodic_rational_orbits(num, den):
    s = sc.doubling_map()
    x = sc.rational(num, den)
    if x.value.denominator % 2 == 1:
        cls = sc.classify(s, x)
        assert cls.kind == "periodic"
        orbit = sc.forward_orbit(s, x, cls.period + 1)
        assert orbit[-1].value == x.value


@settings(max_examples=60, deadline=None, derandomize=True)
@given(num=st.integers(0, 200), den=st.integers(1, 99))
def test_preimages_are_sections(num, den):
    s = sc.CircleTimesK(3)
    x = sc.rational(num, den)
    pre = sc.preimages(s, x)
    assert len(pre) == 3
    for p in pre:
        assert sc.apply_map(s, p).value == x.value
