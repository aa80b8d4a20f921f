from fractions import Fraction

import pytest

import semicrossed as sc
from semicrossed import extension, systems


def coords(xt, n):
    return [xt.coordinate(j) for j in range(1, n + 1)]


def test_periodic_lift_coordinates(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    assert [c.value for c in coords(lift, 3)] == [
        Fraction(1, 7),
        Fraction(4, 7),
        Fraction(2, 7),
    ]
    assert lift.period == 3
    assert lift.coordinate(4).value == Fraction(1, 7)


def test_periodic_lift_needs_periodic_point(doubling):
    with pytest.raises(sc.NotPeriodic):
        sc.periodic_lift(doubling, sc.rational(1, 2))


def test_periodic_lift_validation(doubling):
    with pytest.raises(ValueError):
        sc.PeriodicLift(doubling, (sc.rational(1, 3), sc.rational(1, 6)))
    # a doubled-up cycle is rejected as non-primitive
    a, b = sc.rational(1, 3), sc.rational(2, 3)
    with pytest.raises(ValueError):
        sc.PeriodicLift(doubling, (a, b, a, b))


def old_periodic_lift_coords(sys, x):
    """periodic_lift's coordinates from classify and a walk of apply_map steps."""
    orbit = [x]
    for _ in range(sc.classify(sys, x).period - 1):
        orbit.append(sc.apply_map(sys, orbit[-1]))
    return (orbit[0],) + tuple(orbit[:0:-1])


@pytest.mark.parametrize("k", [2, 3, 5])
def test_periodic_lift_coordinates_match_apply_map_walk(k):
    sys = sc.CircleTimesK(k)
    pts = sc.periodic_rationals(sys, 40) + ([sc.rational(3, 2**128 + 1)] if k == 2 else [])
    for x in pts:
        lift = sc.periodic_lift(sys, x)
        assert lift.coords == old_periodic_lift_coords(sys, x)
        assert all(type(c.value) is Fraction for c in lift.coords)


def test_periodic_lift_words_and_states_match_apply_map_walk(golden_mean):
    perm = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    cases = [(perm, sc.StatePoint(s)) for s in range(6)]
    cases += [(golden_mean, w) for w in sc.periodic_points(golden_mean, 5)]
    for sys, x in cases:
        assert sc.periodic_lift(sys, x).coords == old_periodic_lift_coords(sys, x)


@pytest.mark.parametrize(
    "x,kind",
    [(sc.rational(1, 2), "eventually-periodic"), (sc.rational(5, 12), "eventually-periodic"),
     (sc.RationalPoint(Fraction(1, 2**5000)), "unresolved")],
)
def test_periodic_lift_names_the_kind(doubling, x, kind):
    with pytest.raises(sc.NotPeriodic, match=f"^point is {kind}$"):
        sc.periodic_lift(doubling, x)


def test_periodic_lift_of_a_word_outruns_the_step_budget(golden_mean, monkeypatch):
    # a word's walk is sized by the word, a circle walk by _MAX_STEPS
    for module in (extension, systems):
        monkeypatch.setattr(module, "_MAX_STEPS", 3)
    w = sc.WordPoint((), (0, 0, 1, 0, 1))
    assert sc.periodic_lift(golden_mean, w).coords == old_periodic_lift_coords(golden_mean, w)
    with pytest.raises(sc.NotPeriodic, match="^point is eventually-periodic$"):
        sc.periodic_lift(golden_mean, sc.WordPoint((1, 0, 0, 0, 1), (0,)))
    with pytest.raises(sc.NotPeriodic, match="^point is unresolved$"):
        sc.periodic_lift(sc.CircleTimesK(2), sc.rational(1, 31))


@pytest.mark.parametrize(
    "coords,error,text",
    [
        ((sc.rational(1, 3), sc.rational(1, 6)), ValueError, "coords do not form a backward orbit cycle"),
        ((sc.rational(1, 7), sc.rational(2, 7), sc.rational(4, 7)), ValueError,
         "coords do not form a backward orbit cycle"),  # a forward cycle
        ((sc.rational(1, 5),), ValueError, "coords do not form a backward orbit cycle"),
        ((sc.rational(1, 3), sc.rational(2, 3)) * 2, ValueError, "coords repeat a shorter cycle"),
        ((sc.rational(0),) * 3, ValueError, "coords repeat a shorter cycle"),
        ((sc.rational(1, 3), sc.StatePoint(0)), sc.KindMismatch, "circle systems use RationalPoint"),
        ((sc.WordPoint((), (0,)),), sc.KindMismatch, "circle systems use RationalPoint"),
        ((), ValueError, "coords must be nonempty"),
    ],
    ids=["non-cycle", "forward-cycle", "non-fixed", "doubled", "tripled-fixed", "state", "word", "empty"],
)
def test_periodic_lift_rejections_keep_their_types_and_texts(doubling, coords, error, text):
    with pytest.raises(error) as raised:
        sc.PeriodicLift(doubling, coords)
    assert type(raised.value) is error
    assert str(raised.value) == text


def test_shifted_periodic_lift_keeps_its_coordinates(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 2**128 + 1))
    assert lift.period == 256
    for n in (1, 5, 256, -3):
        moved = sc.shift_power(doubling, lift, n)
        assert moved.coordinate(1) == sc.forward_orbit(doubling, lift.coordinate(1), n % 256 + 1)[-1]


def test_shift_prepends_image(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 3))
    moved = sc.shift(doubling, lift)
    assert moved.coordinate(1).value == Fraction(2, 3)
    assert moved.coordinate(2).value == Fraction(1, 3)
    back = sc.shift_inverse(doubling, moved)
    assert sc.ext_points_equal(doubling, back, lift, 8)


def test_shift_power_roundtrip(doubling):
    xt = sc.lift_point(doubling, sc.rational(1, 5), sc.AlwaysMin())
    fwd = sc.shift_power(doubling, xt, 4)
    assert sc.ext_points_equal(
        doubling, sc.shift_power(doubling, fwd, -4), xt, 12
    )


def test_projection_intertwines(doubling):
    xt = sc.lift_point(doubling, sc.rational(1, 5), sc.SeededRandom(3))
    lhs = sc.project(sc.shift(doubling, xt))
    rhs = sc.apply_map(doubling, sc.project(xt))
    assert sc.point_key(lhs) == sc.point_key(rhs)


def test_always_min_chooser(doubling):
    xt = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    assert [c.value for c in coords(xt, 3)] == [
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 12),
    ]


def test_seeded_chooser_deterministic(doubling):
    a = sc.lift_point(doubling, sc.rational(1, 5), sc.SeededRandom(11))
    b = sc.lift_point(doubling, sc.rational(1, 5), sc.SeededRandom(11))
    assert sc.ext_points_equal(doubling, a, b, 32)
    others = [
        sc.lift_point(doubling, sc.rational(1, 5), sc.SeededRandom(seed))
        for seed in (12, 13, 14)
    ]
    assert any(not sc.ext_points_equal(doubling, a, o, 32) for o in others)


def test_explicit_tail_chooser(doubling):
    rule = lambda s, p: sc.preimages(s, p)[-1]
    xt = sc.lift_point(doubling, sc.rational(1, 3), sc.ExplicitTail(rule, "max"))
    assert xt.coordinate(2).value == Fraction(2, 3)

    bad = sc.ExplicitTail(lambda s, p: sc.rational(1, 9), "broken")
    lifted = sc.lift_point(doubling, sc.rational(1, 3), bad)
    with pytest.raises(ValueError):
        lifted.coordinate(2)


def test_backward_coordinates_are_preimages(doubling):
    xt = sc.lift_point(doubling, sc.rational(3, 5), sc.SeededRandom(4))
    for j in range(1, 12):
        up = xt.coordinate(j + 1)
        assert sc.apply_map(doubling, up).value == xt.coordinate(j).value


def test_classify_lift(doubling):
    per = sc.periodic_lift(doubling, sc.rational(1, 7))
    cls = sc.classify_lift(doubling, per, 64)
    assert (cls.kind, cls.period) == ("periodic", 3)

    strange = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    assert sc.classify_lift(doubling, strange, 128).kind == "unresolved"


def test_classify_lift_sft(golden_mean):
    per = sc.periodic_lift(golden_mean, sc.WordPoint((), (0, 1)))
    assert sc.classify_lift(golden_mean, per, 32).period == 2


def test_lift_point_word_systems(golden_mean):
    x = sc.WordPoint((), (0,))
    xt = sc.lift_point(golden_mean, x, sc.AlwaysMin())
    for j in range(1, 8):
        nxt = sc.apply_map(golden_mean, xt.coordinate(j + 1))
        assert sc.point_key(nxt) == sc.point_key(xt.coordinate(j))


def test_verify_transfer_golden_mean(golden_mean):
    for prop, expected in (
        ("transitive", True),
        ("dense_periodic", True),
        ("minimal", False),
        ("dense_recurrent", True),
    ):
        base, extension = sc.verify_transfer(golden_mean, prop)
        assert base == expected
        assert extension == expected


def test_verify_transfer_cycle():
    cyc = sc.ShiftOfFiniteType(((0, 1), (1, 0)))
    for prop in ("transitive", "dense_periodic", "minimal", "dense_recurrent"):
        base, extension = sc.verify_transfer(cyc, prop)
        assert base is True and extension is True


def test_verify_transfer_bridge():
    bridge = sc.ShiftOfFiniteType(((1, 1), (0, 1)))
    for prop in ("transitive", "dense_periodic", "minimal", "dense_recurrent"):
        base, extension = sc.verify_transfer(bridge, prop)
        assert base == extension == False


def test_verify_transfer_unknown_property(golden_mean):
    with pytest.raises((ValueError, AttributeError)):
        sc.verify_transfer(golden_mean, "sparkly")
