import random

import numpy as np
import pytest

import helpers
import semicrossed as sc
from helpers import power_iteration_norm
from semicrossed import checks, corpus, functions, reps
from semicrossed.reps import _lift_orbits, orbit_bands


def cosine():
    return sc.TrigPoly.from_coeffs({1: 0.5, -1: 0.5})


def test_orbit_matrix_cosine(doubling):
    el = sc.cosine_element(doubling)
    m = sc.orbit_matrix(doubling, sc.rational(1, 3), el, 3)
    want = np.zeros((3, 3), dtype=complex)
    want[1, 0] = -0.5  # cos(2 pi / 3)
    want[2, 1] = -0.5
    assert np.max(np.abs(m - want)) <= 1e-12
    assert sc.spectral_norm(m) == pytest.approx(0.5)


def test_orbit_matrix_shift(doubling):
    m = sc.orbit_matrix(doubling, sc.rational(1, 5), sc.shift_element(doubling), 4)
    want = np.zeros((4, 4), dtype=complex)
    want[np.arange(1, 4), np.arange(3)] = 1.0
    assert np.array_equal(m, want)


def test_orbit_matrix_constant(doubling):
    m = sc.orbit_matrix(doubling, sc.rational(1, 5), sc.constant_element(doubling, 2.5), 3)
    assert np.array_equal(m, 2.5 * np.eye(3))


def test_orbit_matrix_truncates_wide_bands(doubling):
    el = sc.shift_element(doubling, 3)
    m = sc.orbit_matrix(doubling, sc.rational(1, 5), el, 3)
    assert np.array_equal(m, np.zeros((3, 3)))
    # a power the window never reaches is never read, so never validated
    odd = sc.element(doubling, {0: sc.ext(1, cosine()), 3: sc.ext(1, sc.TabularFunction((1.0,)))})
    x = sc.rational(1, 5)
    assert np.array_equal(sc.orbit_matrix(doubling, x, odd, 3), helpers.ref_orbit_matrix(doubling, x, odd, 3))
    with pytest.raises(sc.KindMismatch, match="circle systems use TrigPoly"):
        sc.orbit_matrix(doubling, x, odd, 4)


def test_bilateral_window_too_small(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 3))
    with pytest.raises(sc.WindowTooSmall):
        sc.bilateral_matrix(doubling, lift, sc.shift_element(doubling, 3), 2)


def test_periodic_matrix_shift_power(doubling):
    lam = complex(np.exp(2j * np.pi / 3))
    u = sc.periodic_matrix(doubling, sc.rational(1, 7), lam, sc.shift_element(doubling))
    assert sc.spectral_norm(u) == pytest.approx(1.0)
    cubed = np.linalg.matrix_power(u, 3)
    assert np.max(np.abs(cubed - (lam**3) * np.eye(3))) <= 1e-12


def test_periodic_matrix_one_plus_u(doubling):
    el = sc.constant_element(doubling, 1.0) + sc.shift_element(doubling)
    m = sc.periodic_matrix(doubling, sc.rational(1, 3), -1.0 + 0j, el)
    assert np.max(np.abs(m - np.array([[1, -1], [-1, 1]], dtype=complex))) <= 1e-12
    m1 = sc.periodic_matrix(doubling, sc.rational(1, 3), 1.0 + 0j, el)
    assert sc.spectral_norm(m1) == pytest.approx(2.0)


def test_periodic_matrix_guards(doubling):
    el = sc.shift_element(doubling)
    with pytest.raises(sc.NotPeriodic):
        sc.periodic_matrix(doubling, sc.rational(1, 2), 1.0 + 0j, el)
    with pytest.raises(sc.BadLambda):
        sc.periodic_matrix(doubling, sc.rational(1, 3), 2.0 + 0j, el)


@pytest.mark.parametrize(
    "lam", [1.0 + 0j, 1j, complex(np.exp(2j * np.pi / 3))], ids=["1", "i", "cube-root"]
)
def test_periodic_matrix_is_the_periodic_lift_matrix(lam):
    # the periodic points of the extension are the periodic lifts, so the
    # periodic-orbit layout at y is the periodic-lift layout at the lift
    # through y; bands above the period put several entries on one position
    cases = [
        (sc.doubling_map(), [sc.rational(0, 1), sc.rational(1, 3), sc.rational(1, 7)]),
        (sc.golden_mean_shift(), [sc.WordPoint((), (0,)), sc.WordPoint((), (0, 0, 1))]),
        (sc.PermutationSystem((1, 2, 0, 3)), [sc.StatePoint(0), sc.StatePoint(3)]),
    ]
    for i, (sys, points) in enumerate(cases):
        el = sc.random_semicrossed_element(sys, 11 + i, max_power=5)
        assert el.max_power > 3
        for y in points:
            want = sc.periodic_ext_matrix(sys, sc.periodic_lift(sys, y), lam, el)
            assert sc.periodic_matrix(sys, y, lam, el).tobytes() == want.tobytes()


def test_periodic_matrix_checks_lambda_before_the_period(doubling):
    with pytest.raises(sc.BadLambda):
        sc.periodic_matrix(doubling, sc.rational(1, 2), 2.0 + 0j, sc.shift_element(doubling))


def test_periodic_ext_matrix_depth(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    deep = sc.element(doubling, {0: sc.ext(2, cosine())})
    m = sc.periodic_ext_matrix(doubling, lift, 1.0 + 0j, deep)
    # diagonal reads coordinate 2 of the shifted lifts
    orbit = [sc.rational(1, 7), sc.rational(2, 7), sc.rational(4, 7)]
    for i, x in enumerate(orbit):
        pred = sc.preimages(doubling, x)  # cycle predecessor is among these
        expected = cosine().eval_fraction(lift_pred(doubling, x))
        assert abs(m[i, i] - expected) <= 1e-12


def lift_pred(sys, x):
    # unique cycle predecessor of a periodic point
    cls = sc.classify(sys, x)
    orbit = sc.forward_orbit(sys, x, cls.period)
    return orbit[-1].value


def test_bilateral_matrix_shift(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 3))
    m = sc.bilateral_matrix(doubling, lift, sc.shift_element(doubling), 2)
    assert m.shape == (5, 5)
    want = np.zeros((5, 5), dtype=complex)
    want[np.arange(1, 5), np.arange(4)] = 1.0
    assert np.array_equal(m, want)


def test_bilateral_matrix_values(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 3))
    el = sc.cosine_element(doubling)
    m = sc.bilateral_matrix(doubling, lift, el, 1)
    # window points are shift^(j-1) of the lift: 2/3, 1/3, 2/3
    vals = [cosine().eval_fraction(v) for v in
            (sc.rational(2, 3).value, sc.rational(1, 3).value)]
    assert abs(m[1, 0] - vals[0]) <= 1e-12
    assert abs(m[2, 1] - vals[1]) <= 1e-12


def test_backward_matrix_band(doubling):
    xt = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    rf = sc.to_right_form(sc.from_base(doubling, cosine(), power=1))
    m = sc.backward_matrix(doubling, xt, rf, 3)
    assert abs(m[1, 0] - cosine().eval_fraction(sc.rational(1, 6).value)) <= 1e-12
    assert abs(m[2, 1] - cosine().eval_fraction(sc.rational(1, 12).value)) <= 1e-12
    assert np.max(np.abs(np.triu(m))) == 0.0


def test_backward_matrix_takes_right_form(doubling):
    xt = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    with pytest.raises(sc.WrongForm):
        sc.backward_matrix(doubling, xt, sc.shift_element(doubling), 3)


def test_rep_matrix_dispatch(doubling):
    el = sc.cosine_element(doubling)
    x = sc.rational(1, 7)
    direct = sc.orbit_matrix(doubling, x, el, 5)
    routed = sc.rep_matrix(doubling, sc.OrbitTruncation(x, 5), el)
    assert np.array_equal(direct, routed)

    lam = complex(np.exp(2j * np.pi / 7))
    assert np.array_equal(
        sc.rep_matrix(doubling, sc.PeriodicOrbitRep(x, lam), el),
        sc.periodic_matrix(doubling, x, lam, el),
    )

    lift = sc.periodic_lift(doubling, x)
    assert np.array_equal(
        sc.rep_matrix(doubling, sc.BilateralWindowRep(lift, 3), el),
        sc.bilateral_matrix(doubling, lift, el, 3),
    )

    rf = sc.to_right_form(el)
    assert np.array_equal(
        sc.rep_matrix(doubling, sc.BackwardOrbitRep(lift, 4), rf),
        sc.backward_matrix(doubling, lift, rf, 4),
    )


def test_covariance_defect_exact(golden_mean, perm3):
    f = sc.CylinderFunction.from_values(1, {(0,): 1.5, (1,): -0.5})
    spec = sc.OrbitTruncation(sc.WordPoint((), (0, 1)), 6)
    assert sc.covariance_defect(golden_mean, spec, f) == 0.0

    g = sc.TabularFunction((1.0, 2.0, -1.0))
    spec = sc.PeriodicOrbitRep(sc.StatePoint(0), complex(np.exp(2j * np.pi / 8)))
    assert sc.covariance_defect(perm3, spec, g) == 0.0


def test_covariance_defect_circle(doubling):
    spec = sc.OrbitTruncation(sc.rational(1, 7), 9)
    assert sc.covariance_defect(doubling, spec, cosine()) <= 1e-12


def test_covariance_wrong_relation(doubling):
    spec = sc.OrbitTruncation(sc.rational(1, 7), 8)
    assert sc.covariance_defect(doubling, spec, cosine(), relation=2) > 0.1
    lift = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    back = sc.BackwardOrbitRep(lift, 8)
    assert sc.covariance_defect(doubling, back, cosine()) <= 1e-12
    assert sc.covariance_defect(doubling, back, cosine(), relation=1) > 0.1


def _covariance_cases():
    doubling, perm = sc.doubling_map(), sc.PermutationSystem((1, 2, 0))
    lazy = sc.lift_point(doubling, sc.rational(1, 200), sc.SeededRandom(4))
    e = sc.TrigPoly.from_coeffs({1: 1.0, -2: 0.5j})
    return [
        (doubling, e, sc.rational(1, 200), sc.rational(1, 7), lazy),
        # on the 3-cycle, relation 2 puts the largest entry on the wraparound
        (perm, sc.TabularFunction((0.0, 1.0, -1.0)), sc.StatePoint(0), sc.StatePoint(0),
         sc.lift_point(perm, sc.StatePoint(0), sc.AlwaysMin())),
    ]


@pytest.mark.parametrize("relation", [1, 2])
@pytest.mark.parametrize("case", range(2))
def test_covariance_defect_equals_dense_commutator(case, relation):
    sys, f, x, per, xt = _covariance_cases()[case]
    specs = [
        sc.OrbitTruncation(x, 7),
        sc.PeriodicOrbitRep(per, complex(np.exp(0.7j))),
        sc.BilateralWindowRep(xt, 3),
        sc.BackwardOrbitRep(xt, 6),
    ]
    els = [sc.shift_element(sys), sc.from_base(sys, f), sc.from_base(sys, sc.compose_map(sys, f))]
    for spec in specs:
        form = sc.to_right_form if isinstance(spec, sc.BackwardOrbitRep) else (lambda el: el)
        u, rf, rfphi = (sc.rep_matrix(sys, spec, form(el)) for el in els)
        dense = rf @ u - u @ rfphi if relation == 1 else u @ rf - rfphi @ u
        got = sc.covariance_defect(sys, spec, f, relation)
        assert got == pytest.approx(np.linalg.norm(dense, 2), abs=1e-12), spec


def test_separating_diag_is_projector(doubling):
    orbit = sc.forward_orbit(doubling, sc.rational(1, 5), 4)
    f = sc.separating_function(doubling, orbit, 2, 4)
    m = sc.orbit_matrix(doubling, sc.rational(1, 5), sc.from_base(doubling, f), 4)
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0
    assert np.max(np.abs(m - want)) <= 1e-12


def test_invariant_subspaces_true_case(doubling):
    x = sc.rational(1, 5)
    orbit = sc.forward_orbit(doubling, x, 3)
    funcs = [sc.separating_function(doubling, orbit, t, 3) for t in range(3)]
    assert sc.invariant_subspaces_are_tails(doubling, x, funcs, 3)


@pytest.mark.parametrize("funcs", [[cosine()], [sc.TrigPoly.from_coeffs({0: 1.0})], []])
def test_invariant_subspaces_need_separation(doubling, funcs):
    # cos takes the same value at 1/5 and 4/5; a constant or no function
    # separates nothing, although the compressed shift alone has only the tails
    assert not sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 5), funcs, 4)


def test_invariant_subspaces_single_point(doubling):
    assert sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 5), [], 1)


@pytest.mark.parametrize("row,want", [([1.0, 0.0], True), ([np.nan, 0.0], False)])
def test_invariant_subspaces_nan_does_not_separate(doubling, monkeypatch, row, want):
    monkeypatch.setattr(reps, "_orbit_values", lambda *args: np.array([row], dtype=complex))
    assert sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 5), [cosine()], 2) is want


def test_invariant_subspaces_collision(doubling):
    x = sc.rational(1, 3)
    with pytest.raises(sc.OrbitCollision):
        sc.invariant_subspaces_are_tails(doubling, x, [cosine()], 3)


def test_invariant_subspaces_window(doubling):
    with pytest.raises(ValueError):
        sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 5), [cosine()], 0)
    assert sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 5), [cosine()], 1)
    # no cap on the window: 1/131 has period 130 under doubling
    assert sc.invariant_subspaces_are_tails(doubling, sc.rational(1, 131), [cosine()], 64)


def _tails(n):
    return {frozenset()} | {frozenset(range(k, n)) for k in range(n)}


# 2 has order 10, 12, 18, 11, 28 modulo these, so every window n <= 8 is collision-free
_PERIODIC_Q = (11, 13, 19, 23, 29)


def _random_base(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return sc.TrigPoly.from_coeffs({0: float(rng.normal())})
    if kind == 1:  # a real cosine polynomial ties at y and 1 - y
        a = rng.normal(size=3)
        return sc.TrigPoly.from_coeffs({s * k: a[k - 1] / 2 for k in (1, 2, 3) for s in (1, -1)})
    c = rng.normal(size=7) + 1j * rng.normal(size=7)
    return sc.TrigPoly.from_coeffs({k: c[k + 3] for k in range(-3, 4)})


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_subset_search(doubling, seed):
    # random function lists (constants, cosine polynomials, complex polynomials)
    # on random periodic orbits of x -> 2x, against brute-force subset search
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    q = int(rng.choice(_PERIODIC_Q))
    x = sc.rational(int(rng.integers(1, q)), q)
    funcs = [_random_base(rng) for _ in range(int(rng.integers(0, 4)))]
    orbit = sc.forward_orbit(doubling, x, n)
    diags = [np.diag([sc.evaluate_base(doubling, f, p) for p in orbit]) for f in funcs]
    # the compressed shift leaves only the tails, whatever the functions are
    assert helpers.brute_invariant_subsets([np.diag(np.ones(n - 1), -1)] + diags) == _tails(n)
    separated = sc.invariant_subspaces_are_tails(doubling, x, funcs, n)
    assert separated == (not helpers.brute_tied_subsets(diags, n))
    if not separated:
        return
    for t in range(n):  # the diagonals generate each coordinate projection
        proj = np.eye(n, dtype=complex)
        for j in range(n):
            if j != t:
                d = next(d for d in diags if abs(d[t, t] - d[j, j]) > 1e-12)
                proj = proj @ (d - d[j, j] * np.eye(n)) / (d[t, t] - d[j, j])
        want = np.zeros((n, n))
        want[t, t] = 1.0
        assert np.max(np.abs(proj - want)) <= 1e-9


@pytest.mark.parametrize("q,n", [(7, 3), (11, 6), (13, 8), (19, 8)])
def test_invariant_subspaces_match_subset_search(doubling, q, n):
    x = sc.rational(1, q)
    orbit = sc.forward_orbit(doubling, x, n)
    funcs = [sc.separating_function(doubling, orbit, j, n) for j in range(n)]
    mats = [np.diag(np.ones(n - 1), -1)] + [
        np.diag([sc.evaluate_base(doubling, f, p) for p in orbit]) for f in funcs
    ]
    assert helpers.brute_invariant_subsets(mats) == _tails(n)
    assert sc.invariant_subspaces_are_tails(doubling, x, funcs, n)


def test_spectral_norm_vs_power_iteration(doubling):
    rng = np.random.default_rng(3)
    el = sc.element(
        doubling,
        {
            0: sc.ext(1, sc.TrigPoly.from_coeffs({0: 0.4, 1: 0.2j})),
            2: sc.ext(1, sc.TrigPoly.from_coeffs({-1: 0.7})),
        },
    )
    m = sc.orbit_matrix(doubling, sc.rational(1, 11), el, 12)
    assert sc.spectral_norm(m) == pytest.approx(power_iteration_norm(m), abs=1e-9)


# ---------------------------------------------------------------------------
# the chain/cycle placements against the builders they replaced


def _element_cases():
    doubling = sc.doubling_map()
    golden = sc.golden_mean_shift()
    perm = sc.PermutationSystem((1, 2, 0, 4, 3))
    wide = sc.element(doubling, {k: sc.ext(1, cosine()) for k in range(5)})
    return [
        (doubling, sc.random_semicrossed_element(doubling, 11, max_power=3)),
        (doubling, wide),
        (golden, sc.random_semicrossed_element(golden, 3, max_power=3)),
        (perm, sc.random_semicrossed_element(perm, 2, max_power=4)),
    ]


def _crossed_cases():
    doubling = sc.doubling_map()
    golden = sc.golden_mean_shift()
    perm = sc.PermutationSystem((1, 2, 0, 4, 3))
    return [
        (sys, sc.random_crossed_element(sys, seed, max_power=3, max_depth=3))
        for seed, sys in enumerate([doubling, doubling, golden, golden, perm])
    ]


def _close(a, b):
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= 1e-14 * max(
        np.max(np.abs(b), initial=0.0), 1e-300
    )


@pytest.mark.parametrize("case", range(4))
def test_chain_builders_equal_reference(case):
    sys, el = _element_cases()[case]
    for x in sc.default_samples(sys)[0][:12]:
        for n in (1, 3, 8, 17):
            assert np.array_equal(sc.orbit_matrix(sys, x, el, n), helpers.ref_orbit_matrix(sys, x, el, n))
        rf = sc.to_right_form(el)
        for seed in (3, 8):
            lift = sc.lift_point(sys, x, sc.SeededRandom(seed))
            for n in (1, 2, 6, 11, 64):
                # bytes, so that the sign of every zero counts (repmat prints -0.000000)
                got = sc.backward_matrix(sys, lift, rf, n)
                assert got.tobytes() == helpers.ref_backward_matrix(sys, lift, rf, n).tobytes()


@pytest.mark.parametrize("wraps", [False, True], ids=["scaled", "wraps"])
@pytest.mark.parametrize(
    "lam", [1.0 + 0j, 1j, complex(np.exp(2j * np.pi / 3))], ids=["1", "i", "cube-root"]
)
def test_cycle_matches_grouped_placement(wraps, lam):
    # bit for bit, signed zeros included, against the earlier placement that
    # grouped entries by power of lambda before scaling; p <= band puts
    # several entries on one position, and negative powers wrap backwards
    rng = np.random.default_rng(5)
    for p in (1, 2, 3, 5, 8):
        for ks in ([0], [1], [-2, 0, 3], [-4, -1, 0, 2, 5, 7], list(range(10))):
            values = {k: rng.normal(size=p) + 1j * rng.normal(size=p) for k in ks}
            values[ks[0]][0] = complex(-0.0, -0.0)
            got = reps._cycle(values, p, lam, wraps)
            assert got.tobytes() == helpers.grouped_cycle(values, p, lam, wraps).tobytes()


@pytest.mark.parametrize("case", range(5))
def test_bilateral_equals_reference(case):
    sys, el = _crossed_cases()[case]
    band = max(abs(k) for k in el.powers)
    for y in sc.default_samples(sys)[1][:6]:
        lazy = [sc.lift_point(sys, y, c) for c in (sc.AlwaysMin(), sc.SeededRandom(5))]
        lifts = [sc.periodic_lift(sys, y)] + lazy
        for xt in lifts:
            for m in (band, band + 3):
                assert np.array_equal(
                    sc.bilateral_matrix(sys, xt, el, m), helpers.ref_bilateral_matrix(sys, xt, el, m)
                )


@pytest.mark.parametrize("case", range(4))
def test_periodic_builders_match_reference(case):
    sys, el = _element_cases()[case]
    lams = [1.0 + 0j, -1.0 + 0j, 1j, complex(np.exp(2j * np.pi * 0.3137))]
    for y in sc.default_samples(sys)[1][:10]:
        for lam in lams:
            assert _close(
                sc.periodic_matrix(sys, y, lam, el), helpers.ref_periodic_matrix(sys, y, lam, el)
            )
            assert _close(
                sc.twisted_periodic_matrix(sys, y, lam, el),
                helpers.ref_twisted_periodic_matrix(sys, y, lam, el),
            )


@pytest.mark.parametrize("case", range(5))
def test_periodic_ext_matches_reference(case):
    sys, el = _crossed_cases()[case]
    # negative powers take lambda^k where the reference inverted the shift
    assert any(min(e.powers) < 0 for _, e in _crossed_cases())
    for y in sc.default_samples(sys)[1][:6]:
        lift = sc.periodic_lift(sys, y)
        for lam in (1.0 + 0j, complex(np.exp(2j * np.pi / 3)), complex(np.exp(2j * np.pi * 0.71))):
            assert _close(
                sc.periodic_ext_matrix(sys, lift, lam, el),
                helpers.ref_periodic_ext_matrix(sys, lift, lam, el),
            )


# ---------------------------------------------------------------------------
# extended-point layouts read forward orbits of one coordinate per depth


def _lift_systems():
    return [
        (sc.doubling_map(), [sc.rational(1, 7), sc.rational(1, 200)]),
        (sc.CircleTimesK(3), [sc.rational(1, 13), sc.rational(7, 30)]),
        (sc.golden_mean_shift(), [sc.WordPoint((), (0, 1)), sc.WordPoint((1, 0, 1), (0, 0, 1))]),
        (sc.PermutationSystem((1, 2, 0, 4, 3)), [sc.StatePoint(1), sc.StatePoint(4)]),
    ]


@pytest.mark.parametrize("case", range(4))
def test_lift_orbits_equal_shifted_evaluation(case):
    sys, (per, other) = _lift_systems()[case]
    rng = random.Random(case)
    coeffs = [(k, sc.ext(1 + k % 4, corpus.random_base(sys, rng))) for k in range(-3, 5)]
    lifts = [sc.periodic_lift(sys, per)]
    choosers = (sc.AlwaysMin(), sc.SeededRandom(9))
    lifts += [sc.lift_point(sys, y, c) for y in (per, other) for c in choosers]
    for xt in lifts:
        for m in (0, 2, 5):
            rows = _lift_orbits(sys, coeffs, xt, m, 2 * m + 1)
            assert list(rows) == [k for k, _ in coeffs]
            for k, f in coeffs:
                want = [sc.evaluate(sys, f, sc.shift_power(sys, xt, c - m)) for c in range(2 * m + 1)]
                assert rows[k].tobytes() == np.array(want, dtype=complex).tobytes(), (xt, m, k)


def test_ext_layouts_validate_once_per_orbit(doubling, monkeypatch):
    calls = {"validate": 0, "lift": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    def count(build):
        calls.update(validate=0, lift=0)
        build()
        return calls["validate"], calls["lift"]

    el = sc.random_crossed_element(doubling, 4, max_power=3, max_depth=3)
    rf = sc.to_right_form(sc.random_semicrossed_element(doubling, 3))
    periodic = sc.periodic_lift(doubling, sc.rational(1, 7))
    lazy = sc.lift_point(doubling, sc.rational(1, 3), sc.SeededRandom(2))
    monkeypatch.setattr(functions, "validate_base", counting("validate", functions.validate_base))
    monkeypatch.setattr(sc.PeriodicLift, "__post_init__", counting("lift", sc.PeriodicLift.__post_init__))
    assert count(lambda: sc.periodic_ext_matrix(doubling, periodic, 1j, el)) == (len(el.coeffs), 0)
    for xt in (periodic, lazy):
        assert count(lambda: sc.bilateral_matrix(doubling, xt, el, 32)) == (len(el.coeffs), 0)
        assert count(lambda: sc.backward_matrix(doubling, xt, rf, 40)) == (len(rf.coeffs), 0)
        for spec in (sc.BilateralWindowRep(xt, 32), sc.BackwardOrbitRep(xt, 40)):
            # compose_map validates f, then each diagonal reads one orbit
            assert count(lambda: sc.covariance_defect(doubling, spec, cosine())) == (3, 0)


def test_covariance_defect_edges(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 7))
    # rho(U) is placed directly, so a window of half width 0 is fine
    assert sc.covariance_defect(doubling, sc.BilateralWindowRep(lift, 0), cosine()) == 0.0
    for spec in (sc.OrbitTruncation(sc.rational(1, 7), 0), sc.BackwardOrbitRep(lift, 0)):
        with pytest.raises(ValueError, match="size must be >= 1"):
            sc.covariance_defect(doubling, spec, cosine())


def test_backward_matrix_truncates_wide_bands(doubling):
    lazy = sc.lift_point(doubling, sc.rational(1, 3), sc.AlwaysMin())
    # a power the window never reaches is never read, so never validated
    odd = sc.element(doubling, {0: sc.ext(1, cosine()), 3: sc.ext(1, sc.TabularFunction((1.0,)))})
    rf = sc.to_right_form(odd)
    assert np.array_equal(
        sc.backward_matrix(doubling, lazy, rf, 3), helpers.ref_backward_matrix(doubling, lazy, rf, 3)
    )
    with pytest.raises(sc.KindMismatch, match="circle systems use TrigPoly"):
        sc.backward_matrix(doubling, lazy, rf, 4)


def test_orbit_bands_zero_element_checks_point(doubling):
    with pytest.raises(sc.KindMismatch, match="circle systems use RationalPoint"):
        orbit_bands(doubling, sc.StatePoint(0), sc.element(doubling, {}), 3)


def test_nest_tails_detail_counts_pairs():
    # the separation test compares each pair of the first n orbit points once
    for row in checks.check_nest_tails().rows:
        n = int(row.name.rsplit("n=", 1)[1])
        assert row.detail == f"pairs={n * (n - 1) // 2}"
