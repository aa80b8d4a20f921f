import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semicrossed as sc
from helpers import (
    cylinder_element,
    dense_orbit_norm_estimate,
    power_iteration_norm,
    ref_periodic_norm_estimate,
)
from semicrossed import functions, norms
from semicrossed.norms import (
    _SKIP_BAND_LIMIT,
    _SKIP_SLACK,
    _certify_below,
    _ladder,
    _skip_pays,
)


def cosine():
    return sc.TrigPoly.from_coeffs({1: 0.5, -1: 0.5})


def one_plus_u(sys):
    return sc.constant_element(sys, 1.0) + sc.shift_element(sys)


def test_spectral_norm_basics():
    assert sc.spectral_norm(np.eye(4)) == pytest.approx(1.0)
    shift = np.zeros((5, 5))
    shift[np.arange(1, 5), np.arange(4)] = 1.0
    assert sc.spectral_norm(shift) == pytest.approx(1.0)
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0])
    rank1 = np.outer(u, v)
    assert sc.spectral_norm(rank1) == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v))
    assert sc.spectral_norm(np.zeros((0, 0))) == 0.0
    with pytest.raises(sc.NonFinite):
        sc.spectral_norm(np.array([[np.nan]]))


def test_embed_periodic_vector_fixed_point():
    eta = sc.embed_periodic_vector(np.array([1.0]), 1.0 + 0j, 2)
    assert np.max(np.abs(eta - np.array([1, 1]) / np.sqrt(2))) <= 1e-15


def test_embed_periodic_vector_twisted():
    eta = sc.embed_periodic_vector(np.array([1.0, 0.0]), 1j, 2)
    want = np.array([-1 / np.sqrt(2), 0.0, 1j / np.sqrt(2), 0.0])
    assert np.max(np.abs(eta - want)) <= 1e-15


def test_embed_periodic_vector_contract():
    rng = np.random.default_rng(1)
    xi = rng.normal(size=3) + 1j * rng.normal(size=3)
    lam = complex(np.exp(2j * np.pi / 7))
    eta = sc.embed_periodic_vector(xi, lam, 5)
    assert eta.shape == (15,)
    assert np.linalg.norm(eta) == pytest.approx(1.0)
    with pytest.raises(sc.BadLambda):
        sc.embed_periodic_vector(xi, 1.5 + 0j, 2)
    with pytest.raises(ValueError):
        sc.embed_periodic_vector(np.zeros(2), lam, 2)
    with pytest.raises(ValueError):
        sc.embed_periodic_vector(xi, lam, 0)


def test_orbit_estimate_shift(doubling):
    est = sc.orbit_norm_estimate(doubling, sc.shift_element(doubling), [sc.rational(1, 5)], 32)
    assert est.bracket.lower == pytest.approx(1.0)
    assert est.bracket.upper == pytest.approx(1.0)
    values = [v for _, v in est.traces]
    assert values == sorted(values)


def test_orbit_estimate_constant(doubling):
    est = sc.orbit_norm_estimate(
        doubling, sc.constant_element(doubling, -2.0 + 0j), [sc.rational(1, 3)], 16
    )
    assert (est.bracket.lower, est.bracket.upper) == (2.0, 2.0)


def test_orbit_estimate_window_guard(doubling):
    with pytest.raises(sc.WindowTooSmall):
        sc.orbit_norm_estimate(doubling, sc.shift_element(doubling, 9), [sc.rational(1, 3)], 8)


def _one_minus_e100(sys):
    return sc.from_base(sys, sc.TrigPoly.from_coeffs({0: 1, 100: -1}))


SFT3 = sc.ShiftOfFiniteType(((1, 1, 0), (1, 0, 1), (1, 0, 0)))  # 653 words of length 10
PERM7 = sc.PermutationSystem((1, 2, 3, 4, 5, 6, 0, 7))  # a 7-cycle and a fixed point


def _bit_identity_cases():
    doubling, tripling = sc.CircleTimesK(2), sc.CircleTimesK(3)
    golden = sc.golden_mean_shift()
    perm = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    random_circle = sc.random_semicrossed_element(doubling, 11, max_power=3)
    return [
        pytest.param(doubling, _one_minus_e100(doubling), 256, id="1-e(100x)"),
        pytest.param(doubling, sc.constant_element(doubling, 0.0), 100, id="zero"),
        pytest.param(doubling, sc.from_base(doubling, cosine()), 1, id="power0-nmax=band+1"),
        pytest.param(doubling, random_circle, random_circle.max_power + 1, id="random-nmax=band+1"),
        pytest.param(doubling, random_circle, 100, id="random-nmax=100"),
        pytest.param(tripling, sc.random_semicrossed_element(tripling, 5, max_power=2), 256, id="tripling"),
        pytest.param(golden, sc.random_semicrossed_element(golden, 3, max_power=3), 256, id="golden"),
        pytest.param(golden, sc.random_semicrossed_element(golden, 4, max_power=0), 100, id="golden-power0"),
        pytest.param(perm, sc.random_semicrossed_element(perm, 2, max_power=2), 100, id="permutation"),
        pytest.param(golden, cylinder_element(golden, 10, 5), 256, id="golden-depth10"),
        pytest.param(SFT3, cylinder_element(SFT3, 10, 6), 64, id="sft3-depth10"),
        pytest.param(PERM7, sc.random_semicrossed_element(PERM7, 3, max_power=3), 64, id="permutation7"),
    ]


@pytest.mark.parametrize("sys,el,n_max", _bit_identity_cases())
def test_orbit_estimate_matches_dense_ladder(sys, el, n_max):
    pts, _ = sc.default_samples(sys)
    new = sc.orbit_norm_estimate(sys, el, pts, n_max)
    ref = dense_orbit_norm_estimate(sys, el, pts, n_max)
    assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)


def _periodic_identity_cases():
    doubling, tripling = sc.CircleTimesK(2), sc.CircleTimesK(3)
    golden = sc.golden_mean_shift()
    perm = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    wide = sc.element(doubling, {k: sc.ext(1, cosine()) for k in range(5)})
    return [
        pytest.param(doubling, sc.random_semicrossed_element(doubling, 11, max_power=3), None, id="doubling"),
        pytest.param(tripling, sc.random_semicrossed_element(tripling, 5, max_power=2), None, id="tripling"),
        pytest.param(golden, sc.random_semicrossed_element(golden, 3, max_power=3), None, id="golden"),
        pytest.param(perm, sc.random_semicrossed_element(perm, 2, max_power=2), None, id="permutation"),
        pytest.param(doubling, _one_minus_e100(doubling), None, id="1-e(100x)"),
        pytest.param(doubling, wide, [sc.rational(0, 1)], id="band-wider-than-period"),
        pytest.param(golden, cylinder_element(golden, 10, 5), None, id="golden-depth10"),
        pytest.param(SFT3, cylinder_element(SFT3, 10, 6), None, id="sft3-depth10"),
        pytest.param(PERM7, sc.random_semicrossed_element(PERM7, 3, max_power=3), None, id="permutation7"),
        pytest.param(
            doubling,
            sc.random_semicrossed_element(doubling, 11, max_power=3),
            [y for y in sc.default_samples(doubling)[1] if sc.classify(doubling, y).period % 2],
            id="doubling-odd-periods",
        ),
    ]


@pytest.mark.parametrize("sys,el,periodic", _periodic_identity_cases())
def test_periodic_estimate_matches_permutation_powers(sys, el, periodic):
    if periodic is None:
        _, periodic = sc.default_samples(sys)
    new = sc.periodic_norm_estimate(sys, el, periodic)
    ref = ref_periodic_norm_estimate(sys, el, periodic)
    if all(sc.classify(sys, y).period % 2 for y in periodic):
        # an odd period shares no factor with the 256-point grid: every angle
        # is its own mu, so the stack and its SVDs are the reference's own
        assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)
        return
    # an even period scans only its distinct mu, so angle j reads the SVD at
    # j mod m, a unitarily equivalent matrix equal up to rounding
    close = dict(rtol=1e-12, atol=0.0)
    new_ends = [new.bracket.lower, new.bracket.upper]
    np.testing.assert_allclose(new_ends, [ref.bracket.lower, ref.bracket.upper], **close)
    assert new.bracket.upper_method == ref.bracket.upper_method
    assert [k for k, _ in new.traces] == [k for k, _ in ref.traces]
    np.testing.assert_allclose([v for _, v in new.traces], [v for _, v in ref.traces], **close)
    # the witness names a sample and an angle whose reference value is the lower end
    assert new.bracket.lower_witness == new.witness
    label, angle = re.fullmatch(r"periodic y=(\S+) angle=(\d+)/256", new.witness).groups()
    (y,) = [y for y in periodic if norms._point_label(y) == label]
    at = ref_periodic_norm_estimate(sys, el, [y]).traces[int(angle)][1]
    np.testing.assert_allclose(at, new.bracket.lower, **close)


@pytest.mark.parametrize(
    "sys,count",
    [(sc.CircleTimesK(2), 7_936), (sc.CircleTimesK(3), 11_072)],
    ids=["doubling", "tripling"],
)
def test_periodic_scan_svds_once_per_distinct_mu(sys, count, monkeypatch):
    # sum over samples of 256 / gcd(p, 256) matrices, not 256 per sample
    stacked = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        norms.np.linalg, "svd", lambda a, *args, **kw: stacked.append(len(a)) or svd(a, *args, **kw)
    )
    _, per = sc.default_samples(sys)
    sc.periodic_norm_estimate(sys, sc.random_semicrossed_element(sys, 11, max_power=3), per, 256)
    assert len(stacked) == len(per)
    assert sum(stacked) == count


def _period_cases():
    doubling = sc.CircleTimesK(2)
    golden = sc.golden_mean_shift()
    perm = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    wide = sc.element(doubling, {k: sc.ext(1, cosine()) for k in range(5)})
    return [
        pytest.param(doubling, sc.random_semicrossed_element(doubling, 11, max_power=3), sc.rational(1, 63), id="circle"),
        pytest.param(golden, cylinder_element(golden, 3, 5), sc.WordPoint((), (0, 1, 0, 0)), id="golden"),
        pytest.param(perm, sc.random_semicrossed_element(perm, 2, max_power=2), sc.StatePoint(3), id="permutation"),
        pytest.param(doubling, wide, sc.rational(1, 3), id="band-at-least-period"),
    ]


@pytest.mark.parametrize("sys,el,y", _period_cases())
def test_periodic_norm_depends_on_lambda_to_the_period(sys, el, y):
    p = sc.classify(sys, y).period
    lam = complex(np.exp(2j * np.pi * 0.1234))
    base = sc.spectral_norm(sc.periodic_matrix(sys, y, lam, el))
    assert base > 0
    for j in range(1, p):
        turned = lam * complex(np.exp(2j * np.pi * j / p))
        assert abs(sc.spectral_norm(sc.periodic_matrix(sys, y, turned, el)) - base) <= 1e-13
    # a turn that is not a p-th root of unity does move the norm
    off = lam * complex(np.exp(1j * np.pi / p))
    assert abs(sc.spectral_norm(sc.periodic_matrix(sys, y, off, el)) - base) > 1e-6


def test_periodic_estimate_non_finite_stack(doubling):
    huge = sc.ext(1, sc.constant_base(doubling, 1e308))
    el = sc.element(doubling, {0: huge, 1: huge})  # 1e308 + 1e308 at the fixed point
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.periodic_norm_estimate(doubling, el, [sc.rational(0, 1)], 8)


def test_bracket_rejects_non_finite_ends():
    for lower, upper in [(np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0)]:
        with pytest.raises(sc.NonFinite, match="bracket endpoints must be finite"):
            sc.NormBracket(lower, upper)


def test_estimates_validate_each_coefficient_once_per_point(golden_mean, monkeypatch):
    # per-cell validation regenerated the admissible words n times per point
    el = cylinder_element(golden_mean, 10, 5)
    pts, per = sc.default_samples(golden_mean)
    calls = []
    words = functions.admissible_words
    monkeypatch.setattr(functions, "admissible_words", lambda *a: calls.append(a) or words(*a))
    sc.orbit_norm_estimate(golden_mean, el, pts, 256)
    assert 0 < len(calls) <= len(pts) * len(el.coeffs)
    calls.clear()
    sc.periodic_norm_estimate(golden_mean, el, per, 16)
    assert 0 < len(calls) <= len(per) * len(el.coeffs)


@pytest.mark.parametrize(
    "sys",
    [sc.CircleTimesK(2), sc.golden_mean_shift(), sc.PermutationSystem((1, 2, 0))],
    ids=["circle", "sft", "permutation"],
)
def test_zero_element_bracket(sys):
    zero = sc.constant_element(sys, 0.0)
    assert zero.coeffs == ()
    pts, per = sc.default_samples(sys)
    est = sc.semicrossed_norm(sys, zero, pts, per, 16, 16)
    assert (est.bracket.lower, est.bracket.upper) == (0.0, 0.0)
    periodic = sc.periodic_norm_estimate(sys, zero, per, 16)
    assert (periodic.bracket.lower, periodic.bracket.upper, periodic.witness) == (0.0, 0.0, "")
    assert all(v == 0.0 for _, v in periodic.traces)
    if isinstance(sys, sc.CircleTimesK):
        with pytest.raises(sc.NotPeriodic):  # samples are still classified
            sc.periodic_norm_estimate(sys, zero, [sc.rational(1, 2)], 16)


def test_orbit_estimate_wide_band_takes_dense_ladder(doubling, monkeypatch):
    calls = []
    monkeypatch.setattr(norms, "_certify_below", lambda *a: calls.append(a))
    el = sc.shift_element(doubling, 200)
    pts, _ = sc.default_samples(doubling)
    new = sc.orbit_norm_estimate(doubling, el, pts, 256)
    ref = dense_orbit_norm_estimate(doubling, el, pts, 256)
    assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)
    assert calls == []


def test_skip_certificate_gate():
    assert _skip_pays(93, 4, _ladder(256))
    assert not _skip_pays(1, 4, _ladder(256))  # a lone point is its own floor
    assert not _skip_pays(93, 9, _ladder(256))  # window too wide for the ladder
    assert not _skip_pays(93, 200, _ladder(256))
    huge = _ladder(2**30)
    assert _skip_pays(2, _SKIP_BAND_LIMIT, huge)
    assert not _skip_pays(2, _SKIP_BAND_LIMIT + 1, huge)  # beyond the slack derivation


@pytest.mark.parametrize("n_max", [16, 256], ids=["dense", "certified"])
def test_orbit_estimate_non_finite_bands(doubling, n_max):
    huge = sc.from_base(doubling, sc.TrigPoly.from_coeffs({0: 1e308, 1: 1e308}))
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.orbit_norm_estimate(doubling, huge, [sc.rational(1, 3), sc.rational(0, 1)], n_max)


def _lower_banded(seed: int, n: int, band: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bands = rng.normal(size=(1, band + 1, n)) + 1j * rng.normal(size=(1, band + 1, n))
    for k in range(band + 1):
        bands[0, k, max(n - k, 0) :] = 0.0
    return bands


def _dense(bands: np.ndarray) -> np.ndarray:
    n = bands.shape[2]
    m = np.zeros((n, n), dtype=complex)
    for k in range(min(bands.shape[1], n)):
        m[np.arange(k, n), np.arange(n - k)] = bands[0, k, : n - k]
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), band=st.integers(0, 4))
def test_skip_certificate_is_sound(seed, n, band):
    bands = _lower_banded(seed, n, band)
    norm = float(np.linalg.norm(_dense(bands), 2))
    # thresholds at, just below and just above the norm, plus a clear margin
    rel = [0.0, 1 - 1e-12, 1.0, 1 + _SKIP_SLACK / 8, 1 + 1e-9, 1.01]
    thr = norm * np.array(rel)
    ok = _certify_below(bands, thr, [n] * len(thr))[:, 0]
    for t, passed in zip(thr, ok):
        if passed:
            assert norm < t
    assert ok[-1]  # a 1% margin is far above the slack


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64), band=st.integers(0, 4), data=st.data())
def test_skip_certificate_rejects_nan(seed, n, band, data):
    bands = _lower_banded(seed, n, band)
    k = data.draw(st.integers(0, min(band, n - 1)))
    bands[0, k, data.draw(st.integers(0, n - k - 1))] = np.nan
    ok = _certify_below(bands, np.array([1e3, 1e6]), [n, n])
    assert not ok.any()


def test_periodic_estimate_one_plus_u(doubling):
    est = sc.periodic_norm_estimate(doubling, one_plus_u(doubling), [sc.rational(1, 3)], 8)
    assert est.bracket.lower == pytest.approx(2.0)
    assert est.bracket.upper == pytest.approx(2.0)
    assert "angle=0/8" in est.witness


def test_periodic_estimate_guards(doubling):
    with pytest.raises(sc.NotPeriodic):
        sc.periodic_norm_estimate(doubling, one_plus_u(doubling), [sc.rational(1, 2)], 16)
    with pytest.raises(ValueError):
        sc.periodic_norm_estimate(doubling, one_plus_u(doubling), [sc.rational(1, 3)], 4)


def test_periodic_certificate_dominates_finer_grid(doubling):
    rng = np.random.default_rng(8)
    coeffs = {int(k): complex(rng.normal(), rng.normal()) * 0.4 for k in range(-2, 3)}
    el = sc.from_base(doubling, sc.TrigPoly.from_coeffs(coeffs)) + sc.cosine_element(doubling)
    pts = [sc.rational(1, 7), sc.rational(1, 5)]
    coarse = sc.periodic_norm_estimate(doubling, el, pts, 16)
    fine = sc.periodic_norm_estimate(doubling, el, pts, 256)
    assert coarse.bracket.upper >= fine.bracket.lower - 1e-12
    assert coarse.bracket.lower <= fine.bracket.lower + 1e-12


def test_semicrossed_norm_flagship(doubling):
    pts = [sc.rational(1, 5)]
    per = [sc.rational(0, 1), sc.rational(1, 3)]
    est = sc.semicrossed_norm(doubling, one_plus_u(doubling), pts, per, 32, 32)
    assert est.bracket.lower == pytest.approx(2.0)
    assert est.bracket.upper <= 2.0 + 1e-9
    assert est.witness == "periodic"


def test_semicrossed_norm_cosine(doubling):
    pts = [sc.rational(1, 5)]
    per = [sc.rational(0, 1), sc.rational(1, 3), sc.rational(1, 7)]
    est = sc.semicrossed_norm(doubling, sc.cosine_element(doubling), pts, per, 32, 32)
    assert est.bracket.lower == pytest.approx(1.0)
    assert est.bracket.upper == pytest.approx(1.0)
    tagged = [t for t, _ in est.traces]
    assert any(t.startswith("orbit") for t in tagged)
    assert any(t.startswith("periodic") for t in tagged)


def test_twisted_periodic_matrix_agrees_on_sup(doubling):
    el = one_plus_u(doubling) + sc.cosine_element(doubling)
    y = sc.rational(1, 7)
    grid = [complex(np.exp(2j * np.pi * j / 64)) for j in range(64)]
    pub = max(sc.spectral_norm(sc.periodic_matrix(doubling, y, lam, el)) for lam in grid)
    twist = max(
        sc.spectral_norm(sc.twisted_periodic_matrix(doubling, y, lam, el)) for lam in grid
    )
    assert pub == pytest.approx(twist, abs=1e-10)


def test_periodic_vector_check_small(doubling):
    res = sc.periodic_vector_check(doubling, sc.rational(1, 3), 1.0 + 0j, one_plus_u(doubling), 2)
    assert res["period"] == 2 and res["blocks"] == 2
    assert res["rhs"] == pytest.approx(2.0)
    assert res["lhs"] <= res["rhs"] + 1e-12
    assert res["deficit"] == pytest.approx(res["rhs"] - res["lhs"])
    bigger = sc.periodic_vector_check(
        doubling, sc.rational(1, 3), 1.0 + 0j, one_plus_u(doubling), 8
    )
    assert bigger["deficit"] <= res["deficit"] + 1e-12


def test_periodic_vector_check_matches_power_iteration(doubling):
    el = one_plus_u(doubling)
    res = sc.periodic_vector_check(doubling, sc.rational(1, 7), 1j, el, 4)
    twisted = sc.twisted_periodic_matrix(doubling, sc.rational(1, 7), 1j, el)
    assert res["rhs"] == pytest.approx(power_iteration_norm(twisted), abs=1e-9)


def test_bilateral_orbit_check_shift(doubling):
    lift = sc.periodic_lift(doubling, sc.rational(1, 3))
    res = sc.bilateral_orbit_check(doubling, lift, sc.shift_element(doubling), 64)
    assert res["orbit_sup"] == pytest.approx(1.0)
    assert 0.0 <= res["gap"] <= 1e-2
    narrow = sc.bilateral_orbit_check(doubling, lift, sc.shift_element(doubling), 8)
    assert res["gap"] <= narrow["gap"] + 1e-12


def test_bilateral_orbit_check_reads_backward_shifts(doubling):
    # orbit_sup runs over coordinates 1..2M+1 of the lift; 1 + cos peaks only
    # at coordinate 1 (the point 0) of the lift 0, 1/2, 3/4, 7/8, ...
    top = sc.ExplicitTail(lambda sys, x: sc.preimages(sys, x)[-1])
    xt = sc.lift_point(doubling, sc.rational(0, 1), top)
    el = sc.from_base(doubling, sc.TrigPoly.from_coeffs({0: 1.0, 1: 0.5, -1: 0.5}))
    el = el + sc.random_semicrossed_element(doubling, 5, max_power=1, scale=0.1)
    for m, n in ((1, 1), (2, 1), (2, 5), (3, 7)):
        pts = [sc.project(sc.shift_power(doubling, xt, -k)) for k in range(2 * m + 1)]
        want = max(sc.spectral_norm(sc.orbit_matrix(doubling, y, el, n)) for y in pts)
        assert sc.bilateral_orbit_check(doubling, xt, el, m, size=n)["orbit_sup"] == want


def test_bilateral_orbit_check_permutation(perm3):
    lift = sc.periodic_lift(perm3, sc.StatePoint(0))
    el = sc.from_base(perm3, sc.TabularFunction((1.0, -1.0, 0.5)), power=1)
    res = sc.bilateral_orbit_check(perm3, lift, el, 32)
    assert res["gap"] <= 1e-2


def test_embedding_check_shift(doubling):
    res = sc.embedding_check(
        doubling,
        sc.shift_element(doubling),
        [sc.rational(1, 5)],
        [sc.rational(0, 1), sc.rational(1, 3)],
        [sc.periodic_lift(doubling, sc.rational(1, 3))],
        n_max=32,
        grid_size=32,
        half_width=16,
    )
    assert res["overlap"] is True
    assert res["semicrossed"].lower == pytest.approx(1.0)
    assert res["crossed"].lower == pytest.approx(1.0)


def test_estimates_require_semicrossed(doubling):
    bad = sc.shift_element(doubling, -1)
    with pytest.raises(sc.NotSemicrossed):
        sc.orbit_norm_estimate(doubling, bad, [sc.rational(1, 3)], 16)
    with pytest.raises(sc.NotSemicrossed):
        sc.periodic_norm_estimate(doubling, bad, [sc.rational(1, 3)], 16)
