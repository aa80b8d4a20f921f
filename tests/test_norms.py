import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import semicrossed as sc
from helpers import (
    brute_admissible_words,
    cylinder_element,
    dense_orbit_norm_estimate,
    pivot_graph,
    power_iteration_norm,
    ref_orbit_matrix,
    ref_periodic_cells,
    ref_periodic_norm_estimate,
    replay_pivot_certificate,
)
from semicrossed import functions, norms, systems
from semicrossed.corpus import random_trig
from semicrossed.norms import (
    _CYCLE_SKIP_LIMIT,
    _SKIP_BAND_LIMIT,
    _SKIP_SLACK,
    _certify_below,
    _cycle_skip_pays,
    _cycle_slack,
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
    "sys,count,full",
    [(sc.CircleTimesK(2), 3_914, 7_936), (sc.CircleTimesK(3), 6_340, 11_072)],
    ids=["doubling", "tripling"],
)
def test_periodic_scan_svds_once_per_distinct_mu(sys, count, full, monkeypatch):
    # at most 256 / gcd(p, 256) cells per sample (full), fewer where the skip
    # certificate clears them, and every stacked matrix is one of those cells
    stacked = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        norms.np.linalg, "svd", lambda a, *args, **kw: stacked.append(a.copy()) or svd(a, *args, **kw)
    )
    _, per = sc.default_samples(sys)
    el = sc.random_semicrossed_element(sys, 11, max_power=3)
    sc.periodic_norm_estimate(sys, el, per, 256)
    assert sum(map(len, stacked)) == count < full
    lams = np.exp(2j * np.pi * np.arange(256) / 256)
    cells = {}  # period -> (cells j < m of every sample of that period, their (sample, j))
    for i, y in enumerate(per):
        p = sc.classify(sys, y).period
        m = 256 // np.gcd(p, 256)
        mats, ids = cells.get(p, (np.zeros((0, p, p), dtype=complex), []))
        mats = np.concatenate([mats, ref_periodic_cells(sys, el, y, p, lams[:m])])
        cells[p] = (mats, ids + [(i, j) for j in range(m)])
    assert sum(len(ids) for _, ids in cells.values()) == full
    seen = set()
    for stack in stacked:
        mats, ids = cells[stack.shape[1]]
        for a in stack:
            gap = np.max(np.abs(mats - a), axis=(1, 2))
            n = int(np.argmin(gap))
            assert gap[n] <= 1e-13 * max(1.0, float(np.max(np.abs(a))))
            assert ids[n] not in seen  # no cell twice
            seen.add(ids[n])


def _f300_power4(sys):
    # like the benchmark's: three terms up to frequency 300 per power, l1 mass 1/(n+1)
    rng = np.random.default_rng(300)
    coeffs = {}
    for n in range(5):
        freqs = [300, *rng.choice(np.arange(-299, 300), size=2, replace=False).tolist()]
        raw = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        raw *= 1.0 / ((n + 1) * np.sum(np.abs(raw)))
        coeffs[n] = sc.ext(1, sc.TrigPoly.from_coeffs(dict(zip(freqs, raw.tolist()))))
    return sc.element(sys, coeffs)


def _certifies_nothing(bands, thr, sizes, border=0):
    return np.zeros((len(sizes), len(bands)), dtype=bool)


@pytest.mark.parametrize(
    "sys,el,periodic",
    _periodic_identity_cases()
    + [pytest.param(sc.CircleTimesK(2), _f300_power4(sc.CircleTimesK(2)), None, id="f300-power4")],
)
def test_periodic_skip_matches_full_scan(sys, el, periodic, monkeypatch):
    if periodic is None:
        _, periodic = sc.default_samples(sys)
    cells = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        norms.np.linalg, "svd", lambda a, *args, **kw: cells.append(len(a)) or svd(a, *args, **kw)
    )
    new = sc.periodic_norm_estimate(sys, el, periodic)
    skipped = sum(cells)
    cells.clear()
    monkeypatch.setattr(norms, "_certify_below", _certifies_nothing)
    full = sc.periodic_norm_estimate(sys, el, periodic)
    assert (new.bracket, new.traces, new.witness) == (full.bracket, full.traces, full.witness)
    if isinstance(sys, sc.CircleTimesK) and len(periodic) > 1:
        assert skipped < sum(cells)  # the certificate did clear cells


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


def test_overflowing_trig_sup_raises_non_finite(doubling):
    # the grid values overflow; under the suite's RuntimeWarning filter a
    # warning would escape instead of the bracket's typed error
    g = sc.TrigPoly.from_coeffs({0: 1e308, 1: 1e308})
    with pytest.raises(sc.NonFinite, match="bracket endpoints must be finite"):
        sc.sup_norm(g)
    with pytest.raises(sc.NonFinite, match="bracket endpoints must be finite"):
        sc.periodic_norm_estimate(doubling, sc.from_base(doubling, g), [sc.rational(1, 3)], 8)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(np.nan, 1.0)], ids=["inf", "nan"])
def test_periodic_estimate_non_finite_long_cycle(doubling, bad, monkeypatch):
    # a non-finite value on the period-60 orbit of 1/61, which takes the
    # certificate path; the period-2 sample scanned before it is finite
    values = norms._orbit_values

    def overflowing(sys, bases, x, n):
        out = values(sys, bases, x, n)
        if n == 60:
            out[-1, 17] = bad
        return out

    calls = []
    monkeypatch.setattr(norms, "_orbit_values", overflowing)
    monkeypatch.setattr(norms, "_certify_below", lambda *a: calls.append(a))
    el = sc.random_semicrossed_element(doubling, 11, max_power=3)
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.periodic_norm_estimate(doubling, el, [sc.rational(1, 61), sc.rational(1, 3)])
    assert calls == []  # raised before any cell is certified


def test_bracket_rejects_non_finite_ends():
    for lower, upper in [(np.inf, np.inf), (0.0, np.inf), (np.nan, 1.0)]:
        with pytest.raises(sc.NonFinite, match="bracket endpoints must be finite"):
            sc.NormBracket(lower, upper)


def test_estimates_validate_each_coefficient_once_per_point(golden_mean, monkeypatch):
    # per-cell validation regenerated the admissible words n times per point
    el = cylinder_element(golden_mean, 10, 5)
    pts, per = sc.default_samples(golden_mean)
    calls = []
    validate = functions.validate_base
    monkeypatch.setattr(functions, "validate_base", lambda *a: calls.append(a) or validate(*a))
    systems._words.cache_clear()
    sc.orbit_norm_estimate(golden_mean, el, pts, 256)
    assert 0 < len(calls) <= len(pts) * len(el.coeffs)
    calls.clear()
    sc.periodic_norm_estimate(golden_mean, el, per, 16)
    assert 0 < len(calls) <= len(per) * len(el.coeffs)
    # the words of (transition, depth 10) are generated once over both estimates
    info = systems._words.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0


@pytest.mark.parametrize(
    "sys",
    [sc.CircleTimesK(2), sc.golden_mean_shift(), sc.PermutationSystem((1, 2, 0))],
    ids=["circle", "sft", "permutation"],
)
def test_zero_element_bracket(sys, monkeypatch):
    zero = sc.constant_element(sys, 0.0)
    assert zero.coeffs == ()
    pts, per = sc.default_samples(sys)
    monkeypatch.setattr(norms, "_pivot_sweeps", lambda *a, **kw: pytest.fail("searched"))
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
    pts, _ = sc.default_samples(doubling)
    # one lane of band 200, and six distinct lanes of band 9, one past the gate
    wide = sc.random_semicrossed_element(doubling, 11, max_power=9)
    assert wide.max_power == 9 and not _skip_pays(9, _ladder(256))
    for el, xs in [(sc.shift_element(doubling, 200), pts), (wide, pts[:6])]:
        new = sc.orbit_norm_estimate(doubling, el, xs, 256)
        ref = dense_orbit_norm_estimate(doubling, el, xs, 256)
        assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)
    assert calls == []


def test_skip_certificate_gate():
    assert _skip_pays(4, _ladder(256))
    assert not _skip_pays(9, _ladder(256))  # window too wide for the ladder
    assert not _skip_pays(200, _ladder(256))
    huge = _ladder(2**30)
    assert _skip_pays(_SKIP_BAND_LIMIT, huge)
    assert not _skip_pays(_SKIP_BAND_LIMIT + 1, huge)  # beyond the slack derivation


@pytest.mark.parametrize("n_max", [16, 256], ids=["dense", "certified"])
def test_orbit_estimate_non_finite_bands(doubling, n_max):
    huge = sc.from_base(doubling, sc.TrigPoly.from_coeffs({0: 1e308, 1: 1e308}))
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.orbit_norm_estimate(doubling, huge, [sc.rational(1, 3), sc.rational(0, 1)], n_max)


# ---------------------------------------------------------------------------
# samples whose coefficient values agree byte for byte share one lane


def _unshared_periodic(sys, el, periodic, grid_size=256):
    """The periodic scan of each sample alone, combined as the joint scan
    combines them: every cell SVD'd (a lone sample has no floor to certify
    against) and no sample sharing another's values."""
    singles = [sc.periodic_norm_estimate(sys, el, [y], grid_size) for y in periodic]
    first = max(range(len(singles)), key=lambda i: (singles[i].bracket.lower, -i))
    rows = zip(*(s.traces for s in singles))
    traces = tuple((row[0][0], max(v for _, v in row)) for row in rows)
    top = singles[first]
    return norms.NormEstimate(top.bracket, traces, top.witness)


def _dedup_cases():
    doubling = sc.CircleTimesK(2)
    pts, per = sc.default_samples(doubling)
    # two 3-cycles on which both tables read the same values
    perm = sc.PermutationSystem((1, 2, 0, 4, 5, 3))
    tab = sc.from_base(perm, sc.TabularFunction((1.0, -2.0j, 0.5) * 2))
    tab = tab + sc.from_base(perm, sc.TabularFunction((0.25, 1.0, 3.0) * 2), power=1)
    states = [sc.StatePoint(s) for s in range(6)]
    random = sc.random_semicrossed_element(doubling, 11, max_power=3)
    odd = [y for y in per if sc.classify(doubling, y).period % 2]
    repeated = (pts[:9] + pts[2:6] + pts[:3], odd[:6] + odd[1:4] + odd[:2])
    return [
        pytest.param(doubling, sc.shift_element(doubling), pts, per, id="U"),
        pytest.param(doubling, one_plus_u(doubling), pts, per, id="1+U"),
        pytest.param(doubling, sc.shift_element(doubling, 200), pts, per, id="U^200"),
        pytest.param(perm, tab, states, states, id="permutation-twin-cycles"),
        pytest.param(doubling, random, *repeated, id="repeated-points"),
    ]


@pytest.mark.parametrize("sys,el,pts,per", _dedup_cases())
def test_shared_lanes_leave_every_estimate_unchanged(sys, el, pts, per, monkeypatch):
    def same(a, b):
        return (a.bracket, a.traces, a.witness) == (b.bracket, b.traces, b.witness)

    orbit_ref = dense_orbit_norm_estimate(sys, el, pts, 256)
    assert same(sc.orbit_norm_estimate(sys, el, pts, 256), orbit_ref)
    periodic_ref = _unshared_periodic(sys, el, per)
    assert same(sc.periodic_norm_estimate(sys, el, per), periodic_ref)
    if all(sc.classify(sys, y).period % 2 for y in per):
        # every angle is its own mu: the cells are the reference stack's own
        assert same(periodic_ref, ref_periodic_norm_estimate(sys, el, per))
    both = sc.semicrossed_norm(sys, el, pts, per)
    monkeypatch.setattr(norms, "orbit_norm_estimate", lambda *args: orbit_ref)
    monkeypatch.setattr(norms, "periodic_norm_estimate", lambda *args: periodic_ref)
    assert same(both, sc.semicrossed_norm(sys, el, pts, per))


def test_constant_coefficients_take_one_lane(doubling, monkeypatch):
    # 1 + U reads the same values at all 93 points and along every cycle of
    # one period: one point's ladder, one sample's cells per period
    calls = []
    svd_norm = norms.spectral_norm
    monkeypatch.setattr(norms, "spectral_norm", lambda m: calls.append(m.shape) or svd_norm(m))
    stacked = Counter()  # size or period -> stacked matrices SVD'd
    svd = np.linalg.svd

    def counted(a, *args, **kw):
        stacked[a.shape[1]] += len(a)
        return svd(a, *args, **kw)

    monkeypatch.setattr(norms.np.linalg, "svd", counted)
    pts, per = sc.default_samples(doubling)
    el = one_plus_u(doubling)
    sc.orbit_norm_estimate(doubling, el, pts, 256)
    assert stacked == {4: 1, 8: 1, 16: 1}
    assert len(calls) + sum(stacked.values()) == len(_ladder(256))
    stacked.clear()
    sc.periodic_norm_estimate(doubling, el, per, 256)
    periods = {sc.classify(doubling, y).period for y in per}
    assert set(stacked) <= periods
    for p in periods:
        m = 256 // np.gcd(p, 256)
        if _cycle_skip_pays(p, el.max_power):
            assert stacked.get(p, 0) <= m
        else:
            assert stacked[p] == m


def _negated_zero(bands):
    out = bands.copy()
    at = np.flatnonzero(out.view(float) == 0.0)[0]
    out.view(float).flat[at] = -0.0
    return out


def test_lanes_differing_in_a_zero_sign_stay_distinct(doubling, monkeypatch):
    # every sample reads the values at x, with one zero negated off x itself
    el = sc.from_base(doubling, cosine(), power=1)  # zeros below the band
    x = sc.rational(1, 7)
    bands, values = norms.orbit_bands, norms._orbit_values

    def signed_bands(sys, y, e, n):
        out = bands(sys, x, e, n)
        return out if y == x else _negated_zero(out)

    def signed_values(sys, bases, y, n):
        out = values(sys, bases, x, n)
        return out if y == x else _negated_zero(out)

    monkeypatch.setattr(norms, "orbit_bands", signed_bands)
    monkeypatch.setattr(norms, "_orbit_values", signed_values)
    calls, stacked = [], []
    svd_norm, svd = norms.spectral_norm, np.linalg.svd
    monkeypatch.setattr(norms, "spectral_norm", lambda m: calls.append(m.shape) or svd_norm(m))
    monkeypatch.setattr(
        norms.np.linalg, "svd", lambda a, *args, **kw: stacked.append(len(a)) or svd(a, *args, **kw)
    )
    samples = [x, sc.rational(2, 7), x]
    sc.orbit_norm_estimate(doubling, el, samples, 16)
    assert calls == [] and stacked == [2] * len(_ladder(16))  # two lanes per size
    stacked.clear()
    sc.periodic_norm_estimate(doubling, el, samples, 16)
    assert sum(stacked) == 2 * 16  # period 3, all 16 angles; the copy of x shares its cells


def test_nan_lane_shared_by_twins_still_raises(doubling, monkeypatch):
    el = one_plus_u(doubling)
    bands = norms.orbit_bands

    def poisoned(sys, y, e, n):
        out = bands(sys, y, e, n)
        out[0, 3] = complex(np.nan, 0.0)
        return out

    monkeypatch.setattr(norms, "orbit_bands", poisoned)
    pts, _ = sc.default_samples(doubling)
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.orbit_norm_estimate(doubling, el, pts, 256)
    values = norms._orbit_values

    def poisoned_values(sys, bases, y, n):
        out = values(sys, bases, y, n)
        out[0, 0] = complex(np.nan, 0.0)
        return out

    monkeypatch.setattr(norms, "_orbit_values", poisoned_values)
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.periodic_norm_estimate(doubling, el, [sc.rational(1, 7), sc.rational(2, 7)], 16)


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


# ---------------------------------------------------------------------------
# the ladder kernel: exact floors from SVDs, then the certificate


def _lanes(seed: int, count: int, n: int, band: int) -> np.ndarray:
    return np.concatenate([_lower_banded(seed + i, n, band) for i in range(count)])


def _assert_ladder_exact(bands: np.ndarray, sizes) -> np.ndarray:
    """``_ladder_norms`` against a dense SVD of every cell: each computed
    value bit for bit, each size's maximum and its first lane, and every
    skipped cell strictly below the maximum at its size."""
    got = norms._ladder_norms(bands, sizes)
    ref = np.array([[sc.spectral_norm(_dense(b[None, :, :n])) for b in bands] for n in sizes])
    done = ~np.isnan(got)
    assert np.array_equal(got[done], ref[done])
    for s in range(len(sizes)):
        assert np.nanmax(got[s]) == ref[s].max()
        assert np.nanargmax(got[s]) == np.argmax(ref[s])
        assert np.all(ref[s, ~done[s]] < ref[s].max())
    return got


def test_ladder_norms_candidate_need_not_win_at_n_max():
    # lane 0 leads at size 16 but is small beyond it; lane 1 overtakes it,
    # fails the candidate's floor and is SVD'd
    bands = _lanes(40, 6, 256, 2)
    bands[0, :, :16] *= 10.0
    bands[0, :, 16:] *= 0.01
    bands[1, :, 64:] *= 10.0
    got = _assert_ladder_exact(bands, _ladder(256))
    assert np.argmax(got[2]) == 0  # the size-16 candidate
    assert np.nanargmax(got[-1]) == 1
    assert np.isnan(got[3:, 2:]).all()  # the rest are certified below


def test_ladder_norms_single_lane(monkeypatch):
    # a lone lane is its own floor: every cell is SVD'd, none certified
    calls = []
    monkeypatch.setattr(norms, "_certify_below", lambda *a: calls.append(a))
    got = _assert_ladder_exact(_lanes(41, 1, 256, 3), _ladder(256))
    assert not np.isnan(got).any()
    assert calls == []


def test_ladder_norms_zero_lanes():
    zero = np.zeros((3, 3, 256), dtype=complex)
    got = _assert_ladder_exact(zero, _ladder(256))
    assert not got.any()  # a zero floor certifies nothing: every cell is SVD'd
    mixed = np.concatenate([zero[:2], _lanes(42, 2, 256, 2), zero[:1]])
    got = _assert_ladder_exact(mixed, _ladder(256))
    assert np.isnan(got[3:, [0, 1, 4]]).all()  # below the nonzero lanes' floors


def test_ladder_norms_at_the_skip_gate_edge():
    sizes = _ladder(256)
    band = 256 // (len(sizes) * 4) - 1  # the widest band the gate admits
    assert _skip_pays(band, sizes) and not _skip_pays(band + 1, sizes)
    _assert_ladder_exact(_lanes(43, 8, 256, band), sizes)


@pytest.mark.parametrize("bad", [complex(np.inf, 0.0), complex(np.nan, 0.0)], ids=["inf", "nan"])
def test_orbit_ladder_non_finite_lane_raises_before_any_svd(doubling, bad, monkeypatch):
    bands = norms.orbit_bands
    poisoned = sc.rational(1, 7)

    def values(sys, x, el, n):
        out = bands(sys, x, el, n)
        if x == poisoned:
            out[1, 40] = bad
        return out

    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(norms, "orbit_bands", values)
    monkeypatch.setattr(
        norms.np.linalg, "svd", lambda a, *args, **kw: svds.append(a) or svd(a, *args, **kw)
    )
    el = sc.random_semicrossed_element(doubling, 11, max_power=3)
    pts, _ = sc.default_samples(doubling)
    assert poisoned in pts
    with pytest.raises(sc.NonFinite, match="matrix has non-finite entries"):
        sc.orbit_norm_estimate(doubling, el, pts, 256)
    assert svds == []


def test_orbit_ladder_svds_few_full_truncations(doubling, monkeypatch):
    # the seeded f300 band-4 element on the 93 doubling samples: the size-16
    # candidate's floors leave at most two other lanes to SVD at size 256
    el = _f300_power4(doubling)
    pts, _ = sc.default_samples(doubling)
    full = []
    svd_norm = norms.spectral_norm
    monkeypatch.setattr(norms, "spectral_norm", lambda m: full.append(len(m) == 256) or svd_norm(m))
    new = sc.orbit_norm_estimate(doubling, el, pts, 256)
    assert sum(full) <= 3
    monkeypatch.undo()
    ref = dense_orbit_norm_estimate(doubling, el, pts, 256)
    assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)


def test_cycle_skip_gate():
    assert _cycle_skip_pays(4, 1)
    assert not _cycle_skip_pays(3, 1)  # p <= 2 band + 1: the cycle wraps onto itself
    assert _cycle_skip_pays(2, 0)  # band-0 cycles certify from p = 2
    assert not _cycle_skip_pays(1, 0)
    assert _cycle_skip_pays(10, 4)
    assert not _cycle_skip_pays(9, 4)
    assert not _cycle_skip_pays(200, 100)
    assert _cycle_skip_pays(_CYCLE_SKIP_LIMIT, 4)
    assert not _cycle_skip_pays(_CYCLE_SKIP_LIMIT + 1, 4)  # beyond the slack bound
    assert _cycle_slack(_CYCLE_SKIP_LIMIT) < 2e-6
    for sys in [sc.golden_mean_shift(), SFT3, sc.ShiftOfFiniteType(((1, 1), (1, 1)))]:
        # band-1 shift samples of period 4-6 go through the certificate
        periods = {sc.classify(sys, y).period for y in sc.default_samples(sys)[1]}
        assert periods == set(range(1, 7))
        assert {p for p in periods if _cycle_skip_pays(p, 1)} == {4, 5, 6}


def _short_cycle_cases():
    golden, doubling = sc.golden_mean_shift(), sc.CircleTimesK(2)
    full2 = sc.ShiftOfFiniteType(((1, 1), (1, 1)))
    return [
        pytest.param(golden, cylinder_element(golden, 6, 5), id="goldenmean-d6"),
        pytest.param(golden, cylinder_element(golden, 10, 5), id="goldenmean-d10"),
        pytest.param(SFT3, cylinder_element(SFT3, 10, 5), id="sft3-d10"),
        pytest.param(full2, cylinder_element(full2, 2, 5), id="full2-d2"),
        pytest.param(doubling, sc.random_semicrossed_element(doubling, 11, max_power=1), id="circle-band1"),
        pytest.param(doubling, sc.random_semicrossed_element(doubling, 11, max_power=2), id="circle-band2"),
    ]


@pytest.mark.parametrize("sys,el", _short_cycle_cases())
def test_certified_short_cycles_change_no_bit(sys, el, monkeypatch):
    _, per = sc.default_samples(sys)
    new = sc.periodic_norm_estimate(sys, el, per, 256)
    monkeypatch.setattr(norms, "_cycle_skip_pays", lambda p, band: False)
    ref = sc.periodic_norm_estimate(sys, el, per, 256)  # every cell SVD'd
    assert (new.bracket, new.traces, new.witness) == (ref.bracket, ref.traces, ref.witness)


def test_golden_mean_short_cycles_skip_cells(golden_mean, monkeypatch):
    # every golden-mean sample has period <= 6; those of period 4-6 are certified
    stacked = Counter()  # period -> matrices SVD'd
    svd = np.linalg.svd

    def counted(a, *args, **kw):
        stacked[a.shape[1]] += len(a)
        return svd(a, *args, **kw)

    monkeypatch.setattr(norms.np.linalg, "svd", counted)
    _, per = sc.default_samples(golden_mean)
    sc.periodic_norm_estimate(golden_mean, cylinder_element(golden_mean, 10, 5), per, 256)
    periods = [sc.classify(golden_mean, y).period for y in per]
    cells = sum(256 // np.gcd(p, 256) for p in periods if 4 <= p <= 6)
    assert sum(stacked[p] for p in (4, 5, 6)) < cells


def _cyclic_banded(seed: int, p: int, band: int, lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """``lanes`` copies of random p-cycle bands V[k, c] = P[(c+k) mod p, c], and P."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(band + 1, p)) + 1j * rng.normal(size=(band + 1, p))
    dense = np.zeros((p, p), dtype=complex)
    for k in range(band + 1):
        dense[(np.arange(p) + k) % p, np.arange(p)] = v[k]
    return np.repeat(v[None], lanes, axis=0), dense


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 64), band=st.integers(0, 4))
def test_cycle_skip_certificate_is_sound(seed, p, band):
    assume(p > 2 * band + 1)
    rel = np.array([1 - 1e-12, 1.0, 1 + _cycle_slack(p) / 8, 1.01])
    bands, dense = _cyclic_banded(seed, p, band, len(rel))
    norm = float(np.linalg.norm(dense, 2))
    thr = norm * rel  # one threshold per lane
    ok = _certify_below(bands, thr, [p], band)[0]
    for t, passed in zip(thr, ok):
        if passed:
            assert norm < t
    assert ok[-1]  # a 1% margin is far above the slack


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 64), band=st.integers(0, 4), data=st.data())
def test_cycle_skip_certificate_rejects_nan(seed, p, band, data):
    assume(p > 2 * band + 1)
    bands, _ = _cyclic_banded(seed, p, band, 2)
    bands[:, data.draw(st.integers(0, band)), data.draw(st.integers(0, p - 1))] = np.nan
    assert not _certify_below(bands, np.array([1e3, 1e6]), [p], band).any()


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


def test_periodic_vector_check_builds_no_orbit_matrix(doubling, monkeypatch):
    def refuse(*args):
        raise AssertionError("periodic_vector_check formed the n x n orbit matrix")

    monkeypatch.setattr(norms, "orbit_matrix", refuse)
    res = sc.periodic_vector_check(doubling, sc.rational(1, 7), 1j, one_plus_u(doubling), 128)
    assert res["lhs"] <= res["rhs"] + 1e-12


@pytest.mark.parametrize("band", [0, 1, 2, 3])
def test_periodic_vector_check_lhs_matches_dense_product(doubling, band):
    # The banded product and the dense M @ x each sum at most b + 1 nonzero
    # products per entry (BLAS adds the zero ones exactly), so each entry
    # is within 2 (b + 2) u (|M| |x|)_r of exact, complex products counted
    # twice, and || |M| |x| || <= ||M||_F ||x||.  Each 2-norm adds a
    # relative n u.
    u = 2.0**-53
    rng = random.Random(band)
    el = sc.from_base(doubling, random_trig(rng, 2, 0.8))
    for k in range(1, band + 1):
        el = el + sc.from_base(doubling, random_trig(rng, 2, 0.8), power=k)
    y, lam = sc.rational(1, 7), complex(np.exp(2j * np.pi * 5 / 32))
    for blocks in (1, 4, 64):
        res = sc.periodic_vector_check(doubling, y, lam, el, blocks)
        p = res["period"]
        n = blocks * p + band
        xi = np.linalg.svd(sc.twisted_periodic_matrix(doubling, y, lam, el))[2][0].conj()
        padded = np.zeros(n, dtype=complex)
        padded[: blocks * p] = sc.embed_periodic_vector(xi, lam, blocks)
        m = sc.orbit_matrix(doubling, y, el, n)
        ref = float(np.linalg.norm(m @ padded))
        bound = 4 * (band + 2) * np.linalg.norm(m) * np.linalg.norm(padded) + 2 * n * ref
        assert abs(res["lhs"] - ref) <= bound * u


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
    for m in (1, 2, 3):
        n = 2 * m + 1  # the orbit truncations are window-sized
        pts = [sc.project(sc.shift_power(doubling, xt, -k)) for k in range(n)]
        want = max(sc.spectral_norm(sc.orbit_matrix(doubling, y, el, n)) for y in pts)
        assert sc.bilateral_orbit_check(doubling, xt, el, m)["orbit_sup"] == want


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


# ---------------------------------------------------------------------------
# band <= 1 on shifts of finite type and permutations: the pivot certificate


GOLDEN_MEAN = sc.golden_mean_shift()
SFT3 = sc.ShiftOfFiniteType(((1, 1, 0), (1, 0, 1), (1, 0, 0)))
FULL2 = sc.ShiftOfFiniteType(((1, 1), (1, 1)))


def seeded_cylinder_element(sys, depth: int, seed: int):
    """Powers 0 and 1, depth-d cylinders with uniform complex values of
    modulus scale at most 1 and 1/2 per part, from random.Random(seed)."""
    rng = random.Random(seed)
    words = brute_admissible_words(sys.transition, depth)
    coeffs = {}
    for k, scale in ((0, 1.0), (1, 0.5)):
        vals = {w: complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for w in words}
        coeffs[k] = sc.ext(1, sc.CylinderFunction.from_values(depth, vals))
    return sc.element(sys, coeffs)


def prime_cycle_words(transition, count: int = 6, seed: int = 5):
    """Eventually periodic words whose cycles have the prime lengths 7 and 11
    in turn: no orbit point lies among the default samples (period <= 6)."""
    rng = random.Random(seed)
    size = len(transition)
    out = []
    while len(out) < count:
        cyc = [rng.randrange(size)]
        for _ in range((7, 11)[len(out) % 2] - 1):
            cyc.append(rng.choice([b for b in range(size) if transition[cyc[-1]][b]]))
        if not transition[cyc[-1]][cyc[0]] or len(set(cyc)) == 1:
            continue
        pre = [rng.choice([a for a in range(size) if transition[a][cyc[0]]])]
        for _ in range(rng.randint(2, 8)):
            pre.insert(0, rng.choice([a for a in range(size) if transition[a][pre[0]]]))
        out.append(sc.WordPoint(tuple(pre), tuple(cyc)))
    return out


def certificate_tables(sys, el, cert):
    """The pivot graph from the raw tables, and the certificate's T and F."""
    t, states, table, e = cert
    if isinstance(sys, sc.PermutationSystem):
        graph = pivot_graph(("perm", sys.images), {k: f.base.values for k, f in el.coeffs})
    else:
        graph = pivot_graph(("sft", sys.transition), {k: f.base.as_dict() for k, f in el.coeffs})
    return graph, t, {s: Fraction(float(f)) * 2 ** (2 * e) for s, f in zip(states, table)}


def assert_replay(sys, el, cert):
    """The certificate replays exactly, and fails once one entry is raised just
    past its edge inequality (and nothing else)."""
    graph, t, table = certificate_tables(sys, el, cert)
    assert replay_pivot_certificate(graph, t, table)
    states, edges, a0, a1 = graph
    u, v = next((u, v) for u, v in edges if u != v and a1[u] * a0[u] > 0)
    t2 = Fraction(t) ** 2
    room = ((t2 - a0[v] - a1[u]) * table[u] - a1[u] * a0[u]) / table[u]
    raised = dict(table)
    raised[v] = room * (1 + Fraction(1, 2**60))
    assert 0 < raised[v] <= t2 - a0[v]
    assert not replay_pivot_certificate(graph, t, raised)


@pytest.fixture
def replayed(monkeypatch):
    """Every certificate the engine accepts during the test, each replayed
    by ``assert_replay`` as it is made."""
    certs = []
    engine = norms._pivot_norm

    def replaying(sys, el, *args):
        est, cert = engine(sys, el, *args)
        if cert is not None:
            assert_replay(sys, el, cert)
            certs.append(cert)
        return est, cert

    monkeypatch.setattr(norms, "_pivot_norm", replaying)
    return certs


@pytest.mark.parametrize(
    "sys,depth,seed",
    [(GOLDEN_MEAN, 10, 0), (SFT3, 10, 0), (FULL2, 6, 1)],
    ids=["golden-mean-d10", "sft3-d10", "full2-d6"],
)
def test_symbolic_upper_end_holds_off_the_samples(sys, depth, seed, replayed):
    # The lambda-grid upper end held only for the sampled cycles: it read
    # 1.517743, 1.584929 and 1.525309 on these elements, below the truncations
    # at the prime-cycle words (1.556337, 1.679362, 1.552351).
    el = seeded_cylinder_element(sys, depth, seed)
    pts, per = sc.default_samples(sys)
    est = sc.semicrossed_norm(sys, el, pts, per)
    truncations = [
        np.linalg.norm(ref_orbit_matrix(sys, w, el, 128), 2)
        for w in prime_cycle_words(sys.transition)
    ]
    lower, upper = est.bracket.lower, est.bracket.upper
    assert upper >= max(truncations)
    assert (upper - lower) / lower <= 1e-3 + 1e-12
    assert est.bracket.upper_method == "pivot-graph certificate"
    assert [t for t, *_ in replayed] == [upper]


def angle_scan(v0, v1, cycle, angles: int = 4096) -> float:
    """max over the angles j / angles of ||D_0 + lambda Z D_1|| along a cycle
    of states, Z the cyclic down shift."""
    p = len(cycle)
    lam = np.exp(2j * np.pi * np.arange(angles) / angles)
    mats = np.zeros((angles, p, p), dtype=complex)
    for i, s in enumerate(cycle):
        mats[:, i, i] += v0[s]
        mats[:, (i + 1) % p, i] += lam * v1[s]
    return float(np.linalg.norm(mats, 2, axis=(1, 2)).max())


def test_permutation_bracket_from_lambda_star_and_certificate(replayed):
    sys = sc.PermutationSystem((1, 2, 0, 4, 3, 5))
    rng = random.Random(3)
    v0, v1 = ([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(6)] for _ in range(2))
    el = sc.from_base(sys, sc.TabularFunction(tuple(v0)))
    el = el + sc.from_base(sys, sc.TabularFunction(tuple(v1)), power=1)
    states = [sc.StatePoint(s) for s in range(6)]
    est = sc.semicrossed_norm(sys, el, states, states)
    lower, upper = est.bracket.lower, est.bracket.upper
    assert lower >= max(angle_scan(v0, v1, c) for c in ([0, 1, 2], [3, 4], [5])) - 1e-12
    assert (upper - lower) / lower <= 1e-3 + 1e-12
    assert est.bracket.upper_method == "pivot-graph certificate"
    assert [t for t, *_ in replayed] == [upper]
    assert not any(param.startswith("orbit") for param, _ in est.traces)


def test_twin_cycles_share_one_lambda_star_svd(monkeypatch, replayed):
    sys = sc.PermutationSystem((1, 2, 0, 4, 5, 3))
    el = sc.from_base(sys, sc.TabularFunction((1.0, -2.0j, 0.5) * 2))
    el = el + sc.from_base(sys, sc.TabularFunction((0.25, 1.0, 3.0) * 2), power=1)
    stacked = []  # matrices per batched SVD
    svd = np.linalg.svd
    monkeypatch.setattr(norms.np.linalg, "svd", lambda a, **kw: stacked.append(len(a)) or svd(a, **kw))
    twins = [sc.StatePoint(0), sc.StatePoint(3)]
    alone = sc.semicrossed_norm(sys, el, twins[:1], twins[:1])
    assert sc.semicrossed_norm(sys, el, twins, twins).bracket == alone.bracket
    assert stacked == [1, 1]
    stacked.clear()
    # the three rotations of one cycle are three lanes; their twins add none
    states = [sc.StatePoint(s) for s in range(6)]
    assert sc.semicrossed_norm(sys, el, states, states).bracket.lower == alone.bracket.lower
    assert stacked == [3] and len(replayed) == 3


def test_pivot_traces_and_ladder_only_off_the_cycles(replayed):
    el = seeded_cylinder_element(GOLDEN_MEAN, 3, 11)
    pts, per = sc.default_samples(GOLDEN_MEAN)
    est = sc.semicrossed_norm(GOLDEN_MEAN, el, pts, per)
    params = [param for param, _ in est.traces]
    assert sum(param.startswith("cycle y=") for param in params) == len(per)
    assert not any(param.startswith("orbit") for param in params)
    assert params[-1] == "pivot states=5 pass"
    assert all(re.fullmatch(r"pivot states=5 fail", param) for param in params[len(per) : -1])
    # a sample point off every cycle takes the orbit ladder, whose rows follow the cycles'
    tail = sc.WordPoint((1,), (0,))
    with_tail = sc.semicrossed_norm(GOLDEN_MEAN, el, pts + [tail], per)
    ladder = sc.orbit_norm_estimate(GOLDEN_MEAN, el, [tail], 256)
    rows = [(param, v) for param, v in with_tail.traces if param.startswith("orbit ")]
    assert rows == [(f"orbit {k}", v) for k, v in ladder.traces]
    assert with_tail.bracket.lower >= max(est.bracket.lower, ladder.bracket.lower)
    assert len(replayed) == 2


def test_pivot_search_from_cycles_that_read_zero():
    # U f with f the indicator of 00000001, a word on no cycle of period <= 6:
    # every sampled cycle reads 0, and the failing word's truncation finds 1
    words = brute_admissible_words(GOLDEN_MEAN.transition, 8)
    f = sc.CylinderFunction.from_values(8, {w: float(w == (0,) * 7 + (1,)) for w in words})
    el = sc.from_base(GOLDEN_MEAN, f, power=1)
    pts, per = sc.default_samples(GOLDEN_MEAN)
    est = sc.semicrossed_norm(GOLDEN_MEAN, el, pts, per)
    assert all(v == 0.0 for param, v in est.traces if param.startswith("cycle"))
    assert (est.bracket.lower, est.bracket.upper) == (1.0, 1.0)
    assert est.witness == "orbit" and est.bracket.lower_witness.startswith("orbit word=")


def test_pivot_upper_end_needs_the_exact_check(perm3, monkeypatch, replayed):
    el = sc.from_base(perm3, sc.TabularFunction((1.0, 0.5j, -0.25)))
    el = el + sc.from_base(perm3, sc.TabularFunction((0.5, 0.5, 1.0)), power=1)
    states = [sc.StatePoint(s) for s in range(3)]
    est, cert = norms._pivot_norm(perm3, el, states, states, 256, 256)
    assert est.bracket.upper_method == "pivot-graph certificate" and replayed == [cert]
    # every float pass refused: the search climbs to the l1 sum
    monkeypatch.setattr(norms, "_exact_pass", lambda *a: False)
    est, cert = norms._pivot_norm(perm3, el, states, states, 256, 256)
    assert cert is None and est.bracket.upper == sc.l1_upper_bound(el)
    assert est.bracket.upper_method == "coefficient l1 sum"


def test_pivot_path_typed_errors():
    el = seeded_cylinder_element(GOLDEN_MEAN, 2, 1)
    pts, per = sc.default_samples(GOLDEN_MEAN)
    with pytest.raises(sc.NotPeriodic):
        sc.semicrossed_norm(GOLDEN_MEAN, el, pts, [sc.WordPoint((1,), (0,))])
    with pytest.raises(sc.WindowTooSmall):
        sc.semicrossed_norm(GOLDEN_MEAN, el, pts, per, n_max=1)
    with pytest.raises(ValueError, match="grid_size must be >= 8"):
        sc.semicrossed_norm(GOLDEN_MEAN, el, pts, per, grid_size=4)
    with pytest.raises(sc.NotSemicrossed):
        sc.semicrossed_norm(GOLDEN_MEAN, sc.shift_element(GOLDEN_MEAN, -1), pts, per)
    huge = sc.ext(1, sc.constant_base(GOLDEN_MEAN, 1e308))
    with pytest.raises(sc.NonFinite):
        sc.semicrossed_norm(GOLDEN_MEAN, sc.element(GOLDEN_MEAN, {0: huge, 1: huge}), pts, per)
