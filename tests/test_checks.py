import math

import numpy as np
import pytest

import semicrossed as sc
from helpers import ref_lane_norm, ref_norm_oracle, ref_oracle_periodic_scan
from semicrossed import checks

N = checks._ORACLE_N


def _oracle_inputs(seed: int):
    sys = sc.doubling_map()
    pts, per = sc.default_samples(sys, sc.Budgets(seed=seed))
    return sys, sorted(pts, key=sc.point_key)[:24], per


def _bound(b: int, n: int) -> float:
    """Relative error allowed between the bisection's ||M|| and a reference.

    The bisection stops at a relative width 2^-46, and its pivot test at
    sigma is exact for some H + E with ||E|| <= 8 (2b + 1)(b + 2) u
    max(sigma, lambda), u = 2^-53.  The dense reference forms M^H M with at
    most b + 1 nonzero products per entry, and eigvalsh's backward error is
    taken as n u ||H||.  Each term bounds a relative error of
    lambda = ||M||^2, twice that of ||M||; the other half covers the
    second-order terms and the rounding of the closed forms.
    """
    u = 2.0**-53
    return 2.0**-46 + 8 * (2 * b + 1) * (b + 2) * u + (n + 2 * b + 2) * u


def _random_lane(rng, b: int, n: int):
    """Values at power b and at a random subset of the lower powers, each
    power below n; a coefficient is real or complex at random."""
    powers = [k for k in range(b) if rng.random() < 0.5] + [b]
    return [
        (k, rng.normal(size=n - k) + 1j * rng.normal(size=n - k) * rng.integers(0, 2))
        for k in powers
        if k < n
    ]


def test_oracle_puts_one_lane_into_the_bisection_for_identical_orbits(monkeypatch):
    # U reads 1 along every orbit: 24 equal lanes, and no dense eigvalsh
    sys, pts, _ = _oracle_inputs(7)
    batches, eigs = [], []
    norms = checks._oracle_orbit_norms
    monkeypatch.setattr(checks, "_oracle_orbit_norms", lambda lanes, n: batches.append(len(lanes)) or norms(lanes, n))
    monkeypatch.setattr(checks.np.linalg, "eigvalsh", lambda h: eigs.append(h.shape))
    assert checks._norm_oracles(sys, [sc.shift_element(sys)], pts, [], 256) == [pytest.approx(1.0)]
    assert batches == [1]
    assert eigs == []


def test_oracle_walks_each_orbit_once_per_check(monkeypatch):
    sys, pts, per = _oracle_inputs(7)
    walks = []
    orbit = checks.forward_orbit
    monkeypatch.setattr(checks, "forward_orbit", lambda s, x, n: walks.append(n) or orbit(s, x, n))
    els = [el for _, el in checks._named_elements(sys, 7)]
    checks._norm_oracles(sys, els, pts[:3], per[:3], 8)
    assert walks == [N] * 3 + [sc.classify(sys, y).period for y in per[:3]]


def test_oracle_evaluates_each_coefficient_point_pair_once(monkeypatch):
    sys, pts, per = _oracle_inputs(7)
    els = [el for _, el in checks._named_elements(sys, 7)]
    want = checks._norm_oracles(sys, els, pts[:3], per[:3], 8)
    calls = []
    evaluate = checks.evaluate_base
    monkeypatch.setattr(
        checks, "evaluate_base", lambda s, g, x: calls.append((g, sc.point_key(x))) or evaluate(s, g, x)
    )
    assert checks._norm_oracles(sys, els, pts[:3], per[:3], 8) == want
    assert len(calls) == len(set(calls))
    walks = [sc.forward_orbit(sys, x, N) for x in pts[:3]] + [
        sc.forward_orbit(sys, y, sc.classify(sys, y).period) for y in per[:3]
    ]
    bases = {f.base for el in els for _, f in el.coeffs}
    assert set(calls) == {(g, sc.point_key(x)) for g in bases for w in walks for x in w}


def _orbit_oracle_per_point(sys, el, points) -> float:
    best = 0.0
    for x in points:
        vals = checks._oracle_values(sys, el, sc.forward_orbit(sys, x, N), trim=True)
        best = max(best, checks._oracle_orbit_norms([vals], N)[0])
    return best


@pytest.mark.parametrize("seed", [4, 7])
def test_oracle_memo_matches_the_loop_per_point(seed):
    # three orbit points and a 16-angle grid keep the per-point loops cheap;
    # U and 1 + U still share their orbit values across the three points.
    # The cycles take the Floquet-phase scan, which builds the reference
    # loop's own Gram matrices at its best-key angles only and reads the same
    # maximum here; the orbits take the bisection, one lane per call, and
    # stay within _bound of the dense reference.
    sys, pts, per = _oracle_inputs(seed)
    named = checks._named_elements(sys, seed)
    els = [el for _, el in named]
    orbit = checks._norm_oracles(sys, els, pts[:3], [], 16)
    assert orbit == [_orbit_oracle_per_point(sys, el, pts[:3]) for el in els]
    got = checks._norm_oracles(sys, els, pts[:3], per, 16)
    assert got == [max(o, ref_norm_oracle(sys, el, [], per, 16)) for o, el in zip(orbit, els)]
    for el, norm in zip(els, orbit):
        ref = ref_norm_oracle(sys, el, pts[:3], [], 16)
        assert norm == pytest.approx(ref, rel=_bound(el.max_power, N), abs=0)


def test_bisection_closed_forms():
    # 1 + U: M^H M is tridiagonal (2, ..., 2, 1; 1) with top eigenvalue
    # 4 cos^2(pi / (2n + 1)); U is the shift, of norm 1
    ones = np.ones(N, dtype=complex)
    lanes = {
        "1+U": ([(0, ones), (1, ones[1:])], 2 * math.cos(math.pi / (2 * N + 1))),
        "U": ([(1, ones[1:])], 1.0),
        "0": ([(0, 0 * ones)], 0.0),
        "0 band 1": ([(0, 0 * ones), (1, 0 * ones[1:])], 0.0),
    }
    batch = checks._oracle_orbit_norms([vals for vals, _ in lanes.values()], N)
    for (vals, want), got in zip(lanes.values(), batch):
        assert checks._oracle_orbit_norms([vals], N) == [got]
        assert got == pytest.approx(want, rel=_bound(1, N), abs=0)
    assert batch[2:] == [0.0, 0.0]
    assert checks._oracle_orbit_norms([], N) == []


@pytest.mark.parametrize("n", [1, 2, 5, 40, N])
def test_bisection_matches_dense_eigvalsh_on_random_bands(n):
    rng = np.random.default_rng(n)
    per_band = 1 if n == N else 3  # the dense reference dominates at N
    lanes = [_random_lane(rng, b, n) for b in range(min(n, 4)) for _ in range(per_band)]
    batch = checks._oracle_orbit_norms(lanes, n)
    for vals, got in zip(lanes, batch):
        b = max(k for k, _ in vals)
        assert checks._oracle_orbit_norms([vals], n) == [got]  # padding moves nothing
        assert got == pytest.approx(ref_lane_norm(vals, n), rel=_bound(b, n), abs=0)


def test_bisection_commutes_with_power_of_two_scaling():
    rng = np.random.default_rng(3)
    vals = _random_lane(rng, 2, 64)
    (base,) = checks._oracle_orbit_norms([vals], 64)
    for e in (-600, -1, 1, 600):  # 2^600 squared overflows a dense Gram
        scaled = [(k, np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e)) for k, v in vals]
        assert checks._oracle_orbit_norms([scaled], 64) == [math.ldexp(base, e)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_bisection_rejects_non_finite_lanes(monkeypatch, bad):
    tested = []
    pivots = checks._pivots_positive
    monkeypatch.setattr(checks, "_pivots_positive", lambda *a: tested.append(1) or pivots(*a))
    ones = np.ones(N, dtype=complex)
    v = ones[1:].copy()
    v[200] = bad
    with pytest.raises(sc.NonFinite):
        checks._oracle_orbit_norms([[(0, ones)], [(0, ones), (1, v)]], N)
    assert tested == []


def test_bisection_checks_its_start(monkeypatch):
    # a start below ||U||^2 = 1 must fail its pivot test, never bisect
    monkeypatch.setattr(checks, "_BISECT_HEADROOM", -0.5)
    with pytest.raises(ArithmeticError):
        checks._oracle_orbit_norms([[(1, np.ones(N - 1, dtype=complex))]], N)


def _scan_bound(p: int) -> float:
    """Relative error allowed between the Floquet-phase scan and the dense
    scan of one cycle of period p.

    Both return a largest computed ||P(lambda)|| over their angles.  At one
    angle the computed ||P||^2 is within a relative (p + 6) u of the exact
    one, u = 2^-53: eigvalsh's backward error is taken as p u ||G||, each
    Gram entry sums at most two products (4 u), and lambda carries 2 u.  The
    exact maximum over the dense scan's angles lies among the keys the phase
    scan evaluates, or the norm is flat to rounding across them, so the two
    maxima of squared norms differ by at most twice that, the norms by half.
    """
    return (p + 6) * 2.0**-53


def _cycle_lane(rng, p: int, powers, complex_values: bool):
    return [(k, rng.normal(size=p) + 1j * rng.normal(size=p) * complex_values) for k in powers]


def _count_eigvalsh(monkeypatch) -> list[int]:
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(checks.np.linalg, "eigvalsh", lambda h: sizes.append(len(h)) or eigvalsh(h))
    return sizes


@pytest.mark.parametrize("grid", [8, 16, 256])
def test_phase_scan_matches_dense_scan_on_random_cells(grid):
    rng = np.random.default_rng(grid)
    for p in range(1, 41):
        for powers in ([p % 2], [0, 1]):
            vals = _cycle_lane(rng, p, powers, bool(rng.integers(2)))
            got = checks._oracle_periodic_scan(vals, p, grid)
            assert got == pytest.approx(ref_oracle_periodic_scan(vals, p, grid), rel=_scan_bound(p), abs=0)


@pytest.mark.parametrize("p", [1, 2, 3, 7, 12, 36])
def test_phase_scan_closed_forms(p):
    ones = np.ones(p, dtype=complex)
    # 1 + U: lambda = 1 is on every grid, and there P = 1 + Z has norm 2
    got = checks._oracle_periodic_scan([(0, ones), (1, ones)], p, 16)
    if p <= 2:
        assert got == 2.0  # |1 + 1| and the 2 x 2 Gram ((2, 2), (2, 2)) are exact
    assert got == pytest.approx(2.0, rel=_scan_bound(p), abs=0)
    assert checks._oracle_periodic_scan([(1, ones)], p, 16) == 1.0  # U
    # a zero in v_0 zeroes the loop product: one norm for every lambda
    rng = np.random.default_rng(p)
    vals = _cycle_lane(rng, p, [0, 1], True)
    vals[0][1][p // 2] = 0.0
    got = checks._oracle_periodic_scan(vals, p, 16)
    assert got == pytest.approx(ref_oracle_periodic_scan(vals, p, 16), rel=_scan_bound(p), abs=0)
    for lam in np.exp(2j * np.pi * rng.random(4)):
        mat = np.diag(vals[0][1]) + lam * np.roll(np.diag(vals[1][1]), 1, axis=0)
        assert np.linalg.norm(mat, 2) == pytest.approx(got, rel=_scan_bound(p), abs=0)


def _mu_ties(p: int, grid: int, steps) -> int:
    """How many of the angles (j* + s / 100) / grid, s in ``steps``, share
    lambda^p with the angle at s = 0."""
    return sum(p * s % (100 * grid) == 0 for s in steps)


@pytest.mark.parametrize("p", [1, 2, 4, 7, 8, 12, 13, 36])
@pytest.mark.parametrize("grid", [8, 16, 256])
def test_phase_scan_takes_two_matrices_plus_ties(monkeypatch, p, grid):
    # each grid set takes one eigvalsh of its best-key angles: those that
    # share lambda^p with the best one, and no others on these lanes
    sizes = _count_eigvalsh(monkeypatch)
    coarse = _mu_ties(p, grid, range(0, 100 * grid, 100))  # = gcd(p, grid)
    fine = _mu_ties(p, grid, range(-100, 101))
    ones = np.ones(p, dtype=complex)
    checks._oracle_periodic_scan([(0, ones), (1, ones)], p, grid)  # 1 + U: best key at lambda^p = 1
    assert sizes == [coarse, fine]
    rng = np.random.default_rng(p)
    flat = [[(1, ones)], [(0, ones)], _cycle_lane(rng, p, [0, 1], True)]
    flat[2][1][1][0] = 0.0
    for vals in flat:  # pi = 0: the first angle of each set
        sizes.clear()
        checks._oracle_periodic_scan(vals, p, grid)
        assert sizes == [1, 1]
    if math.gcd(p, 10) == 1 and math.gcd(p, grid) == 1:
        # generic phase, every angle its own lambda^p: two matrices
        sizes.clear()
        checks._oracle_periodic_scan(_cycle_lane(rng, p, [0, 1], True), p, grid)
        assert sizes == [1, 1]


def test_norm_families_takes_two_eigvalsh_per_distinct_cycle(monkeypatch):
    sys, _, per = _oracle_inputs(7)
    scans = []
    scan = checks._oracle_periodic_scan
    monkeypatch.setattr(checks, "_oracle_periodic_scan", lambda v, p, g: scans.append(p) or scan(v, p, g))
    sizes = _count_eigvalsh(monkeypatch)
    assert all(el.max_power <= 1 for _, el in checks._named_elements(sys, 7))
    checks._norm_oracles(sys, [el for _, el in checks._named_elements(sys, 7)], [], per, 256)
    assert len(sizes) == 2 * len(scans) > 0
    assert sum(sizes) <= sum(2 * math.gcd(p, 256) for p in scans)


@pytest.mark.parametrize(
    "vals,err,match",
    [
        ([(0, np.ones(3)), (2, np.ones(3))], ValueError, "band 2"),
        ([(1, np.array([1.0, np.nan, 1.0]))], sc.NonFinite, "not finite"),
        ([(0, np.array([1.0, np.inf, 1.0])), (1, np.ones(3))], sc.NonFinite, "not finite"),
    ],
)
def test_phase_scan_rejects(monkeypatch, vals, err, match):
    sizes = _count_eigvalsh(monkeypatch)
    with pytest.raises(err, match=match):
        checks._oracle_periodic_scan(vals, 3, 16)
    assert sizes == []
