import math

import numpy as np
import pytest

import semicrossed as sc
from helpers import ref_lane_norm, ref_norm_oracle
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
    # The cycles take the dense scan, which the reference loop repeats
    # exactly; the orbits take the bisection, one lane per call, and stay
    # within _bound of the dense reference.
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
