import numpy as np
import pytest

import semicrossed as sc
from helpers import ref_norm_oracle
from semicrossed import checks


def _oracle_inputs(seed: int):
    sys = sc.doubling_map()
    pts, per = sc.default_samples(sys, sc.Budgets(seed=seed))
    return sys, sorted(pts, key=sc.point_key)[:24], per


def test_oracle_takes_one_eigvalsh_for_identical_orbits(monkeypatch):
    # U reads 1 along every orbit: 24 equal 512 x 512 Gram matrices
    sys, pts, _ = _oracle_inputs(7)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(checks.np.linalg, "eigvalsh", lambda h: calls.append(h.shape) or eigvalsh(h))
    assert checks._norm_oracles(sys, [sc.shift_element(sys)], pts, [], 256) == [pytest.approx(1.0)]
    assert calls == [(512, 512)]


def test_oracle_walks_each_orbit_once_per_check(monkeypatch):
    sys, pts, per = _oracle_inputs(7)
    walks = []
    orbit = checks.forward_orbit
    monkeypatch.setattr(checks, "forward_orbit", lambda s, x, n: walks.append(n) or orbit(s, x, n))
    els = [el for _, el in checks._named_elements(sys, 7)]
    checks._norm_oracles(sys, els, pts[:3], per[:3], 8)
    assert walks == [checks._ORACLE_N] * 3 + [sc.classify(sys, y).period for y in per[:3]]


@pytest.mark.parametrize("seed", [4, 7])
def test_oracle_memo_matches_the_loop_per_point(seed):
    # three orbit points and a 16-angle grid keep the per-point loop cheap;
    # U and 1 + U still share their orbit values across the three points
    sys, pts, per = _oracle_inputs(seed)
    named = checks._named_elements(sys, seed)
    got = checks._norm_oracles(sys, [el for _, el in named], pts[:3], per, 16)
    assert got == [ref_norm_oracle(sys, el, pts[:3], per, 16) for _, el in named]
