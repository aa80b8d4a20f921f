"""Acceptance criteria, one test per criterion.

Each test runs the corresponding verification check at default budgets and
prints a single pass/fail line; run with ``pytest -s`` to see them inline.
"""

import pytest

import semicrossed as sc

_CACHE: dict[str, object] = {}


def run(name: str):
    if name not in _CACHE:
        _CACHE[name] = sc.ALL_CHECKS[name](sc.Budgets())
    return _CACHE[name]


def report(criterion: int, title: str, reports) -> None:
    if not isinstance(reports, (list, tuple)):
        reports = [reports]
    rows = [row for rep in reports for row in rep.rows]
    bad = [row for row in rows if not row.passed]
    status = "PASS" if not bad else "FAIL"
    print(f"[criterion {criterion:2d}] {title}: {status} ({len(rows)} cases)")
    if bad:
        detail = "; ".join(f"{r.name}: {r.detail}" for r in bad[:3])
        pytest.fail(f"criterion {criterion}: {len(bad)} failing cases: {detail}")


def test_criterion_01_covariance_relations():
    # 200 randomized cases over all system kinds and all four layouts;
    # exact zero defect on symbolic systems, <= 1e-12 on the circle
    report(1, "covariance relations in all layouts", run("covariance"))


def test_criterion_02_periodic_lift_classification():
    # every periodic rational lifts to a periodic extension point with the
    # same period; no lift of 1/2 ever classifies periodic at depth 128
    report(2, "periodic lifts classify correctly", run("periodic-lift"))


def test_criterion_03_property_transfer():
    # all 0/1 transition matrices on up to 3 letters: the four structure
    # properties agree between the one-sided shift and its extension
    report(3, "dynamical properties transfer", run("transfer"))


def test_criterion_04_compression_monotonicity():
    # orbit truncations are compressions: norms nondecreasing in n and
    # dominated by the l1 coefficient bound
    report(4, "truncation norms are monotone", run("compression"))


def test_criterion_05_norm_brackets():
    # bracket width <= 5e-2 at default budgets, independent brute-force
    # oracle inside every bracket, and the flagship 1+U case pins [2, 2+1e-6]
    # with a periodic witness
    report(5, "norm brackets are tight and correct", run("norm-families"))


def test_criterion_06_periodic_vector_deficit():
    # embedded periodic vectors nearly attain the twisted norm at N=64 and
    # the deficit halves (ratio within [0.4, 0.6]) at N=128
    report(6, "periodic vectors nearly attain the norm", run("periodic-vector"))


def test_criterion_07_bilateral_orbit_gap():
    # two-sided windows land within 1e-2 of the orbit supremum at M=128
    # and the gap shrinks with the window
    report(7, "bilateral windows meet orbit suprema", run("bilateral-orbit"))


def test_criterion_08_shift_endomorphism():
    # conjugation by the shift acts coefficientwise as composition and
    # matches the interior compression identity
    report(8, "shift endomorphism acts as expected", run("endomorphism"))


def test_criterion_09_pushdown_and_embedding():
    # multiplying by shift powers rewrites deep crossed elements into
    # semicrossed form preserving representation norms, and the one-sided
    # and two-sided norm brackets overlap
    report(9, "pushdown and embedding agree", [run("pushdown"), run("embedding")])


def test_criterion_10_invariant_tails():
    # the separating functions separate the first n orbit points, so the
    # invariant subspaces of the orbit representations are the tail nest
    report(10, "invariant subspaces are the tails", run("nest-tails"))
