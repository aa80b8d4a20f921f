"""Independent checks of the benchmark's outputs.

The bracket oracle shares no code with the estimator: it walks orbits in
integer arithmetic, evaluates coefficients from the raw data the benchmark
built them from, assembles the orbit truncation itself and takes the top
eigenvalue of its Gram matrix.  It calls neither ``reps`` nor ``norms``, and
it runs at seeded points that lie outside the estimator's sample.

Every orbit truncation norm is a lower bound for the operator norm, so an
upper end below the oracle by more than TOL is wrong.  The coefficient l1
sum is an upper bound, so a lower end above it by more than TOL is wrong.
"""

from __future__ import annotations

import math
import random

import numpy as np

TOL = 1e-9
ORACLE_N = 128
ORACLE_POINTS = 8
# ROADMAP reproduction point: the orbit truncation of 1 - e(100x) at 1/200
# has norm 2, above the upper end the estimator reports.
DOUBLING_EXTRA = ((1, 200),)
# Prime denominators above 63: the circle samples have denominators of at
# most 63 or divisible by k, so no oracle orbit point is a sample point.
PRIMES = [q for q in range(101, 998) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _circle_points(k, rng):
    """(residues p*k^i mod q, q) along the first ORACLE_N orbit points."""
    fracs = list(DOUBLING_EXTRA) if k == 2 else []
    target = len(fracs) + ORACLE_POINTS
    while len(fracs) < target:
        q = rng.choice(PRIMES)
        pq = (rng.randrange(1, q), q)
        if pq not in fracs:
            fracs.append(pq)
    out = []
    for p, q in fracs:
        nums = []
        for _ in range(ORACLE_N):
            nums.append(p)
            p = p * k % q
        out.append((np.array(nums, dtype=np.int64), q))
    return out


def _sft_points(transition, rng):
    """Eventually periodic words whose cycle has prime length 7 or 11, so no
    orbit point is among the estimator's periodic samples (period <= 6)."""
    size = len(transition)
    out = []
    while len(out) < ORACLE_POINTS:
        cyc = [rng.randrange(size)]
        for _ in range(rng.choice((7, 11)) - 1):
            cyc.append(rng.choice([b for b in range(size) if transition[cyc[-1]][b]]))
        if not transition[cyc[-1]][cyc[0]] or len(set(cyc)) == 1:
            continue
        pre = []
        nxt = cyc[0]
        for _ in range(rng.randint(3, 12)):
            nxt = rng.choice([a for a in range(size) if transition[a][nxt]])
            pre.insert(0, nxt)
        out.append((tuple(pre), tuple(cyc)))
    return out


def _values(data, point, n):
    """Values of one coefficient along the first n orbit points."""
    if isinstance(data, dict):  # trigonometric polynomial {frequency: c}
        nums, q = point
        freqs = np.array(list(data), dtype=np.int64)
        coefs = np.array(list(data.values()), dtype=complex)
        phase = np.mod(np.outer(freqs, nums[:n]), q) / q
        return coefs @ np.exp(2j * np.pi * phase)
    depth, table = data  # cylinder function (depth, {word: c})
    pre, cyc = point
    seq = list(pre) + list(cyc) * ((n + depth) // len(cyc) + 1)
    return np.array([table[tuple(seq[i : i + depth])] for i in range(n)], dtype=complex)


def _truncation_norm(coeffs, point, n):
    m = np.zeros((n, n), dtype=complex)
    for power, data in coeffs.items():
        if power < n:
            m[np.arange(power, n), np.arange(n - power)] = _values(data, point, n - power)
    top = float(np.linalg.eigvalsh(m.conj().T @ m)[-1])
    return math.sqrt(max(top, 0.0))


def _l1_sum(coeffs):
    total = 0.0
    for data in coeffs.values():
        if isinstance(data, dict):
            total += sum(abs(c) for c in data.values())
        else:
            total += max((abs(c) for c in data[1].values()), default=0.0)
    return total


class BracketOracle:
    """Per-case oracle bounds for a NormWorkload, computed once per run."""

    def __init__(self, workload, seed):
        rng = random.Random(seed * 7919 + 17)
        point_sets = {}
        self.bounds = []
        for case in workload.cases:
            if case.space not in point_sets:
                kind, param = case.space
                make = _circle_points if kind == "circle" else _sft_points
                point_sets[case.space] = make(param, rng)
            lower = max(_truncation_norm(case.coeffs, pt, ORACLE_N) for pt in point_sets[case.space])
            self.bounds.append((lower, _l1_sum(case.coeffs)))

    def failure(self, i, out):
        """Why bracket i is wrong, or None when it passes."""
        if out[0] == "raised":
            return f"raised {out[1]}: {out[2]}"
        lower, upper = out[0], out[1]
        oracle_lower, l1 = self.bounds[i]
        if not (math.isfinite(lower) and math.isfinite(upper)):
            return "non-finite bracket"
        if lower > upper:
            return f"lower {lower!r} > upper {upper!r}"
        if upper < oracle_lower - TOL:
            return f"upper {upper!r} < oracle {oracle_lower!r}"
        if lower > l1 + TOL:
            return f"lower {lower!r} > l1 sum {l1!r}"
        return None


def verify_rows(code, text):
    """(attempted, failed, failing rows) of a verify TSV.

    Exit code 2 is a hard error: every row counts as failed.
    """
    rows = [line.split("\t") for line in text.splitlines()[1:] if line]
    failing = [row for row in rows if len(row) != 4 or row[2] != "pass"]
    attempted = max(1, len(rows))
    if code == 2 or not rows:
        return attempted, attempted, failing
    return attempted, len(failing), failing
