"""Independent oracles used by the tests.

Everything here recomputes quantities with a different algorithm than the
package uses, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np


def power_iteration_norm(mat: np.ndarray, iters: int = 4000) -> float:
    """Largest singular value via power iteration on A*A.

    Deterministic start vector; returns a certified-from-below estimate
    that is accurate to ~1e-10 for the small well-separated matrices the
    tests feed it.
    """
    a = np.asarray(mat, dtype=complex)
    if a.size == 0:
        return 0.0
    n = a.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    v += np.linspace(0.0, 1e-3, n)
    v /= np.linalg.norm(v)
    g = a.conj().T @ a
    prev = 0.0
    for _ in range(iters):
        w = g @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= 1e-15 * max(norm, 1.0):
            prev = norm
            break
        prev = norm
    return float(np.sqrt(prev))


def dense_trig_sup(coeffs: dict[int, complex], samples: int = 100_000) -> float:
    """Max of |sum c_k e^(2 pi i k x)| over a dense uniform grid."""
    x = np.arange(samples) / samples
    total = np.zeros(samples, dtype=complex)
    for k, c in coeffs.items():
        total += c * np.exp(2j * np.pi * k * x)
    return float(np.max(np.abs(total)))


def brute_admissible_words(transition, length: int) -> list[tuple[int, ...]]:
    """All admissible words by filtering the full product alphabet^length."""
    n = len(transition)
    out = []
    for w in itertools.product(range(n), repeat=length):
        if all(transition[w[i]][w[i + 1]] for i in range(length - 1)):
            out.append(w)
    return out


def _cycles_through(transition, start: int, limit: int) -> bool:
    n = len(transition)
    frontier = {start}
    for _ in range(limit):
        frontier = {b for a in frontier for b in range(n) if transition[a][b]}
        if start in frontier:
            return True
    return False


def brute_sft_properties(transition) -> dict[str, bool]:
    """Word-level recomputation of the four structure properties.

    transitive: for every ordered state pair some admissible word runs from
    the one to the other.  dense_periodic / dense_recurrent: every admissible
    word (up to a covering length) extends to one that returns to its first
    state.  minimal: the only admissible words are the ones walking a single
    cycle covering every state.
    """
    n = len(transition)
    limit = n * n + 2

    def connects(a: int, b: int) -> bool:
        frontier = {a}
        for _ in range(limit):
            if b in frontier:
                return True
            frontier = {t for s in frontier for t in range(n) if transition[s][t]}
        return b in frontier

    transitive = all(connects(a, b) for a in range(n) for b in range(n))

    # a word extends back to its start iff its last state cycles to its first
    dense = True
    for w in brute_admissible_words(transition, min(n + 1, 4)):
        frontier = {w[-1]}
        ok = False
        for _ in range(limit):
            if w[0] in frontier:
                ok = True
                break
            frontier = {t for s in frontier for t in range(n) if transition[s][t]}
        if not ok:
            dense = False
            break

    out_degree_one = all(sum(row) == 1 for row in transition)
    in_degree_one = all(sum(transition[i][j] for i in range(n)) == 1 for j in range(n))
    minimal = False
    if out_degree_one and in_degree_one:
        seen = set()
        v = 0
        while v not in seen:
            seen.add(v)
            v = transition[v].index(1)
        minimal = len(seen) == n

    return {
        "transitive": transitive,
        "dense_periodic": dense,
        "minimal": minimal,
        "dense_recurrent": dense,
    }


def nonzero_transitions(size: int):
    """All 0/1 matrices of the given size with no zero row or column."""
    cells = size * size
    for bits in range(1, 1 << cells):
        mat = tuple(
            tuple((bits >> (r * size + c)) & 1 for c in range(size)) for r in range(size)
        )
        if any(sum(row) == 0 for row in mat):
            continue
        if any(sum(mat[r][c] for r in range(size)) == 0 for c in range(size)):
            continue
        yield mat


def doubling_orbit_fraction(x: Fraction, steps: int) -> list[Fraction]:
    out = [x % 1]
    for _ in range(steps - 1):
        out.append((out[-1] * 2) % 1)
    return out


def dense_orbit_norm_estimate(sys, el, points, n_max: int = 256):
    """The orbit ladder with a dense SVD at every (point, size) cell.

    The loop ``orbit_norm_estimate`` ran before it learned to skip cells that
    cannot move the bracket; kept as the reference its output must equal
    exactly.
    """
    from semicrossed.elements import l1_upper_bound, require_semicrossed
    from semicrossed.errors import WindowTooSmall
    from semicrossed.functions import NormBracket
    from semicrossed.norms import NormEstimate, _ladder, _point_label, spectral_norm
    from semicrossed.reps import orbit_matrix

    require_semicrossed(el)
    if not points:
        raise ValueError("need at least one sample point")
    band = el.max_power
    if n_max < band + 1:
        raise WindowTooSmall(f"n_max must be at least the band width {band + 1}")
    sizes = _ladder(n_max)
    best = 0.0
    witness = ""
    by_size = {n: 0.0 for n in sizes}
    for x in points:
        full = orbit_matrix(sys, x, el, n_max)
        for n in sizes:
            val = spectral_norm(full[:n, :n])
            if val > by_size[n]:
                by_size[n] = val
            if val > best:
                best = val
                witness = f"orbit x={_point_label(x)} n={n}"
    running = 0.0
    traces = []
    for n in sizes:
        running = max(running, by_size[n])
        traces.append((f"n={n}", running))
    upper = max(l1_upper_bound(el), best)
    return NormEstimate(
        NormBracket(best, upper, witness, "coefficient l1 sum"),
        tuple(traces),
        witness,
    )
