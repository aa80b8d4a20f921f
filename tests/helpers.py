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


def random_cylinder(transition, depth: int, seed: int):
    """Depth-d cylinder function with seeded complex values on every
    admissible word (words found by brute force, not by the package)."""
    from semicrossed import CylinderFunction

    rng = np.random.default_rng(seed)
    words = brute_admissible_words(transition, depth)
    vals = rng.uniform(-1, 1, size=(len(words), 2))
    return CylinderFunction.from_values(depth, {w: complex(a, b) for w, (a, b) in zip(words, vals)})


def cylinder_element(sys, depth: int, seed: int):
    """Powers 0 and 1 with depth-d cylinder coefficients, as the SFT benchmark builds them."""
    from semicrossed import element, ext

    return element(sys, {k: ext(1, random_cylinder(sys.transition, depth, seed + k)) for k in (0, 1)})


def doubling_orbit_fraction(x: Fraction, steps: int) -> list[Fraction]:
    out = [x % 1]
    for _ in range(steps - 1):
        out.append((out[-1] * 2) % 1)
    return out


def ref_classify(sys, x, max_steps: int = 4096):
    """``classify`` walking every point through ``apply_map`` and keying it by
    ``point_key``, the loop the package ran before it walked circle points as
    integer residues."""
    from semicrossed.systems import (
        Classification,
        WordPoint,
        apply_map,
        check_point,
        point_key,
    )

    check_point(sys, x)
    if isinstance(x, WordPoint):
        p = len(x.cycle)
        q = len(x.preperiod)
        return (
            Classification.periodic(p)
            if q == 0
            else Classification.eventually_periodic(q, p)
        )
    seen: dict = {}
    cur = x
    for i in range(max_steps + 1):
        key = point_key(cur)
        if key in seen:
            first = seen[key]
            period = i - first
            if first == 0:
                return Classification.periodic(period)
            return Classification.eventually_periodic(first, period)
        seen[key] = i
        cur = apply_map(sys, cur)
    return Classification.unresolved(max_steps)


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
        full = ref_orbit_matrix(sys, x, el, n_max)
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


# ---------------------------------------------------------------------------
# The matrix builders as they stood before the chain/cycle placement kernel:
# permutation-matrix powers, an inverse for negative powers, and one
# scatter per layout.  Kept verbatim (renamed with a ``ref_`` prefix) as the
# reference the package's builders must reproduce.


def _ref_cyclic_shift(p: int) -> np.ndarray:
    c = np.zeros((p, p), dtype=complex)
    for i in range(p):
        c[i, (i - 1) % p] = 1.0
    return c


def _ref_twisted_shift(p: int, lam: complex) -> np.ndarray:
    # lambda on the wraparound entry instead of a global scalar; unitarily
    # equivalent to lam^(1/p) scaling and used for the periodic-vector check
    c = _ref_cyclic_shift(p)
    c[0, p - 1] = lam
    return c


def _ref_scatter_bands(bands: np.ndarray, n: int) -> np.ndarray:
    """Leading n x n block of the lower-banded matrix with bands V[k, c] = M[c+k, c]."""
    out = np.zeros((n, n), dtype=complex)
    for k in range(min(bands.shape[0], n)):
        out[np.arange(k, n), np.arange(0, n - k)] = bands[k, : n - k]
    return out


def ref_orbit_bands(sys, x, el, n: int) -> np.ndarray:
    """``reps.orbit_bands`` as it stood before the batched orbit evaluator:
    a ``forward_orbit`` of points and one ``evaluate_base`` per cell."""
    from semicrossed.elements import require_semicrossed
    from semicrossed.functions import evaluate_base
    from semicrossed.systems import forward_orbit

    require_semicrossed(el)
    if n < 1:
        raise ValueError("size must be >= 1")
    orbit = forward_orbit(sys, x, n)
    out = np.zeros((el.max_power + 1, n), dtype=complex)
    for k, f in el.coeffs:
        if k >= n:
            continue
        out[k, : n - k] = [evaluate_base(sys, f.base, orbit[i]) for i in range(n - k)]
    return out


def ref_orbit_matrix(sys, x, el, n: int) -> np.ndarray:
    return _ref_scatter_bands(ref_orbit_bands(sys, x, el, n), n)


def _ref_assemble_periodic(shift_mat: np.ndarray, diag_values, p: int) -> np.ndarray:
    out = np.zeros((p, p), dtype=complex)
    powers: dict[int, np.ndarray] = {0: np.eye(p, dtype=complex)}

    def shift_pow(k: int) -> np.ndarray:
        if k not in powers:
            if k > 0:
                powers[k] = shift_pow(k - 1) @ shift_mat
            else:
                powers[k] = np.linalg.inv(shift_mat) @ shift_pow(k + 1)
        return powers[k]

    for k, vals in diag_values.items():
        out += shift_pow(k) @ np.diag(np.asarray(vals, dtype=complex))
    return out


def ref_periodic_matrix(sys, y, lam: complex, el) -> np.ndarray:
    from semicrossed.elements import require_semicrossed
    from semicrossed.errors import NotPeriodic
    from semicrossed.functions import evaluate_base
    from semicrossed.reps import _check_lambda
    from semicrossed.systems import classify, forward_orbit

    require_semicrossed(el)
    lam = _check_lambda(lam)
    cls = classify(sys, y)
    if not cls.is_periodic:
        raise NotPeriodic(f"point is {cls.kind}")
    p = cls.period
    orbit = forward_orbit(sys, y, p)
    shift_mat = lam * _ref_cyclic_shift(p)
    return _ref_assemble_periodic(
        shift_mat,
        {k: [evaluate_base(sys, f.base, pt) for pt in orbit] for k, f in el.coeffs},
        p,
    )


def ref_periodic_ext_matrix(sys, lift, lam: complex, el) -> np.ndarray:
    from semicrossed.extension import shift_power
    from semicrossed.functions import evaluate
    from semicrossed.reps import _check_lambda

    lam = _check_lambda(lam)
    p = lift.period
    pts = [shift_power(sys, lift, j) for j in range(p)]
    shift_mat = lam * _ref_cyclic_shift(p)
    return _ref_assemble_periodic(
        shift_mat,
        {k: [evaluate(sys, f, pt) for pt in pts] for k, f in el.coeffs},
        p,
    )


def ref_twisted_periodic_matrix(sys, y, lam: complex, el) -> np.ndarray:
    from semicrossed.elements import require_semicrossed
    from semicrossed.errors import NotPeriodic
    from semicrossed.functions import evaluate_base
    from semicrossed.reps import _check_lambda
    from semicrossed.systems import classify, forward_orbit

    require_semicrossed(el)
    lam = _check_lambda(lam)
    cls = classify(sys, y)
    if not cls.is_periodic:
        raise NotPeriodic(f"point is {cls.kind}")
    p = cls.period
    orbit = forward_orbit(sys, y, p)
    return _ref_assemble_periodic(
        _ref_twisted_shift(p, lam),
        {k: [evaluate_base(sys, f.base, pt) for pt in orbit] for k, f in el.coeffs},
        p,
    )


def ref_bilateral_matrix(sys, xt, el, half_width: int) -> np.ndarray:
    from semicrossed.errors import WindowTooSmall
    from semicrossed.extension import shift_power
    from semicrossed.functions import evaluate

    m = half_width
    band = max((abs(k) for k, _ in el.coeffs), default=0)
    if m < band:
        raise WindowTooSmall(f"half width {m} < band {band}")
    size = 2 * m + 1
    pts = [shift_power(sys, xt, j - m) for j in range(size)]
    out = np.zeros((size, size), dtype=complex)
    for k, f in el.coeffs:
        cols = np.arange(max(0, -k), min(size, size - k))
        rows = cols + k
        vals = [evaluate(sys, f, pts[j]) for j in cols]
        out[rows, cols] = vals
    return out


def ref_backward_matrix(sys, orbit_pt, g, n: int) -> np.ndarray:
    from semicrossed.elements import RightFormElement
    from semicrossed.errors import WrongForm
    from semicrossed.functions import evaluate_base

    if not isinstance(g, RightFormElement):
        raise WrongForm("backward-orbit representations take right-form elements")
    if any(k < 0 or f.depth != 1 for k, f in g.coeffs):
        raise WrongForm("right-form element must have nonnegative powers and depth-1 coefficients")
    if n < 1:
        raise ValueError("size must be >= 1")
    coords = [orbit_pt.coordinate(j) for j in range(1, n + 1)]
    out = np.zeros((n, n), dtype=complex)
    for k, f in g.coeffs:
        if k >= n:
            continue
        rows = np.arange(k, n)
        vals = [evaluate_base(sys, f.base, coords[i]) for i in rows]
        out[rows, rows - k] = vals
    return out


def ref_periodic_norm_estimate(sys, el, periodic_points, grid_size: int = 256):
    """``periodic_norm_estimate`` with its band stack built from powers of
    the cyclic permutation matrix."""
    import math

    from semicrossed.elements import l1_upper_bound, require_semicrossed
    from semicrossed.errors import NotPeriodic
    from semicrossed.functions import NormBracket, evaluate_base, ext_sup_norm
    from semicrossed.norms import NormEstimate, _point_label
    from semicrossed.systems import classify, forward_orbit

    require_semicrossed(el)
    if not periodic_points:
        raise ValueError("need at least one periodic sample")
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    lams = np.exp(2j * np.pi * np.arange(grid_size) / grid_size)
    lip = sum(abs(k) * ext_sup_norm(f).upper for k, f in el.coeffs)
    per_lambda = np.zeros(grid_size)
    best = 0.0
    witness = ""
    for y in periodic_points:
        cls = classify(sys, y)
        if not cls.is_periodic:
            raise NotPeriodic(f"sample {_point_label(y)} is {cls.kind}")
        p = cls.period
        orbit = forward_orbit(sys, y, p)
        cyc = _ref_cyclic_shift(p)
        # stack sum_k lam^k * C^k D_k over the lambda grid in one shot
        bands = []
        for k, f in el.coeffs:
            ck = np.linalg.matrix_power(cyc, k)
            dk = np.diag([evaluate_base(sys, f.base, pt) for pt in orbit])
            bands.append((k, ck @ dk))
        powers = np.stack([lams ** k for k, _ in bands], axis=1)  # (L, nbands)
        mats = np.einsum("lk,kij->lij", powers, np.stack([m for _, m in bands]))
        svals = np.linalg.svd(mats, compute_uv=False)[:, 0]
        per_lambda = np.maximum(per_lambda, svals)
        j = int(np.argmax(svals))
        if svals[j] > best:
            best = float(svals[j])
            witness = f"periodic y={_point_label(y)} angle={j}/{grid_size}"
    certified = best + lip * math.pi / grid_size
    upper = min(certified, l1_upper_bound(el))
    upper = max(upper, best)
    traces = tuple(
        (f"angle={j}/{grid_size}", float(per_lambda[j])) for j in range(grid_size)
    )
    return NormEstimate(
        NormBracket(best, upper, witness, "lambda grid + Lipschitz certificate"),
        traces,
        witness,
    )


# ---------------------------------------------------------------------------
# invariant coordinate subspaces by exhaustive search


def brute_invariant_subsets(mats, tol: float = 1e-12) -> set:
    """Every coordinate subset S with each matrix mapping span{e_i : i in S}
    into itself, found by testing all 2^n subsets (small n only)."""
    n = mats[0].shape[0]
    found = set()
    for mask in range(2**n):
        s = [i for i in range(n) if mask >> i & 1]
        comp = [i for i in range(n) if not mask >> i & 1]
        if not s or not comp or all(
            np.max(np.abs(m[np.ix_(comp, s)])) <= tol for m in mats
        ):
            found.add(frozenset(s))
    return found


def brute_tied_subsets(diags, n: int, tol: float = 1e-12) -> set:
    """Every subset S of range(n) with at least two points on which each n x n
    diagonal matrix is constant: no two entries in S differ by more than tol
    (so a NaN ties), found by testing all 2^n subsets (small n only)."""
    found = set()
    for mask in range(2**n):
        s = [i for i in range(n) if mask >> i & 1]
        if len(s) >= 2 and not any(
            (np.abs(d[s, s][:, None] - d[s, s][None, :]) > tol).any() for d in diags
        ):
            found.add(frozenset(s))
    return found
