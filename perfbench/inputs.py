"""Seeded inputs and one fixed batch of work for each benchmark workload.

The benchmark seed only shapes the inputs handed to the program: systems,
elements and budgets.  The program never sees the seed itself, except in
``verify-all``, whose input is the CLI's own ``--seed`` budget.

Each workload object has ``run_batch()`` returning ``(cpu_s, times, outputs,
reference)``: ``cpu_s`` is the batch's CPU time, ``times`` holds the CPU time
of each bracket in call order, ``outputs`` is a value compared exactly between
repeated and traced batches, and ``reference`` holds the CPU times of the
rounds of speed.py's reference kernel run during the batch, which ``cpu_s``
leaves out.  The norm workloads time every bracket they call and run a
reference round before each; ``verify-all`` times the brackets its checks
make and runs reference rounds before and after the CLI call, outside any
traced span.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

import speed

# A workload is one bracket per case, at the default budgets.
N_MAX = 256
GRID = 256

# (system name, cylinder depth) -> elements per batch, 32 in all.  Sorted by
# cost, the 18 cheap depth-2/6 brackets come first, with the six full-shift
# depth-2 ones (about 0.2 s) in the middle of the batch, so the median (the
# 16th and 17th fastest) lies inside that group.  The eleven golden-mean
# depth-10 brackets (about 0.37 s) come next, and the tail (the 11th
# slowest) is the 4th of them; beyond it lie seven more of them and the
# three dearest brackets (full shift depth 6, 3-symbol SFT depth 10).  Both
# percentiles thus sit inside a group of like cost, away from a boundary
# where two groups meet.
SFT_MIX = {
    ("goldenmean", 2): 4,
    ("goldenmean", 6): 4,
    ("goldenmean", 10): 11,
    ("sft3", 2): 4,
    ("sft3", 10): 1,
    ("full2", 2): 6,
    ("full2", 6): 2,
}
CIRCLE_FREQS = (3, 30, 300)
CIRCLE_POWERS = (1, 2, 3, 4)
CIRCLE_REPEATS = 2  # seeded elements per (frequency, max power) pair
TRIG_TERMS = 3
VERIFY_ROUNDS = 16  # reference rounds before and after the verify CLI call


@dataclass(frozen=True)
class Case:
    """One bracket: the program's inputs, plus the raw data they were built
    from, which the oracle reads instead of the program's own objects.

    ``space`` is ``("circle", k)`` or ``("sft", transition)``; ``coeffs`` maps
    each power to ``{frequency: c}`` (trig) or ``(depth, {word: c})``
    (cylinder).
    """

    label: str
    system: object
    element: object
    points: list
    periodic: list
    space: tuple
    coeffs: dict


def _trig(rng, freq, mass):
    """TRIG_TERMS random terms with top frequency +-freq and l1 mass ``mass``."""
    ks = {rng.choice((-freq, freq))}
    while len(ks) < TRIG_TERMS:
        ks.add(rng.randint(-freq, freq))
    raw = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in sorted(ks)}
    total = sum(abs(c) for c in raw.values())
    return {k: c * mass / total for k, c in raw.items()}


def _trig_element(sys_, rng, freq, max_power):
    from semicrossed import TrigPoly, element, ext

    raw = {n: _trig(rng, freq, 1.0 / (n + 1)) for n in range(max_power + 1)}
    return element(sys_, {n: ext(1, TrigPoly.from_coeffs(c)) for n, c in raw.items()}), raw


def _words(transition, length):
    """Admissible words of the given length, built from the matrix alone."""
    size = len(transition)
    words = [(a,) for a in range(size)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in range(size) if transition[w[-1]][b]]
    return words


def _cylinder_element(sys_, rng, depth):
    from semicrossed import CylinderFunction, element, ext

    words = _words(sys_.transition, depth)
    raw = {}
    for n in (0, 1):
        scale = 1.0 / (n + 1)
        raw[n] = (
            depth,
            {w: complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for w in words},
        )
    coeffs = {n: ext(1, CylinderFunction.from_values(d, vals)) for n, (d, vals) in raw.items()}
    return element(sys_, coeffs), raw


def sft_systems():
    """The three shifts of finite type of ``sft-norm``, by name."""
    from semicrossed import ShiftOfFiniteType, golden_mean_shift

    return {
        "goldenmean": golden_mean_shift(),
        "full2": ShiftOfFiniteType(((1, 1), (1, 1))),
        # irreducible and aperiodic, 653 admissible words of length 10
        "sft3": ShiftOfFiniteType(((1, 1, 0), (1, 0, 1), (1, 0, 0))),
    }


class NormWorkload:
    """One ``semicrossed_norm`` call per case."""

    def __init__(self, cases):
        self.cases = cases

    def run_batch(self):
        from semicrossed import norms

        times, outputs, reference = [], [], []
        start = time.process_time()
        for c in self.cases:
            reference.append(speed.round_s())
            t0 = time.process_time()
            try:
                est = norms.semicrossed_norm(c.system, c.element, c.points, c.periodic, N_MAX, GRID)
                out = (est.bracket.lower, est.bracket.upper, est.witness, est.bracket.upper_method)
            except Exception as exc:  # a raising bracket is a failed operation
                out = ("raised", type(exc).__name__, str(exc))
            times.append(time.process_time() - t0)
            outputs.append(out)
        return time.process_time() - start - sum(reference), times, outputs, reference


def build_circle(seed):
    from semicrossed import CircleTimesK, TrigPoly, checks, default_samples, from_base

    rng = random.Random(seed)
    cases = []
    for k in (2, 3):
        sys_ = CircleTimesK(k)
        pts, per = default_samples(sys_)

        def add(label, el, coeffs):
            cases.append(Case(f"k{k} {label}", sys_, el, pts, per, ("circle", k), coeffs))

        if k == 2:
            for freq in CIRCLE_FREQS:
                for p in CIRCLE_POWERS:
                    for i in range(CIRCLE_REPEATS):
                        add(f"f{freq} p{p} #{i}", *_trig_element(sys_, rng, freq, p))
            for name, el in checks._named_elements(sys_, seed):
                add(name, el, {n: f.base.as_dict() for n, f in el.coeffs})
            # the reproduction case of a known wrong upper bound: ||F|| >= 2 at 1/200
            one_minus = {0: 1.0, 100: -1.0}
            add("1-e(100x)", from_base(sys_, TrigPoly.from_coeffs(one_minus)), {0: one_minus})
        else:
            for freq in CIRCLE_FREQS:
                add(f"f{freq} p2", *_trig_element(sys_, rng, freq, 2))
    return NormWorkload(cases)


def build_sft(seed):
    from semicrossed import default_samples

    rng = random.Random(seed)
    systems = sft_systems()
    samples = {name: default_samples(s) for name, s in systems.items()}
    cases = []
    for (name, depth), count in SFT_MIX.items():
        sys_ = systems[name]
        pts, per = samples[name]
        for i in range(count):
            el, coeffs = _cylinder_element(sys_, rng, depth)
            cases.append(Case(f"{name} d{depth} #{i}", sys_, el, pts, per, ("sft", sys_.transition), coeffs))
    return NormWorkload(cases)


class VerifyWorkload:
    """``semicrossed --seed S --out F verify all``, run in process."""

    def __init__(self, seed, out_path):
        from semicrossed import cli

        self.cli = cli
        self.argv = ["--seed", str(seed), "--out", out_path, "verify", "all"]
        self.out_path = out_path

    def run_batch(self):
        """``outputs`` is ``(exit code, TSV text, error)``; an exception that
        escapes the CLI counts as exit 2, with its text in ``error``."""
        from semicrossed import checks, norms

        times = []
        # under the tracer this is its span, installed in both modules
        original = norms.semicrossed_norm

        def timed(*args, **kwargs):
            t0 = time.process_time()
            try:
                return original(*args, **kwargs)
            finally:
                times.append(time.process_time() - t0)

        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        reference = [speed.round_s() for _ in range(VERIFY_ROUNDS)]
        # the checks reach brackets through these two module globals
        checks.semicrossed_norm = norms.semicrossed_norm = timed
        error = None
        start = time.process_time()
        try:
            code = self.cli.main(list(self.argv))
        except Exception as exc:  # any escaping error fails every row
            code, error = 2, f"{type(exc).__name__}: {exc}"
        finally:
            cpu_s = time.process_time() - start
            checks.semicrossed_norm = norms.semicrossed_norm = original
        reference += [speed.round_s() for _ in range(VERIFY_ROUNDS)]
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        return cpu_s, times, (code, text, error), reference


def build(workload, seed, out_dir):
    if workload == "circle-norm":
        return build_circle(seed)
    if workload == "sft-norm":
        return build_sft(seed)
    if workload == "verify-all":
        return VerifyWorkload(seed, os.path.join(out_dir, f"verify-{os.getpid()}.tsv"))
    raise ValueError(f"unknown workload {workload!r}")
