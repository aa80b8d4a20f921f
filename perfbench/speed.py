"""How fast the machine runs right now, from a fixed reference kernel.

On a shared host the CPU time of the same work drifts by 10 to 20% over
minutes, as other tenants load the physical cores: on the baseline machine,
ten runs of ``circle-norm`` in a row read 33.4 to 39.5 s of CPU time.  Over
five minutes of one bracket alternating with this kernel, the two CPU times
rose and fell together (correlation 0.69).  So each batch runs rounds of the
kernel, which shares no code with the program, between its timed parts, and
run.py divides every reported time by ``factor()``: the kernel's median CPU
time in the run over its CPU time on the baseline machine.  The reported
times are thus CPU seconds at the baseline machine's speed; a change to the
program moves them, while the kernel stays the same.

The kernel mixes the two kinds of work the program does: exact ``Fraction``
orbit steps and dict stores in the interpreter, and LAPACK singular values
of a complex matrix through numpy.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy

REFERENCE_S = 0.0525  # median CPU time of one round on the baseline machine

_rng = numpy.random.default_rng(0)
_MATRIX = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def round_s():
    """Run one round of the reference kernel and return its CPU time."""
    t0 = time.process_time()
    for _ in range(5):
        x, seen = Fraction(1, 997), {}
        for i in range(4000):
            x = (3 * x) % 1
            seen[x] = i
    for _ in range(10):
        numpy.linalg.svd(_MATRIX, compute_uv=False)
    return time.process_time() - t0


def factor(samples):
    """The machine's slowness during a run, relative to the baseline machine."""
    return statistics.median(samples) / REFERENCE_S
