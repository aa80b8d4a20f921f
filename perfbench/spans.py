"""Layer tracing from outside the program.

``Tracer.install()`` replaces every public function of each layer module of
``semicrossed`` with a wrapper that records a span, in every module that
holds a reference to it, plus the two ``coordinate`` methods of extended
points, the entries of the verify registry, and the ``numpy.linalg``
reductions that ``norms``, ``checks`` and ``reps`` reach through their
``np`` global.  ``uninstall()`` puts the originals back.

Spans are aggregated as they close instead of being stored, because a
single batch opens millions of them: per layer the self time (a span's
duration minus the part its child spans cover), per function the call count
and inclusive time, and a few work counters read from arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy

LAYERS = ("systems", "functions", "reps", "norms", "extension", "elements", "corpus", "checks")
PATCHED_MODULES = LAYERS + ("cli",)
SPECTRAL_USERS = ("norms", "checks", "reps")
CHECK_TOKENS = (
    "covariance",
    "periodic-lift",
    "transfer",
    "compression",
    "norm-families",
    "periodic-vector",
    "bilateral-orbit",
    "endomorphism",
    "pushdown",
    "embedding",
    "nest-tails",
)
EVAL_KINDS = {"TrigPoly": "trig", "CylinderFunction": "cyl", "TabularFunction": "tab"}
ELEMENT_OPS = ("multiply", "adjoint", "times_shift_power", "compose_shift_element")
PERIODIC_BUILDERS = ("reps.periodic_matrix", "reps.periodic_ext_matrix", "norms.twisted_periodic_matrix")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _svd_class(size):
    for bound in (16, 64, 256):
        if size <= bound:
            return f"le{bound}"
    return "gt256"


class Tracer:
    def __init__(self):
        self.stack = []
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.widths = []
        self._undo = []
        self._registry = None

    # -- spans -------------------------------------------------------------

    def span(self, layer, key, fn, hook=None):
        stack, self_s, incl_s, calls = self.stack, self.self_s, self.incl_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += d
                self_s[layer] += d - frame[0]
                incl_s[key] += d
                calls[key] += 1
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    # -- work counters read from arguments and results ---------------------

    def _hooks(self):
        work = self.work

        def orbit_points(args, kwargs, out):
            work["systems.forward_orbit.points"] += _arg(args, kwargs, 2, "n")

        def eval_kind(args, kwargs, out):
            kind = EVAL_KINDS.get(type(_arg(args, kwargs, 1, "g")).__name__, "other")
            work[f"functions.evaluate_base.calls.{kind}"] += 1

        def orbit_cells(args, kwargs, out):
            work["reps.orbit_matrix.cells"] += _arg(args, kwargs, 3, "n") ** 2

        def subsets(args, kwargs, out):
            work["reps.invariant_subspaces_are_tails.subsets"] += 2 ** _arg(args, kwargs, 3, "n")

        def lambda_points(args, kwargs, out):
            grid = _arg(args, kwargs, 3, "grid_size", 256)
            work["norms.lambda_points"] += grid * len(_arg(args, kwargs, 2, "periodic_points"))

        def widths(args, kwargs, out):
            self.widths.append(out.bracket.width)

        def samples(args, kwargs, out):
            work["corpus.sample_points"] += len(out[0]) + len(out[1])

        return {
            "systems.forward_orbit": orbit_points,
            "functions.evaluate_base": eval_kind,
            "reps.orbit_matrix": orbit_cells,
            "reps.invariant_subspaces_are_tails": subsets,
            "norms.periodic_norm_estimate": lambda_points,
            "norms.semicrossed_norm": widths,
            "corpus.default_samples": samples,
        }

    def _spectral_hooks(self):
        """(svd hook, matrix 2-norm hook, eigvalsh hook)."""
        work = self.work

        def count_svd(a, uv):
            m, n = a.shape[-2:]
            batch = a.size // (m * n) if m * n else 0
            work[f"spectral.svd.calls.{_svd_class(max(m, n))}"] += 1
            if a.ndim > 2:
                work["spectral.svd.batched_mats"] += batch
            big, small = max(m, n), min(m, n)
            # Golub-Van Loan flop counts, times 4 for complex arithmetic
            if uv:
                flops = 4 * big**2 * small + 8 * big * small**2 + 9 * small**3
            else:
                flops = 4 * big * small**2 - 4 * small**3 / 3
            work["spectral.flops_computed"] += batch * flops * (4 if numpy.iscomplexobj(a) else 1)

        def svd(args, kwargs, out):
            count_svd(numpy.asarray(args[0]), _arg(args, kwargs, 2, "compute_uv", True))

        def norm2(args, kwargs, out):
            count_svd(numpy.asarray(args[0]), False)

        def eigvalsh(args, kwargs, out):
            a = numpy.asarray(args[0])
            n = a.shape[-1]
            batch = a.size // (n * n) if n else 0
            work["spectral.eigvalsh.calls"] += 1
            work["spectral.flops_computed"] += batch * 4 * n**3 / 3 * (4 if numpy.iscomplexobj(a) else 1)

        return svd, norm2, eigvalsh

    # -- installation ------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        mods = {name: importlib.import_module(f"semicrossed.{name}") for name in PATCHED_MODULES}
        mods["semicrossed"] = importlib.import_module("semicrossed")
        hooks = self._hooks()
        wrapped = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                key = f"{layer}.{name}"
                wrapped[obj] = self.span(layer, key, obj, hooks.get(key))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])

        ext = mods["extension"]
        for cls in (ext.PeriodicLift, ext.LazyLift):
            self._set(cls, "coordinate", self.span("extension", "extension.coordinate", cls.coordinate))

        registry = mods["checks"].ALL_CHECKS
        self._registry = (registry, dict(registry))
        for token, fn in list(registry.items()):
            def rows_failed(args, kwargs, out, token=token):
                self.work[f"checks.{token}.rows_failed"] += len(out.failures)

            registry[token] = self.span("checks", f"checks.{token}", fn, rows_failed)

        proxy = _NumpyProxy(self)
        for name in SPECTRAL_USERS:
            self._set(mods[name], "np", proxy)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        if self._registry is not None:
            registry, saved = self._registry
            registry.update(saved)
            self._registry = None

    # -- results -----------------------------------------------------------

    def metrics(self):
        c, w, incl, s = self.calls, self.work, self.incl_s, self.self_s
        out = {
            "systems.apply_map.calls": c["systems.apply_map"],
            "systems.forward_orbit.calls": c["systems.forward_orbit"],
            "systems.forward_orbit.points": w["systems.forward_orbit.points"],
            "systems.classify.calls": c["systems.classify"],
            "systems.admissible_words.calls": c["systems.admissible_words"],
            "functions.evaluate_base.calls.trig": w["functions.evaluate_base.calls.trig"],
            "functions.evaluate_base.calls.cyl": w["functions.evaluate_base.calls.cyl"],
            "functions.evaluate_base.calls.tab": w["functions.evaluate_base.calls.tab"],
            "functions.validate_base.calls": c["functions.validate_base"],
            "reps.orbit_matrix.calls": c["reps.orbit_matrix"],
            "reps.orbit_matrix.cells": w["reps.orbit_matrix.cells"],
            "reps.periodic_matrix.calls": sum(c[k] for k in PERIODIC_BUILDERS),
            "reps.bilateral_matrix.calls": c["reps.bilateral_matrix"],
            "reps.covariance_defect.calls": c["reps.covariance_defect"],
            "reps.invariant_subspaces_are_tails.subsets": w["reps.invariant_subspaces_are_tails.subsets"],
            "spectral.svd.calls.le16": w["spectral.svd.calls.le16"],
            "spectral.svd.calls.le64": w["spectral.svd.calls.le64"],
            "spectral.svd.calls.le256": w["spectral.svd.calls.le256"],
            "spectral.svd.calls.gt256": w["spectral.svd.calls.gt256"],
            "spectral.svd.batched_mats": w["spectral.svd.batched_mats"],
            "spectral.eigvalsh.calls": w["spectral.eigvalsh.calls"],
            "spectral.flops_computed": w["spectral.flops_computed"],
            "norms.orbit_estimate_s": incl["norms.orbit_norm_estimate"],
            "norms.periodic_estimate_s": incl["norms.periodic_norm_estimate"],
            "norms.lambda_points": w["norms.lambda_points"],
            "norms.width_max": max(self.widths, default=0.0),
            "norms.width_mean": sum(self.widths) / len(self.widths) if self.widths else 0.0,
            "extension.shift_power.calls": c["extension.shift_power"],
            "extension.coordinate.calls": c["extension.coordinate"],
            "elements.ops.calls": sum(c[f"elements.{op}"] for op in ELEMENT_OPS),
            "corpus.default_samples_s": incl["corpus.default_samples"],
            "corpus.sample_points": w["corpus.sample_points"],
        }
        for layer in ("systems", "functions", "reps", "spectral", "norms", "extension", "elements"):
            out[f"{layer}.self_s"] = s[layer]
        for token in CHECK_TOKENS:
            out[f"checks.{token}.s"] = incl[f"checks.{token}"]
            out[f"checks.{token}.rows_failed"] = w[f"checks.{token}.rows_failed"]
        return out


class _LinalgProxy:
    """numpy.linalg with svd, eigvalsh and the matrix 2-norm traced."""

    def __init__(self, tracer):
        real = numpy.linalg
        svd_hook, norm2_hook, eig_hook = tracer._spectral_hooks()
        self._real = real
        self.svd = tracer.span("spectral", "spectral.svd", real.svd, svd_hook)
        self.eigvalsh = tracer.span("spectral", "spectral.eigvalsh", real.eigvalsh, eig_hook)
        norm2 = tracer.span("spectral", "spectral.norm2", real.norm, norm2_hook)

        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and numpy.ndim(x) == 2:
                return norm2(numpy.asarray(x), ord, *args, **kwargs)
            return real.norm(x, ord, *args, **kwargs)

        self.norm = norm

    def __getattr__(self, name):
        return getattr(self._real, name)


class _NumpyProxy:
    """The numpy module with ``linalg`` replaced; other names pass through."""

    def __init__(self, tracer):
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value
