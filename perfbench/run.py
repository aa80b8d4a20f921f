"""Benchmark of semicrossed: certified-bracket latency and the verify suite.

    python3 perfbench/run.py --workload circle-norm|sft-norm|verify-all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own process, with
BLAS pinned to one thread through that process's environment, and several
more short processes time the set-up alone.  Every time is CPU time of the
single-threaded workload process (see workload.py), divided by the machine's
slowness at the time of the run (see speed.py).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  The lines before it repeat every metric by name
with its unit, the environment and any failed operation.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("circle-norm", "sft-norm", "verify-all")
SETUP_RUNS = 7  # set-up timings per run, the workload process's own included
TIMEOUT_S = 170  # one deadline for all children; every run must end within 180 s
SETUP_RESERVE_S = 20  # of that, kept back for the set-up-only children
TAIL_BEYOND = 10
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MODULES = (
    "__init__",
    "__main__",
    "checks",
    "cli",
    "corpus",
    "elements",
    "errors",
    "extension",
    "functions",
    "norms",
    "reps",
    "systems",
)


def _child(args, deadline):
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, os.path.join(HERE, "workload.py")] + args
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=deadline
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def bracket_stats(per_op):
    """Median and tail of per-bracket times.

    A bracket's time is the median over the batches of the run; the tail is
    the highest percentile with at least TAIL_BEYOND brackets beyond it, or
    the maximum when there are no more than TAIL_BEYOND brackets.
    """
    per_bracket = sorted(statistics.median(col) for col in zip(*per_op))
    n = len(per_bracket)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return statistics.median(per_bracket), per_bracket[rank], n, 100.0 * (rank + 1) / n


def src_lines():
    """Line counts of the program's modules; a module that is gone counts 0."""
    src = os.path.join(ROOT, "src", "semicrossed")
    counts = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                counts[name[:-3]] = sum(1 for _ in fh)
    out = {f"src_lines.{name}": counts.get(name, 0) for name in MODULES}
    out["src_lines.total"] = sum(counts.values())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semicrossed", "__init__.py")):
        sys.stderr.write("perfbench: no src/semicrossed next to perfbench/; run from a checkout\n")
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + TIMEOUT_S
    try:
        res = _child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            TIMEOUT_S - SETUP_RESERVE_S,
        )
        setups = [res["setup_s"]]
        for _ in range(SETUP_RUNS - 1):
            left = deadline - time.monotonic()
            if left <= 0:
                raise RuntimeError(f"no time left for set-up runs within {TIMEOUT_S} s")
            setups.append(_child(common + ["--setup-only"], left)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    slowness = speed.factor(res["reference_s"])
    p50, tail, n_brackets, tail_pct = bracket_stats(res["per_op"])
    attempted, failed = res["attempted"], res["failed"]
    end_to_end = {
        "setup_s": (statistics.median(setups) / slowness, "s"),
        "run_s": (statistics.median(res["batch_s"]) / slowness, "s"),
        "bracket_p50_s": (p50 / slowness, "s"),
        "bracket_tail_s": (tail / slowness, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    correct = res["reproducible"] and res.get("trace_equal", True)

    env = res["environment"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("environment " + " ".join(f"{k}={str(v).replace(' ', '_')}" for k, v in env.items()))
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"metric failed_frac {failed / attempted:.6g} 1")
    print(
        f"unscaled run_s {statistics.median(res['batch_s']):.6g} s cpu, "
        f"{statistics.median(res['batch_wall_s']):.6g} s wall; slowness {slowness:.4f}"
    )
    print(
        f"samples brackets={n_brackets} batches={len(res['batch_s'])} "
        f"tail=p{tail_pct:.0f} setups={len(setups)}"
    )
    for note in res["notes"]:
        print(f"failed {note}")
    if not res["reproducible"]:
        print("incorrect: repeated batches gave different outputs")

    if args.trace:
        if not res["trace_equal"]:
            print("incorrect: the traced batch gave different outputs")
        layers = dict(res["layers"])
        layers["run_cpu_s"] = statistics.median(res["batch_s"])
        layers["run_wall_s"] = statistics.median(res["batch_wall_s"])
        layers["slowness"] = slowness
        layers["trace_overhead_frac"] = res["trace_overhead_frac"]
        layers["failed_frac"] = failed / attempted
        layers["bracket_samples"] = n_brackets
        layers.update(src_lines())
        for name, value in layers.items():
            print(f"layer {name} {value:.6g}")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("src_lines."):
        return "lines"
    if name.endswith("_frac") or name.startswith("norms.width") or name == "slowness":
        return "1"
    if name.endswith("flops_computed"):
        return "flop"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
