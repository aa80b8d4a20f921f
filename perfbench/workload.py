"""One workload in one process; run.py starts it and reads its JSON line.

    python3 perfbench/workload.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/workload.py --workload W --seed N --setup-only

The process times its own set-up (import plus input construction), runs the
workload's fixed batch untraced until the next batch would end after
``--seconds``, checks every output, and with ``--trace 1`` builds the inputs
and runs the batch once more under the tracer.

Times are CPU time of this process (``time.process_time``).  The process is
single-threaded, BLAS included, so on an idle core that equals wall time;
on a shared host it leaves out the time the process waits for a core.  The
wall time of each batch is reported beside it.  Rounds of speed.py's
reference kernel run during each batch, outside its timed parts, so that
run.py can scale the times to the baseline machine's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def _setup(workload, seed):
    """Import the program and build the inputs; numpy is first imported here."""
    t0 = time.process_time()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import semicrossed  # noqa: F401  (timed as part of set-up)

    import inputs

    work = inputs.build(workload, seed, OUT_DIR)
    return work, time.process_time() - t0


def _environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _check(workload, work, outputs, seed):
    """(attempted, failed, one note per failed operation)."""
    import oracle

    if workload == "verify-all":
        code, text, error = outputs
        attempted, failed, failing = oracle.verify_rows(code, text)
        notes = [" | ".join(row) for row in failing]
        if error is not None:
            notes.append(f"verify raised {error}")
        elif code == 2:
            notes.append(f"verify exited 2: {text.strip()[:200]}")
        return attempted, failed, notes
    bracket_oracle = oracle.BracketOracle(work, seed)
    notes = []
    for i, out in enumerate(outputs):
        why = bracket_oracle.failure(i, out)
        if why is not None:
            notes.append(f"{work.cases[i].label}: {why}")
    return len(outputs), len(notes), notes


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    per_op, batch_s, batch_wall_s, reference_s, first = [], [], [], [], None
    reproducible = True
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cpu_s, times, outputs, reference = work.run_batch()
        wall_s = time.perf_counter() - t0
        batch_wall_s.append(wall_s - sum(reference))
        batch_s.append(cpu_s)
        per_op.append(times)
        reference_s += reference
        if first is None:
            first = outputs
        reproducible = reproducible and outputs == first
        if time.perf_counter() - start + wall_s > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, notes = _check(args.workload, work, first, args.seed)
    result = {
        "setup_s": setup_s,
        "batch_s": batch_s,
        "batch_wall_s": batch_wall_s,
        "reference_s": reference_s,
        "per_op": per_op,
        "peak_rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "reproducible": reproducible,
        "environment": _environment(),
    }

    if args.trace:
        import inputs
        import spans

        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_work = inputs.build(args.workload, args.seed, OUT_DIR)
            traced_s, _, traced, _ = traced_work.run_batch()
        finally:
            tracer.uninstall()
        result["trace_equal"] = traced == first
        result["trace_overhead_frac"] = traced_s / statistics.median(batch_s) - 1.0
        result["layers"] = tracer.metrics()

    if args.workload == "verify-all":
        for name in os.listdir(OUT_DIR):
            if name.startswith(f"verify-{os.getpid()}"):
                os.remove(os.path.join(OUT_DIR, name))
    try:
        os.rmdir(OUT_DIR)
    except OSError:
        pass  # another process still writes there
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
