"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --spawned T --out F
        [--trace] [--check] [--setup-only]

Imports cep_lab from the checkout's `src/`, generates the workload's inputs
from the seed, runs its operations in a closed loop, and writes a JSON
result to F: set-up time (from T, the parent's CLOCK_MONOTONIC reading when
it started this process), wall time of the timed phase, per-operation
latencies and result summaries, peak RSS, and with --check the reference
verdict of every operation.  With --trace the timed phase runs under the
span tracer and the result also holds the per-layer metrics; the spans are
written next to F.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("verify-suite", "finite-small", "symbolic")


def import_program():
    """Import cep_lab from this checkout, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cep_lab

    where = os.path.realpath(os.path.dirname(cep_lab.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"cep_lab imported from {where}, not from {src}")
    return cep_lab


def build(workload: str, seed: int, workdir: str):
    if workload == "verify-suite":
        from wl_verify import verify_suite
        return verify_suite(seed, workdir)
    if workload == "finite-small":
        from wl_finite import finite_small
        return finite_small(seed, workdir)
    if workload == "symbolic":
        from wl_symbolic import symbolic
        return symbolic(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_pass(workload: str, seed: int, workdir: str, spawned: float,
             trace: bool, check: bool, setup_only: bool) -> dict:
    import_program()
    wl = build(workload, seed, workdir)
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    setup_s = time.monotonic() - spawned
    if setup_only:
        return {"setup_s": setup_s}

    t0 = time.perf_counter()
    rows = wl.timed()
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import numpy

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "numpy": numpy.__version__,
           "labels": [label for label, _, _ in rows],
           "latency_s": [lat for _, lat, _ in rows],
           "records": [json.dumps(wl.summary(i, res), sort_keys=True, default=repr)
                       for i, (_, _, res) in enumerate(rows)],
           "artifact": wl.artifact() if hasattr(wl, "artifact") else None}
    if check:
        t1 = time.perf_counter()
        out["ok"] = [_checked(wl, i, res) for i, (_, _, res) in enumerate(rows)]
        out["check_s"] = time.perf_counter() - t1
    if tracer is not None:
        from tracer import aggregate, item_times, span_cost
        metrics = aggregate(tracer, wall_s)
        if workload == "verify-suite":
            metrics.update({f"verification.{item}.s": (s, "s") for item, s
                            in item_times(tracer, out["labels"]).items()})
        metrics["trace.spans"] = (tracer.spans(), "count")
        metrics["trace.overhead_est_s"] = (tracer.spans() * span_cost(), "s")
        out["trace_metrics"] = metrics
        tracer.save(os.path.join(workdir, f"spans-{workload}-{seed}.npz"))
    return out


def _checked(wl, index, result) -> bool:
    try:
        return wl.check(index, result)
    except Exception as exc:  # a checker that cannot read the result rejects it
        print(f"check {index} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # relative to the checkout root, so frame expressions stay free of the
    # characters the CLI's expression syntax uses
    workdir = os.path.relpath(os.path.dirname(os.path.abspath(args.out)))
    result = run_pass(args.workload, args.seed, workdir, args.spawned,
                      args.trace, args.check, args.setup_only)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
