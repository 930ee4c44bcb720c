"""cep-lab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (`worker.py`) that imports cep_lab from the checkout's
`src/`, generates the inputs from the seed, and times its operations in a
closed loop: one process, one operation at a time.  A run makes a fixed
number of passes for S (`pass_count`), whatever the speed of the code it
measures, so that two versions of the code are measured with the same
estimator; only a program so slow that the passes would overrun 1.5 S
stops early, after at least two.  The first pass also checks every output
against the reference code in `oracle.py`, and later passes must reproduce
its results exactly.

Timings take each operation at its fastest over the run's passes, plus the
least time any pass spent between operations: on a shared host, other
tenants only ever add time, and they slow whole passes by up to half for
tens of seconds at a time, so the per-operation minimum is the steadiest
estimate of the program's own cost (README.md gives the measured spreads).

With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of the fastest traced pass (see
tracer.py) and the tracing overhead.  Lines before it give the environment,
the operation count, the tail percentile used, the operation latencies
(op_p50_ms and op_tail_ms, which are not among the gated metrics: a
verify-suite median item takes about 50 ms, and its spread over ten seeds
reached 0.33 on the reference host), and the output digest, which must not
change between runs of one seed on one version of the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
sys.path.insert(0, HERE)

from worker import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170       # every child is stopped before the run's deadline
MIN_PASSES = 2          # even when one pass takes longer than the budget
OVERRUN = 1.5           # passes stop early only past this many times --seconds
# Budgeted cost of one pass (interpreter start, set-up and timed phase) at
# the baseline, with headroom for a busy host; it fixes the pass count.
PASS_BUDGET_S = {"verify-suite": 15.0, "finite-small": 2.0, "symbolic": 1.7}
MIN_SETUPS = 9          # set-up samples per run, topped up by set-up-only passes
TAIL_BEYOND = 10        # samples beyond the tail percentile
ITEMS = ("appendix-additive-cep", "appendix-normalize", "cont-sep", "ext-cep",
         "ext-sep", "figure1", "flat-nocep", "flat-preserve", "flat-simple",
         "negation-cep", "sharp-nocep", "sharp-sc2", "sharp-simple",
         "star-nocep", "star-preserve", "star-relativize", "star-simple",
         "subadd-cep", "subadd-props", "subadd-sep")


class BenchError(Exception):
    pass


def per_layer_template() -> dict:
    """Every per-layer metric with its unit, all zero."""
    from tracer import Tracer, aggregate

    metrics = aggregate(Tracer(), 0.0)
    metrics.update({f"verification.{item}.s": (0.0, "s") for item in ITEMS})
    metrics.update({"trace.spans": (0, "count"), "trace.wall_s": (0.0, "s"),
                    "trace.overhead_s": (0.0, "s"),
                    "trace.overhead_est_s": (0.0, "s")})
    return metrics


def code_fingerprint() -> str:
    """Hash of the program's and the benchmark's sources, to key stored
    records by version."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(base, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: str):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def spawn(self, trace=False, check=False, setup_only=False) -> dict:
        self.count += 1
        out = os.path.join(self.run_dir, f"pass{self.count}.json")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--spawned", repr(spawned), "--out", out]
        cmd += ["--trace"] * trace + ["--check"] * check + ["--setup-only"] * setup_only
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass timed out after {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        result["cost_s"] = time.monotonic() - spawned - result.get("check_s", 0.0)
        return result

    def passes(self, count: int, trace: bool, limit: float) -> tuple[list, list]:
        """`count` passes: untraced ones (the first one checked) and, with
        `trace`, traced ones alternating with them.  After MIN_PASSES they
        stop early when the next would end after `limit` seconds of
        measuring."""
        plain, traced = [], []
        start = time.monotonic()
        checking = 0.0
        while len(plain) + len(traced) < count:
            kind = traced if trace and len(traced) < len(plain) else plain
            result = self.spawn(trace=kind is traced, check=not plain)
            checking += result.get("check_s", 0.0)
            kind.append(result)
            done = plain + traced
            if len(done) >= MIN_PASSES:
                used = time.monotonic() - start - checking
                if used + statistics.median(r["cost_s"] for r in done) > limit:
                    break
        return plain, traced


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run makes: as many as fit in `seconds` at the baseline."""
    return max(MIN_PASSES, int(seconds / PASS_BUDGET_S[workload]))


def median_latency(latencies: list) -> float:
    """Nearest-rank median, so that it never exceeds the tail value."""
    xs = sorted(latencies)
    return xs[(len(xs) - 1) // 2]


def tail(latencies: list) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile; the maximum when there are too few samples."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def differing(reference: dict, other: dict) -> set:
    """Operations whose results differ from the checked pass."""
    if (other["artifact"] != reference["artifact"]
            or len(other["records"]) != len(reference["records"])):
        return set(range(len(reference["records"])))
    return {i for i, (a, b) in enumerate(zip(reference["records"], other["records"]))
            if a != b}


def stored_differing(workload: str, seed: int, reference: dict) -> set:
    """Compare with the records an earlier run of this seed on the same
    sources stored; store them if none are there."""
    store = os.path.join(WORK, "digests", code_fingerprint())
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{workload}-{seed}.json")
    mine = {"artifact": reference["artifact"], "records": reference["records"]}
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(mine, fh)
        return set()
    with open(path, encoding="utf-8") as fh:
        return differing(json.load(fh), mine)


def digest(result: dict) -> str:
    h = hashlib.sha256(json.dumps([result["artifact"], result["records"]]).encode())
    return h.hexdigest()[:32]


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: str):
    runner = Runner(workload, seed, run_dir)
    count = pass_count(workload, seconds)
    plain, traced = runner.passes(count, trace, OVERRUN * seconds)
    done = plain + traced
    reference = plain[0]
    ops = len(reference["records"])
    attempted = ops * len(done)
    # an operation fails in every pass where its checked result is wrong,
    # differs from an earlier run's, or is not reproduced by that pass
    bad = {i for i, ok in enumerate(reference["ok"]) if not ok}
    bad |= stored_differing(workload, seed, reference)
    failed = sum(len(bad | differing(reference, r)) for r in done)

    info = [f"env python={sys.version.split()[0]} numpy={reference['numpy']} "
            f"nproc={len(os.sched_getaffinity(0))} workload={workload} seed={seed} "
            f"attempted={attempted} ops_per_pass={ops}",
            f"passes untraced={len(plain)} traced={len(traced)} of {count}"
            + (" (stopped early: the program is slower than the budget)"
               if len(done) < count else "")
            + f" wall_s={[round(r['wall_s'], 4) for r in done]}",
            f"error_rate={failed}/{attempted} (check took {reference['check_s']:.1f} s)",
            f"digest={digest(reference)}"]
    for label, ok, record in zip(reference["labels"], reference["ok"],
                                 reference["records"]):
        if not ok:
            info.append(f"failed check: {label} -> {record[:300]}")

    if trace:
        best = min(traced, key=lambda r: r["wall_s"])
        wall = best["wall_s"]
        metrics = per_layer_template()
        metrics.update({k: tuple(v) for k, v in best["trace_metrics"].items()})
        metrics["trace.wall_s"] = (wall, "s")
        overhead = statistics.median(t["wall_s"] - p["wall_s"]
                                     for p, t in zip(plain, traced))
        metrics["trace.overhead_s"] = (overhead, "s")
        info.append(f"trace overhead: median of {len(traced)} traced-minus-untraced "
                    f"pass pairs {overhead:.4g} s; span count x wrapper cost "
                    f"{metrics['trace.overhead_est_s'][0]:.4g} s")
        if overhead <= 0:
            info.append("trace overhead unresolved: the measured difference is "
                        "below the host's pass-to-pass drift; use trace.overhead_est_s")
        selves = {k[:-len(".self_s")]: v for k, (v, _) in metrics.items()
                  if k.endswith(".self_s")}
        info.append("self-time shares of the traced pass: "
                    + " ".join(f"{k}={v / wall:.3f}" for k, v in selves.items())
                    + f"; sum minus wall = {sum(selves.values()) - wall:.1e} s")
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(runner.spawn(setup_only=True)["setup_s"])
        latencies = [r["latency_s"] for r in plain]
        # each operation at its fastest over the run's passes, plus the least
        # time a pass spent outside its operations (the CLI's argument
        # parsing and report writing on verify-suite, the loop elsewhere)
        fastest = [min(lat) for lat in zip(*latencies)]
        between = min(r["wall_s"] - sum(lat) for r, lat in zip(plain, latencies))
        tail_value, pct = tail(fastest)
        info.append(f"op_p50_ms={median_latency(fastest) * 1e3:.6g} "
                    f"op_tail_ms={tail_value * 1e3:.6g} (p{pct:.1f}, "
                    f"{TAIL_BEYOND} beyond); each of the {ops} operations at "
                    f"its fastest over {len(plain)} passes, plus {between:.4g} s "
                    f"between operations; setup_s is the median of {len(setups)}")
        metrics = {
            "wall_s": (sum(fastest) + between, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
    return info, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "cep_lab", "__init__.py")):
        print("error: no cep_lab sources under src/ in this checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        info, result = measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), run_dir)
        for name in os.listdir(run_dir):
            if name.startswith("spans-"):
                os.replace(os.path.join(run_dir, name), os.path.join(WORK, name))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in info:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
