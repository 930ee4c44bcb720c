"""The `verify-suite` workload: `cep-lab verify --all --seed S --report F`.

This is the paper reproduction users run, and it exercises every layer.
One operation is one of the 20 verification items; its latency comes from a
timer around the item's entry in `verification.REGISTRY`.  The items share
`functools.lru_cache` frames, so the suite is only measured in a fresh
interpreter: a warm cache would hide the cost of building the frames.
"""

from __future__ import annotations

import hashlib
import json
import os
import time


class WarmInterpreterError(RuntimeError):
    """verify-suite was asked to run where cep_lab's caches are already warm."""


def warm_caches() -> list[str]:
    """Names of the verification frame caches that hold entries."""
    from cep_lab import verification

    return sorted(name for name, obj in vars(verification).items()
                  if hasattr(obj, "cache_info") and obj.cache_info().currsize)


class VerifySuite:
    def __init__(self, seed: int, workdir: str):
        from cep_lab import verification

        self.seed = seed
        self.report = os.path.join(workdir, "verify-report.json")
        self.items = sorted(verification.REGISTRY)
        self.report_sha256 = None

    def timed(self):
        import cep_lab.cli as cli
        from cep_lab import verification

        warm = warm_caches()
        if warm:
            raise WarmInterpreterError(
                "verify-suite needs a fresh interpreter; warm caches: "
                + ", ".join(warm))
        latency = {}
        registry = verification.REGISTRY
        originals = dict(registry)

        def timer(item, fn):
            def timed_item(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latency[item] = time.perf_counter() - t0
            return timed_item

        registry.update({item: timer(item, fn) for item, fn in originals.items()})
        try:
            code = cli.run(["verify", "--all", "--seed", str(self.seed),
                            "--report", self.report])
        finally:
            registry.update(originals)
        with open(self.report, "rb") as fh:
            raw = fh.read()
        self.report_sha256 = hashlib.sha256(raw).hexdigest()
        by_item = {entry["item"]: entry for entry in json.loads(raw)["items"]}
        return [(item, latency.get(item, 0.0),
                 {"code": code, "ok": by_item.get(item, {}).get("ok")})
                for item in self.items]

    def summary(self, index: int, result):
        return result

    def check(self, index: int, result) -> bool:
        """Exit code 0 and the item reported ok."""
        return result["code"] == 0 and result["ok"] is True

    def artifact(self):
        return self.report_sha256


def verify_suite(seed: int, workdir: str) -> VerifySuite:
    return VerifySuite(seed, workdir)
