"""Operations a workload times, and the closed loop that runs them."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    """One operation of a workload.

    `run` makes the library or CLI call(s) and returns the raw result;
    `summary` turns that result into JSON-able data for the digest (outside
    the timed region); `check` re-derives the expected output with the
    reference code in `oracle` and says whether the result is correct.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    summary: Callable[[Any], Any] = lambda result: result


class OpList:
    """A workload made of independent operations issued one at a time."""

    def __init__(self, ops: list[Op]):
        self.ops = ops

    def timed(self) -> list[tuple[str, float, Any]]:
        """Closed loop: each operation starts when the previous one ended."""
        clock = time.perf_counter
        rows = []
        for op in self.ops:
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation counts as failed
                result = Failure(f"{type(exc).__name__}: {exc}")
            rows.append((op.label, clock() - t0, result))
        return rows

    def summary(self, index: int, result):
        if isinstance(result, Failure):
            return {"error": result.message}
        return self.ops[index].summary(result)

    def check(self, index: int, result) -> bool:
        if isinstance(result, Failure):
            return False
        return bool(self.ops[index].check(result))


@dataclass
class Failure:
    message: str
