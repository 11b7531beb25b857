"""Shared pieces of the benchmark: the run context, the result a workload
hands back to ``run.py``, and the reference loop the gated pass times are
divided by."""

from __future__ import annotations

import heapq
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Iterations of the reference loop: about 60 ms on the reference box.
REFERENCE_N = 100_000


@dataclass
class Context:
    seed: int
    seconds: float
    #: Scratch directory inside the checkout, removed when the run ends.
    tmp: Path
    #: :class:`ledger.Ledger` in the traced run, :data:`ledger.OFF` otherwise.
    ledger: object


@dataclass
class Result:
    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Names of the output checks that failed.
    broken: List[str] = field(default_factory=list)
    #: Context printed with the result (sample counts, rates, ...).
    info: Dict[str, object] = field(default_factory=dict)

    def expect(self, name: str, ok: bool, failed: int = 1) -> None:
        """Record one output check; a failure counts ``failed`` operations
        (at least one) against the run."""
        if not ok:
            self.broken.append(name)
            self.failed += max(1, failed)
            print(f"check failed: {name}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.broken


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def reference_seconds() -> float:
    """Seconds for one fixed pure-Python computation (dict, tuple and heap
    work, like the simulator's).  Timed around each pass, it measures how
    fast the host runs Python at that moment."""
    start = time.perf_counter()
    heap: list = []
    seen: Dict[int, int] = {}
    for i in range(REFERENCE_N):
        key = (i * 7919) % 4099
        seen[key] = seen.get(key, 0) + 1
        heapq.heappush(heap, (seen[key], i))
        if len(heap) > 512:
            heapq.heappop(heap)
    return time.perf_counter() - start


def report_passes(
    result: Result,
    walls: List[Tuple[float, float]],
    rates: List[Tuple[float, float]],
) -> None:
    """Fill the gated metrics from ``(seconds, reference seconds)`` pass
    times and ``(simulated requests/s, reference seconds)`` rates.

    ``wall_ref`` is pass time in reference loops and ``sim_ref`` is
    simulated requests per reference loop, so a host that runs Python
    slower for a while moves both sides alike.  The raw medians go to the
    info line."""
    result.metrics["wall_ref"] = median(w / ref for w, ref in walls)
    result.metrics["sim_ref"] = median(r * ref for r, ref in rates)
    result.info["raw"] = {
        "wall_s": {"value": median(w for w, _ in walls), "unit": "s"},
        "sim_rps": {"value": median(r for r, _ in rates), "unit": "1/s"},
        "reference_s": {"value": median(ref for _, ref in walls), "unit": "s"},
    }
    result.info["wall_samples"] = [round(w, 4) for w, _ in walls]
