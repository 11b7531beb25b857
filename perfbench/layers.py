"""Per-layer measurements shared by every workload's traced run: the bare
cache access loop, per-call hit/miss cost, simulator bookkeeping, and the
cost of each observability instrument.  All of them time calls into the
program from here; none edits the program.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

from repro.core import SimCache, simulate
from repro.obs import EventLog, Obs, Profiler

#: Repetitions of each timed loop; the median is reported.
REPEATS = 3


#: A cell builds a fresh, empty cache for one simulated configuration
#: (policies hold state, so every run gets its own).
Cell = Callable[[], SimCache]


def _bare_loop(trace, cell: Cell) -> float:
    access = cell().access
    start = time.perf_counter()
    for request in trace:
        access(request)
    return time.perf_counter() - start


def _simulate_seconds(trace, cell: Cell) -> float:
    cache = cell()
    start = time.perf_counter()
    simulate(trace, cache)
    return time.perf_counter() - start


def cache_layer(trace: Sequence, cells: List[Cell]) -> Dict[str, float]:
    """``cache.*`` and ``sim.bookkeeping_s`` over ``cells``."""
    bare, full = [], []
    for _ in range(REPEATS):
        bare.append(sum(_bare_loop(trace, cell) for cell in cells))
        full.append(sum(_simulate_seconds(trace, cell) for cell in cells))
    # One more pass times every call, to split the cost by outcome.
    hit_s = miss_s = 0.0
    hits = misses = evictions = 0
    clock = time.perf_counter
    for cell in cells:
        cache = cell()
        access = cache.access
        for request in trace:
            start = clock()
            result = access(request)
            elapsed = clock() - start
            if result.is_hit:
                hit_s += elapsed
                hits += 1
            else:
                miss_s += elapsed
                misses += 1
        evictions += cache.eviction_count
    access_s = statistics.median(bare)
    return {
        "cache.access_s": access_s,
        "cache.hit_us": 1e6 * hit_s / hits if hits else 0.0,
        "cache.miss_us": 1e6 * miss_s / misses if misses else 0.0,
        "cache.evictions_per_miss": evictions / misses if misses else 0.0,
        "sim.bookkeeping_s": statistics.median(full) - access_s,
    }


def obs_layer(trace: Sequence, cell: Cell) -> Dict[str, float]:
    """Ratio of ``simulate()`` time with each instrument to without any,
    on one cell.  Variants are interleaved so drift hits them alike."""
    variants = {
        "base": lambda: dict(timeseries=False),
        "obs.profiler_overhead": lambda: dict(
            timeseries=False, profiler=Profiler(),
        ),
        "obs.timeseries_overhead": lambda: dict(),
        "obs.debug_events_overhead": lambda: dict(
            timeseries=False, obs=Obs(events=EventLog(level="debug")),
        ),
    }
    seconds: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(REPEATS):
        for name, make_kwargs in variants.items():
            kwargs = make_kwargs()
            cache = cell()
            start = time.perf_counter()
            simulate(trace, cache, **kwargs)
            seconds[name].append(time.perf_counter() - start)
    base = statistics.median(seconds.pop("base"))
    return {name: statistics.median(values) / base for name, values in seconds.items()}
