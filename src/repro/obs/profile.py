"""A dependency-free, deterministic profiler for the hot paths.

Code brackets its phases with :meth:`Profiler.phase` or feeds
per-access phase durations through a :class:`CachePhaseTimer`; the
aggregate exports as collapsed stacks (the ``flamegraph.pl`` input
format) and Chrome ``trace_event`` JSON.  The *set* of stacks and their
counts is fully deterministic — it depends only on the replayed trace —
and the measured seconds are the only wall-clock quantity, so two runs
of the same job produce the same profile shape with different timings.
``sys.setprofile``/``sys.settrace`` are never touched: they would slow
the simulator 10-30x and perturb the very timings being measured.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, Union

__all__ = [
    "Profiler",
    "CachePhaseTimer",
]

#: One aggregated stack: path -> [total_seconds, sample_count].
StackKey = Tuple[str, ...]


class Profiler:
    """Aggregates (stack path, seconds, count) samples.

    Thread-safe; one dict update per recorded sample.  Per-access cache
    phases reach it pre-aggregated, through
    :meth:`CachePhaseTimer.flush`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._stacks: Dict[StackKey, List[float]] = {}
        self._frames = threading.local()

    # -- collection ----------------------------------------------------------

    def record(
        self, stack: Sequence[str], seconds: float, count: int = 1,
    ) -> None:
        """Fold one measured sample into the aggregate."""
        key = tuple(stack)
        with self._lock:
            slot = self._stacks.get(key)
            if slot is None:
                self._stacks[key] = [seconds, count]
            else:
                slot[0] += seconds
                slot[1] += count

    def phase(self, name: str) -> "_PhaseHandle":
        """Context manager timing one named phase; nests per-thread, so
        the recorded stack is the full path of open phases."""
        return _PhaseHandle(self, name)

    def _stack(self) -> List[str]:
        frames = getattr(self._frames, "stack", None)
        if frames is None:
            frames = self._frames.stack = []
        return frames

    # -- reading -------------------------------------------------------------

    def collapsed(self) -> Dict[StackKey, Tuple[float, int]]:
        """Aggregated ``stack path -> (seconds, count)``."""
        with self._lock:
            return {
                key: (slot[0], slot[1])
                for key, slot in self._stacks.items()
            }

    def total_seconds(self, *prefix: str) -> float:
        """Total recorded seconds under a stack prefix (all when empty)."""
        with self._lock:
            return sum(
                slot[0] for key, slot in self._stacks.items()
                if key[:len(prefix)] == prefix
            )

    def collapsed_stacks(self) -> List[str]:
        """The profile in collapsed-stack format, one line per path:
        ``frame;frame;frame <microseconds>`` — feed to ``flamegraph.pl``
        or any FlameGraph viewer.  Sorted by path for determinism."""
        lines = []
        for key, (seconds, _) in sorted(self.collapsed().items()):
            lines.append(";".join(key) + f" {max(0, round(seconds * 1e6))}")
        return lines

    def write_collapsed(self, path: Union[str, Path]) -> int:
        """Write collapsed stacks to a file; returns the line count."""
        lines = self.collapsed_stacks()
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8",
        )
        return len(lines)

    def to_chrome_trace(self) -> dict:
        """The aggregate as a static flame chart in Chrome
        ``trace_event`` JSON (viewable in Perfetto / ``about:tracing``).

        Aggregated profiles have no timeline, so sibling stacks are laid
        out sequentially: each node's span covers its children, and
        offsets are deterministic (sorted stack order).
        """
        collapsed = self.collapsed()
        events: List[dict] = []
        # Children extend their parents, so a parent's rendered span
        # must cover max(own total, sum of children); lay out depth-first.
        offsets: Dict[StackKey, float] = {}
        cursor: Dict[StackKey, float] = {}

        def subtree_micros(key: StackKey) -> float:
            own = collapsed.get(key, (0.0, 0))[0] * 1e6
            children = sum(
                subtree_micros(other[:len(key) + 1])
                for other in {
                    k[:len(key) + 1] for k in collapsed
                    if len(k) > len(key) and k[:len(key)] == key
                }
            )
            return max(own, children)

        for key in sorted(collapsed):
            parent = key[:-1]
            start = cursor.get(parent, offsets.get(parent, 0.0))
            duration = subtree_micros(key)
            offsets[key] = start
            cursor[key] = start
            cursor[parent] = start + duration
            seconds, count = collapsed[key]
            events.append({
                "name": key[-1],
                "ph": "X",
                "ts": start,
                "dur": duration,
                "pid": 0,
                "tid": 0,
                "cat": "profile",
                "args": {"seconds": seconds, "count": count,
                         "stack": ";".join(key)},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Union[str, Path]) -> int:
        payload = self.to_chrome_trace()
        Path(path).write_text(json.dumps(payload), encoding="utf-8")
        return len(payload["traceEvents"])


class _PhaseHandle:
    """One open phase; records its wall time against the full path."""

    __slots__ = ("_profiler", "_name", "_start")

    def __init__(self, profiler: Profiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_PhaseHandle":
        self._profiler._stack().append(self._name)
        self._start = self._profiler.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._profiler.clock() - self._start
        stack = self._profiler._stack()
        key = tuple(stack)
        stack.pop()
        self._profiler.record(key, elapsed)


class CachePhaseTimer:
    """Per-access phase accumulator a :class:`~repro.core.cache.SimCache`
    reports into when timed (``cache.set_phase_timer``).

    :meth:`observe` keeps per-phase totals and counts and, when a
    registry was given, feeds the per-policy ``repro_sim_phase_seconds``
    histogram (children resolved once here).  :meth:`flush` hands the
    totals to a :class:`Profiler` once, after the replay.
    """

    PHASES = ("lookup", "evict", "admit")
    PREFIX = ("sim.replay", "cache.access")

    def __init__(
        self,
        policy: str,
        registry=None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.totals: Dict[str, float] = {phase: 0.0 for phase in self.PHASES}
        self.counts: Dict[str, int] = {phase: 0 for phase in self.PHASES}
        self._children: Dict[str, object] = {}
        if registry is not None:
            from repro.obs.catalog import phase_metrics

            histogram = phase_metrics(registry).sim_phase_seconds
            self._children = {
                phase: histogram.labels(policy=policy, phase=phase)
                for phase in self.PHASES
            }

    def observe(self, phase: str, seconds: float) -> None:
        self.totals[phase] += seconds
        self.counts[phase] += 1
        child = self._children.get(phase)
        if child is not None:
            child.observe(seconds)

    def flush(self, profiler: Profiler) -> None:
        """Record each observed phase's total and count under
        :attr:`PREFIX`."""
        for phase in self.PHASES:
            if self.counts[phase]:
                profiler.record(
                    self.PREFIX + (phase,), self.totals[phase],
                    self.counts[phase],
                )
