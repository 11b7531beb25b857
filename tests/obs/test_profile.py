"""Tests for the deterministic profiler: phase nesting, collapsed-stack
and Chrome-trace export, the cache phase timer, and the
instrumented-vs-plain differential (profiling can never change
simulation results)."""

import json

import pytest

from repro.core import SimCache, simulate
from repro.obs.metrics import Registry
from repro.obs.profile import CachePhaseTimer, Profiler
from repro.workloads import generate_valid


def fake_clock(step=0.001):
    """A deterministic clock advancing ``step`` seconds per read."""
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


class TestProfiler:
    def test_record_aggregates_by_stack(self):
        profiler = Profiler()
        profiler.record(("a", "b"), 0.5)
        profiler.record(("a", "b"), 0.25, count=3)
        profiler.record(("a",), 1.0)
        assert profiler.collapsed()[("a", "b")] == (0.75, 4)
        assert profiler.collapsed()[("a",)] == (1.0, 1)

    def test_disabled_profiler_records_nothing(self):
        profiler = Profiler(enabled=False)
        profiler.record(("a",), 1.0)
        with profiler.phase("p"):
            pass
        assert profiler.collapsed() == {}

    def test_phase_nesting_builds_stack_paths(self):
        profiler = Profiler(clock=fake_clock())
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        stacks = set(profiler.collapsed())
        assert stacks == {("outer",), ("outer", "inner")}

    def test_total_seconds_prefix_filter(self):
        profiler = Profiler()
        profiler.record(("sim", "lookup"), 1.0)
        profiler.record(("sim", "admit"), 2.0)
        profiler.record(("other",), 4.0)
        assert profiler.total_seconds("sim") == pytest.approx(3.0)
        assert profiler.total_seconds() == pytest.approx(7.0)

    def test_collapsed_stacks_format(self):
        """One ``frame;frame <microseconds>`` line per path, sorted."""
        profiler = Profiler()
        profiler.record(("b",), 0.000002)
        profiler.record(("a", "x"), 0.5)
        assert profiler.collapsed_stacks() == ["a;x 500000", "b 2"]

    def test_write_collapsed(self, tmp_path):
        profiler = Profiler()
        profiler.record(("sim.replay", "cache.access", "admit"), 0.001)
        path = tmp_path / "profile.stacks"
        assert profiler.write_collapsed(path) == 1
        assert path.read_text(encoding="utf-8") == (
            "sim.replay;cache.access;admit 1000\n"
        )

    def test_chrome_trace_spans_cover_children(self, tmp_path):
        profiler = Profiler()
        profiler.record(("root",), 0.001)
        profiler.record(("root", "child"), 0.005)
        trace = profiler.to_chrome_trace()
        by_stack = {
            event["args"]["stack"]: event for event in trace["traceEvents"]
        }
        # The parent's rendered span covers the larger child.
        assert by_stack["root"]["dur"] >= by_stack["root;child"]["dur"]
        path = tmp_path / "trace.json"
        assert profiler.write_chrome_trace(path) == 2
        assert json.loads(path.read_text(encoding="utf-8"))["traceEvents"]


class TestCachePhaseTimer:
    def test_feeds_profiler_and_histogram(self):
        registry = Registry()
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", registry=registry, profiler=profiler,
        )
        timer.observe("lookup", 0.002)
        timer.observe("lookup", 0.001)
        timer.observe("admit", 0.004)
        assert timer.summary()["lookup"] == {
            "seconds": pytest.approx(0.003), "count": 2,
        }
        assert profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ] == (pytest.approx(0.003), 2)
        snapshot = registry.snapshot()["repro_sim_phase_seconds"]
        counts = {
            (sample["labels"]["policy"], sample["labels"]["phase"]):
                sample["count"]
            for sample in snapshot["samples"]
        }
        assert counts[("SIZE", "lookup")] == 2
        assert counts[("SIZE", "admit")] == 1

    def test_custom_prefix(self):
        profiler = Profiler()
        timer = CachePhaseTimer(
            policy="SIZE", profiler=profiler,
            prefix=("proxy.request", "store.access"),
        )
        timer.observe("evict", 0.001)
        assert ("proxy.request", "store.access", "evict") in (
            profiler.collapsed()
        )


class TestInstrumentedDifferential:
    def test_profiling_never_changes_results(self):
        """The instrumented access path performs the same operations in
        the same order, so HR/WHR/evictions/outcomes match the plain
        path exactly."""
        trace = generate_valid("BL", seed=42, scale=0.01)

        def run(profiler):
            cache = SimCache(capacity=64 * 1024, seed=0)
            return simulate(
                trace, cache, timeseries=False, profiler=profiler,
            )

        plain = run(None)
        profiler = Profiler()
        timed = run(profiler)
        assert timed.hit_rate == plain.hit_rate
        assert timed.weighted_hit_rate == plain.weighted_hit_rate
        assert timed.outcomes == plain.outcomes
        assert timed.cache.eviction_count == plain.cache.eviction_count
        assert timed.cache.evicted_bytes == plain.cache.evicted_bytes
        # ... and the profile actually measured the replay.
        lookups = profiler.collapsed()[
            ("sim.replay", "cache.access", "lookup")
        ]
        assert lookups[1] == plain.metrics.total_requests
        assert profiler.total_seconds("sim.replay") > 0.0
