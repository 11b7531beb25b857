"""Tests for the deterministic profiler: phase nesting, collapsed-stack
and Chrome-trace export, the cache phase timer, its seam wrappers, and
the timed-vs-plain differential (profiling can never change simulation
results)."""

import json

import pytest

from repro.core import AccessOutcome, GreedyDualSize, SimCache, simulate
from repro.obs.metrics import Registry
from repro.obs.profile import CachePhaseTimer, Profiler
from repro.trace import Request
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
        """``observe`` accumulates and feeds the histogram; the profiler
        sees the totals only when flushed."""
        registry = Registry()
        profiler = Profiler()
        timer = CachePhaseTimer(policy="SIZE", registry=registry)
        timer.observe("lookup", 0.002)
        timer.observe("lookup", 0.001)
        timer.observe("admit", 0.004)
        assert timer.totals["lookup"] == pytest.approx(0.003)
        assert timer.counts == {"lookup": 2, "evict": 0, "admit": 1}
        assert profiler.collapsed() == {}
        timer.flush(profiler)
        collapsed = profiler.collapsed()
        assert collapsed[("sim.replay", "cache.access", "lookup")] == (
            pytest.approx(0.003), 2,
        )
        assert collapsed[("sim.replay", "cache.access", "admit")] == (
            pytest.approx(0.004), 1,
        )
        # A phase never observed leaves no stack behind.
        assert ("sim.replay", "cache.access", "evict") not in collapsed
        snapshot = registry.snapshot()["repro_sim_phase_seconds"]
        counts = {
            (sample["labels"]["policy"], sample["labels"]["phase"]):
                sample["count"]
            for sample in snapshot["samples"]
        }
        assert counts[("SIZE", "lookup")] == 2
        assert counts[("SIZE", "admit")] == 1


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


#: Capacity 1000: ``a`` is modified in place (400 -> 300 bytes), ``z``
#: is larger than the whole cache, and ``c``/``d`` force evictions.
HAND_TRACE = [
    req(0, "a", 400), req(1, "b", 400), req(2, "a", 400),
    req(3, "a", 300), req(4, "z", 5000), req(5, "c", 400),
    req(6, "b", 400), req(7, "d", 600), req(8, "a", 300),
    req(9, "z", 5000), req(10, "c", 400),
]

CACHES = {
    "key": lambda capacity: SimCache(capacity=capacity, seed=0),
    "dyn": lambda capacity: SimCache(
        capacity=capacity, policy=GreedyDualSize(), seed=0,
    ),
    "inf": lambda capacity: SimCache(capacity=None, seed=0),
}

SEAMS = ("access", "_make_room", "_insert")


@pytest.fixture(scope="module")
def bl_trace():
    return generate_valid("BL", seed=42, scale=0.01)


@pytest.mark.parametrize("kind", sorted(CACHES))
@pytest.mark.parametrize("trace_name", ["bl", "hand"])
class TestInstrumentedDifferential:
    def _trace_and_capacity(self, trace_name, bl_trace):
        if trace_name == "hand":
            return HAND_TRACE, 1000
        return bl_trace, 64 * 1024

    def test_profiling_never_changes_results(
        self, kind, trace_name, bl_trace,
    ):
        """A timed cache runs the plain cache's one access path, so
        HR/WHR/evictions/outcomes match exactly, and the phases are
        counted once per access (lookup) and once per admitted miss
        (evict, admit)."""
        trace, capacity = self._trace_and_capacity(trace_name, bl_trace)

        def run(profiler):
            cache = CACHES[kind](capacity)
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
        def state(cache):
            return [
                (e.url, e.size, e.nref, e.atime, e.random_stamp)
                for e in cache.entries()
            ]

        assert state(timed.cache) == state(plain.cache)
        if trace_name == "hand":
            assert plain.outcomes[AccessOutcome.MISS_MODIFIED] >= 1
            if kind != "inf":
                assert plain.outcomes[AccessOutcome.MISS_TOO_LARGE] == 2
        counts = {
            phase: profiler.collapsed()[
                ("sim.replay", "cache.access", phase)
            ][1]
            for phase in CachePhaseTimer.PHASES
        }
        admitted = (
            plain.outcomes[AccessOutcome.MISS]
            + plain.outcomes[AccessOutcome.MISS_MODIFIED]
        )
        assert counts["lookup"] == len(trace)
        assert counts["evict"] == counts["admit"] == admitted
        assert profiler.total_seconds("sim.replay") > 0.0
        # The replay detached every seam wrapper.
        assert not set(SEAMS) & set(timed.cache.__dict__)


class TestSeamWrappers:
    def test_second_timer_replaces_first(self):
        cache = SimCache(capacity=1000, seed=0)
        first = CachePhaseTimer(policy="SIZE")
        second = CachePhaseTimer(policy="SIZE")
        cache.set_phase_timer(first)
        cache.set_phase_timer(second)
        for request in HAND_TRACE:
            cache.access(request)
        assert first.counts == {"lookup": 0, "evict": 0, "admit": 0}
        assert second.counts["lookup"] == len(HAND_TRACE)
        cache.set_phase_timer(None)
        assert not set(SEAMS) & set(cache.__dict__)
        cache.access(req(11, "e", 10))
        assert second.counts["lookup"] == len(HAND_TRACE)

    def test_subclass_override_stays_in_timed_path(self):
        seen = []

        class Spy(SimCache):
            def access(self, request, now=None):
                seen.append(request.url)
                return super().access(request, now=now)

        cache = Spy(capacity=1000)
        timer = CachePhaseTimer(policy="SIZE")
        cache.set_phase_timer(timer)
        cache.access(req(0, "a", 10))
        cache.access(req(1, "a", 10))
        assert seen == ["a", "a"]
        assert timer.counts == {"lookup": 2, "evict": 1, "admit": 1}
