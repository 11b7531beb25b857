"""Tests for replaying validated traces through the live proxy."""

import pytest

from repro.core import SimCache, simulate, size_policy
from repro.core.keys import ETIME
from repro.core.policy import KeyPolicy
from repro.proxy import CachingProxy, ConsistencyEstimator, ProxyStore
from repro.proxy.origin import OriginServer
from repro.proxy.replay import ReplayReport, TraceOriginSite, replay_through_proxy
from repro.trace import Request


def req(t, url, size):
    return Request(timestamp=float(t), url=url, size=size)


TRACE = [
    req(0, "http://a.edu/one.bin", 500),
    req(1, "http://a.edu/two.bin", 300),
    req(2, "http://a.edu/one.bin", 500),   # hit
    req(3, "http://a.edu/one.bin", 650),   # modified
    req(4, "http://a.edu/one.bin", 650),   # hit again
]


class TestTraceOriginSite:
    def test_serves_registered_size(self):
        site = TraceOriginSite()
        site.register("http://a.edu/x.bin", 123)
        body, _ = site.document("/x.bin")
        assert len(body) == 123

    def test_size_change_bumps_last_modified(self):
        site = TraceOriginSite()
        site.register("http://a.edu/x.bin", 100)
        before = site.last_modified("/x.bin")
        site.register("http://a.edu/x.bin", 200)
        assert site.last_modified("/x.bin") > before

    def test_same_size_no_modification(self):
        site = TraceOriginSite()
        site.register("http://a.edu/x.bin", 100)
        before = site.last_modified("/x.bin")
        site.register("http://a.edu/x.bin", 100)
        assert site.last_modified("/x.bin") == before

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            TraceOriginSite().register("http://a.edu/x", 0)

    def test_unregistered_path_falls_back(self):
        site = TraceOriginSite()
        body, _ = site.document("/unknown.html")
        assert body  # synthetic default document


@pytest.fixture
def make_stack():
    """Builds origin + always-revalidate proxy stacks over a given store,
    each with an advancing clock; stops them all at teardown."""
    running = []

    def make(store):
        site = TraceOriginSite()
        origin = OriginServer(site=site).start()
        clock = [1_000_000_000.0]

        def tick():
            clock[0] += 1.0
            return clock[0]

        proxy = CachingProxy(
            store,
            resolver=lambda host: origin.address,
            # Zero freshness: every repeat access revalidates, which makes
            # the live proxy's hit definition (304 => consistent copy)
            # match the simulator's URL+size rule exactly.
            estimator=ConsistencyEstimator(
                lm_factor=0.0, min_ttl=0.0, max_ttl=0.0, default_ttl=0.0,
            ),
            clock=tick,
        ).start()
        running.append((proxy, origin))
        return site, proxy

    yield make
    for proxy, origin in running:
        proxy.stop()
        origin.stop()


@pytest.fixture
def stack(make_stack):
    return make_stack(ProxyStore(capacity=10**9, policy=size_policy()))


class TestReplay:
    def test_live_matches_simulator_exactly(self, stack):
        """Same trace, same hit count: live proxy (revalidation mode,
        infinite store) vs trace-driven simulator (infinite cache)."""
        site, proxy = stack
        report = replay_through_proxy(
            TRACE, proxy, site, record_outcomes=True,
        )
        predicted = simulate(TRACE, SimCache(capacity=None))
        assert report.requests == len(TRACE)
        assert report.hits + report.revalidated == predicted.metrics.total_hits
        assert report.hit_rate == pytest.approx(predicted.hit_rate)
        assert report.mismatched_sizes == 0
        # The modified document (new size) is a miss both live and simulated.
        assert report.outcomes[3] == "MISS"
        assert report.outcomes[4] in ("HIT", "REVALIDATED")

    def test_live_matches_simulator_with_evictions(self, make_stack):
        """A 304 refreshes the copy in place.  With a finite store and
        ETIME (first-in, first-out) removal, the revalidated ``a`` keeps
        its entry time and is evicted when ``c`` arrives, live and
        simulated alike."""
        trace = [
            req(t, f"http://a.edu/{name}.bin", 400)
            for t, name in enumerate("abaca")
        ]
        site, proxy = make_stack(
            ProxyStore(capacity=1000, policy=KeyPolicy([ETIME])),
        )
        report = replay_through_proxy(trace, proxy, site)
        predicted = simulate(
            trace, SimCache(capacity=1000, policy=KeyPolicy([ETIME])),
        )
        assert predicted.metrics.total_hits == 1
        assert report.hits + report.revalidated == predicted.metrics.total_hits

    def test_report_hit_rate_empty(self):
        assert ReplayReport().hit_rate == 0.0

    def test_workload_replay_matches(self, stack):
        """A slice of a generated workload agrees end to end."""
        from repro.workloads import generate_valid
        site, proxy = stack
        trace = generate_valid("C", seed=12, scale=0.01)[:120]
        report = replay_through_proxy(trace, proxy, site)
        predicted = simulate(trace, SimCache(capacity=None))
        assert (
            report.hits + report.revalidated
            == predicted.metrics.total_hits
        )
        assert report.mismatched_sizes == 0
