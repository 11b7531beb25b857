"""Differential tests pinning the time-series recorder's guarantees:

* the figures derived from the recorded stream are byte-identical to
  the legacy in-collector computation,
* a parallel sweep's recorders (rebuilt from worker exports) are
  identical to the serial path's, sample for sample, and
* a result-cache round trip reconstructs the same recorder.
"""

import json

import pytest

from repro.analysis.figures import fig3_7_infinite_cache
from repro.core.experiments import max_needed_for
from repro.core.sweep import (
    PolicySpec,
    ResultCache,
    SimOptions,
    SweepJob,
    run_sweep,
)
from repro.obs.timeseries import (
    hit_rate_series,
    weighted_hit_rate_series,
)
from repro.workloads import generate_valid

SEED = 1996


@pytest.fixture(scope="module")
def trace():
    return generate_valid("BL", seed=SEED, scale=0.04)


@pytest.fixture(scope="module")
def capacity(trace):
    return max(1, int(0.10 * max_needed_for(trace)))


def grid_jobs(capacity):
    return [
        SweepJob(
            spec=PolicySpec(keys=(primary, "RANDOM")),
            capacity=capacity,
            options=SimOptions(seed=SEED),
        )
        for primary in ("SIZE", "NREF", "ATIME")
    ]


class TestFigureByteIdentity:
    def test_recorder_figures_match_legacy_path(self, trace):
        """fig3-7 built from the recorded time series serialises to the
        exact bytes the legacy MetricsCollector path produced."""
        from repro.core import SimCache, simulate

        result = simulate(trace, SimCache(capacity=None), name="BL")
        assert result.timeseries is not None
        from_recorder = fig3_7_infinite_cache(result, "BL")
        result.timeseries = None    # force the legacy in-collector path
        legacy = fig3_7_infinite_cache(result, "BL")
        assert json.dumps(from_recorder.series, sort_keys=True) == (
            json.dumps(legacy.series, sort_keys=True)
        )
        assert from_recorder.series["HR"]    # non-trivial figure

    def test_raw_series_match_collector_series(self, trace, capacity):
        """Under eviction pressure too: the recorder's daily HR/WHR
        streams equal the collector's, day for day, bit for bit."""
        from repro.core import SimCache, simulate

        result = simulate(trace, SimCache(capacity=capacity, seed=SEED))
        recorder = result.timeseries
        assert hit_rate_series(recorder) == result.metrics.hr_series()
        assert weighted_hit_rate_series(recorder) == (
            result.metrics.whr_series()
        )


class TestSweepRecorderIdentity:
    def test_serial_and_parallel_recorders_identical(self, trace, capacity):
        """Workers rebuild each job's recorder from exported day
        counters; the reconstruction must be indistinguishable from the
        in-process original — same samples."""
        serial = run_sweep(trace, grid_jobs(capacity), workers=1)
        parallel = run_sweep(trace, grid_jobs(capacity), workers=2)
        for ours, theirs in zip(serial.results, parallel.results):
            assert ours.result.name == theirs.result.name
            a = ours.result.timeseries
            b = theirs.result.timeseries
            assert a is not None and b is not None
            assert a.samples() == b.samples(), ours.result.name

    def test_result_cache_round_trip_rebuilds_recorder(
        self, trace, capacity, tmp_path,
    ):
        cache = ResultCache(tmp_path / "results")
        cold = run_sweep(trace, grid_jobs(capacity), result_cache=cache)
        warm = run_sweep(trace, grid_jobs(capacity), result_cache=cache)
        assert any(jr.from_cache for jr in warm.results)
        for ours, theirs in zip(cold.results, warm.results):
            assert ours.result.timeseries.samples() == (
                theirs.result.timeseries.samples()
            )
