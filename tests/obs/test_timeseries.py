"""Tests for the simulated-clock time-series recorder and its JSONL
export: cadence gating, derived views (delta/rate/smoothed), the
checksummed read/write round trip and its failure diagnostics, and
multi-run merging."""

import json

import pytest

from repro.core.metrics import moving_average
from repro.durability import SealedFileError
from repro.obs.metrics import Registry
from repro.obs.timeseries import (
    CHECKSUM_KIND,
    SimStreamTicker,
    TimeSeriesRecorder,
    hit_rate_series,
    merge_samples,
    occupancy_series,
    read_timeseries,
    write_timeseries,
)


def make_recorder(cadence=1):
    registry = Registry()
    counter = registry.counter("repro_sim_ts_test_total", "test counter")
    gauge = registry.gauge("repro_sim_ts_test_gauge", "test gauge")
    return TimeSeriesRecorder(registry, cadence=cadence), counter, gauge


class TestRecorder:
    def test_tick_records_registry_state(self):
        recorder, counter, gauge = make_recorder()
        counter.inc(3)
        gauge.set(7)
        assert recorder.tick(0)
        counter.inc(2)
        assert recorder.tick(1)
        assert recorder.recorded_days() == [0, 1]
        assert recorder.series("repro_sim_ts_test_total") == [
            (0, 3.0), (1, 5.0),
        ]
        assert recorder.series("repro_sim_ts_test_gauge") == [
            (0, 7.0), (1, 7.0),
        ]

    def test_cadence_skips_close_days(self):
        recorder, counter, _ = make_recorder(cadence=7)
        assert recorder.tick(0)
        counter.inc()
        assert not recorder.tick(3)      # < cadence after day 0
        assert recorder.tick(7)          # exactly one cadence later
        assert recorder.recorded_days() == [0, 7]

    def test_force_overrides_cadence(self):
        recorder, _, _ = make_recorder(cadence=7)
        recorder.tick(0)
        assert recorder.tick(2, force=True)
        assert recorder.recorded_days() == [0, 2]

    def test_reticking_a_day_overwrites(self):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        counter.inc()
        recorder.tick(0, force=True)
        assert recorder.series("repro_sim_ts_test_total") == [(0, 2.0)]

    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(Registry(), cadence=0)

    def test_histograms_excluded_from_stream(self):
        registry = Registry()
        histogram = registry.histogram("repro_sim_ts_h_seconds", "h")
        histogram.observe(0.5)
        recorder = TimeSeriesRecorder(registry)
        recorder.tick(0)
        assert len(recorder) == 0

    def test_label_sets_are_distinct_series(self):
        registry = Registry()
        counter = registry.counter(
            "repro_sim_ts_l_total", "l", labelnames=("stream",),
        )
        counter.labels(stream="a").inc(1)
        counter.labels(stream="b").inc(2)
        recorder = TimeSeriesRecorder(registry)
        recorder.tick(0)
        assert recorder.series("repro_sim_ts_l_total", stream="a") == [
            (0, 1.0),
        ]
        assert recorder.series("repro_sim_ts_l_total", stream="b") == [
            (0, 2.0),
        ]


class TestDerivedViews:
    def test_delta_first_day_is_value(self):
        recorder, counter, _ = make_recorder()
        counter.inc(4)
        recorder.tick(0)
        counter.inc(6)
        recorder.tick(1)
        assert recorder.delta("repro_sim_ts_test_total") == [
            (0, 4.0), (1, 6.0),
        ]

    def test_rate_divides_by_day_gap(self):
        recorder, counter, _ = make_recorder()
        counter.inc(4)
        recorder.tick(0)
        counter.inc(10)
        recorder.tick(5)   # gap of 5 days
        assert recorder.rate("repro_sim_ts_test_total") == [
            (0, 4.0), (5, 2.0),
        ]

    def test_smoothed_is_core_moving_average(self):
        recorder, counter, _ = make_recorder()
        for day in range(10):
            counter.inc(day + 1)
            recorder.tick(day)
        series = recorder.series("repro_sim_ts_test_total")
        assert recorder.smoothed(
            "repro_sim_ts_test_total", window=7,
        ) == moving_average(series, 7)


class TestJsonlRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        recorder, counter, gauge = make_recorder()
        counter.inc(3)
        gauge.set(11)
        recorder.tick(0)
        counter.inc(1)
        recorder.tick(1)
        path = tmp_path / "series.jsonl"
        count = recorder.write_jsonl(path)
        assert count == 4
        samples = read_timeseries(path)
        assert samples == recorder.samples()

    def test_missing_file(self, tmp_path):
        with pytest.raises(SealedFileError, match="cannot read"):
            read_timeseries(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SealedFileError, match="is empty"):
            read_timeseries(path)

    def test_truncated_json_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"day": 0, "met', encoding="utf-8")
        with pytest.raises(SealedFileError, match="truncated or corrupt"):
            read_timeseries(path)

    def test_missing_trailer(self, tmp_path):
        path = tmp_path / "no-trailer.jsonl"
        path.write_text(
            '{"day": 0, "metric": "m", "labels": {}, "value": 1.0}\n',
            encoding="utf-8",
        )
        with pytest.raises(SealedFileError, match="missing checksum trailer"):
            read_timeseries(path)

    def test_dropped_sample_detected(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        recorder.tick(1)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text(
            "\n".join(lines[1:]) + "\n", encoding="utf-8",  # drop sample 0
        )
        with pytest.raises(SealedFileError, match="declares"):
            read_timeseries(path)

    def test_tampered_value_fails_checksum(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc(5)
        recorder.tick(0)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["value"] = 999.0
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SealedFileError, match="checksum mismatch"):
            read_timeseries(path)

    def test_data_after_trailer(self, tmp_path):
        recorder, counter, _ = make_recorder()
        counter.inc()
        recorder.tick(0)
        path = tmp_path / "series.jsonl"
        recorder.write_jsonl(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"day": 9}\n')
        with pytest.raises(SealedFileError, match="after the checksum"):
            read_timeseries(path)

    def test_trailer_kind_constant(self, tmp_path):
        path = tmp_path / "series.jsonl"
        write_timeseries([], path)
        trailer = json.loads(path.read_text(encoding="utf-8"))
        assert trailer["kind"] == CHECKSUM_KIND
        assert trailer["samples"] == 0


class TestMergeSamples:
    def test_merge_tags_run_names(self, tmp_path):
        a, counter_a, _ = make_recorder()
        counter_a.inc(1)
        a.tick(0)
        b, counter_b, _ = make_recorder()
        counter_b.inc(2)
        b.tick(0)
        merged = merge_samples([("runA", a), ("runB", b)])
        runs = {sample["run"] for sample in merged}
        assert runs == {"runA", "runB"}
        path = tmp_path / "merged.jsonl"
        write_timeseries(merged, path)
        assert read_timeseries(path) == merged


class TestSimStreamTicker:
    def test_ticker_drives_paper_series(self):
        """Integer totals stream through the ticker and come back as
        exact HR percentages."""
        recorder = TimeSeriesRecorder()
        ticker = SimStreamTicker(recorder, stream="main")

        class Totals:
            total_requests = 4
            total_hits = 1
            total_bytes_requested = 400
            total_bytes_hit = 100

        ticker.update(Totals())
        ticker.set_occupancy(300, 3)
        recorder.tick(0)
        assert hit_rate_series(recorder) == [(0, 25.0)]
        assert occupancy_series(recorder) == [(0, 300.0)]
