"""``ingest-u``: characterising a log, as a closed batch.

One pass: ``generate("U", seed)`` raw log (invalid lines included) ->
``format_clf_line`` -> ``read_clf_lines`` -> ``TraceValidator.validate``
-> ``run_infinite_cache`` -> ``repro.trace.stats`` (``summarize``,
``size_histogram``, ``interreference_scatter`` and both rank series).
The cache is infinite, so the eviction path does no work here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core import SimCache
from repro.core.experiments import run_infinite_cache
from repro.trace import (
    TraceValidator,
    format_clf_line,
    interreference_scatter,
    read_clf_lines,
    server_rank_series,
    size_histogram,
    summarize,
    url_bytes_rank_series,
)
from repro.trace.reader import IngestStats
from repro.workloads import generate
from repro.workloads import generator as generator_module

import layers
from common import Result, reference_seconds, report_passes

SCALE = 0.25
#: Per-layer rows of layers this workload never calls; they read 0.
NOT_CALLED = (
    "sweep.wall_s", "sweep.job_busy_s", "sweep.busy_ratio", "sweep.overhead_s",
    "sweep.fingerprint_s", "result_cache.put_s", "result_cache.puts",
    "sweep.retried_jobs", "sweep.pool_restarts", "sweep.workers",
)


@dataclass
class Pass:
    wall_s: float
    infinite_s: float
    raw_requests: int
    rejected_lines: int
    max_needed: int
    valid: list = field(repr=False)
    generated: object = field(repr=False)


def one_pass(seed: int, ledger) -> Pass:
    start = time.perf_counter()
    with ledger.span("ingest-u.pass"):
        with ledger.span("workloads.generate"), ledger.shim(
            generator_module, "build_catalog", "workloads.build_catalog",
        ):
            generated = generate("U", seed=seed, scale=SCALE)
        with ledger.span("trace.clf_format"):
            lines = [format_clf_line(request) for request in generated.raw]
        ingest = IngestStats()
        with ledger.span("trace.clf_read"):
            parsed = list(read_clf_lines(lines, stats=ingest))
        with ledger.span("trace.validate"):
            valid = TraceValidator().validate(parsed)
        with ledger.span("sim.infinite"):
            infinite_start = time.perf_counter()
            max_needed = run_infinite_cache(valid).max_used_bytes
            infinite_s = time.perf_counter() - infinite_start
        with ledger.span("trace.stats"):
            summarize(valid)
            size_histogram(valid)
            interreference_scatter(valid)
            server_rank_series(valid)
            url_bytes_rank_series(valid)
    return Pass(
        wall_s=time.perf_counter() - start,
        infinite_s=infinite_s,
        raw_requests=len(generated.raw),
        rejected_lines=ingest.rejected,
        max_needed=max_needed,
        valid=valid,
        generated=generated,
    )


def check(result: Result, one: Pass) -> float:
    """The CLF round trip loses no valid line: url/size/status of the
    parsed, validated trace equal ``generate(...).valid()``, and MaxNeeded
    agrees.  Returns the simulated requests/s of the reference pass."""
    expected = one.generated.valid()
    got = one.valid
    lost = abs(len(expected) - len(got)) + sum(
        (a.url, a.size, a.status) != (b.url, b.size, b.status)
        for a, b in zip(expected, got)
    )
    result.attempted += len(expected)
    result.expect("validated trace == generate(...).valid()", lost == 0, lost)
    start = time.perf_counter()
    max_needed = run_infinite_cache(expected).max_used_bytes
    seconds = time.perf_counter() - start
    result.expect("MaxNeeded agrees", max_needed == one.max_needed)
    return len(expected) / seconds


def run(ctx) -> Result:
    result = Result()
    walls: List[Tuple[float, float]] = []
    rates: List[Tuple[float, float]] = []
    deadline = time.perf_counter() + ctx.seconds
    while not walls or time.perf_counter() < deadline:
        before = reference_seconds()
        one = one_pass(ctx.seed, ctx.ledger)
        # Both infinite passes of a round count: the pipeline's and the
        # check's replay of ``generate(...).valid()``.
        replay_rate = check(result, one)
        ref = (before + reference_seconds()) / 2
        walls.append((one.wall_s, ref))
        rates.append((len(one.valid) / one.infinite_s, ref))
        rates.append((replay_rate, ref))
        # Only scalars cross passes, so peak_rss_mib is one pass's memory.
        del one
    report_passes(result, walls, rates)
    return result


def run_traced(ctx) -> Result:
    from ledger import OFF

    result = Result()
    plain = one_pass(ctx.seed, OFF)
    traced = one_pass(ctx.seed, ctx.ledger)
    for one in (plain, traced):
        check(result, one)
    result.expect(
        "traced trace == untraced trace",
        [(r.url, r.size) for r in plain.valid]
        == [(r.url, r.size) for r in traced.valid],
    )
    ledger = ctx.ledger
    infinite = lambda: SimCache(capacity=None)
    result.metrics.update(
        {
            "workloads.catalog_s": ledger.total("workloads.build_catalog"),
            "workloads.sample_s": ledger.self_time("workloads.generate"),
            "workloads.raw_requests": traced.raw_requests,
            "trace.clf_format_s": ledger.total("trace.clf_format"),
            "trace.clf_read_s": ledger.total("trace.clf_read"),
            "trace.rejected_lines": traced.rejected_lines,
            "trace.validate_s": ledger.total("trace.validate"),
            "trace.stats_s": ledger.total("trace.stats"),
            "sim.infinite_s": ledger.total("sim.infinite"),
            "bench.trace_overhead": traced.wall_s / plain.wall_s,
        },
        **layers.cache_layer(traced.valid, [infinite]),
        **layers.obs_layer(traced.valid, infinite),
    )
    return result
