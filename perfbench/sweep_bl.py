"""``sweep-bl``: the paper's Experiment 2 as a closed batch.

One pass: ``generate("BL", seed)`` -> ``TraceValidator.validate`` ->
``run_infinite_cache`` (MaxNeeded) -> ``run_sweep`` over the 36
``taxonomy_policies()`` cells at 10% of MaxNeeded, with a cold
``ResultCache`` in a fresh directory (36 stores) -> per-cell records.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import (
    PolicySpec,
    ResultCache,
    SimCache,
    SweepJob,
    run_sweep,
    simulate,
    taxonomy_policies,
)
from repro.core import sweep as sweep_module
from repro.core.experiments import run_infinite_cache
from repro.core.keys import RANDOM, SIZE, TAXONOMY_KEYS
from repro.core.policy import KeyPolicy
from repro.trace import TraceValidator
from repro.workloads import generate
from repro.workloads import generator as generator_module

import layers
from common import Result, reference_seconds, report_passes

SCALE = 0.15
FRACTION = 0.10
#: Sweep workers.  One: on the shared 2-CPU reference box a 2-worker pool
#: spread sim_rps 17% across five seeds, one worker 8%.  The pool path is
#: still run, by the check against a 2-worker grid (when 2 CPUs exist).
WORKERS = 1

#: Per-layer rows of layers this workload never calls; they read 0.
NOT_CALLED = (
    "trace.clf_format_s", "trace.clf_read_s", "trace.rejected_lines",
    "trace.stats_s",
)

#: name -> (HR, WHR, hits) for every cell of one sweep.
Records = Dict[str, Tuple[float, float, int]]


@dataclass
class Pass:
    wall_s: float
    raw_requests: int
    sweep_s: float
    simulated: int
    records: Records
    valid: list = field(repr=False)
    capacity: int = 0
    report: object = field(default=None, repr=False)


def records_of(report) -> Records:
    return {
        jr.result.name: (
            jr.result.hit_rate, jr.result.weighted_hit_rate,
            jr.result.metrics.total_hits,
        )
        for jr in report.results
    }


def jobs_for(capacity: int) -> List[SweepJob]:
    return [
        SweepJob(PolicySpec.from_policy(policy), capacity)
        for policy in taxonomy_policies()
    ]


def one_pass(seed: int, tmp: Path, ledger) -> Pass:
    start = time.perf_counter()
    with ledger.span("sweep-bl.pass"):
        with ledger.span("workloads.generate"), ledger.shim(
            generator_module, "build_catalog", "workloads.build_catalog",
        ):
            generated = generate("BL", seed=seed, scale=SCALE)
        with ledger.span("trace.validate"):
            valid = TraceValidator().validate(generated.raw)
        with ledger.span("sim.infinite"):
            capacity = int(run_infinite_cache(valid).max_used_bytes * FRACTION)
        with tempfile.TemporaryDirectory(dir=tmp) as cache_dir:
            result_cache = ResultCache(cache_dir)
            with ledger.span("sweep.run_sweep"), ledger.shim(
                sweep_module, "trace_fingerprint", "sweep.fingerprint",
            ), ledger.shim(result_cache, "put", "result_cache.put"):
                report = run_sweep(
                    valid, jobs_for(capacity), workers=WORKERS,
                    result_cache=result_cache,
                )
        with ledger.span("sweep.records"):
            records = records_of(report)
    return Pass(
        wall_s=time.perf_counter() - start,
        raw_requests=len(generated.raw),
        sweep_s=report.wall_seconds,
        simulated=report.simulated_requests,
        records=records,
        valid=valid,
        capacity=capacity,
        report=report,
    )


def check_pass(result: Result, reference: Records, other: Pass) -> None:
    """A pass reproduces the reference pass's records, cell for cell."""
    cells = len(reference)
    result.attempted += cells
    result.expect("36 cells per pass", len(other.records) == 36,
                  failed=abs(36 - len(other.records)))
    result.expect(
        "pass records == first pass",
        other.records == reference,
        failed=sum(
            reference.get(k) != v for k, v in other.records.items()
        ) + abs(cells - len(other.records)),
    )


def check_grid(result: Result, reference: Pass, tmp: Path) -> None:
    """The grid matches a run with the other pool size, and SIZE/RANDOM
    matches a ``NaiveIndex`` replay."""
    cells = len(reference.records)
    other_workers = min(2, os.cpu_count() or 1) if WORKERS == 1 else 1
    with tempfile.TemporaryDirectory(dir=tmp) as cache_dir:
        differential = records_of(run_sweep(
            reference.valid, jobs_for(reference.capacity),
            workers=other_workers, result_cache=ResultCache(cache_dir),
        ))
    result.attempted += cells
    result.expect(
        f"grid == workers={other_workers} grid",
        differential == reference.records,
        failed=sum(differential.get(k) != v for k, v in reference.records.items()),
    )

    naive = simulate(reference.valid, SimCache(
        capacity=reference.capacity, policy=KeyPolicy([SIZE, RANDOM]),
        use_heap_index=False,
    ))
    result.attempted += 1
    result.expect(
        "SIZE/RANDOM == NaiveIndex replay",
        reference.records.get("SIZE/RANDOM") == (
            naive.hit_rate, naive.weighted_hit_rate, naive.metrics.total_hits,
        ),
    )


def run(ctx) -> Result:
    result = Result(info={"workers": WORKERS})
    walls: List[Tuple[float, float]] = []
    rates: List[Tuple[float, float]] = []
    first = None
    deadline = time.perf_counter() + ctx.seconds
    while not walls or time.perf_counter() < deadline:
        # Only scalars and the first pass's records cross passes, so
        # peak_rss_mib is one pass's memory.
        one = None
        before = reference_seconds()
        one = one_pass(ctx.seed, ctx.tmp, ctx.ledger)
        ref = (before + reference_seconds()) / 2
        if first is None:
            first = one.records
        check_pass(result, first, one)
        walls.append((one.wall_s, ref))
        rates.append((one.simulated / one.sweep_s, ref))
    # Every pass matched the first, so the last one stands for them all.
    check_grid(result, one, ctx.tmp)
    report_passes(result, walls, rates)
    return result


def run_traced(ctx) -> Result:
    from ledger import OFF

    result = Result(info={"workers": WORKERS})
    plain = one_pass(ctx.seed, ctx.tmp, OFF)
    traced = one_pass(ctx.seed, ctx.tmp, ctx.ledger)
    for one in (plain, traced):
        check_pass(result, plain.records, one)
    check_grid(result, plain, ctx.tmp)
    ledger, report = ctx.ledger, traced.report
    job_busy = sum(jr.seconds for jr in report.results)
    sweep_wall = ledger.total("sweep.run_sweep")
    # The bare-loop subset: each primary key with a RANDOM secondary.
    cells = [
        lambda k=key: SimCache(traced.capacity, KeyPolicy([k, RANDOM]))
        for key in TAXONOMY_KEYS
    ]
    size_random = lambda: SimCache(traced.capacity, KeyPolicy([SIZE, RANDOM]))
    result.metrics.update(
        {
            "workloads.catalog_s": ledger.total("workloads.build_catalog"),
            "workloads.sample_s": ledger.self_time("workloads.generate"),
            "workloads.raw_requests": traced.raw_requests,
            "trace.validate_s": ledger.total("trace.validate"),
            "sim.infinite_s": ledger.total("sim.infinite"),
            "sweep.wall_s": sweep_wall,
            "sweep.job_busy_s": job_busy,
            "sweep.busy_ratio": job_busy / (sweep_wall * report.workers),
            "sweep.overhead_s": sweep_wall - job_busy / report.workers,
            "sweep.fingerprint_s": ledger.total("sweep.fingerprint"),
            "result_cache.put_s": ledger.total("result_cache.put"),
            "result_cache.puts": ledger.count("result_cache.put"),
            "sweep.retried_jobs": report.retried_jobs,
            "sweep.pool_restarts": report.pool_restarts,
            "sweep.workers": report.workers,
            "bench.trace_overhead": traced.wall_s / plain.wall_s,
        },
        **layers.cache_layer(traced.valid, cells),
        **layers.obs_layer(traced.valid, size_random),
    )
    return result
