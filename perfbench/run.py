"""The repository's benchmark: one command for every workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-bl --seed 1996 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no tracing; ``--trace 1`` is the separate traced run that reports the
per-layer metrics and writes its spans to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  Both runs check the
program's outputs.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the host (``nproc``, ``os.cpu_count()``, Python) and the run's
sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = {"sweep-bl": "sweep_bl", "ingest-u": "ingest_u"}
#: Fresh-interpreter set-ups timed per run for ``setup_s``; the median counts.
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", action="store_true",
        help="internal: import the program and the workload, print 'ready', exit",
    )
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def time_setups(args) -> list:
    """Seconds from spawning a fresh interpreter until it is ready to make
    its first timed call, for ``SETUP_PROBES`` set-ups."""
    seconds = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__)), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline()
            seconds.append(time.perf_counter() - start)
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        finally:
            probe.stdout.close()
            probe.wait(timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
    return seconds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import common
    import ledger as ledger_module

    run_id = f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}"
    tmp = TMP / run_id
    tmp.mkdir(parents=True, exist_ok=True)
    traced = bool(args.trace) and not args.probe
    ctx = common.Context(
        seed=args.seed, seconds=args.seconds, tmp=tmp,
        ledger=ledger_module.Ledger(run_id) if traced else ledger_module.OFF,
    )
    try:
        workload = importlib.import_module(WORKLOADS[args.workload])
        if args.probe:
            print("ready", flush=True)
            return 0
        result = (workload.run_traced if traced else workload.run)(ctx)
        if not traced:
            result.metrics["peak_rss_mib"] = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ) / 1024.0
            result.metrics["setup_s"] = common.median(time_setups(args))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    spec = load_spec()
    host = host_info()
    wanted = spec["per_layer" if traced else "end_to_end"]
    if traced:
        # Rows of layers this workload never calls read 0; every other row
        # must have been measured, or the ``missing`` check below fails.
        for name in workload.NOT_CALLED:
            result.metrics.setdefault(name, 0.0)
        result.metrics.update({
            "host.nproc": host["nproc"],
            "host.cpu_count": host["cpu_count"] or 0,
            "error_ratio": result.failed / max(1, result.attempted),
        })
        ctx.ledger.write(
            OUT / f"spans-{args.workload}-seed{args.seed}.json",
            context=dict(host, workload=args.workload, seed=args.seed),
        )
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    print(json.dumps(dict(
        host, workload=args.workload, seed=args.seed, trace=int(traced),
        broken_checks=result.broken, **result.info,
    )))
    print(json.dumps({
        "correct": result.correct,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
