"""Parallel-runtime benchmark: serial vs process-pool wall clock.

Like the kernels microbenchmark, this measures the one thing the
simulation model deliberately does *not* capture: real Python wall-clock.
It times the 100k-point probe workload (taxi pickups against the NYC
census blocks / LION indexes) executed chunk-by-chunk serially and on
:class:`~repro.runtime.pool.ProcessBackend` pools of increasing size,
asserting the results identical, and runs the full substrate-equivalence
suite — rows, simulated seconds and registry counters byte-identical for
both engines and both predicates with the pool on or off.

Speedup is bounded by the machine: a pool of 4 on a single-core container
is pure overhead, so the document records ``available_cores`` alongside
every ratio.  CI runs this on multi-core runners (the ``parallel-smoke``
job), where the 4-worker pool is expected to clear 2x.

Run it with ``python -m repro.bench parallel``; the committed
``BENCH_parallel.json`` at the repo root is this benchmark's output on
the container it was generated in.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from typing import Any

from repro.bench.harness import Study, best_of, pool_sizes, positive_int
from repro.bench.kernels import _probe_points
from repro.bench.runner import run_engine
from repro.bench.workloads import WORKLOADS, materialize
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.data.catalog import load_dataset
from repro.errors import BenchError
from repro.obs.registry import collecting
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import ProcessBackend

__all__ = [
    "run_parallel_benchmark",
    "render_parallel",
    "STUDY",
    "substrate_equivalence",
    "events_overhead",
]


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_probe_workload(
    name: str,
    index: BroadcastIndex,
    points: list,
    executor_counts: tuple[int, ...],
    chunk_size: int,
    repeat: int,
) -> dict[str, Any]:
    """Best-of-``repeat`` wall clock: serial chunk loop vs pooled chunks.

    The unit of dispatch is one ``chunk_size`` bulk probe — exactly the
    task granularity the executors knob fans out in the join paths — and
    every pooled run's matches must equal the serial run's, match for
    match, row for row.
    """
    chunks = [
        points[start : start + chunk_size]
        for start in range(0, len(points), chunk_size)
    ]

    serial_best, serial_result = best_of(
        lambda: [index.probe_batch(chunk) for chunk in chunks], repeat
    )
    serial_matches = [matches for matches, _ in serial_result]

    pools: dict[str, Any] = {}
    for workers in executor_counts:
        pool = ProcessBackend(workers)
        tasks = [
            (lambda chunk=chunk: index.probe_batch(chunk)) for chunk in chunks
        ]
        pool_best, pool_result = best_of(lambda: pool.run(tasks), repeat)
        pools[str(workers)] = {
            "workers": workers,
            "seconds": pool_best,
            "speedup": serial_best / pool_best if pool_best else math.inf,
            # matches AND cost units, chunk for chunk
            "identical": pool_result == serial_result,
        }

    pairs = sum(len(matches) for matches in serial_matches)
    return {
        "workload": name,
        "points": len(points),
        "chunks": len(chunks),
        "pairs": pairs,
        "serial_seconds": serial_best,
        "pools": pools,
    }


def substrate_equivalence(
    scale: float = 0.02,
    executor_counts: tuple[int, ...] = (2, 4),
    nodes: int = 2,
) -> dict[str, Any]:
    """Serial vs pooled runs of both substrates and both predicates.

    Each case re-runs the full engine pipeline and compares result rows,
    simulated seconds and the registry-counter snapshot against the
    serial baseline — the hard byte-identity invariant, exercised at the
    system level rather than per-kernel.
    """
    cases = []
    for workload_name in ("taxi-nycb", "taxi-lion-100"):
        # Warm the materialization memo first: the first materialize() at a
        # given scale writes the datasets to HDFS, which bumps hdfs.* write
        # counters that later (cached) runs never see.  That first-run
        # artifact has nothing to do with the pool, so keep it out of the
        # serial-vs-pooled comparison.
        materialize(workload_name, scale=scale)
        for engine in ("spatialspark", "isp-mc"):

            def measure(executors):
                with collecting() as reg:
                    result = run_engine(
                        workload_name,
                        engine,
                        nodes,
                        scale=scale,
                        runtime=RuntimeConfig(executors=executors),
                    )
                    counters = reg.snapshot()["counters"]
                return result.result_rows, result.simulated_seconds, counters

            base_rows, base_seconds, base_counters = measure("serial")
            for workers in executor_counts:
                rows, seconds, counters = measure(workers)
                cases.append(
                    {
                        "workload": workload_name,
                        "engine": engine,
                        "executors": workers,
                        "rows": rows,
                        "identical": (
                            rows == base_rows
                            and seconds == base_seconds
                            and counters == base_counters
                        ),
                    }
                )
    return {
        "scale": scale,
        "nodes": nodes,
        "cases": cases,
        "all_identical": all(c["identical"] for c in cases),
    }


def events_overhead(
    scale: float = 0.05,
    nodes: int = 2,
    repeat: int = 5,
    workload_name: str = "taxi-nycb",
) -> dict[str, Any]:
    """Wall-clock cost of the structured event log on a full engine run.

    ``repeat`` interleaved pairs of the same SpatialSpark run with the
    event sink disabled and with ``events_out`` writing JSONL to a
    scratch file.  ``delta_fraction`` is the minimum paired relative
    slowdown; the CI smoke job asserts it stays under 10% via
    ``--assert-events-overhead 0.10``.

    The default scale is deliberately larger than the equivalence
    suite's: the event count is fixed by the partition count while the
    real work grows with the data, so a microscopic run (~80 ms) would
    measure the sink's constant cost against almost no work.
    """
    import tempfile

    # Warm the materialization memo so neither arm pays the one-time
    # dataset write.
    materialize(workload_name, scale=scale)

    def one(events: bool) -> float:
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "events.jsonl") if events else None
            start = time.perf_counter()
            run_engine(
                workload_name,
                "spatialspark",
                nodes,
                scale=scale,
                runtime=RuntimeConfig(events_out=path),
            )
            return time.perf_counter() - start

    one(False)  # warm both code paths before timing
    one(True)
    # Interleave the arms so machine drift (CI neighbours, thermal
    # throttling) lands on both equally instead of biasing whichever arm
    # ran last.  The guard statistic is the *minimum* paired delta: a
    # noisy sample inflates individual pairs, but a real regression slows
    # every pair, so min-of-pairs is a stable upper-bound check.
    off_seconds = math.inf
    on_seconds = math.inf
    delta = math.inf
    for _ in range(repeat):
        off_one = one(False)
        on_one = one(True)
        off_seconds = min(off_seconds, off_one)
        on_seconds = min(on_seconds, on_one)
        if off_one > 0:
            delta = min(delta, (on_one - off_one) / off_one)
    if delta == math.inf:  # pragma: no cover - repeat >= 1 always measures
        delta = 0.0
    return {
        "workload": workload_name,
        "scale": scale,
        "nodes": nodes,
        "repeat": repeat,
        "events_off_seconds": off_seconds,
        "events_on_seconds": on_seconds,
        "delta_fraction": delta,
    }


def run_parallel_benchmark(
    points: int = 100_000,
    executor_counts: tuple[int, ...] = (2, 4),
    chunk_size: int = 2048,
    repeat: int = 3,
    equivalence_scale: float = 0.02,
) -> dict[str, Any]:
    """Time serial vs pooled probes and run the substrate equivalence suite.

    Returns a JSON-ready document; ``python -m repro.bench parallel``
    both prints it and (with ``--out``) writes it to disk.
    """
    if points < 1:
        raise BenchError(f"points must be positive, got {points}")
    if not executor_counts:
        raise BenchError("need at least one executor count")
    probes = _probe_points(points)
    nycb = load_dataset("nycb", 1.0)
    within_index = BroadcastIndex(
        nycb.records, SpatialOperator.WITHIN, engine="fast"
    )
    lion = load_dataset("lion", 1.0)
    radius = WORKLOADS["taxi-lion-100"].radius_at(1.0)
    nearestd_index = BroadcastIndex(
        lion.records, SpatialOperator.NEAREST_D, radius=radius, engine="fast"
    )
    workloads = {
        "within": _time_probe_workload(
            "within", within_index, probes, executor_counts, chunk_size, repeat
        ),
        "nearestd": _time_probe_workload(
            "nearestd", nearestd_index, probes, executor_counts, chunk_size,
            repeat,
        ),
    }
    return {
        "benchmark": "parallel",
        "points": points,
        "chunk_size": chunk_size,
        "repeat": repeat,
        "executor_counts": list(executor_counts),
        "available_cores": _available_cores(),
        "start_method": (
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ),
        "workloads": workloads,
        "equivalence": substrate_equivalence(
            equivalence_scale, executor_counts
        ),
        "events_overhead": events_overhead(),
    }


def render_parallel(doc: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_parallel_benchmark` output."""
    lines = [
        f"Process-pool runtime benchmark ({doc['points']} points, "
        f"chunk={doc['chunk_size']}, best of {doc['repeat']}, "
        f"{doc['available_cores']} core(s) available, "
        f"{doc['start_method']} workers)",
        "",
        f"{'workload':>10} {'pairs':>9} {'serial s':>10} "
        f"{'pool':>6} {'pool s':>10} {'speedup':>8} {'identical':>10}",
    ]
    for entry in doc["workloads"].values():
        for pool in entry["pools"].values():
            lines.append(
                f"{entry['workload']:>10} {entry['pairs']:>9} "
                f"{entry['serial_seconds']:>10.4f} {pool['workers']:>5}w "
                f"{pool['seconds']:>10.4f} {pool['speedup']:>7.2f}x "
                f"{str(pool['identical']):>10}"
            )
    eq = doc["equivalence"]
    lines.append("")
    lines.append(
        f"Substrate equivalence (scale {eq['scale']}, {eq['nodes']} nodes): "
        f"{'all identical' if eq['all_identical'] else 'MISMATCH'}"
    )
    for case in eq["cases"]:
        lines.append(
            f"  {case['workload']:>14} {case['engine']:>13} "
            f"executors={case['executors']} rows={case['rows']:<7} "
            f"identical={case['identical']}"
        )
    overhead = doc.get("events_overhead")
    if overhead:
        lines.append("")
        lines.append(
            f"Event-log overhead ({overhead['workload']}, scale "
            f"{overhead['scale']}, best of {overhead['repeat']}): "
            f"off={overhead['events_off_seconds']:.4f}s "
            f"on={overhead['events_on_seconds']:.4f}s "
            f"delta={overhead['delta_fraction'] * 100.0:+.1f}%"
        )
    if doc["available_cores"] < max(doc["executor_counts"], default=1):
        lines.append("")
        lines.append(
            f"note: only {doc['available_cores']} core(s) available — pool "
            "speedup is bounded by hardware; see the CI parallel-smoke job "
            "for multi-core numbers"
        )
    return "\n".join(lines)


def _arguments(parser) -> None:
    parser.add_argument("--points", type=positive_int, default=100_000,
                        help="probe points (default 100000)")
    parser.add_argument("--executors", type=pool_sizes, default=(2, 4), metavar="N[,N...]",
                        help="comma-separated pool sizes to benchmark (default 2,4)")
    parser.add_argument("--assert-speedup", type=float, metavar="RATIO",
                        help="exit nonzero unless the largest pool reaches RATIOx speedup "
                        "over serial (use on multi-core CI runners; meaningless on one core)")
    parser.add_argument("--assert-events-overhead", type=float, metavar="RATIO",
                        help="exit nonzero if enabling the event log slows the engine run "
                        "by more than RATIO (e.g. 0.10 for 10%%)")


def _identity(doc: dict[str, Any]) -> list[tuple[str, bool]]:
    """Substrate equivalence, and every pool against the serial run."""
    checks = [("all_identical", doc["equivalence"]["all_identical"])]
    return checks + [
        (f"identical:{name}/x{pool['workers']}", pool["identical"])
        for name, entry in sorted(doc["workloads"].items())
        for pool in entry["pools"].values()
    ]


def _gates(args, doc: dict[str, Any]) -> list[str]:
    failures = []
    if args.assert_speedup is not None:
        best = max(
            pool["speedup"]
            for entry in doc["workloads"].values()
            for pool in entry["pools"].values()
        )
        if best < args.assert_speedup:
            failures.append(
                f"best pool speedup {best:.2f}x < {args.assert_speedup:.2f}x "
                f"({doc['available_cores']} core(s) available)"
            )
    if args.assert_events_overhead is not None:
        delta = doc["events_overhead"]["delta_fraction"]
        if delta > args.assert_events_overhead:
            failures.append(
                f"event-log overhead {delta * 100.0:.1f}% > "
                f"{args.assert_events_overhead * 100.0:.1f}%"
            )
    return failures


STUDY = Study(
    name="parallel",
    help="serial vs process-pool wall-clock and pool byte-identity",
    arguments=_arguments,
    run=lambda args: run_parallel_benchmark(
        points=args.points, executor_counts=args.executors
    ),
    render=render_parallel,
    identity=_identity,
    gates=_gates,
)
