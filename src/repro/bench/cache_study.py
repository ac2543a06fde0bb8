"""Cross-query cache benchmark: cold vs warm repeated-query wall clock.

The cache targets the interactive pattern of Section V's workloads — an
analyst keeps probing the *same* right-side table (census blocks,
streets, ecoregions) with successive point batches.  This benchmark cuts
each workload's left stream into K batches (see
:func:`~repro.bench.workloads.materialize_repeat_query`) and runs the
sweep twice per engine:

- **cold**: caching disabled, and every process-level content cache
  (prepared-geometry handles, the WKT parse memo) cleared before each
  batch — every query pays the full parse + index-build cost;
- **warm**: ``cache_budget_bytes`` set, caches cleared once up front —
  batch 0 misses and populates, batches 1..K-1 reuse the fingerprinted
  build side.

Wall-clock is the *only* thing allowed to differ: the benchmark asserts
rows and simulated seconds byte-identical per batch across the two arms
(the cache's hard invariant, measured end to end).  The headline
``best_warm_speedup`` is the best per-case tail speedup — the repeated
batches 1..K-1, where a warm cache actually applies.  Build-dominated
workloads (G10M-wwf's large ecoregion polygons) clear 2x; probe-bound
ones (taxi points against small polygon tables) show honest modest wins,
and ISP-MC with the paper's slow refinement engine is refinement-bound,
which caching cannot help.

Run it with ``python -m repro.bench cache``; the committed
``BENCH_cache.json`` at the repo root is this benchmark's output on the
container it was generated in.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any

from repro.bench.harness import Study
from repro.bench.runner import run_ispmc, run_spatialspark
from repro.bench.workloads import materialize_repeat_query
from repro.cache import CacheManager, get_cache, set_cache
from repro.errors import BenchError
from repro.geometry.prepared import clear_prepared_cache
from repro.geometry.wkt import clear_wkt_cache
from repro.runtime.config import RuntimeConfig

__all__ = ["run_cache_benchmark", "render_cache", "STUDY"]

DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024
_WORKLOADS = ("taxi-nycb", "taxi-lion-100", "G10M-wwf")
_ENGINES = ("spatialspark", "isp-mc")


def _clear_process_caches() -> None:
    """Reset every cross-query cache to a cold start."""
    set_cache(CacheManager(budget_bytes=None, emit_events=True))
    clear_prepared_cache()
    clear_wkt_cache()


def _run_batch(engine: str, mat, nodes: int, runtime: RuntimeConfig,
               events_out: str | None = None):
    if events_out is not None:
        runtime = replace(runtime, events_out=events_out)
    if engine == "spatialspark":
        # Few, fat partitions: the study measures parse/build/probe cost,
        # not scheduler bookkeeping (results are partition-independent).
        return run_spatialspark(mat, nodes, num_partitions=8, runtime=runtime)
    if engine == "isp-mc":
        return run_ispmc(mat, nodes, runtime=runtime)
    raise BenchError(f"unknown engine {engine!r}")


def run_cache_benchmark(
    batches: int = 12,
    scale: float = 0.12,
    nodes: int = 1,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    workload_names: tuple[str, ...] = _WORKLOADS,
    engines: tuple[str, ...] = _ENGINES,
    events_out: str | None = None,
) -> dict[str, Any]:
    """Cold vs warm repeated-query sweep; returns a JSON-ready document.

    With ``events_out``, one extra warm batch is re-run afterwards with
    the structured event log enabled, so the written JSONL carries the
    ``CacheHit`` events of a warm build side (the CI artifact).
    """
    if batches < 2:
        raise BenchError(f"need at least 2 batches to warm a cache, got {batches}")
    if budget_bytes < 1:
        raise BenchError(f"budget_bytes must be positive, got {budget_bytes}")
    warm_runtime = RuntimeConfig(cache_budget_bytes=budget_bytes)
    cases: list[dict[str, Any]] = []
    for name in workload_names:
        runs = materialize_repeat_query(name, batches=batches, scale=scale)
        for engine in engines:
            cold: list[dict[str, Any]] = []
            for mat in runs:
                _clear_process_caches()
                start = time.perf_counter()
                result = _run_batch(engine, mat, nodes, RuntimeConfig())
                cold.append(
                    {
                        "seconds": time.perf_counter() - start,
                        "rows": result.result_rows,
                        "simulated_seconds": result.simulated_seconds,
                    }
                )
            _clear_process_caches()
            warm: list[dict[str, Any]] = []
            for mat in runs:
                start = time.perf_counter()
                result = _run_batch(engine, mat, nodes, warm_runtime)
                warm.append(
                    {
                        "seconds": time.perf_counter() - start,
                        "rows": result.result_rows,
                        "simulated_seconds": result.simulated_seconds,
                    }
                )
            stats = get_cache().stats.as_dict()
            identical = all(
                c["rows"] == w["rows"]
                and c["simulated_seconds"] == w["simulated_seconds"]
                for c, w in zip(cold, warm)
            )
            cold_tail = sum(b["seconds"] for b in cold[1:])
            warm_tail = sum(b["seconds"] for b in warm[1:])
            cases.append(
                {
                    "workload": name,
                    "engine": engine,
                    "batches": batches,
                    "rows_per_batch": [b["rows"] for b in cold],
                    "cold_seconds": [b["seconds"] for b in cold],
                    "warm_seconds": [b["seconds"] for b in warm],
                    "cold_tail_seconds": cold_tail,
                    "warm_tail_seconds": warm_tail,
                    # batches 1..K-1: the repeated-query portion a warm
                    # cache can serve (batch 0 is cold in both arms).
                    "warm_speedup": (
                        cold_tail / warm_tail if warm_tail > 0 else float("inf")
                    ),
                    "identical": identical,
                    "cache_stats": stats,
                }
            )
    doc: dict[str, Any] = {
        "benchmark": "cache",
        "batches": batches,
        "scale": scale,
        "nodes": nodes,
        "budget_bytes": budget_bytes,
        "cases": cases,
        "best_warm_speedup": max(c["warm_speedup"] for c in cases),
        "all_identical": all(c["identical"] for c in cases),
    }
    if events_out is not None:
        # Annotated artifact: populate the cache with one silent batch,
        # then re-run the next batch with the event log on — its stream
        # carries CacheHit events alongside the usual query events.
        runs = materialize_repeat_query(
            workload_names[-1], batches=batches, scale=scale
        )
        _clear_process_caches()
        _run_batch(engines[0], runs[0], nodes, warm_runtime)
        _run_batch(
            engines[0], runs[1], nodes, warm_runtime, events_out=events_out
        )
        doc["events_out"] = events_out
    return doc


def render_cache(doc: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_cache_benchmark` output."""
    lines = [
        f"Cross-query cache benchmark ({doc['batches']} point batches per "
        f"workload, scale {doc['scale']}, budget "
        f"{doc['budget_bytes'] // (1024 * 1024)} MiB)",
        "",
        f"{'workload':>14} {'engine':>12} {'cold tail s':>12} "
        f"{'warm tail s':>12} {'speedup':>8} {'hits':>6} {'identical':>10}",
    ]
    for case in doc["cases"]:
        lines.append(
            f"{case['workload']:>14} {case['engine']:>12} "
            f"{case['cold_tail_seconds']:>12.3f} "
            f"{case['warm_tail_seconds']:>12.3f} "
            f"{case['warm_speedup']:>7.2f}x "
            f"{case['cache_stats']['hits']:>6} "
            f"{str(case['identical']):>10}"
        )
    lines.append("")
    lines.append(
        f"best warm speedup: {doc['best_warm_speedup']:.2f}x  "
        f"(cold batch 0 excluded from both arms; rows and simulated "
        f"seconds {'identical' if doc['all_identical'] else 'MISMATCH'} "
        f"across arms)"
    )
    return "\n".join(lines)


def _arguments(parser) -> None:
    parser.add_argument("--events-out", metavar="PATH",
                        help="re-run one warm batch with the event log on and write its "
                        "CacheHit-annotated JSONL to PATH")
    parser.add_argument("--assert-warm-speedup", type=float, metavar="RATIO",
                        help="exit nonzero unless the best warm-over-cold repeated-query "
                        "speedup reaches RATIOx")


def _identity(doc: dict[str, Any]) -> list[tuple[str, bool]]:
    """Cache-on rows and simulated seconds equal cache-off, per case."""
    checks = [("all_identical", doc["all_identical"])]
    return checks + [
        (f"identical:{case['workload']}/{case['engine']}", case["identical"])
        for case in doc["cases"]
    ]


def _gates(args, doc: dict[str, Any]) -> list[str]:
    best = doc["best_warm_speedup"]
    if args.assert_warm_speedup is not None and best < args.assert_warm_speedup:
        return [f"best warm speedup {best:.2f}x < {args.assert_warm_speedup:.2f}x"]
    return []


STUDY = Study(
    name="cache",
    help="cross-query cache: cold vs warm repeated-query wall-clock",
    arguments=_arguments,
    run=lambda args: run_cache_benchmark(events_out=args.events_out),
    render=render_cache,
    identity=_identity,
    gates=_gates,
)
