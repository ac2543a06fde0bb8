"""The closed loop: set up, run queries one after another, check, report.

One client runs a workload's queries back to back; the next query starts
only after the previous one finished and its answer was checked.  Inputs
are generated and the answer checked outside the timed region.

Every timed region has a machine-speed probe right before and right after
it (see :mod:`perfbench.probe`); the end-to-end times are rescaled by the
mean of the two to seconds at the probe's reference speed, and the raw
wall times are kept in the result file.  Set-up runs ``SETUP_ROUNDS``
times from a cold cache and parse memo, and ``setup_s`` takes the median.

With ``trace`` off the run reports the end-to-end metrics.  With it on,
every other query (the first included) runs with the timing shims
installed and ``profile=True``, and the untimed queries between them give
the untraced baseline for ``trace.overhead``.  After the loop the traced
run re-executes query 0 from its seed and requires identical pairs and
bit-identical simulated seconds.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache import get_cache
from repro.geometry.wkt import clear_wkt_cache
from repro.obs.registry import REGISTRY

from perfbench.probe import REFERENCE_S, probe
from perfbench.shims import Recorder, installed
from perfbench.workloads import WARMUP_LEFT, Answer, Workload, check_answer, derive_seed

# Fewest queries a run makes, whatever --seconds says: a median needs
# three samples, and the traced run needs two traced and two untraced.
MIN_QUERIES = {False: 3, True: 4}
SETUP_ROUNDS = 3

END_TO_END_UNITS = {
    "query_p50_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Span names whose self time is reported as ``<name>_s``.
LAYER_SPANS = (
    "wkt.parse", "optimizer.plan", "partitioner.route", "probe.build", "probe.probe",
    "engine.kernel", "engine.refine_slow", "hdfs.read", "spark.job",
    "spark.shuffle_write", "impala.plan", "impala.execute", "cache.lookup",
    "cache.fingerprint", "pool.wait",
)

PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_SPANS},
    "wkt.parse_calls": "count",
    "optimizer.plan_calls": "count",
    "partitioner.route_calls": "count",
    "partitioner.replication": "tiles/record",
    "probe.candidates": "count",
    "probe.pairs": "count",
    "probe.precision": "ratio",
    "engine.kernel_calls": "count",
    "engine.points_per_call": "points/call",
    "hdfs.bytes_read": "B",
    "spark.tasks": "count",
    "spark.shuffle_bytes": "B",
    "impala.fragment_instances": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "pool.tasks": "count",
    "cluster.sim_s": "s",
    "core.other_s": "s",
    "trace.overhead": "ratio",
}


@dataclass
class QueryRecord:
    index: int
    traced: bool
    left_records: int
    prep_s: float
    wall_s: float
    probe_s: float  # mean of the probes right before and after the query
    ok: bool  # answered, and the answer passed the check
    raised: bool
    pairs: int = 0
    sim_seconds: float | None = None
    error: str | None = None
    driver_self_s: dict[str, float] = field(default_factory=dict)


@dataclass
class RunOutcome:
    workload: str
    seed: int
    seconds: float
    trace: bool
    setup_rounds: list[tuple[float, float]]  # (wall_s, probe_s) per round
    queries: list[QueryRecord]
    attempted: int
    failed: int
    metrics: dict[str, float]
    raw: dict[str, float]  # the end-to-end times before rescaling
    error_rate: float
    repeat: dict[str, Any] | None = None
    layers: dict[str, Any] | None = None


def _execute(workload: Workload, query, shared, profile: bool):
    """Time one query; returns (answer or None, wall seconds, error text)."""
    start = time.perf_counter()
    try:
        answer = workload.execute(query, shared, profile)
    except Exception:  # noqa: BLE001 - a failed query is counted, the loop goes on
        return None, time.perf_counter() - start, traceback.format_exc()
    return answer, time.perf_counter() - start, None


def _traced_execute(workload, query, shared, rec: Recorder, index: int):
    """One query with the shims installed and the registry collecting."""
    rec.query = index
    stats = get_cache().stats
    hits, misses = stats.hits, stats.misses

    previous = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        with installed(rec):
            answer, wall, error = _execute(workload, query, shared, profile=True)
        snapshot = REGISTRY.snapshot()
        counters = snapshot["counters"]
        histograms = {name: REGISTRY.histogram(name).values for name in snapshot["histograms"]}
    finally:
        REGISTRY.enabled = previous
        REGISTRY.reset()
    rec.absorb_registry(counters, histograms)
    rec.count("spark.shuffle_bytes", counters.get("shuffle.bytes_written", 0.0))
    rec.count("cache.hits", stats.hits - hits)
    rec.count("cache.misses", stats.misses - misses)
    if answer is not None:
        for metric, value in answer.info.items():
            rec.count(metric, value)
    return answer, wall, error


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool
) -> tuple[RunOutcome, Recorder | None]:
    """Set up, run the closed loop for ``seconds`` of query time, check."""
    shared, setup_rounds = _set_up(workload, seed)

    rec = Recorder() if trace else None
    records: list[QueryRecord] = []
    first: Answer | None = None
    timed = 0.0
    index = 0
    loop_start = time.perf_counter()
    # Queries that fail fast add little timed work; the elapsed-time cap
    # keeps such a run from looping far past its budget.
    while index < MIN_QUERIES[trace] or (
        timed < seconds and time.perf_counter() - loop_start < 2 * seconds
    ):
        traced = trace and index % 2 == 0
        prep_start = time.perf_counter()
        query = workload.make_query(derive_seed(seed, "query", index), shared)
        prep_s = time.perf_counter() - prep_start
        before = probe()
        if traced:
            answer, wall, error = _traced_execute(workload, query, shared, rec, index)
        else:
            answer, wall, error = _execute(workload, query, shared, profile=False)
        probe_s = (before + probe()) / 2
        ok = answer is not None and check_answer(
            workload, query, answer.pairs, derive_seed(seed, "sample", index)
        )
        if error is None and not ok:
            error = "answer check failed"
        driver_self_s = rec.driver_self_seconds(index) if traced else {}
        # Self times never overlap, so together they cannot exceed the wall.
        if ok and sum(driver_self_s.values()) > wall + 1e-6:
            ok, error = False, "layer self times exceed the query wall"
        records.append(QueryRecord(
            index=index, traced=traced, left_records=query.left_records,
            prep_s=prep_s, wall_s=wall, probe_s=probe_s, ok=ok, raised=answer is None,
            pairs=len(answer.pairs) if answer is not None else 0,
            sim_seconds=answer.sim_seconds if answer is not None else None,
            error=error, driver_self_s=driver_self_s,
        ))
        if index == 0 and trace:
            first = answer
        del query, answer
        timed += wall
        index += 1

    repeat = None
    if trace:
        repeat = _repeat_first(workload, seed, shared, first)
    attempted = len(records) + (repeat is not None)
    failed = sum(not r.ok for r in records) + (repeat is not None and not repeat["ok"])
    metrics = _end_to_end(records, setup_rounds, rescale=True)
    raw = _end_to_end(records, setup_rounds, rescale=False)
    layers = None
    if trace:
        layers, metrics = _per_layer(records, rec, first)
    return RunOutcome(
        workload=workload.name, seed=seed, seconds=seconds, trace=trace,
        setup_rounds=setup_rounds, queries=records, attempted=attempted,
        failed=failed, metrics=metrics, raw=raw, error_rate=failed / attempted,
        repeat=repeat, layers=layers,
    ), rec


def _set_up(workload: Workload, seed: int) -> tuple[Any, list[tuple[float, float]]]:
    """Build the run-wide state and warm up, from cold, ``SETUP_ROUNDS`` times.

    Each round starts with an empty cross-query cache and WKT parse memo,
    so every round does the same work; the last round's state is kept.
    Returns it with each round's wall seconds and mean probe seconds.
    """
    rounds = []
    for _ in range(SETUP_ROUNDS):
        get_cache().clear()
        clear_wkt_cache()
        before = probe()
        start = time.perf_counter()
        shared = workload.shared(seed)
        warm = workload.make_query(derive_seed(seed, "warmup"), shared, left_count=WARMUP_LEFT)
        workload.execute(warm, shared, profile=False)
        elapsed = time.perf_counter() - start
        del warm
        rounds.append((elapsed, (before + probe()) / 2))
    return shared, rounds


def _repeat_first(workload, seed, shared, first: Answer | None) -> dict[str, Any]:
    """Re-run query 0 from its seed: same pairs, bit-identical simulated seconds."""
    query = workload.make_query(derive_seed(seed, "query", 0), shared)
    answer, _, error = _execute(workload, query, shared, profile=True)
    ok = (
        first is not None and answer is not None
        and answer.pairs == first.pairs
        and answer.sim_seconds == first.sim_seconds
    )
    return {
        "ok": ok,
        "sim_seconds": answer.sim_seconds if answer is not None else None,
        "first_sim_seconds": first.sim_seconds if first is not None else None,
        "error": error,
    }


def _peak_rss_mb() -> float:
    """Peak RSS of the driver or of any pool worker, whichever is larger.

    Pool workers are forked and joined per task batch, so their peaks are
    counted under RUSAGE_CHILDREN.  ru_maxrss is in KiB on Linux.
    """
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def _end_to_end(records: list[QueryRecord], setup_rounds: list[tuple[float, float]],
                rescale: bool) -> dict[str, float]:
    """End-to-end metrics; with ``rescale`` off, from the raw wall times."""
    def seconds(value: float, probe_s: float) -> float:
        return value * REFERENCE_S / probe_s if rescale else value

    answered = [seconds(r.wall_s, r.probe_s) for r in records if not r.raised]
    total_wall = sum(seconds(r.wall_s, r.probe_s) for r in records)
    joined = sum(r.left_records for r in records if not r.raised)
    return {
        # 0.0 when every query raised: such a run is reported incorrect.
        "query_p50_s": statistics.median(answered) if answered else 0.0,
        "points_per_s": joined / total_wall if total_wall else 0.0,
        "setup_s": statistics.median(seconds(*round_) for round_ in setup_rounds)
        + statistics.median(seconds(r.prep_s, r.probe_s) for r in records),
        "peak_rss_mb": _peak_rss_mb(),
    }


def _per_layer(records, rec: Recorder, first: Answer | None):
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)

    def self_s(name: str) -> float:
        return rec.self_seconds.get(name, 0.0) + rec.worker_self_seconds.get(name, 0.0)

    def calls(*names: str) -> float:
        return float(sum(rec.calls.get(x, 0) + rec.worker_calls.get(x, 0) for x in names))

    def count(metric: str) -> float:
        return rec.counts.get(metric, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    kernel_calls = calls("engine.kernel", "engine.refine_slow")
    totals = {f"{name}_s": self_s(name) for name in LAYER_SPANS}
    totals.update({
        "wkt.parse_calls": calls("wkt.parse"),
        "optimizer.plan_calls": calls("optimizer.plan"),
        "partitioner.route_calls": calls("partitioner.route"),
        "probe.candidates": count("probe.candidates"),
        "probe.pairs": count("probe.pairs"),
        "engine.kernel_calls": kernel_calls,
        "hdfs.bytes_read": count("hdfs.bytes_read"),
        "spark.tasks": count("spark.tasks"),
        "spark.shuffle_bytes": count("spark.shuffle_bytes"),
        "impala.fragment_instances": count("impala.fragment_instances"),
        "cache.hits": count("cache.hits"),
        "cache.misses": count("cache.misses"),
        "pool.tasks": count("pool.tasks"),
    })
    # Driver-side self times plus the rest of the query add up to its wall.
    other = [r.wall_s - sum(r.driver_self_s.values()) for r in traced]
    totals["core.other_s"] = sum(other)
    metrics = {name: value / n for name, value in totals.items()}
    metrics.update({
        "partitioner.replication": ratio(count("partitioner.tiles"), calls("partitioner.route")),
        "probe.precision": ratio(count("probe.pairs"), count("probe.candidates")),
        "engine.points_per_call": ratio(count("engine.points"), kernel_calls),
        "cache.hit_ratio": ratio(
            count("cache.hits"), count("cache.hits") + count("cache.misses")
        ),
        "cluster.sim_s": first.sim_seconds if first is not None else 0.0,
        "trace.overhead": (
            statistics.median(r.wall_s / r.probe_s for r in traced)
            / statistics.median(r.wall_s / r.probe_s for r in untraced) - 1.0
        ),
    })
    layers = {
        "traced_queries": n,
        "driver_self_s": dict(rec.self_seconds),
        "worker_self_s": dict(rec.worker_self_seconds),
        "driver_calls": dict(rec.calls),
        "worker_calls": dict(rec.worker_calls),
        "counts": dict(rec.counts),
        "core_other_s_per_query": other,
    }
    return layers, {name: metrics[name] for name in PER_LAYER_UNITS}


# -- environment and output ------------------------------------------------------


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(root),
        "platform": platform.platform(),
    }


def write_outputs(out_dir: Path, outcome: RunOutcome, rec: Recorder | None,
                  env: dict[str, Any]) -> Path:
    """Write the run's result file and, when traced, its spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{outcome.workload}-seed{outcome.seed}-trace{int(outcome.trace)}"
    doc = {"env": env, **asdict(outcome)}
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
    if rec is not None:
        spans = rec.spans()
        np.savez_compressed(
            out_dir / f"{outcome.workload}-spans.npz",
            names=np.array(spans.pop("names")),
            **{key: np.frombuffer(value, dtype=value.typecode) for key, value in spans.items()},
        )
    return path


def result_line(outcome: RunOutcome) -> dict[str, Any]:
    """The final stdout line: correctness, counts and the mode's metrics."""
    units = PER_LAYER_UNITS if outcome.trace else END_TO_END_UNITS
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
