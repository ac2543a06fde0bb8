"""Tests of the benchmark itself: seeded inputs, answer checks, self time.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

import repro.cache
from repro.bench.workloads import _spatially_sorted
from repro.cache import fingerprint as fingerprint_mod
from repro.core.operators import SpatialOperator
from repro.data import generate_nycb, generate_taxi, generate_wwf
from repro.geometry.wkt import dumps
from repro.obs.registry import REGISTRY

import perfbench.shims as shims
from perfbench.harness import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    QueryRecord,
    _end_to_end,
    result_line,
    run_workload,
)
from perfbench.probe import REFERENCE_S
from perfbench.shims import Recorder, Shim, installed
from perfbench.workloads import (
    CHECK_SAMPLE,
    WORKLOADS,
    CoreAutoWithin,
    SparkWwfWarm,
    _spatial_order,
    check_answer,
    derive_seed,
)

# Small enough that the answer check samples every left record.
SMALL = CHECK_SAMPLE


def _input_bytes(workload, seed: int) -> bytes:
    """Everything the program would receive for one query, as bytes."""
    shared = workload.shared(seed)
    query = workload.make_query(derive_seed(seed, "query", 0), shared, left_count=SMALL)
    if query.hdfs is not None:
        return query.hdfs.read(query.left_path) + query.hdfs.read(query.right_path)
    parts = []
    for rid, geometry in [*query.left, *query.right]:
        text = geometry if isinstance(geometry, str) else dumps(geometry)
        parts.append(f"{rid}\t{text}\n")
    return "".join(parts).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    workload = WORKLOADS[name]
    first = _input_bytes(workload, 7)
    assert first == _input_bytes(workload, 7)
    assert first != _input_bytes(workload, 8)


def test_queries_of_one_run_get_distinct_inputs():
    workload = WORKLOADS["core-auto-within"]
    a = workload.make_query(derive_seed(1, "query", 0), None, left_count=SMALL)
    b = workload.make_query(derive_seed(1, "query", 1), None, left_count=SMALL)
    assert not set(a.left) & set(b.left)
    assert not set(a.right) & set(b.right)


@pytest.mark.parametrize("make", [
    lambda: generate_taxi(500, seed=1),
    lambda: generate_nycb(60, seed=2),
    lambda: generate_wwf(12, seed=3),
])
def test_hdfs_order_matches_the_bench_workloads(make):
    dataset = make()
    ours = [geometry for _, geometry in _spatial_order(dataset)]
    theirs = [geometry for _, geometry in _spatially_sorted(dataset).records]
    assert ours == theirs


class _Doctored(CoreAutoWithin):
    """Drops one pair from every answer the program gives."""

    def execute(self, query, shared, profile):
        answer = super().execute(query, shared, profile)
        answer.pairs = answer.pairs[1:]
        return answer


class _Raising(CoreAutoWithin):
    def execute(self, query, shared, profile):
        if query.left_records != SMALL:
            return super().execute(query, shared, profile)
        raise RuntimeError("injected failure")


def _tiny(cls):
    return cls("tiny", SMALL, 16, SpatialOperator.WITHIN)


def test_correct_answer_passes_the_check():
    outcome, _ = run_workload(_tiny(CoreAutoWithin), seed=3, seconds=0.01, trace=False)
    assert outcome.attempted == 3 and outcome.failed == 0
    assert result_line(outcome)["correct"] is True


def test_doctored_answer_counts_as_failed_query():
    outcome, _ = run_workload(_tiny(_Doctored), seed=3, seconds=0.01, trace=False)
    assert outcome.attempted == 3
    assert outcome.failed == 3
    assert outcome.error_rate == 1.0
    line = result_line(outcome)
    assert line["correct"] is False and line["failed"] == 3


def test_raising_query_counts_as_failed_and_the_run_continues():
    outcome, _ = run_workload(_tiny(_Raising), seed=3, seconds=0.01, trace=False)
    assert len(outcome.queries) >= 3
    assert all(q.raised for q in outcome.queries)
    assert outcome.failed == outcome.attempted == len(outcome.queries)
    assert "injected failure" in outcome.queries[0].error


def test_self_times_beyond_the_wall_count_as_failed(monkeypatch):
    monkeypatch.setattr(Recorder, "driver_self_seconds", lambda self, query: {"x": 1e6})
    outcome, _ = run_workload(_tiny(CoreAutoWithin), seed=3, seconds=0.01, trace=True)
    traced = [q for q in outcome.queries if q.traced]
    assert traced and all(not q.ok for q in traced)
    assert all(q.ok for q in outcome.queries if not q.traced)
    assert outcome.failed == len(traced)


def test_end_to_end_times_are_rescaled_by_the_probe():
    def record(wall, probe_s):
        return QueryRecord(index=0, traced=False, left_records=100, prep_s=wall / 4,
                           wall_s=wall, probe_s=probe_s, ok=True, raised=False)

    # Three queries of 2 s wall, probed at twice, once and half the reference.
    records = [record(2.0, 2 * REFERENCE_S), record(2.0, REFERENCE_S),
               record(2.0, REFERENCE_S / 2)]
    rounds = [(1.0, REFERENCE_S), (3.0, 3 * REFERENCE_S), (9.0, REFERENCE_S)]
    metrics = _end_to_end(records, rounds, rescale=True)
    assert metrics["query_p50_s"] == pytest.approx(2.0)
    assert metrics["points_per_s"] == pytest.approx(300 / (1.0 + 2.0 + 4.0))
    assert metrics["setup_s"] == pytest.approx(1.0 + 0.5)
    raw = _end_to_end(records, rounds, rescale=False)
    assert raw["points_per_s"] == pytest.approx(300 / 6.0)
    assert raw["setup_s"] == pytest.approx(3.0 + 0.5)


def test_check_rejects_duplicate_and_foreign_pairs():
    workload = _tiny(CoreAutoWithin)
    query = workload.make_query(1, None)
    answer = workload.execute(query, None, profile=False)
    assert check_answer(workload, query, answer.pairs, seed=5)
    assert not check_answer(workload, query, answer.pairs + answer.pairs[:1], seed=5)
    assert not check_answer(workload, query, answer.pairs + [(0, -1)], seed=5)


def _self_times(parents, starts, ends) -> list[float]:
    """Reference self times: each span's duration minus its children's."""
    own = [end - start for start, end in zip(starts, ends)]
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            own[parent] -= end - start
    return own


class _Layers:
    """Stand-in layers: ``outer`` calls ``inner`` twice around its own work."""

    def outer(self, pause):
        time.sleep(pause)
        self.inner(pause)
        self.inner(pause)
        return "done"

    def inner(self, pause):
        time.sleep(pause)


_FAKE = (
    Shim(f"{__name__}:_Layers.outer", "outer"),
    Shim(f"{__name__}:_Layers.inner", "inner"),
)


def test_self_time_of_nested_shims():
    rec = Recorder()
    with installed(rec, _FAKE):
        start = time.perf_counter()
        assert _Layers().outer(0.02) == "done"
        wall = time.perf_counter() - start
    spans = rec.spans()
    assert [spans["names"][i] for i in spans["name"]] == ["outer", "inner", "inner"]
    assert list(spans["parent"]) == [-1, 0, 0]
    reference = _self_times(spans["parent"], spans["start"], spans["end"])
    assert list(spans["self"]) == pytest.approx(reference, abs=1e-9)
    inner = spans["end"][1] - spans["start"][1] + spans["end"][2] - spans["start"][2]
    outer = spans["end"][0] - spans["start"][0]
    assert rec.self_seconds["inner"] == pytest.approx(inner, abs=1e-9)
    assert rec.self_seconds["outer"] == pytest.approx(outer - inner, abs=1e-9)
    assert 0.015 < rec.self_seconds["outer"] < outer
    assert sum(rec.self_seconds.values()) == pytest.approx(outer, abs=1e-9)
    assert outer <= wall
    assert rec.calls == {"outer": 1, "inner": 2}
    # Uninstalled afterwards: calls are no longer recorded.
    _Layers().outer(0.0)
    assert len(rec.spans()["start"]) == 3


def test_nested_calls_of_one_layer_count_once():
    rec = Recorder()
    shim = (Shim(f"{__name__}:_Layers.outer", "layer"),
            Shim(f"{__name__}:_Layers.inner", "layer"))
    with installed(rec, shim):
        _Layers().outer(0.0)
    assert rec.calls == {"layer": 1}
    spans = rec.spans()
    assert sum(spans["self"]) == pytest.approx(spans["end"][0] - spans["start"][0], abs=1e-9)


def test_function_shims_replace_every_imported_binding():
    original = fingerprint_mod.fingerprint_value
    assert repro.cache.fingerprint_value is original
    rec = Recorder()
    with installed(rec, (Shim("repro.cache.fingerprint:fingerprint_value", "fp"),)):
        assert repro.cache.fingerprint_value is not original
        repro.cache.fingerprint_value(1, "a")
    assert repro.cache.fingerprint_value is original
    assert rec.calls == {"fp": 1}


def test_worker_spans_ride_the_registry(monkeypatch):
    """Inside a pool worker, spans and counts go to the metrics registry."""
    rec = Recorder()
    monkeypatch.setattr(shims, "current_worker_id", lambda: 0)
    previous = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enabled = True
    try:
        with installed(rec, _FAKE):
            _Layers().outer(0.01)
        rec.count("probe.pairs", 3)
        counters = REGISTRY.snapshot()["counters"]
        histograms = {
            name: REGISTRY.histogram(name).values
            for name in REGISTRY.snapshot()["histograms"]
        }
    finally:
        REGISTRY.enabled = previous
        REGISTRY.reset()
    assert len(rec.spans()["start"]) == 0
    rec.query = 5
    rec.absorb_registry(counters, histograms)
    assert rec.worker_calls == {"outer": 1, "inner": 2}
    assert rec.worker_self_seconds["outer"] >= 0.009
    assert rec.counts == {"probe.pairs": 3.0}
    spans = rec.spans()
    # Spans are written as they close: both inner calls, then outer.
    assert [spans["names"][i] for i in spans["worker_name"]] == ["inner", "inner", "outer"]
    assert list(spans["worker_query"]) == [5, 5, 5]
    width = len(shims.WORKER_SPAN_FIELDS)
    rows = [
        dict(zip(shims.WORKER_SPAN_FIELDS, spans["worker_fields"][i:i + width]))
        for i in range(0, len(spans["worker_fields"]), width)
    ]
    first, second, outer = rows
    assert outer["parent"] == -1
    assert first["parent"] == second["parent"] == outer["seq"]
    reference = _self_times(
        [2, 2, -1], [r["start"] for r in rows], [r["end"] for r in rows]
    )
    assert [r["self"] for r in rows] == pytest.approx(reference, abs=1e-9)


def test_traced_run_covers_pool_workers_and_repeats_sim_seconds():
    workload = SparkWwfWarm("spark-small", 1_500, 12, SpatialOperator.WITHIN)
    outcome, rec = run_workload(workload, seed=2, seconds=0.01, trace=True)
    assert outcome.failed == 0 and outcome.repeat["ok"]
    assert set(outcome.metrics) == set(PER_LAYER_UNITS)
    # Parse and kernels run in the two pool workers; the driver waits.
    assert rec.worker_self_seconds["wkt.parse"] > 0
    assert rec.worker_self_seconds["engine.kernel"] > 0
    assert outcome.metrics["pool.wait_s"] > 0
    assert outcome.metrics["cache.hits"] >= 1
    assert outcome.metrics["spark.tasks"] > 0
    # The parse and kernel spans themselves came back from the workers.
    spans = rec.spans()
    worker_names = {spans["names"][i] for i in spans["worker_name"]}
    assert {"wkt.parse", "engine.kernel"} <= worker_names
    # A worker span's parent is another span of the same worker, or none:
    # the driver spans a forked worker inherits open are not parents.
    width = len(shims.WORKER_SPAN_FIELDS)
    fields = spans["worker_fields"]
    rows = [fields[i:i + width] for i in range(0, len(fields), width)]
    opened = {(pid, seq): (start, end) for pid, seq, _, start, end, _ in rows}
    nested = [
        (opened[pid, parent], (start, end))
        for pid, _, parent, start, end, _ in rows if parent != -1
    ]
    assert nested
    assert all(a <= start and end <= b for (a, b), (start, end) in nested)


def test_benchmark_json_matches_what_the_run_prints():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
