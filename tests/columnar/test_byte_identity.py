"""The section-13 hard invariant: packing changes wall-clock only.

Production runs pack geometry into columns and probe in batches; the
reference plane in ``tests/reference.py`` runs the same drivers on
geometry objects, probing row by row.  The two must match byte for
byte — same pairs in the same order, same registry counters, same
simulated seconds, same rendered profile, same normalized events —
across operators, executor counts, and both cluster substrates.  Any
divergence is a production bug by definition; ``method="naive"`` is
the ground truth for the pairs themselves.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro import JoinConfig, spatial_join
from repro.cache import CacheManager, set_cache
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.prepared import clear_prepared_cache
from repro.geometry.wkt import clear_wkt_cache
from repro.obs.registry import collecting
from repro.runtime.config import RuntimeConfig
from tests.reference import naive_pairs, reference_plane


@pytest.fixture(autouse=True)
def fresh_process_caches():
    """Each run starts cold so the reference never inherits production's memos."""
    old = set_cache(CacheManager(budget_bytes=None, emit_events=True))
    clear_prepared_cache()
    clear_wkt_cache()
    yield
    set_cache(old)
    clear_prepared_cache()
    clear_wkt_cache()


def mixed_workload(seed, n_points=300, n_polygons=24):
    rng = random.Random(seed)
    left = [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100)))
        for i in range(n_points)
    ]
    right = []
    for j in range(n_polygons):
        x, y = rng.uniform(0, 90), rng.uniform(0, 90)
        w, h = rng.uniform(2, 12), rng.uniform(2, 12)
        right.append(
            (1000 + j, Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)]))
        )
    return left, right


def observed_run(left, right, method, operator, radius, executors, reference):
    """Pairs, registry counters and rendered profile of one join."""
    config = JoinConfig(
        method=method, operator=operator, radius=radius, profile=True,
        runtime=RuntimeConfig(executors=executors),
    )
    with reference_plane() if reference else contextlib.nullcontext():
        with collecting() as reg:
            result = spatial_join(left, right, config=config)
            counters = reg.snapshot()["counters"]
    return list(result), counters, result.profile.render()


class TestCoreByteIdentity:
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    @pytest.mark.parametrize("operator,radius", [("within", 0.0), ("nearestd", 2.5)])
    @pytest.mark.parametrize("method", ["broadcast", "partitioned"])
    def test_columnar_matches_object_path(self, method, operator, radius, executors):
        left, right = mixed_workload(7)
        on = observed_run(left, right, method, operator, radius, executors, False)
        off = observed_run(left, right, method, operator, radius, executors, True)
        assert on[0] == off[0]  # pairs, in order
        assert on[1] == off[1]  # registry counters, incl. no new keys
        assert on[2] == off[2]  # rendered profile
        assert sorted(on[0]) == naive_pairs(left, right, operator, radius)

    def test_columnar_handles_nonconvertible_fallback(self):
        # A geometry outside the column model sends the probe side to the
        # object fallback — results still identical to the reference.
        from repro.geometry.multi import GeometryCollection

        left, right = mixed_workload(3, n_points=60, n_polygons=6)
        left = list(left)
        left[0] = (0, GeometryCollection([Point(50, 50)]))
        on = observed_run(left, right, "broadcast", "within", 0.0, "serial", False)
        off = observed_run(left, right, "broadcast", "within", 0.0, "serial", True)
        assert on == off


class TestSubstrateByteIdentity:
    @pytest.mark.parametrize("engine", ["spatialspark", "isp-mc"])
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    def test_cluster_runs_identical(self, engine, executors):
        from repro.bench.runner import run_ispmc, run_spatialspark
        from repro.bench.workloads import materialize

        mat = materialize("taxi-nycb", scale=0.04, num_datanodes=2)
        runner = run_spatialspark if engine == "spatialspark" else run_ispmc

        def run():
            clear_prepared_cache()
            clear_wkt_cache()
            runtime = RuntimeConfig(executors=executors)
            with collecting() as reg:
                result = runner(mat, 2, runtime=runtime)
                counters = reg.snapshot()["counters"]
            return result.result_rows, result.simulated_seconds, counters

        produced = run()
        with reference_plane():
            expected = run()
        assert produced == expected

    def test_normalized_events_identical(self, tmp_path):
        """The structured event log is representation-blind."""
        from repro.obs.events import read_events

        left, right = mixed_workload(5, n_points=120, n_polygons=8)

        def events(reference, path):
            runtime = RuntimeConfig(executors="serial", events_out=str(path))
            with reference_plane() if reference else contextlib.nullcontext():
                spatial_join(left, right, method="partitioned", runtime=runtime)
            normalized = []
            for event in read_events(str(path)):
                fields = {
                    k: v
                    for k, v in event.items()
                    if k not in ("ts", "pid", "unix_time")
                    and not k.startswith("wall")
                }
                normalized.append(fields)
            return normalized

        on = events(False, tmp_path / "on.jsonl")
        off = events(True, tmp_path / "off.jsonl")
        assert on == off
