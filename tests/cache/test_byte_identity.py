"""The section-12 hard invariant: a cache hit changes wall-clock only.

Cache-on runs must match cache-off runs byte for byte — same pairs in
the same order, same registry counters, same simulated seconds, same
rendered profile — across explicit methods, executor counts, and both
cluster substrates.  ``method="auto"`` is deliberately excluded: the
planner *may* flip plans when a cached build makes one side free, which
is a documented exception, not a violation.
"""

from __future__ import annotations

import pytest

from repro import JoinConfig, spatial_join
from repro.cache import CacheManager, get_cache, set_cache
from repro.geometry.prepared import clear_prepared_cache
from repro.geometry.wkt import clear_wkt_cache
from repro.obs.registry import collecting
from repro.runtime.config import RuntimeConfig

from tests.core.test_api_redesign import skewed_workload

BUDGET = 64 * 1024 * 1024


@pytest.fixture(autouse=True)
def fresh_process_caches():
    """Each test starts cold and restores the shared manager afterwards."""
    old = set_cache(CacheManager(budget_bytes=None, emit_events=True))
    clear_prepared_cache()
    clear_wkt_cache()
    yield
    set_cache(old)
    clear_prepared_cache()
    clear_wkt_cache()


def observed_run(left, right, method, executors, budget):
    """One join under full observation: pairs, counters, profile text."""
    runtime = RuntimeConfig(executors=executors, cache_budget_bytes=budget)
    config = JoinConfig(method=method, profile=True, radius=0.0, runtime=runtime)
    with collecting() as reg:
        result = spatial_join(left, right, config=config)
        counters = reg.snapshot()["counters"]
    return list(result), counters, result.profile.render()


class TestCoreByteIdentity:
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    @pytest.mark.parametrize("method", ["broadcast", "partitioned"])
    def test_cache_on_matches_cache_off(self, method, executors):
        left, right = skewed_workload(7, n_points=300)
        cold = observed_run(left, right, method, executors, budget=None)
        warm1 = observed_run(left, right, method, executors, budget=BUDGET)
        warm2 = observed_run(left, right, method, executors, budget=BUDGET)
        assert warm1 == cold
        assert warm2 == cold
        # The second warm run actually exercised the hit path.
        assert get_cache().stats.hits > 0

    def test_profile_never_mentions_the_cache(self):
        left, right = skewed_workload(5, n_points=200)
        for budget in (None, BUDGET, BUDGET):
            _, _, rendered = observed_run(
                left, right, "broadcast", "serial", budget
            )
            assert "cache" not in rendered.lower()


class TestSubstrateByteIdentity:
    @pytest.mark.parametrize("engine", ["spatialspark", "isp-mc"])
    @pytest.mark.parametrize("executors", ["serial", 2, 4])
    def test_cluster_runs_identical_cold_and_warm(self, engine, executors):
        from repro.bench.runner import run_ispmc, run_spatialspark
        from repro.bench.workloads import materialize

        mat = materialize("taxi-nycb", scale=0.04, num_datanodes=2)
        runner = run_spatialspark if engine == "spatialspark" else run_ispmc

        def run(budget):
            runtime = RuntimeConfig(
                executors=executors, cache_budget_bytes=budget
            )
            with collecting() as reg:
                result = runner(mat, 2, runtime=runtime)
                counters = reg.snapshot()["counters"]
            return result.result_rows, result.simulated_seconds, counters

        cold = run(None)
        warm1 = run(BUDGET)
        warm2 = run(BUDGET)
        assert warm1 == cold
        assert warm2 == cold
        assert get_cache().stats.hits > 0


class TestWarmRunsReuse:
    def test_second_run_hits_every_artifact_kind(self):
        from repro.geometry.wkt import dumps

        left, right = skewed_workload(3, n_points=250)
        # WKT-string inputs: the parsed-column cache only engages when
        # there is a parse to skip.
        right = [(pid, dumps(geom)) for pid, geom in right]
        runtime = RuntimeConfig(cache_budget_bytes=BUDGET)
        spatial_join(left, right, method="partitioned", runtime=runtime)
        stats_after_first = get_cache().stats.as_dict()
        assert stats_after_first["hits"] == 0
        spatial_join(left, right, method="partitioned", runtime=runtime)
        stats = get_cache().stats
        # The repeated query reuses the parsed columns and the layout.
        assert stats.hits_by_kind.get("parsed-column", 0) > 0
        assert stats.hits_by_kind.get("partition-layout", 0) > 0

    def test_mutated_input_misses_instead_of_serving_stale(self):
        left, right = skewed_workload(4, n_points=200)
        runtime = RuntimeConfig(cache_budget_bytes=BUDGET)
        truth_mutated = None
        spatial_join(left, right, method="broadcast", runtime=runtime)
        # Re-point one polygon elsewhere: content changed, so the warm run
        # must rebuild, and its pairs must match a cold run on the new data.
        from repro.geometry.polygon import Polygon

        right = list(right)
        right[0] = (right[0][0], Polygon([(50, 50), (51, 50), (51, 51), (50, 51)]))
        truth_mutated = spatial_join(left, right, method="naive")
        warm = spatial_join(left, right, method="broadcast", runtime=runtime)
        assert sorted(warm) == sorted(truth_mutated)
