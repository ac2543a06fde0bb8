"""Benchmark harness: workloads, runners, paper-shape assertions.

These run at a tiny scale so the whole suite stays fast; the full-scale
shapes are produced by the ``benchmarks/`` tree.
"""

import pytest

from repro.bench import (
    WORKLOADS,
    materialize,
    run_isp_standalone,
    run_ispmc,
    run_spatialspark,
)
from repro.bench.report import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    BenchCache,
    parallel_efficiency_of,
    render_table1,
    render_table2,
    render_scaling,
)
from repro.bench.runner import cluster_spec, run_engine
from repro.errors import BenchError
from repro.runtime import RuntimeConfig

SCALE = 0.02


@pytest.fixture(scope="module")
def mats():
    return {name: materialize(name, scale=SCALE) for name in WORKLOADS}


class TestWorkloads:
    def test_all_four_defined(self):
        # The paper's four, plus the optimizer study's skew stress case.
        assert set(WORKLOADS) == {
            "taxi-nycb", "taxi-lion-100", "taxi-lion-500", "G10M-wwf",
            "hotspot-nycb",
        }

    def test_materialize_memoised(self):
        a = materialize("taxi-nycb", scale=SCALE)
        b = materialize("taxi-nycb", scale=SCALE)
        assert a is b

    def test_unknown_workload(self):
        with pytest.raises(BenchError):
            materialize("taxi-mars")

    def test_radius_scales_with_street_pitch(self):
        r100 = WORKLOADS["taxi-lion-100"].radius_at(SCALE)
        r500 = WORKLOADS["taxi-lion-500"].radius_at(SCALE)
        assert r500 / r100 == pytest.approx(1.9 / 0.38)

    def test_within_workloads_have_zero_radius(self, mats):
        assert mats["taxi-nycb"].radius == 0.0
        assert mats["G10M-wwf"].radius == 0.0

    def test_files_written(self, mats):
        mat = mats["taxi-nycb"]
        assert mat.hdfs.exists(mat.left_path)
        assert mat.hdfs.exists(mat.right_path)

    def test_morton_order(self, mats):
        from repro.bench.workloads import morton_key

        mat = mats["taxi-nycb"]
        keys = [
            morton_key(*g.envelope.center, mat.left.extent)
            for _, g in mat.left.records[:200]
        ]
        assert keys == sorted(keys)

    def test_build_cost_weight_below_one(self, mats):
        # The right sides are over-represented at reduced scale, so the
        # correction must down-weight them.
        for mat in mats.values():
            assert 0.0 < mat.build_cost_weight < 1.0

    def test_gbif_aligned_with_regions(self, mats):
        mat = mats["G10M-wwf"]
        from repro.core import spatial_join, SpatialOperator

        pairs = spatial_join(
            mat.left.records[:300], mat.right.records, SpatialOperator.WITHIN
        )
        matched = {pid for pid, _ in pairs}
        assert len(matched) > 100  # most occurrences fall on "land"


class TestRunners:
    def test_three_engines_agree(self, mats):
        mat = mats["taxi-nycb"]
        ss = run_spatialspark(mat, 2)
        isp = run_ispmc(mat, 2)
        sta = run_isp_standalone(mat)
        assert ss.result_rows == isp.result_rows == sta.result_rows
        assert ss.result_rows > 0

    def test_nearestd_engines_agree(self, mats):
        mat = mats["taxi-lion-100"]
        ss = run_spatialspark(mat, 2)
        isp = run_ispmc(mat, 2)
        assert ss.result_rows == isp.result_rows

    def test_lion500_more_pairs_than_lion100(self, mats):
        r100 = run_isp_standalone(mats["taxi-lion-100"])
        r500 = run_isp_standalone(mats["taxi-lion-500"])
        assert r500.result_rows > 2 * r100.result_rows

    def test_run_engine_dispatch(self):
        result = run_engine("taxi-nycb", "spatialspark", 2, scale=SCALE)
        assert result.engine == "SpatialSpark"
        with pytest.raises(BenchError):
            run_engine("taxi-nycb", "warp", 2, scale=SCALE)
        with pytest.raises(BenchError):
            run_engine("taxi-nycb", "isp-standalone", 4, scale=SCALE)
        # The standalone engine has no pool: a runtime it would ignore
        # is rejected, not silently run serially.
        with pytest.raises(BenchError, match="standalone"):
            run_engine(
                "taxi-nycb", "isp-standalone", 1, scale=SCALE,
                runtime=RuntimeConfig(executors=2),
            )

    def test_single_node_is_inhouse_machine(self):
        spec = cluster_spec(1)
        assert spec.cores_per_node == 16
        assert spec.mem_per_node_gb == 128.0
        assert cluster_spec(10).cores_per_node == 8

    def test_deterministic_runtimes(self, mats):
        mat = mats["taxi-nycb"]
        a = run_spatialspark(mat, 4).simulated_seconds
        b = run_spatialspark(mat, 4).simulated_seconds
        assert a == pytest.approx(b)

    def test_run_result_str(self, mats):
        text = str(run_isp_standalone(mats["taxi-nycb"]))
        assert "taxi-nycb" in text and "Standalone" in text


class TestPaperShapes:
    """Directional assertions on the reproduced tables (tiny scale)."""

    def test_cluster_faster_than_single_node_for_spark(self, mats):
        mat = mats["taxi-nycb"]
        single = run_spatialspark(mat, 1).simulated_seconds
        ten = run_spatialspark(mat, 10).simulated_seconds
        assert ten < single

    def test_spark_beats_impala_on_cluster(self, mats):
        # Table 2's headline: SpatialSpark wins on every workload at 10
        # nodes.
        for name in ("taxi-lion-500", "G10M-wwf"):
            mat = mats[name]
            ss = run_spatialspark(mat, 10).simulated_seconds
            isp = run_ispmc(mat, 10).simulated_seconds
            assert isp > ss

    def test_impala_infra_overhead_band(self, mats):
        # Table 1: ISP-MC carries 7-14%+ infrastructure overhead over the
        # standalone program (single node, so memory pressure is off).
        mat = mats["taxi-lion-500"]
        isp = run_ispmc(mat, 1).simulated_seconds
        sta = run_isp_standalone(mat).simulated_seconds
        assert 1.02 < isp / sta < 1.6

    def test_fast_engine_helps_impala_too(self, mats):
        mat = mats["taxi-lion-500"]
        slow = run_ispmc(mat, 1, engine="slow").simulated_seconds
        fast = run_ispmc(mat, 1, engine="fast").simulated_seconds
        assert fast < slow


class TestReport:
    def test_tables_and_figures_render(self):
        cache = BenchCache(scale=SCALE)
        from repro.bench.report import fig4, fig5, table1, table2

        t1 = table1(cache)
        t2 = table2(cache)
        assert len(t1) == len(t2) == 4
        f4 = fig4(cache)
        f5 = fig5(cache)
        assert set(f4) == set(PAPER_TABLE1)
        text1 = render_table1(t1)
        text2 = render_table2(t2)
        assert "taxi-nycb" in text1 and "paper" in text1
        assert "G10M-wwf" in text2
        scaling_text = render_scaling(f4, "Fig 4")
        assert "efficiency" in scaling_text
        # Efficiency must be a sane fraction on every series.
        for series in list(f4.values()) + list(f5.values()):
            assert 0.2 < parallel_efficiency_of(series) <= 1.3

    def test_paper_constants_complete(self):
        from repro.bench.report import WORKLOAD_ORDER

        # Paper numbers exist for the paper's workloads; the skewed
        # optimizer-study workload has none by construction.
        assert set(PAPER_TABLE1) == set(PAPER_TABLE2) == set(WORKLOAD_ORDER)
        assert set(WORKLOAD_ORDER) <= set(WORKLOADS)
