"""Batched joins return exactly what the row-by-row reference returns.

The reference (``tests/reference.py``) probes an object-built index one
row at a time with ``probe_with_cost``.  Pairs, pair order and the
simulated seconds billed by the cost model must match it for the
broadcast and partitioned Spark joins and through the public
``spatial_join`` API; ``method="naive"`` is the ground truth for pairs.
"""

from __future__ import annotations

import pytest

from repro.cluster.model import ClusterSpec
from repro.core.api import JoinConfig, spatial_join
from repro.core.broadcast_join import broadcast_spatial_join
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import derive_partitioning, partitioned_spatial_join
from repro.core.probe import BroadcastIndex
from repro.errors import ReproError
from repro.geometry import LineString, Point, Polygon
from repro.spark.context import SparkContext
from tests.reference import (
    naive_pairs,
    reference_plane,
    reference_probe,
    summed_units,
    units_seconds,
)


@pytest.fixture
def point_records(rng):
    return [
        (i, Point(rng.uniform(0, 100), rng.uniform(0, 100))) for i in range(300)
    ]


@pytest.fixture
def cell_records():
    cells = []
    for gx in range(5):
        for gy in range(5):
            x, y = gx * 20.0, gy * 20.0
            cells.append(
                (
                    f"cell-{gx}-{gy}",
                    Polygon([(x, y), (x + 20, y), (x + 20, y + 20), (x, y + 20)]),
                )
            )
    return cells


@pytest.fixture
def line_records(rng):
    lines = []
    for i in range(40):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        lines.append(
            (
                f"line-{i}",
                LineString(
                    [(x, y), (x + rng.uniform(-10, 10), y + rng.uniform(-10, 10))]
                ),
            )
        )
    return lines


def run_broadcast(records, build, operator, radius):
    sc = SparkContext(ClusterSpec(2, 2))
    left = sc.parallelize(records, 4)
    right = sc.parallelize(build, 2)
    pairs = broadcast_spatial_join(sc, left, right, operator, radius=radius).collect()
    return pairs, sc.simulated_seconds()


def run_partitioned(records, build, operator, radius):
    sc = SparkContext(ClusterSpec(2, 2))
    left = sc.parallelize(records, 4)
    right = sc.parallelize(build, 2)
    partitioning = derive_partitioning(left, num_tiles=4)
    pairs = partitioned_spatial_join(
        sc, left, right, operator, radius=radius, partitioning=partitioning
    ).collect()
    return pairs, sc.simulated_seconds()


def against_reference(run, records, build, operator, radius):
    """Run production and the reference plane; both must agree exactly."""
    pairs, seconds = run(records, build, operator, radius)
    with reference_plane():
        expected_pairs, expected_seconds = run(records, build, operator, radius)
    assert pairs == expected_pairs  # values AND order
    assert seconds == expected_seconds
    assert sorted(pairs) == naive_pairs(records, build, operator, radius)
    return pairs


class TestSparkJoinEquivalence:
    def test_broadcast_within(self, point_records, cell_records):
        pairs = against_reference(
            run_broadcast, point_records, cell_records, SpatialOperator.WITHIN, 0.0
        )
        assert pairs == reference_probe(point_records, cell_records, "within")[0]
        assert len(pairs) == len(point_records)  # grid covers the square

    def test_broadcast_nearestd(self, point_records, line_records):
        pairs = against_reference(
            run_broadcast, point_records, line_records, SpatialOperator.NEAREST_D, 5.0
        )
        expected, _ = reference_probe(
            point_records, line_records, "nearestd", radius=5.0
        )
        assert pairs == expected
        assert pairs  # the radius is wide enough to produce matches

    def test_partitioned_within(self, point_records, cell_records):
        against_reference(
            run_partitioned, point_records, cell_records, SpatialOperator.WITHIN, 0.0
        )

    def test_partitioned_nearestd(self, point_records, line_records):
        against_reference(
            run_partitioned, point_records, line_records, SpatialOperator.NEAREST_D, 5.0
        )


class TestSpatialJoinApi:
    @pytest.mark.parametrize("method", ["broadcast", "partitioned", "auto"])
    def test_batch_matches_scalar_and_naive(
        self, method, point_records, cell_records
    ):
        config = JoinConfig(method=method, profile=True)
        batch = spatial_join(point_records, cell_records, config=config)
        with reference_plane():
            scalar = spatial_join(point_records, cell_records, config=config)
        assert batch.pairs == scalar.pairs
        assert batch.profile.render() == scalar.profile.render()
        assert sorted(batch.pairs) == naive_pairs(point_records, cell_records, "within")

    @pytest.mark.parametrize("batch_size", [7, 1024])
    def test_probe_stage_bills_summed_probe_with_cost_units(
        self, batch_size, point_records, line_records
    ):
        config = JoinConfig(
            method="broadcast",
            operator="nearestd",
            radius=5.0,
            batch_size=batch_size,
            profile=True,
        )
        result = spatial_join(point_records, line_records, config=config)
        pairs, row_units = reference_probe(
            point_records, line_records, "nearestd", radius=5.0
        )
        units = summed_units(row_units)
        probe = result.profile.find("probe")
        assert result.pairs == pairs
        assert probe.counters == units
        assert probe.sim_seconds == units_seconds(units)

    def test_custom_batch_size_same_result(self, point_records, cell_records):
        default = spatial_join(
            point_records, cell_records, config=JoinConfig(method="broadcast")
        )
        small = spatial_join(
            point_records,
            cell_records,
            config=JoinConfig(method="broadcast", batch_size=7),
        )
        assert small.pairs == default.pairs


class TestJoinConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, -1024])
    def test_rejects_non_positive(self, bad):
        for field in ("batch_size", "workers"):
            with pytest.raises(ReproError):
                JoinConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [1.5, "1024", None, True])
    def test_rejects_non_int(self, bad):
        for field in ("batch_size", "workers"):
            with pytest.raises(ReproError):
                JoinConfig(**{field: bad})

    def test_with_revalidates(self):
        config = JoinConfig()
        assert config.batch_size == 1024
        with pytest.raises(ReproError):
            config.with_(batch_size=0)


class TestProbeBatchModes:
    def test_totals_equal_summed_per_row(self, point_records, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        geometries = [g for _, g in point_records]
        matches_total, totals = index.probe_batch(geometries)
        matches_row, per_row = index.probe_batch(geometries, per_row=True)
        assert matches_total == matches_row
        summed: dict[str, float] = {}
        for units in per_row:
            for key, value in units.items():
                summed[key] = summed.get(key, 0.0) + value
        assert totals == {k: v for k, v in summed.items() if v or k in totals}

    def test_matches_scalar_probe_with_cost(self, point_records, line_records):
        index = BroadcastIndex(
            line_records, SpatialOperator.NEAREST_D, radius=5.0
        )
        geometries = [g for _, g in point_records]
        scalar = [index.probe_with_cost(g) for g in geometries]
        matches, per_row = index.probe_batch(geometries, per_row=True)
        assert matches == [m for m, _ in scalar]
        assert per_row == [u for _, u in scalar]

    def test_none_and_empty_probes(self, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        geometries = [Point(10, 10), None, Point.empty()]
        matches, per_row = index.probe_batch(geometries, per_row=True)
        assert matches[0] == ["cell-0-0"]
        assert matches[1] == [] and per_row[1] is None
        assert matches[2] == []
        assert per_row[2] is not None and per_row[2]["rows_out"] == 0.0

    def test_empty_batch(self, cell_records):
        index = BroadcastIndex(cell_records, SpatialOperator.WITHIN)
        matches, totals = index.probe_batch([])
        assert matches == []
        assert totals == {}
