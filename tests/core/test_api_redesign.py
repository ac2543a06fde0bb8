"""The unified join API: JoinResult, JoinConfig, and method equivalence.

Every execution method must produce exactly the pairs of the naive
nested loop — on skewed, randomized inputs — and the new result/config
types must keep every legacy call shape working.
"""

from __future__ import annotations

import random

import pytest

from repro import JoinConfig, JoinResult, spatial_join, spatial_join_pairs
from repro.core.operators import SpatialOperator
from repro.data.synthetic import cluster_mixture_points
from repro.geometry.envelope import Envelope
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

EXTENT = Envelope(0.0, 0.0, 10.0, 10.0)


def skewed_workload(seed: int, n_points: int = 600):
    """Clustered points against a polygon grid — the skew stress shape."""
    rng = random.Random(seed)
    centers = [
        (rng.uniform(1, 9), rng.uniform(1, 9), rng.uniform(0.1, 0.6))
        for _ in range(3)
    ]
    coords = cluster_mixture_points(rng, n_points, EXTENT, centers, 0.1)
    left = [(i, Point(x, y)) for i, (x, y) in enumerate(coords)]
    right = []
    for i in range(8):
        for j in range(8):
            x, y = i * 1.25, j * 1.25
            right.append(
                (
                    f"t{i}_{j}",
                    Polygon(
                        [(x, y), (x + 1.25, y), (x + 1.25, y + 1.25), (x, y + 1.25)]
                    ),
                )
            )
    return left, right


class TestMethodEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "method", ["auto", "broadcast", "partitioned", "dual-tree"]
    )
    def test_every_method_matches_naive_on_skewed_data(self, method, seed):
        left, right = skewed_workload(seed)
        truth = spatial_join(left, right, method="naive")
        result = spatial_join(left, right, method=method, workers=4)
        assert sorted(result) == sorted(truth)

    def test_intersects_with_radius_zero_polygons(self):
        left, right = skewed_workload(9, n_points=200)
        truth = spatial_join(
            left, right, operator=SpatialOperator.INTERSECTS, method="naive"
        )
        for method in ("broadcast", "partitioned", "dual-tree"):
            result = spatial_join(
                left, right, operator=SpatialOperator.INTERSECTS, method=method
            )
            assert sorted(result) == sorted(truth), method

    def test_index_is_a_broadcast_alias(self):
        left, right = skewed_workload(4, n_points=100)
        via_alias = spatial_join(left, right, method="index")
        via_broadcast = spatial_join(left, right, method="broadcast")
        assert sorted(via_alias) == sorted(via_broadcast)


class TestJoinResult:
    @pytest.fixture()
    def result(self) -> JoinResult:
        return spatial_join(
            [(0, Point(1, 1)), (1, Point(9, 9))],
            [("cell", Polygon([(0, 0), (4, 0), (4, 4), (0, 4)]))],
        )

    def test_list_compatibility(self, result):
        assert result == [(0, "cell")]
        assert list(result) == [(0, "cell")]
        assert len(result) == 1
        assert result[0] == (0, "cell")
        assert (0, "cell") in result
        assert sorted(result) == [(0, "cell")]

    def test_unhashable_like_a_list(self, result):
        with pytest.raises(TypeError):
            hash(result)

    def test_repr_shows_pairs(self, result):
        assert "(0, 'cell')" in repr(result)

    def test_auto_carries_plan_and_stats(self):
        left, right = skewed_workload(5, n_points=300)
        result = spatial_join(left, right, method="auto")
        assert result.plan is not None
        assert result.stats is not None
        assert result.method == result.plan.method
        assert result.method in ("broadcast", "partitioned", "dual-tree", "naive")
        assert "PLAN CHOICE" in result.explain()

    def test_explicit_method_has_no_plan(self):
        left, right = skewed_workload(5, n_points=100)
        result = spatial_join(left, right, method="broadcast")
        assert result.plan is None
        assert result.explain() == ""
        assert result.method == "broadcast"


class TestJoinConfig:
    def test_config_form_returns_join_result_with_profile(self):
        left, right = skewed_workload(6, n_points=100)
        cfg = JoinConfig(method="broadcast", profile=True)
        result = spatial_join(left, right, config=cfg)
        assert isinstance(result, JoinResult)
        assert result.profile is not None

    def test_config_takes_precedence_over_loose_keywords(self):
        left, right = skewed_workload(6, n_points=100)
        cfg = JoinConfig(method="naive")
        result = spatial_join(left, right, method="broadcast", config=cfg)
        assert result.method == "naive"

    def test_with_replaces_fields(self):
        cfg = JoinConfig(method="broadcast")
        tuned = cfg.with_(workers=8, skew_factor=3.0)
        assert tuned.method == "broadcast"
        assert tuned.workers == 8
        assert tuned.skew_factor == 3.0
        assert cfg.workers == 1  # original untouched (frozen dataclass)


class TestLegacyShapes:
    def test_loose_profile_keyword_raises_pointing_at_join_result(self):
        from repro.errors import ReproError

        left, right = skewed_workload(7, n_points=50)
        with pytest.raises(ReproError, match=r"JoinConfig\(profile=True\)"):
            spatial_join(left, right, method="broadcast", profile=True)
        # The config form is the supported way to profile.
        result = spatial_join(
            left, right, config=JoinConfig(method="broadcast", profile=True)
        )
        assert result.profile is not None

    def test_spatial_join_pairs_forwards_options(self):
        lefts = [Point(1, 1), Point(9, 9)]
        rights = [Polygon([(0, 0), (4, 0), (4, 4), (0, 4)])]
        for method in ("auto", "broadcast", "partitioned", "dual-tree", "naive"):
            result = spatial_join_pairs(lefts, rights, method=method)
            assert result == [(0, 0)], method
        profiled = spatial_join_pairs(
            lefts, rights, config=JoinConfig(method="broadcast", profile=True)
        )
        assert profiled.profile is not None


class TestErrorRename:
    def test_spatial_index_error_is_canonical(self):
        from repro.errors import ReproError, SpatialIndexError

        assert issubclass(SpatialIndexError, ReproError)

    def test_removed_alias_raises_pointing_at_spatial_index_error(self):
        import repro.errors as errors_module

        with pytest.raises(AttributeError, match="SpatialIndexError"):
            errors_module.IndexError_


@pytest.mark.filterwarnings("error")
class TestInputBoundary:
    """Bad input fails at the API boundary with a ReproError — never a raw
    TypeError, a numpy warning, or silent acceptance."""

    SQUARE = [("A", "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))")]

    def test_bare_geometry_rows_name_the_expected_shape(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match=r"\(id, geometry\) pairs"):
            spatial_join([Point(1, 1)], self.SQUARE)

    @pytest.mark.parametrize(
        "method", ["auto", "broadcast", "partitioned", "dual-tree", "naive"]
    )
    def test_infinite_coordinates_are_rejected(self, method):
        from repro.errors import GeometryError
        from repro.geometry.linestring import LineString
        from repro.geometry.wkt import WKTReader

        with pytest.raises(GeometryError, match="finite"):
            spatial_join([(1, "POINT (inf 0)")], self.SQUARE, method=method)
        with pytest.raises(GeometryError, match="finite"):
            Point(float("-inf"), 0.0)
        with pytest.raises(GeometryError, match="finite"):
            LineString([(0.0, 0.0), (1.0, float("inf"))])
        # Text scanners drop the row as dirty, exactly as for NaN.
        assert WKTReader().try_read("POINT (inf 0)") is None
        assert WKTReader().try_read("POINT (nan nan)") is None
