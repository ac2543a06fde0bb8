"""The benchmark's workloads: inputs from a seed, one query, its oracle.

Every query gets inputs generated afresh from its own sub-seed, so the WKT
parse memo, the prepared-geometry handles and the cross-query cache never
serve work an earlier query already paid for.  The one exception is
``spark-wwf-warm``'s ecoregion table, which every query of a run shares on
purpose: that workload measures the warm cross-query cache.

WKT is written with full ``repr`` precision, so the text the program
parses round-trips to exactly the generated geometries and the oracle can
use those objects without parsing (which would touch the parse memo).
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import JoinConfig, RuntimeConfig, spatial_join
from repro.bench.runner import cluster_spec
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.operators import SpatialOperator
from repro.data import (
    DATASETS,
    generate_gbif,
    generate_nycb,
    generate_taxi,
    generate_wwf,
)
from repro.data.synthetic import SyntheticDataset
from repro.geometry.point import Point
from repro.geometry.wkt import dumps
from repro.hdfs import SimulatedHDFS, write_text
from repro.impala.catalog import ColumnType
from repro.impala.coordinator import ImpalaBackend
from repro.index.morton import morton_codes
from repro.spark.context import SparkContext

__all__ = ["WORKLOADS", "Workload", "Query", "Answer", "derive_seed", "check_answer"]

# Simulated cluster size for the SpatialSpark and ISP-MC workloads.
NODES = 4
WARMUP_LEFT = 2_000
# Left records per query checked against the brute-force oracle.
CHECK_SAMPLE = 100


def derive_seed(seed: int, *labels: Any) -> int:
    """A 63-bit sub-seed, stable across processes and Python versions."""
    digest = hashlib.blake2b(repr((seed, *labels)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Query:
    """One query's inputs, plus the geometries the oracle compares against."""

    left_records: int
    left: list  # what the program receives (WKT strings or Geometry)
    right: list
    truth_left: list  # (id, Geometry), exactly what the program parses
    truth_right: list
    hdfs: SimulatedHDFS | None = None
    left_path: str = ""
    right_path: str = ""


@dataclass
class Answer:
    """One query's pairs and the program's own accounting of it."""

    pairs: list
    sim_seconds: float | None = None
    info: dict[str, float] = field(default_factory=dict)


def _wkt_rows(records) -> list[tuple[int, str]]:
    return [(rid, dumps(geometry)) for rid, geometry in records]


def _spatial_order(dataset: SyntheticDataset) -> list:
    """Records in Morton order, re-numbered by position.

    Files on HDFS are spatially ordered like real exports (the static
    scan-range binding of ISP-MC depends on it); the position doubles as
    the id, so SpatialSpark's ``zipWithIndex`` ids and the SQL ``id``
    column agree.  The order is the one ``repro.bench.workloads`` writes
    (a test pins it), computed with the vectorised ``morton_codes``
    because the per-record sort there would double a query's preparation.
    """
    centers = [
        (g.x, g.y) if isinstance(g, Point) else g.envelope.center
        for _, g in dataset.records
    ]
    xs, ys = np.array(centers, dtype=np.float64).reshape(-1, 2).T
    extent = dataset.extent
    codes = morton_codes(xs, ys, extent.min_x, extent.min_y, extent.width, extent.height)
    order = np.argsort(codes, kind="stable").tolist()
    return [(pos, dataset.records[i][1]) for pos, i in enumerate(order)]


def _write_table(hdfs: SimulatedHDFS, path: str, records, target_blocks: int) -> None:
    lines = [f"{rid}\t{wkt}" for rid, wkt in _wkt_rows(records)]
    payload = sum(len(line) + 1 for line in lines)
    write_text(hdfs, path, lines, block_size=max(1024, payload // target_blocks))


def _new_hdfs() -> SimulatedHDFS:
    return SimulatedHDFS(datanodes=tuple(f"node{i}" for i in range(10)), replication=2)


def _build_cost_weight(left: str, left_count: int, right: str, right_count: int) -> float:
    """Right-side work per record relative to the left side (see MaterializedWorkload)."""
    left_rep = DATASETS[left].paper_size / left_count
    right_rep = DATASETS[right].paper_size / right_count
    return right_rep / left_rep


@dataclass(frozen=True)
class Workload:
    """A closed-loop, one-client workload; subclasses define the query."""

    name: str
    left_count: int
    right_count: int
    operator: SpatialOperator

    def shared(self, seed: int) -> Any:
        """Run-wide state built once during set-up (none by default)."""
        return None

    def make_query(self, seed: int, shared: Any, left_count: int | None = None) -> Query:
        raise NotImplementedError

    def execute(self, query: Query, shared: Any, profile: bool) -> Answer:
        raise NotImplementedError


class CoreAutoWithin(Workload):
    """``spatial_join(method="auto")`` Within on WKT strings: taxi x nycb."""

    def make_query(self, seed, shared, left_count=None):
        taxi = generate_taxi(left_count or self.left_count, seed=derive_seed(seed, "left"))
        nycb = generate_nycb(self.right_count, seed=derive_seed(seed, "right"))
        return Query(
            left_records=len(taxi.records),
            left=_wkt_rows(taxi.records),
            right=_wkt_rows(nycb.records),
            truth_left=taxi.records,
            truth_right=nycb.records,
        )

    def execute(self, query, shared, profile):
        result = spatial_join(
            query.left, query.right,
            config=JoinConfig(operator=self.operator, method="auto", profile=profile),
        )
        return Answer(
            list(result.pairs),
            result.profile.total_simulated_seconds if profile else None,
        )


@dataclass
class _SharedEcoregions:
    hdfs: SimulatedHDFS
    path: str
    records: list
    centers: list


class SparkWwfWarm(Workload):
    """SpatialSpark broadcast join, warm cache, 2 executors: g10m x wwf."""

    # Far above one ecoregion index; only the shared table is ever cached.
    CACHE_BUDGET = 64 << 20
    EXECUTORS = 2

    def shared(self, seed):
        wwf = generate_wwf(self.right_count, seed=derive_seed(seed, "wwf"))
        records = _spatial_order(wwf)
        hdfs = _new_hdfs()
        _write_table(hdfs, "/data/wwf.txt", records, 10)
        # Occurrences cluster on ecoregion parts, as real GBIF records
        # fall on land: the same centres ``repro.bench.workloads.materialize``
        # builds inline for G10M-wwf, where no function exposes them.
        centers = []
        for _, geometry in wwf.records:
            for part in geometry.parts:
                c = part.centroid()
                centers.append((c.x, c.y, part.envelope.width / 5.0))
        return _SharedEcoregions(hdfs, "/data/wwf.txt", records, centers)

    def make_query(self, seed, shared, left_count=None):
        points = generate_gbif(
            left_count or self.left_count, seed=derive_seed(seed, "left"),
            centers=shared.centers,
        )
        records = _spatial_order(points)
        path = f"/data/g10m_{seed}.txt"
        _write_table(shared.hdfs, path, records, 40)
        return Query(
            left_records=len(records),
            left=[],
            right=[],
            truth_left=records,
            truth_right=shared.records,
            hdfs=shared.hdfs,
            left_path=path,
            right_path=shared.path,
        )

    def execute(self, query, shared, profile):
        weight = _build_cost_weight("g10m", query.left_records, "wwf", self.right_count)
        sc = SparkContext(
            cluster_spec(NODES), hdfs=query.hdfs,
            runtime=RuntimeConfig(
                cache_budget_bytes=self.CACHE_BUDGET, executors=self.EXECUTORS
            ),
        )
        try:
            left = read_geometry_pairs(sc, query.left_path, 1)
            right = read_geometry_pairs(sc, query.right_path, 1, cost_weight=weight)
            pairs = broadcast_spatial_join(
                sc, left, right, self.operator, build_cost_weight=weight
            ).collect()
        finally:
            query.hdfs.delete(query.left_path)
        info = {}
        if profile:
            tasks = 0
            stack = [sc.to_profile().root]
            while stack:
                node = stack.pop()
                tasks += node.info.get("tasks", 0)
                stack.extend(node.children)
            info["spark.tasks"] = float(tasks)
        return Answer(pairs, sc.simulated_seconds(), info)


_SCHEMA = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
_WITHIN_SQL = (
    "SELECT l.id, r.id FROM left_taxi l SPATIAL JOIN right_nycb r "
    "WHERE ST_WITHIN(l.geom, r.geom)"
)


class ImpalaSqlNycb(Workload):
    """ISP-MC ``SPATIAL JOIN`` SQL on 4 simulated nodes: taxi x nycb."""

    def make_query(self, seed, shared, left_count=None):
        taxi = generate_taxi(left_count or self.left_count, seed=derive_seed(seed, "left"))
        nycb = generate_nycb(self.right_count, seed=derive_seed(seed, "right"))
        left, right = _spatial_order(taxi), _spatial_order(nycb)
        hdfs = _new_hdfs()
        _write_table(hdfs, "/data/taxi.txt", left, 40)
        _write_table(hdfs, "/data/nycb.txt", right, 10)
        return Query(
            left_records=len(left),
            left=[],
            right=[],
            truth_left=left,
            truth_right=right,
            hdfs=hdfs,
            left_path="/data/taxi.txt",
            right_path="/data/nycb.txt",
        )

    def execute(self, query, shared, profile):
        backend = ImpalaBackend(
            cluster_spec(NODES), hdfs=query.hdfs,
            build_cost_weight=_build_cost_weight(
                "taxi", query.left_records, "nycb", len(query.truth_right)
            ),
        )
        backend.metastore.create_table("left_taxi", _SCHEMA, query.left_path)
        backend.metastore.create_table("right_nycb", _SCHEMA, query.right_path)
        result = backend.execute(_WITHIN_SQL)
        return Answer(
            [tuple(row) for row in result.rows],
            result.simulated_seconds,
            {"impala.fragment_instances": float(len(result.instances))},
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        CoreAutoWithin("core-auto-within", 50_000, 400, SpatialOperator.WITHIN),
        SparkWwfWarm("spark-wwf-warm", 25_000, 145, SpatialOperator.WITHIN),
        ImpalaSqlNycb("impala-sql-nycb", 25_000, 400, SpatialOperator.WITHIN),
    )
}


def check_answer(workload: Workload, query: Query, pairs: list, seed: int) -> bool:
    """True when ``pairs`` agrees with the brute-force oracle on a sample.

    A seeded sample of left records is joined against the full right side
    with ``method="naive"``; the program's pairs for those records must
    match it exactly (as a multiset), and no pair may repeat.
    """
    if len(set(pairs)) != len(pairs):
        return False
    rng = random.Random(seed)
    sample = rng.sample(query.truth_left, min(CHECK_SAMPLE, len(query.truth_left)))
    expected = spatial_join(
        sample, query.truth_right, operator=workload.operator, method="naive"
    )
    ids = {rid for rid, _ in sample}
    return Counter(p for p in pairs if p[0] in ids) == Counter(expected)
