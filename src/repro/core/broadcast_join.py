"""SpatialSpark's broadcast spatial join — the port of the paper's Fig 2.

The right (smaller) side is collected to the driver, packed into an
STR-tree whose envelopes are expanded by the NearestD radius, broadcast to
every executor, and probed by a ``flatMap`` over the left side.  The
skeleton below deliberately mirrors the Scala code in Fig 2 line for line:

=====================================  =====================================
Fig 2 (Scala)                          here
=====================================  =====================================
``sc.textFile(...).map(_.split)``      :func:`read_geometry_pairs`
``.zipWithIndex()``                    ``.zip_with_index()``
``Try(new WKTReader().read(...))``     ``WKTReader.try_read`` + filter
``val strtree = new STRtree()``        :class:`~repro.core.probe.BroadcastIndex`
``y.expandBy(radius)``                 ``BroadcastIndex(radius=...)``
``sc.broadcast(strtree)``              ``sc.broadcast(index)``
``leftGeometryWithId.flatMap(...)``    ``left.flat_map(probe)``
=====================================  =====================================
"""

from __future__ import annotations

from typing import Any

from repro.cache import estimate_index_bytes, fingerprint_entries
from repro.cluster.model import Resource
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry import wkb as wkb_mod
from repro.geometry.wkt import WKTReader
from repro.obs.events import install_event_log
from repro.obs.tracer import get_tracer
from repro.spark.context import SparkContext
from repro.spark.rdd import RDD
from repro.spark.taskcontext import current_task

__all__ = [
    "broadcast_spatial_join",
    "BroadcastSpatialJoin",
    "read_geometry_pairs",
    "read_geometry_pairs_wkb",
]


def read_geometry_pairs(
    sc: SparkContext,
    path: str,
    geometry_index: int,
    separator: str = "\t",
    num_partitions: int | None = None,
    cost_weight: float = 1.0,
) -> RDD[tuple[int, Geometry]]:
    """Load ``(record_index, geometry)`` pairs from a WKT text file.

    This is the pre-processing block of Fig 2: split each line on the
    separator, pair it with its global index, parse the geometry column,
    and *drop* rows whose WKT fails to parse (the ``Try``/``isSuccess``
    filter) instead of failing the job.
    """

    def parse(pair: tuple[list[str], int]):
        fields, record_id = pair
        if geometry_index >= len(fields):
            return []
        text = fields[geometry_index]
        task = current_task()
        task.add(Resource.WKT_BYTES, len(text) * cost_weight)
        # Two pipeline hops per record (zipWithIndex pass + parse pass).
        task.add(Resource.RDD_RECORDS, 2.0)
        geometry = WKTReader().try_read(text)
        if geometry is None:
            return []
        return [(record_id, geometry)]

    if num_partitions is None:
        # Spark's rule of thumb: ~2 tasks per core keeps the dynamic
        # scheduler's waves balanced (the a1 ablation varies this).
        num_partitions = sc.default_parallelism
    data = sc.text_file(path, num_partitions).map(
        lambda line: line.split(separator)
    ).zip_with_index()
    return data.flat_map(parse)


def read_geometry_pairs_wkb(
    sc: SparkContext,
    path: str,
    num_partitions: int | None = None,
    cost_weight: float = 1.0,
) -> RDD[tuple[int, Geometry]]:
    """Load ``(record_index, geometry)`` pairs from a binary WKB file.

    The paper's Section III future-work item, end to end: geometry stays
    binary on HDFS (paged record files) and in memory (numpy coordinate
    buffers), skipping string parsing entirely.  Decode cost is charged
    per WKB byte — roughly an order of magnitude below the WKT rate.
    Corrupt records are dropped, mirroring the WKT dirty-row filter.
    """
    from repro.errors import WKBParseError

    def parse(pair: tuple[bytes, int]):
        payload, record_id = pair
        current_task().add(Resource.WKB_BYTES, len(payload) * cost_weight)
        try:
            geometry = wkb_mod.loads(payload)
        except WKBParseError:
            return []
        return [(record_id, geometry)]

    if num_partitions is None:
        num_partitions = sc.default_parallelism
    data = sc.binary_records(path, num_partitions).zip_with_index()
    return data.flat_map(parse)


def broadcast_spatial_join(
    sc: SparkContext,
    left: RDD[tuple[Any, Geometry]],
    right: RDD[tuple[Any, Geometry]],
    operator: SpatialOperator,
    radius: float = 0.0,
    engine: str = "fast",
    build_cost_weight: float = 1.0,
) -> RDD[tuple[Any, Any]]:
    """Join two (id, geometry) RDDs, returning matching (left_id, right_id).

    SpatialSpark pairs a JTS-like refinement engine (``engine="fast"``)
    with dynamic Spark scheduling; passing ``engine="slow"`` isolates the
    geometry-library axis for the ablation benchmarks.

    Each task probes its whole partition with one
    :meth:`~repro.core.probe.BroadcastIndex.probe_batch` call: one bulk
    index probe, one batch kernel call per build geometry.  Pairs, their
    order and every accrued task/engine counter equal what probing the
    rows one by one with ``probe_with_cost`` gives.
    """
    if operator.needs_radius and radius <= 0.0:
        raise ReproError(f"{operator} requires a positive radius")
    sc.record_plan({"join": "broadcast"})
    tracer = get_tracer()
    # Driver side: collect + bulk-load + broadcast (Fig 2's apply()).
    # The collect always runs (its tasks charge parse/pipeline costs);
    # only the STR-tree construction is skippable via the cross-query
    # cache, keyed on the collected content — and the build charge below
    # is billed either way, so simulated seconds never see the cache.
    with tracer.span("collect-build-side", category="phase"):
        right_local = right.collect()
    cache = sc.cache
    cache_key = None
    if cache is not None:
        cache_key = fingerprint_entries(
            right_local, "spark-broadcast-index", operator.value,
            float(radius), engine,
        )
    with tracer.span("build-index", category="phase") as build_span:
        # The scheduler installs the context's event log only inside
        # run_job; this driver-side section installs it too so cache
        # hit/miss events reach the same events.jsonl stream.
        with install_event_log(sc.event_log):
            index = (
                cache.get(cache_key, "spark-broadcast-index")
                if cache is not None
                else None
            )
            if index is None:
                index = BroadcastIndex.build(
                    right_local, operator, radius=radius, engine=engine
                )
                if cache is not None:
                    cache.put(
                        cache_key, "spark-broadcast-index", index,
                        size_bytes=estimate_index_bytes(index),
                        build_cost=sum(index.build_cost_units().values()),
                    )
        build_units = {
            resource: units * build_cost_weight
            for resource, units in index.build_cost_units().items()
        }
        build_seconds = (
            sc.cost_model.task_seconds(build_units) * sc.cost_model.spark_jvm_factor
        )
        sc.broadcast_overhead_seconds += build_seconds
        build_span.add_sim(build_seconds)
        build_span.set_attr("index_entries", len(index))
    with tracer.span("broadcast", category="phase") as bc_span:
        ship_before = sc.broadcast_overhead_seconds
        index_broadcast = sc.broadcast(
            index, cost_weight=build_cost_weight, fingerprint=cache_key
        )
        bc_span.add_sim(sc.broadcast_overhead_seconds - ship_before)

    def query_rtree_partition(rows):
        rows = list(rows)
        if not rows:
            return []
        matches_per_row, totals = index_broadcast.value.probe_batch(
            geometry for _, geometry in rows
        )
        task = current_task()
        for resource, amount in totals.items():
            task.add(resource, amount)
        return [
            (left_id, right_id)
            for (left_id, _), matches in zip(rows, matches_per_row)
            for right_id in matches
        ]

    return left.map_partitions(query_rtree_partition)


# The paper's object name, for Fig 2-style call sites.
BroadcastSpatialJoin = broadcast_spatial_join
