"""Shared filter+refine machinery for indexed spatial joins.

Both prototypes follow the same two-phase plan (Section II):

* **filter** — an STR-packed R-tree over the build (right) side's MBBs,
  expanded by the search radius for NearestD exactly as Fig 2's
  ``expandBy(radius)`` does, is probed with each left envelope;
* **refine** — surviving candidate pairs are checked with the exact
  predicate by a pluggable refinement engine (fast/JTS-like for
  SpatialSpark, slow/GEOS-like for ISP-MC).

:class:`BroadcastIndex` packages both phases plus per-probe cost
accounting so the engines' schedulers can attribute work to tasks, row
batches and fragment instances.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

from repro.cluster.model import Resource
from repro.columnar.column import _POINT as _POINT_CODE
from repro.columnar.column import GeometryColumn
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry.engine import GeometryEngine, create_engine
from repro.geometry.point import Point
from repro.geometry.algorithms import distance as distance_mod
from repro.geometry.algorithms import predicates
from repro.index.rtree import STRtree
from repro.core.operators import SpatialOperator

__all__ = ["BroadcastIndex", "refine_pair", "naive_spatial_join"]


def refine_pair(
    engine: GeometryEngine,
    operator: SpatialOperator,
    probe_geometry: Geometry,
    build_geometry: Geometry,
    build_handle: object,
    radius: float,
) -> bool:
    """Exact predicate test for one candidate pair.

    Point probes take the engine's prepared fast paths; non-point probes
    fall back to the generic computational-geometry predicates (identical
    results, no preparation benefit — matching how JTS/GEOS treat them).
    """
    if isinstance(probe_geometry, Point):
        if operator is SpatialOperator.WITHIN:
            return engine.point_within(probe_geometry, build_handle)
        if operator is SpatialOperator.NEAREST_D:
            return engine.point_within_distance(probe_geometry, build_handle, radius)
        if operator is SpatialOperator.INTERSECTS:
            return predicates.intersects(probe_geometry, build_geometry)
        if operator is SpatialOperator.CONTAINS:
            return predicates.within(build_geometry, probe_geometry)
        raise ReproError(f"unsupported operator {operator}")
    if operator is SpatialOperator.WITHIN:
        return predicates.within(probe_geometry, build_geometry)
    if operator is SpatialOperator.NEAREST_D:
        return distance_mod.distance(probe_geometry, build_geometry) <= radius
    if operator is SpatialOperator.INTERSECTS:
        return predicates.intersects(probe_geometry, build_geometry)
    if operator is SpatialOperator.CONTAINS:
        return predicates.within(build_geometry, probe_geometry)
    raise ReproError(f"unsupported operator {operator}")


class BroadcastIndex:
    """The broadcast build side: an STR-tree over prepared geometries.

    ``entries`` are (payload, geometry) pairs; payloads are whatever the
    caller wants back from probes (row tuples, ids).  The index prepares
    each geometry once with the given engine and inserts its envelope —
    expanded by ``radius`` for NearestD — into the R-tree.
    """

    def __init__(
        self,
        entries: Iterable[tuple[Any, Geometry]],
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
        node_capacity: int = 10,
    ):
        if operator.needs_radius and radius <= 0.0:
            raise ReproError(f"{operator} requires a positive radius")
        self.operator = operator
        self.radius = radius if operator.needs_radius else 0.0
        self.engine = create_engine(engine) if isinstance(engine, str) else engine
        self._tree: STRtree = STRtree(node_capacity=node_capacity)
        self.build_entries = 0
        self.build_vertex_total = 0
        for payload, geometry in entries:
            if geometry.is_empty:
                continue
            handle = self.engine.prepare(geometry)
            envelope = geometry.envelope.expand_by(self.radius)
            self._tree.insert((payload, geometry, handle), envelope)
            self.build_entries += 1
            self.build_vertex_total += geometry.num_points
        self._tree.build()

    @classmethod
    def build(
        cls,
        source: GeometryColumn | Iterable[tuple[Any, Geometry]],
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
    ) -> "BroadcastIndex":
        """The index over ``source``: a packed column or (payload, geometry) pairs.

        Pairs are packed into a :class:`GeometryColumn` and bulk-loaded
        through :meth:`from_column`; input the column model cannot hold (a
        ``GeometryCollection``, say) takes the object constructor instead.
        Both give the same tree, entry order, counters and probe answers.
        """
        if not isinstance(source, GeometryColumn):
            entries = list(source)
            source = GeometryColumn.from_entries(entries)
            if source is None:
                return cls(entries, operator, radius=radius, engine=engine)
        return cls.from_column(source, operator, radius=radius, engine=engine)

    @classmethod
    def from_column(
        cls,
        column: GeometryColumn,
        operator: SpatialOperator,
        radius: float = 0.0,
        engine: GeometryEngine | str = "fast",
        node_capacity: int = 10,
    ) -> "BroadcastIndex":
        """Build the index from a packed column — same tree, bulk-loaded.

        The STR packing reads the column's bbox arrays directly (expanded
        by the radius with the same float arithmetic as ``expand_by``), so
        the resulting tree, entry order, counters and probe answers are
        byte-identical to the object constructor over ``column.entries()``.
        """
        if operator.needs_radius and radius <= 0.0:
            raise ReproError(f"{operator} requires a positive radius")
        self = cls.__new__(cls)
        self.operator = operator
        self.radius = radius if operator.needs_radius else 0.0
        self.engine = create_engine(engine) if isinstance(engine, str) else engine
        self._tree = STRtree(node_capacity=node_capacity)
        counts = column.num_points_array()
        keep = np.flatnonzero(counts > 0)  # num_points > 0 <=> not is_empty
        kept = column if len(keep) == len(column) else column.take(keep)
        prepare = self.engine.prepare
        items = []
        for i in range(len(kept)):
            geometry = kept.geometry(i)
            items.append((kept.payload(i), geometry, prepare(geometry)))
        min_x, min_y, max_x, max_y = kept.bounds()
        radius = self.radius
        # Same IEEE ops as Envelope.expand_by (x - 0.0 == x bitwise).
        self._tree.bulk_load_arrays(
            items, min_x - radius, min_y - radius, max_x + radius, max_y + radius
        )
        self.build_entries = len(items)
        self.build_vertex_total = int(counts[keep].sum())
        self._tree.build()
        # Retained so pickling (pool shipping, spawn-style broadcast)
        # moves the compact encoded column instead of the object graph;
        # the receiver rebuilds an identical tree from the buffers.
        self._column = kept
        self._node_capacity = node_capacity
        return self

    def __reduce_ex__(self, protocol):
        column = self.__dict__.get("_column")
        if column is None:
            return super().__reduce_ex__(protocol)
        return (
            _index_from_column,
            (
                column,
                self.operator,
                self.radius,
                self.engine.name,
                self._node_capacity,
            ),
        )

    def __len__(self) -> int:
        return self.build_entries

    @property
    def tree(self) -> STRtree:
        return self._tree

    def build_cost_units(self) -> dict[str, float]:
        """Resource units to charge whoever builds a copy of this index."""
        return {Resource.INDEX_BUILD: float(self.build_entries)}

    def probe(self, geometry: Geometry) -> list[Any]:
        """Return payloads of build entries satisfying the predicate."""
        if geometry.is_empty:
            return []
        candidates = self._tree.query(geometry.envelope)
        matches = []
        for payload, build_geometry, handle in candidates:
            if refine_pair(
                self.engine, self.operator, geometry, build_geometry, handle, self.radius
            ):
                matches.append(payload)
        return matches

    def probe_with_cost(
        self, geometry: Geometry
    ) -> tuple[list[Any], dict[str, float]]:
        """Probe and also return the resource units this probe consumed.

        Used by schedulers that need per-row costs (ISP-MC's static OpenMP
        chunks; Spark task accounting does the same at task granularity).
        """
        counters = self.engine.counters
        visits_before = self._tree.nodes_visited
        vertex_before = counters.vertex_ops
        alloc_before = counters.allocations
        matches = self.probe(geometry)
        units: dict[str, float] = {
            Resource.INDEX_VISIT: float(self._tree.nodes_visited - visits_before),
            Resource.ROWS_OUT: float(len(matches)),
        }
        vertex_delta = counters.vertex_ops - vertex_before
        if vertex_delta:
            if self.engine.name == "slow":
                units[Resource.REFINE_VERTEX_SLOW] = float(vertex_delta)
            else:
                units[Resource.REFINE_VERTEX_FAST] = float(vertex_delta)
        alloc_delta = counters.allocations - alloc_before
        if alloc_delta:
            units[Resource.REFINE_ALLOC] = float(alloc_delta)
        return matches, units

    def probe_batch(
        self, geometries: Iterable[Geometry | None], per_row: bool = False
    ) -> tuple[list[list[Any]], dict[str, float] | list[dict[str, float] | None]]:
        """Probe many geometries with one index traversal and batched kernels.

        Matches — payloads per probe, in candidate order — and cost units
        are exactly what N :meth:`probe_with_cost` calls produce; the
        engine counters advance by the same totals.  ``None`` entries are
        skipped entirely (their units slot is ``None``) so row-pipeline
        callers can keep unparsable rows in place.  With ``per_row`` the
        second element is the per-probe units list; otherwise it is the
        summed totals dict.

        Point probes under Within/NearestD take the columnar path: one
        Morton-sorted bulk index probe, then candidates grouped by build
        geometry so each polygon/polyline refines its whole point set with
        one batch kernel call.  Everything else falls back to per-probe
        scalar refinement (same answers, no batching benefit — mirroring
        the scalar engines).

        ``geometries`` may also be a :class:`GeometryColumn`: the point
        coordinates are then read straight from the packed buffer with no
        per-row object access (identical answers and counters).
        """
        if isinstance(geometries, GeometryColumn):
            return self._probe_batch_column(geometries, per_row)
        geometries = list(geometries)
        n = len(geometries)
        matches: list[list[Any]] = [[] for _ in range(n)]
        row_units: list[dict[str, float] | None] = [None] * n
        batchable: list[int] = []
        batch_ok = self.operator in (
            SpatialOperator.WITHIN,
            SpatialOperator.NEAREST_D,
        ) and hasattr(self.engine, "contains_batch_counted")
        for i, geometry in enumerate(geometries):
            if geometry is None:
                continue
            if geometry.is_empty:
                row_units[i] = {
                    Resource.INDEX_VISIT: 0.0,
                    Resource.ROWS_OUT: 0.0,
                }
                continue
            if batch_ok and isinstance(geometry, Point):
                batchable.append(i)
            else:
                matches[i], row_units[i] = self.probe_with_cost(geometry)
        batch_totals: dict[str, float] | None = None
        if batchable:
            m = len(batchable)
            xs = np.fromiter(
                (geometries[i].x for i in batchable), dtype=np.float64, count=m
            )
            ys = np.fromiter(
                (geometries[i].y for i in batchable), dtype=np.float64, count=m
            )
            batch_totals = self._probe_points_arrays(
                xs, ys, batchable, matches, row_units, per_row
            )
        if per_row:
            return matches, row_units
        return matches, self._sum_units(row_units, batch_totals)

    def _probe_batch_column(
        self, column: GeometryColumn, per_row: bool
    ) -> tuple[list[list[Any]], dict[str, float] | list[dict[str, float] | None]]:
        """:meth:`probe_batch` over a packed column.

        Classification (empty / batchable point / scalar fallback) is
        vectorised over the column's type and count arrays; the batched
        point kernel reads xs/ys straight from the coordinate buffer.
        Non-point rows materialise their geometry once and take the exact
        scalar path.
        """
        n = len(column)
        matches: list[list[Any]] = [[] for _ in range(n)]
        row_units: list[dict[str, float] | None] = [None] * n
        counts = column.num_points_array()
        batch_ok = self.operator in (
            SpatialOperator.WITHIN,
            SpatialOperator.NEAREST_D,
        ) and hasattr(self.engine, "contains_batch_counted")
        for i in np.flatnonzero(counts == 0).tolist():
            row_units[i] = {
                Resource.INDEX_VISIT: 0.0,
                Resource.ROWS_OUT: 0.0,
            }
        batch_totals: dict[str, float] | None = None
        if batch_ok:
            positions, xs, ys = column.point_rows()
            scalar = np.flatnonzero(
                (counts > 0) & (column.types_array() != _POINT_CODE)
            ).tolist()
        else:
            positions, xs, ys = np.empty(0, dtype=np.int64), None, None
            scalar = np.flatnonzero(counts > 0).tolist()
        for i in scalar:
            matches[i], row_units[i] = self.probe_with_cost(column.geometry(i))
        if len(positions):
            batch_totals = self._probe_points_arrays(
                xs, ys, positions.tolist(), matches, row_units, per_row
            )
        if per_row:
            return matches, row_units
        return matches, self._sum_units(row_units, batch_totals)

    @staticmethod
    def _sum_units(
        row_units: list[dict[str, float] | None],
        batch_totals: dict[str, float] | None,
    ) -> dict[str, float]:
        totals: dict[str, float] = {}
        for units in row_units:
            if units is None:
                continue
            for resource, amount in units.items():
                totals[resource] = totals.get(resource, 0.0) + amount
        if batch_totals:
            for resource, amount in batch_totals.items():
                totals[resource] = totals.get(resource, 0.0) + amount
        return totals

    def _probe_points_arrays(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        batchable: list[int],
        matches: list[list[Any]],
        row_units: list[dict[str, float] | None],
        per_row: bool,
    ) -> dict[str, float] | None:
        """Columnar filter+refine for point probes at rows ``batchable``.

        ``xs``/``ys`` are the probe coordinates aligned with ``batchable``.
        Fills ``matches`` in place.  With ``per_row`` it also fills
        ``row_units`` (per-probe cost dicts, exactly what
        :meth:`probe_with_cost` yields); otherwise it skips the per-probe
        dicts and returns the batchable rows' summed totals — the floats
        are integer-valued, so the sum equals the per-row sum exactly.
        """
        m = len(batchable)
        # Each chunk is one build item plus every probe that reached it —
        # already the grouping a batched refinement kernel wants.
        chunks, visits = self._tree.query_batch_points_chunks(xs, ys)
        if per_row:
            vertex_acc = np.zeros(m, dtype=np.int64)
            alloc_acc = np.zeros(m, dtype=np.int64)
        vertex_total = 0
        alloc_total = 0
        engine = self.engine
        within = self.operator is SpatialOperator.WITHIN
        chunk_hits: list[np.ndarray] = []
        for item, positions in chunks:
            _, _, handle = item
            if within:
                hit, vertex, alloc = engine.contains_batch_counted(
                    handle, xs[positions], ys[positions]
                )
            else:
                hit, vertex, alloc = engine.within_distance_batch_counted(
                    handle, xs[positions], ys[positions], self.radius
                )
            chunk_hits.append(hit)
            if per_row:
                # A chunk holds each probe at most once, so the fancy
                # index has no duplicates and += accumulates correctly.
                vertex_acc[positions] += vertex
                alloc_acc[positions] += alloc
            else:
                vertex_total += int(vertex.sum())
                alloc_total += int(alloc.sum())
        hits_total = 0
        if chunks:
            pair_probe = np.concatenate([positions for _, positions in chunks])
            pair_chunk = np.repeat(
                np.arange(len(chunks), dtype=np.int64),
                np.fromiter(
                    (len(positions) for _, positions in chunks),
                    dtype=np.int64,
                    count=len(chunks),
                ),
            )
            pair_hit = np.concatenate(chunk_hits)
            hits_total = int(pair_hit.sum())
            # Chunks arrive in DFS order; a stable sort by probe restores
            # the scalar query's per-probe candidate order.
            order = np.argsort(pair_probe, kind="stable")
            sel = order[pair_hit[order]]
            payloads = [item[0] for item, _ in chunks]
            for j, k in zip(pair_probe[sel].tolist(), pair_chunk[sel].tolist()):
                matches[batchable[j]].append(payloads[k])
        slow = engine.name == "slow"
        if not per_row:
            totals: dict[str, float] = {
                Resource.INDEX_VISIT: float(visits.sum()),
                Resource.ROWS_OUT: float(hits_total),
            }
            if vertex_total:
                if slow:
                    totals[Resource.REFINE_VERTEX_SLOW] = float(vertex_total)
                else:
                    totals[Resource.REFINE_VERTEX_FAST] = float(vertex_total)
            if alloc_total:
                totals[Resource.REFINE_ALLOC] = float(alloc_total)
            return totals
        visits_list = visits.tolist()
        vertex_list = vertex_acc.tolist()
        alloc_list = alloc_acc.tolist()
        rows_out = np.zeros(m, dtype=np.int64)
        if hits_total:
            rows_out += np.bincount(pair_probe[pair_hit], minlength=m)
        rows_list = rows_out.tolist()
        vertex_key = Resource.REFINE_VERTEX_SLOW if slow else Resource.REFINE_VERTEX_FAST
        for j, i in enumerate(batchable):
            units: dict[str, float] = {
                Resource.INDEX_VISIT: float(visits_list[j]),
                Resource.ROWS_OUT: float(rows_list[j]),
            }
            if vertex_list[j]:
                units[vertex_key] = float(vertex_list[j])
            if alloc_list[j]:
                units[Resource.REFINE_ALLOC] = float(alloc_list[j])
            row_units[i] = units
        return None

    def nearest(
        self, point: Point, k: int = 1, max_distance: float = math.inf
    ) -> list[tuple[Any, float]]:
        """k-nearest build payloads to a probe point (kNN extension)."""

        def exact(x: float, y: float, item) -> float:
            _, _, handle = item
            return self.engine.point_distance(Point(x, y), handle)

        found = self._tree.nearest(
            point.x, point.y, k=k, max_distance=max_distance, item_distance=exact
        )
        return [(payload, dist) for (payload, _, _), dist in found]


def _index_from_column(column, operator, radius, engine, node_capacity):
    """Unpickle hook: rebuild a column-backed :class:`BroadcastIndex`.

    The column ships as its compact binary encoding (its own
    ``__reduce__``); rebuilding here gives a tree bit-identical to the
    sender's, with engine counters local to the fresh engine instance.
    """
    return BroadcastIndex.from_column(
        column, operator, radius=radius, engine=engine, node_capacity=node_capacity
    )


def naive_spatial_join(
    left: Iterable[tuple[Any, Geometry]],
    right: Iterable[tuple[Any, Geometry]],
    operator: SpatialOperator,
    radius: float = 0.0,
) -> list[tuple[Any, Any]]:
    """Reference O(|L|*|R|) nested-loop join (the baseline of Section II).

    Used by tests as ground truth and by the cross-join ablation; performs
    an envelope precheck per pair but no indexing.
    """
    right_list = [(payload, geom) for payload, geom in right if not geom.is_empty]
    expand = radius if operator.needs_radius else 0.0
    results: list[tuple[Any, Any]] = []
    for left_payload, left_geom in left:
        if left_geom.is_empty:
            continue
        probe_env = left_geom.envelope
        for right_payload, right_geom in right_list:
            if not probe_env.intersects(right_geom.envelope.expand_by(expand)):
                continue
            if _naive_refine(operator, left_geom, right_geom, radius):
                results.append((left_payload, right_payload))
    return results


def _naive_refine(
    operator: SpatialOperator, left: Geometry, right: Geometry, radius: float
) -> bool:
    if operator is SpatialOperator.WITHIN:
        return predicates.within(left, right)
    if operator is SpatialOperator.NEAREST_D:
        return distance_mod.distance(left, right) <= radius
    if operator is SpatialOperator.INTERSECTS:
        return predicates.intersects(left, right)
    if operator is SpatialOperator.CONTAINS:
        return predicates.within(right, left)
    raise ReproError(f"unsupported operator {operator}")
