"""ISP-MC: the indexed SpatialJoin exec node plugged into mini-Impala.

Fig 3 of the paper shows the four ISP-MC components; this module is the
third and fourth: the ``SpatialJoin`` subclass of Impala's blocking join
(build an in-memory R-tree from the broadcast right side, probe it with
every left row batch) and the OpenMP-style multi-core refinement over row
batches.  The frontend keyword and plan wiring live in
:mod:`repro.impala.planner`; the static inter-node scheduling lives in
:mod:`repro.impala.coordinator`.
"""

from __future__ import annotations

from typing import Iterable

from repro.cluster.model import Resource
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.geometry.wkt import WKTReader
from repro.impala.exec_nodes import BlockingJoinNode, ExecNode, InstanceContext
from repro.impala.rowbatch import BATCH_SIZE, RowBatch

__all__ = ["build_spatial_index", "SpatialJoinNode"]

_READER = WKTReader()


def build_spatial_index(
    build_rows: Iterable[tuple],
    geometry_slot: int,
    operator: SpatialOperator,
    radius: float,
    engine: str = "slow",
) -> tuple[BroadcastIndex, int, int]:
    """Build the broadcast R-tree over the right side's WKT geometry column.

    Returns ``(index, wkt_bytes_parsed, rows_dropped)``.  Rows whose WKT
    fails to parse are dropped, matching the scanners' dirty-row policy.
    The paper notes this parse ("building an R-Tree for all tuples of the
    table on the right side") is one of ISP-MC's three string-parsing
    costs — the byte count lets the coordinator charge it per instance.

    The index comes from :meth:`~repro.core.probe.BroadcastIndex.build`,
    so a packable build side is bulk-loaded from its column's bbox arrays
    and ships to pool workers as the compact binary column.
    """
    entries = []
    wkt_bytes = 0
    dropped = 0
    for row in build_rows:
        text = row[geometry_slot]
        if not isinstance(text, str):
            dropped += 1
            continue
        wkt_bytes += len(text)
        geometry = _READER.try_read(text)
        if geometry is None:
            dropped += 1
            continue
        entries.append((row, geometry))
    index = BroadcastIndex.build(entries, operator, radius=radius, engine=engine)
    return index, wkt_bytes, dropped


class SpatialJoinNode(BlockingJoinNode):
    """Indexed nested-loop spatial join over row batches (Fig 3's core).

    The build side arrives pre-indexed (the coordinator builds one
    :class:`~repro.core.probe.BroadcastIndex` and charges every instance
    for its own copy, as each real Impala instance builds its own tree
    from the broadcast stream).  Probing parses each probe batch's WKT,
    then bulk-probes and refines the whole batch with batched kernels,
    recording per-row costs so the batch's duration reflects OpenMP
    *static* chunking across the node's cores.
    """

    def __init__(
        self,
        ctx: InstanceContext,
        probe: ExecNode,
        index: BroadcastIndex,
        probe_geometry_slot: int,
        build_cost_weight: float = 1.0,
        batch_size: int = BATCH_SIZE,
    ):
        super().__init__(ctx, probe, build_rows=[], batch_size=batch_size)
        self.index = index
        self.probe_geometry_slot = probe_geometry_slot
        self.build_cost_weight = build_cost_weight
        self.rows_dropped = 0

    def build(self) -> None:
        """Charge this instance for its copy of the broadcast index."""
        self.ctx.charge_serial(
            Resource.INDEX_BUILD, len(self.index) * self.build_cost_weight
        )

    def probe_batch(self, batch: RowBatch) -> list[tuple]:
        """Consume the whole batch as a geometry column: parse, bulk-probe,
        refine with batched kernels.  Each row's unit dict handed to
        ``charge_batch`` is its WKT bytes plus exactly what
        ``probe_with_cost`` charges for that row, so the OpenMP
        static-chunk makespans (and with them Table 1/2) do not depend on
        the batching."""
        slot = self.probe_geometry_slot
        rows = batch.rows
        base_units: list[dict[str, float]] = []
        geometries = []
        for text in batch.column(slot):
            units: dict[str, float] = {}
            if isinstance(text, str):
                units[Resource.WKT_BYTES] = float(len(text))
                geometry = _READER.try_read(text)
            else:
                geometry = None
            base_units.append(units)
            geometries.append(geometry)
        matches_per_row, probe_units = self.index.probe_batch(
            geometries, per_row=True
        )
        joined: list[tuple] = []
        per_row_units: list[dict[str, float]] = []
        for left_row, units, geometry, matches, row_units in zip(
            rows, base_units, geometries, matches_per_row, probe_units
        ):
            if geometry is None:
                self.rows_dropped += 1
                per_row_units.append(units)
                continue
            for resource, amount in row_units.items():
                units[resource] = units.get(resource, 0.0) + amount
            per_row_units.append(units)
            for right_row in matches:
                joined.append(left_row + right_row)
        self.ctx.charge_batch(per_row_units)
        return joined
