"""Columnar geometry data plane.

A :class:`GeometryColumn` stores a batch of geometries as flat numpy
buffers (GeoArrow-style nested offsets) plus a parallel payload column.
Partition slices are O(1) index arrays into the shared buffers; the
versioned binary encoding (``to_bytes``/``from_bytes``) is what ships
across simulated shuffles and process pools.

This is the only data plane: joins pack their inputs whenever the
column model can hold them, and fall back to geometry objects only for
input it cannot (a ``GeometryCollection``, say).  Either way results are
byte-identical (pairs, order, counters, simulated seconds, profiles,
events); the object-plane reference the tests compare against lives in
``tests/``.
"""

from .block import ColumnBlock
from .column import GeometryColumn
from .io import column_from_wkt
from .stats import COLUMNAR_STATS, ColumnarStats

__all__ = [
    "COLUMNAR_STATS",
    "ColumnBlock",
    "ColumnarStats",
    "GeometryColumn",
    "column_from_wkt",
]
