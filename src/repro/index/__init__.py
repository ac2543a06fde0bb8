"""Spatial indexing substrate: the STR-packed R-tree, Morton codes, partitioners."""

from repro.index.morton import morton_code, morton_codes
from repro.index.rtree import STRtree, RTreeNode
from repro.index.partitioner import (
    BinarySplitPartitioner,
    FixedGridPartitioner,
    SortTilePartitioner,
    SpatialPartitioning,
    reference_point_in,
)

__all__ = [
    "STRtree",
    "morton_code",
    "morton_codes",
    "RTreeNode",
    "SpatialPartitioning",
    "FixedGridPartitioner",
    "BinarySplitPartitioner",
    "SortTilePartitioner",
    "reference_point_in",
]
