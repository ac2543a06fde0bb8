"""Spatial partitioners for partitioned (non-broadcast) joins.

SpatialHadoop and HadoopGIS both *spatially partition* the joined datasets
(Section II of the paper); SpatialSpark supports the same strategy as an
alternative to broadcast joins when the right side is too large for one
node's memory.  A partitioner derives a set of tile envelopes from a
sample, after which both sides are routed to every tile their envelope
overlaps and joined tile-by-tile (with duplicate suppression by the
reference-point rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import SpatialIndexError
from repro.geometry.envelope import Envelope

__all__ = [
    "SpatialPartitioning",
    "FixedGridPartitioner",
    "BinarySplitPartitioner",
    "SortTilePartitioner",
    "reference_point_in",
]


@dataclass(frozen=True)
class SpatialPartitioning:
    """A set of tile envelopes covering the data extent.

    ``tiles[i]`` is the envelope of partition ``i``.  Tiles may overlap
    data envelopes arbitrarily; router semantics are *multi-assignment*
    (an object goes to every tile it intersects) with downstream duplicate
    suppression via :func:`reference_point_in`.
    """

    extent: Envelope
    tiles: tuple[Envelope, ...]

    def __len__(self) -> int:
        return len(self.tiles)

    def route(self, envelope: Envelope) -> list[int]:
        """Return indices of every tile the envelope intersects.

        Objects falling outside all tiles (possible when the partitioning
        was derived from a sample) are routed to the nearest tile so no
        data is lost.
        """
        if envelope.is_empty:
            return []
        hits = [i for i, tile in enumerate(self.tiles) if tile.intersects(envelope)]
        if hits:
            return hits
        nearest = min(
            range(len(self.tiles)), key=lambda i: self.tiles[i].distance(envelope)
        )
        return [nearest]

    def owned_pairs(self, tile_id, left_entries, matches_per_row, expand=0.0):
        """The ``(left_id, right_id)`` matches tile ``tile_id`` emits.

        Reference-point owner rule: a replicated pair is produced in every
        tile both sides reach, and only the lowest-indexed common tile
        emits it, so a tiled join carries no duplicates and loses no pair.
        ``matches_per_row`` holds each left row's ``(right_id,
        right_geometry)`` matches; ``expand`` is the distance the right
        side was routed with.
        """
        pairs = []
        for (left_id, geometry), matches in zip(left_entries, matches_per_row):
            left_tiles = None
            for right_id, right_geometry in matches:
                if left_tiles is None:
                    left_tiles = self.route(geometry.envelope)
                if len(left_tiles) == 1:
                    owner = left_tiles[0]
                else:
                    right_tiles = self.route(
                        right_geometry.envelope.expand_by(expand)
                    )
                    common = set(left_tiles) & set(right_tiles)
                    owner = min(common) if common else tile_id
                if owner == tile_id:
                    pairs.append((left_id, right_id))
        return pairs

    def route_point(self, x: float, y: float) -> int:
        """Return the single tile owning a point (ties to lowest index)."""
        for i, tile in enumerate(self.tiles):
            if tile.contains_point(x, y):
                return i
        return min(
            range(len(self.tiles)),
            key=lambda i: self.tiles[i].distance_to_point(x, y),
        )


def reference_point_in(pair_envelope: Envelope, tile: Envelope) -> bool:
    """Duplicate-suppression test for multi-assignment joins.

    When both sides of a pair were replicated to several tiles the pair is
    produced in each, so only the tile containing the pair's *reference
    point* (the envelope-intersection's lower-left corner) reports it.
    """
    if pair_envelope.is_empty or tile.is_empty:
        return False
    return tile.contains_point(pair_envelope.min_x, pair_envelope.min_y)


class FixedGridPartitioner:
    """Partition the extent into a uniform ``nx`` x ``ny`` grid of tiles."""

    def __init__(self, nx: int, ny: int):
        if nx < 1 or ny < 1:
            raise SpatialIndexError(f"grid partitioner needs >= 1 tile per axis, got {nx}x{ny}")
        self.nx = nx
        self.ny = ny

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]] = ()
    ) -> SpatialPartitioning:
        """Create the grid tiles (the sample is ignored for a fixed grid)."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        tiles = []
        width = extent.width / self.nx
        height = extent.height / self.ny
        for row in range(self.ny):
            for col in range(self.nx):
                tiles.append(
                    Envelope(
                        extent.min_x + col * width,
                        extent.min_y + row * height,
                        extent.min_x + (col + 1) * width,
                        extent.min_y + (row + 1) * height,
                    )
                )
        return SpatialPartitioning(extent, tuple(tiles))


class BinarySplitPartitioner:
    """Recursive median splits (a KD/BSP decomposition) from a point sample.

    Produces ``2**levels`` tiles with approximately equal sample counts,
    which equalises per-tile work for skewed data (Manhattan taxi density
    vs outer boroughs).
    """

    def __init__(self, levels: int):
        if levels < 0:
            raise SpatialIndexError(f"levels must be >= 0, got {levels}")
        self.levels = levels

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]]
    ) -> SpatialPartitioning:
        """Split the extent on alternating-axis sample medians."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        tiles: list[Envelope] = []
        self._split(extent, list(sample), self.levels, True, tiles)
        return SpatialPartitioning(extent, tuple(tiles))

    def _split(
        self,
        extent: Envelope,
        points: list[tuple[float, float]],
        levels: int,
        vertical: bool,
        out: list[Envelope],
    ) -> None:
        if levels == 0 or len(points) < 2:
            out.append(extent)
            return
        axis = 0 if vertical else 1
        points.sort(key=lambda p: p[axis])
        median = points[len(points) // 2][axis]
        if vertical:
            if not (extent.min_x < median < extent.max_x):
                median = (extent.min_x + extent.max_x) / 2.0
            left = Envelope(extent.min_x, extent.min_y, median, extent.max_y)
            right = Envelope(median, extent.min_y, extent.max_x, extent.max_y)
            low = [p for p in points if p[0] <= median]
            high = [p for p in points if p[0] > median]
        else:
            if not (extent.min_y < median < extent.max_y):
                median = (extent.min_y + extent.max_y) / 2.0
            left = Envelope(extent.min_x, extent.min_y, extent.max_x, median)
            right = Envelope(extent.min_x, median, extent.max_x, extent.max_y)
            low = [p for p in points if p[1] <= median]
            high = [p for p in points if p[1] > median]
        self._split(left, low, levels - 1, not vertical, out)
        self._split(right, high, levels - 1, not vertical, out)


class SortTilePartitioner:
    """Sort-Tile-Recursive tiling from a point sample (STR packing).

    Mirrors the leaf-packing step of the STR bulk load: the sample is cut
    into vertical slices by x, each slice into tiles by y, yielding about
    ``target_tiles`` tiles with near-equal sample counts.  Tiles are then
    expanded to cover the full extent so routing never misses.
    """

    def __init__(self, target_tiles: int):
        if target_tiles < 1:
            raise SpatialIndexError(f"target_tiles must be >= 1, got {target_tiles}")
        self.target_tiles = target_tiles

    def partition(
        self, extent: Envelope, sample: Sequence[tuple[float, float]]
    ) -> SpatialPartitioning:
        """Derive ~target_tiles tiles from the sample."""
        if extent.is_empty:
            raise SpatialIndexError("cannot partition an empty extent")
        points = sorted(sample)
        if not points or self.target_tiles == 1:
            return SpatialPartitioning(extent, (extent,))
        slices = max(1, round(math.sqrt(self.target_tiles)))
        per_slice = max(1, math.ceil(self.target_tiles / slices))
        slice_size = max(1, math.ceil(len(points) / slices))
        tiles: list[Envelope] = []
        x_cursor = extent.min_x
        for s in range(slices):
            chunk = points[s * slice_size : (s + 1) * slice_size]
            if not chunk:
                break
            next_start = (s + 1) * slice_size
            if next_start < len(points):
                x_hi = max(points[next_start][0], x_cursor)
            else:
                x_hi = extent.max_x
            rows = sorted(chunk, key=lambda p: p[1])
            row_size = max(1, math.ceil(len(rows) / per_slice))
            y_cursor = extent.min_y
            for r in range(per_slice):
                next_row_start = (r + 1) * row_size
                is_last = r == per_slice - 1 or next_row_start >= len(rows)
                if is_last:
                    y_hi = extent.max_y
                else:
                    y_hi = max(rows[next_row_start][1], y_cursor)
                tile = Envelope(x_cursor, y_cursor, x_hi, y_hi)
                if tile.width > 0 and tile.height > 0:
                    tiles.append(tile)
                y_cursor = y_hi
                if is_last:
                    break
            x_cursor = x_hi
        if not tiles:
            tiles = [extent]
        return SpatialPartitioning(extent, tuple(tiles))
