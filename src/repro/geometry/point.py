"""Point geometry — the left side of every join in the paper's evaluation."""

from __future__ import annotations

import math

from repro.errors import GeometryError
from repro.geometry.base import Geometry, GeometryType
from repro.geometry.envelope import Envelope

__all__ = ["Point"]


class Point(Geometry):
    """A single immutable coordinate pair.

    An *empty* point (``Point.empty()``) serialises to ``POINT EMPTY`` and
    participates in no predicate.
    """

    __slots__ = ("x", "y", "_empty")

    def __init__(self, x: float, y: float):
        super().__init__()
        x = float(x)
        y = float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"point coordinates must be finite: ({x}, {y})")
        self.x = x
        self.y = y
        self._empty = False

    @staticmethod
    def empty() -> "Point":
        """Return the empty point singleton-style instance."""
        point = Point.__new__(Point)
        Geometry.__init__(point)
        point.x = math.nan
        point.y = math.nan
        point._empty = True
        return point

    @property
    def geometry_type(self) -> GeometryType:
        return GeometryType.POINT

    @property
    def is_empty(self) -> bool:
        return self._empty

    @property
    def num_points(self) -> int:
        return 0 if self._empty else 1

    def _compute_envelope(self) -> Envelope:
        if self._empty:
            return Envelope.empty()
        return Envelope.of_point(self.x, self.y)

    def _coordinates_equal(self, other: Geometry) -> bool:
        assert isinstance(other, Point)
        if self._empty or other._empty:
            return self._empty and other._empty
        return self.x == other.x and self.y == other.y

    def coords(self) -> tuple[float, float]:
        """Return ``(x, y)``; raises on the empty point."""
        if self._empty:
            raise GeometryError("empty point has no coordinates")
        return (self.x, self.y)
