"""Well-Known Text reader and writer.

The paper stores every dataset as WKT strings in HDFS text files and pays
for parsing in three places (building the right-side R-tree, probing it,
and in refinement UDFs).  This module is therefore on the hot path of both
engines and is instrumented via an optional counter callback so the
cluster cost model can charge for bytes parsed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.errors import GeometryError, WKTParseError
from repro.geometry.base import Geometry, GeometryType
from repro.geometry.linestring import LineString
from repro.geometry.multi import (
    GeometryCollection,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
)
from repro.geometry.point import Point
from repro.geometry.polygon import LinearRing, Polygon

__all__ = [
    "loads",
    "dumps",
    "WKTReader",
    "WKTWriter",
    "clear_wkt_cache",
    "set_wkt_cache_limits",
    "wkt_cache_stats",
]

# Process-wide parse memo: WKT text -> parsed geometry (LRU).  The string
# itself is the content key, so there is no staleness to manage; repeated
# queries over the same stored table skip re-tokenising its polygons.
# Short strings (points) parse faster than a cache probe pays for and
# would churn the LRU, so only texts above the threshold participate.
# Parsing is pure (the per-byte charge is the caller's ``on_parse``
# callback, invoked on hits too), which is what keeps results, counters
# and simulated seconds byte-identical with the memo on or off.
#
# The memo is bounded two ways: an entry-count cap and a byte budget over
# the retained text + geometry estimates, whichever bites first.  An
# always-on unbounded-byte memo would quietly pin multi-megabyte polygon
# tables in memory for the life of the process.
_parse_cache: OrderedDict[str, tuple[Geometry, int]] = OrderedDict()
_PARSE_CACHE_CAPACITY = 8192
_PARSE_CACHE_MIN_CHARS = 64
_PARSE_CACHE_BYTE_BUDGET = 8 << 20  # 8 MiB of retained text+geometry
_parse_cache_capacity = _PARSE_CACHE_CAPACITY
_parse_cache_byte_budget = _PARSE_CACHE_BYTE_BUDGET
_parse_cache_bytes = 0


def _entry_bytes(text: str, geometry: Geometry) -> int:
    # Retained footprint estimate: the key string plus the parsed
    # geometry at the shuffle estimator's 16 bytes/vertex rate.
    return len(text) + 48 + 16 * geometry.num_points


def clear_wkt_cache() -> None:
    """Drop every memoised WKT parse (for tests and cold benchmarks)."""
    global _parse_cache_bytes
    _parse_cache.clear()
    _parse_cache_bytes = 0


def set_wkt_cache_limits(
    capacity: int | None = None, byte_budget: int | None = None
) -> None:
    """Re-bound the parse memo (None keeps a limit unchanged).

    Shrinks immediately when the new limits are tighter.  Passing ``0``
    for either limit disables memoisation outright.
    """
    global _parse_cache_capacity, _parse_cache_byte_budget
    if capacity is not None:
        _parse_cache_capacity = int(capacity)
    if byte_budget is not None:
        _parse_cache_byte_budget = int(byte_budget)
    _shrink_parse_cache()


def wkt_cache_stats() -> dict[str, int]:
    """Current memo footprint and limits (for tests and diagnostics)."""
    return {
        "entries": len(_parse_cache),
        "bytes": _parse_cache_bytes,
        "capacity": _parse_cache_capacity,
        "byte_budget": _parse_cache_byte_budget,
    }


def _shrink_parse_cache() -> None:
    global _parse_cache_bytes
    while _parse_cache and (
        len(_parse_cache) > _parse_cache_capacity
        or _parse_cache_bytes > _parse_cache_byte_budget
    ):
        _, (_, dropped) = _parse_cache.popitem(last=False)
        _parse_cache_bytes -= dropped

_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
_NUMBER_CHARS = frozenset("0123456789+-.eE")


class _Tokenizer:
    """Splits WKT into word / number / punctuation tokens with positions."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        text = self.text
        n = len(text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        """Return the next token without consuming it (None at end)."""
        saved = self.pos
        token = self.next()
        self.pos = saved
        return token

    def next(self) -> str | None:
        """Consume and return the next token (None at end of input)."""
        self._skip_ws()
        text = self.text
        if self.pos >= len(text):
            return None
        ch = text[self.pos]
        if ch in "(),":
            self.pos += 1
            return ch
        if ch.upper() in _WORD_CHARS:
            start = self.pos
            while self.pos < len(text) and text[self.pos].upper() in _WORD_CHARS:
                self.pos += 1
            return text[start : self.pos].upper()
        if ch in _NUMBER_CHARS:
            start = self.pos
            while self.pos < len(text) and text[self.pos] in _NUMBER_CHARS:
                self.pos += 1
            return text[start : self.pos]
        raise WKTParseError(f"unexpected character {ch!r}", self.pos)

    def expect(self, token: str) -> None:
        """Consume the next token, requiring it to equal ``token``."""
        got = self.next()
        if got != token:
            raise WKTParseError(f"expected {token!r}, got {got!r}", self.pos)

    def number(self) -> float:
        """Consume the next token as a float."""
        token = self.next()
        if token is None:
            raise WKTParseError("expected a number, got end of input", self.pos)
        try:
            return float(token)
        except ValueError:
            raise WKTParseError(f"expected a number, got {token!r}", self.pos) from None


class WKTReader:
    """Parses WKT strings into geometry objects.

    ``on_parse`` is an optional callback invoked with the number of
    characters parsed — the cluster cost model uses it to charge engines
    for string parsing, one of the inefficiencies the paper calls out for
    its WKT-on-HDFS representation.
    """

    def __init__(self, on_parse: Callable[[int], None] | None = None):
        self._on_parse = on_parse

    def read(self, text: str) -> Geometry:
        """Parse a single WKT geometry; raises :class:`WKTParseError`."""
        if not isinstance(text, str):
            raise WKTParseError(f"expected str, got {type(text).__name__}")
        memoise = len(text) >= _PARSE_CACHE_MIN_CHARS
        if memoise:
            cached = _parse_cache.get(text)
            if cached is not None:
                _parse_cache.move_to_end(text)
                if self._on_parse is not None:
                    self._on_parse(len(text))
                return cached[0]
        tokenizer = _Tokenizer(text)
        geometry = self._geometry(tokenizer)
        trailing = tokenizer.next()
        if trailing is not None:
            raise WKTParseError(f"trailing content {trailing!r}", tokenizer.pos)
        if memoise:
            size = _entry_bytes(text, geometry)
            if size <= _parse_cache_byte_budget and _parse_cache_capacity > 0:
                global _parse_cache_bytes
                _parse_cache[text] = (geometry, size)
                _parse_cache_bytes += size
                _shrink_parse_cache()
        if self._on_parse is not None:
            self._on_parse(len(text))
        return geometry

    def try_read(self, text: str) -> Geometry | None:
        """Parse, returning None on failure.

        This is the Python analogue of ``Try(new WKTReader().read(...))``
        followed by ``.filter(_._2.isSuccess)`` in the paper's Fig 2 —
        dirty rows are dropped rather than failing the job.  Text that
        parses but describes an invalid geometry (a NaN or infinite
        coordinate) is dirty too.
        """
        try:
            return self.read(text)
        except GeometryError:
            return None

    # -- grammar ----------------------------------------------------------

    def _geometry(self, tz: _Tokenizer) -> Geometry:
        tag = tz.next()
        if tag is None:
            raise WKTParseError("empty WKT input", 0)
        try:
            geometry_type = GeometryType(tag)
        except ValueError:
            raise WKTParseError(f"unknown geometry type {tag!r}", tz.pos) from None
        if tz.peek() == "EMPTY":
            tz.next()
            return _EMPTY_FACTORIES[geometry_type]()
        dispatch = {
            GeometryType.POINT: self._point,
            GeometryType.LINESTRING: self._linestring,
            GeometryType.POLYGON: self._polygon,
            GeometryType.MULTIPOINT: self._multipoint,
            GeometryType.MULTILINESTRING: self._multilinestring,
            GeometryType.MULTIPOLYGON: self._multipolygon,
            GeometryType.GEOMETRYCOLLECTION: self._collection,
        }
        return dispatch[geometry_type](tz)

    def _coord(self, tz: _Tokenizer) -> tuple[float, float]:
        return (tz.number(), tz.number())

    def _coord_list(self, tz: _Tokenizer) -> list[tuple[float, float]]:
        tz.expect("(")
        coords = [self._coord(tz)]
        while tz.peek() == ",":
            tz.next()
            coords.append(self._coord(tz))
        tz.expect(")")
        return coords

    def _point(self, tz: _Tokenizer) -> Point:
        tz.expect("(")
        x, y = self._coord(tz)
        tz.expect(")")
        return Point(x, y)

    def _linestring(self, tz: _Tokenizer) -> LineString:
        return LineString(self._coord_list(tz))

    def _polygon(self, tz: _Tokenizer) -> Polygon:
        tz.expect("(")
        rings = [LinearRing(self._coord_list(tz))]
        while tz.peek() == ",":
            tz.next()
            rings.append(LinearRing(self._coord_list(tz)))
        tz.expect(")")
        return Polygon(rings[0], rings[1:])

    def _multipoint(self, tz: _Tokenizer) -> MultiPoint:
        tz.expect("(")
        points = [self._multipoint_member(tz)]
        while tz.peek() == ",":
            tz.next()
            points.append(self._multipoint_member(tz))
        tz.expect(")")
        return MultiPoint(points)

    def _multipoint_member(self, tz: _Tokenizer) -> Point:
        # Both MULTIPOINT ((1 2), (3 4)) and MULTIPOINT (1 2, 3 4) are legal.
        if tz.peek() == "(":
            tz.next()
            x, y = self._coord(tz)
            tz.expect(")")
            return Point(x, y)
        x, y = self._coord(tz)
        return Point(x, y)

    def _multilinestring(self, tz: _Tokenizer) -> MultiLineString:
        tz.expect("(")
        lines = [LineString(self._coord_list(tz))]
        while tz.peek() == ",":
            tz.next()
            lines.append(LineString(self._coord_list(tz)))
        tz.expect(")")
        return MultiLineString(lines)

    def _multipolygon(self, tz: _Tokenizer) -> MultiPolygon:
        tz.expect("(")
        polygons = [self._polygon(tz)]
        while tz.peek() == ",":
            tz.next()
            polygons.append(self._polygon(tz))
        tz.expect(")")
        return MultiPolygon(polygons)

    def _collection(self, tz: _Tokenizer) -> GeometryCollection:
        tz.expect("(")
        members = [self._geometry(tz)]
        while tz.peek() == ",":
            tz.next()
            members.append(self._geometry(tz))
        tz.expect(")")
        return GeometryCollection(members)


class WKTWriter:
    """Serialises geometry objects to WKT strings."""

    def __init__(self, precision: int | None = None):
        self._precision = precision

    def _fmt(self, value: float) -> str:
        value = float(value)  # numpy scalars repr as np.float64(...) otherwise
        if self._precision is not None:
            text = f"{value:.{self._precision}f}".rstrip("0").rstrip(".")
            return text if text not in ("", "-") else "0"
        return repr(value) if value != int(value) else str(int(value))

    def _coords(self, coords) -> str:
        return ", ".join(f"{self._fmt(x)} {self._fmt(y)}" for x, y in coords)

    def write(self, geometry: Geometry) -> str:
        """Serialise one geometry (dispatches on its type tag)."""
        tag = geometry.geometry_type
        if geometry.is_empty:
            return f"{tag.value} EMPTY"
        if tag is GeometryType.POINT:
            return f"POINT ({self._fmt(geometry.x)} {self._fmt(geometry.y)})"
        if tag is GeometryType.LINESTRING:
            return f"LINESTRING ({self._coords(geometry.coords)})"
        if tag is GeometryType.POLYGON:
            return f"POLYGON {self._polygon_body(geometry)}"
        if tag is GeometryType.MULTIPOINT:
            body = ", ".join(
                f"({self._fmt(p.x)} {self._fmt(p.y)})" for p in geometry.parts
            )
            return f"MULTIPOINT ({body})"
        if tag is GeometryType.MULTILINESTRING:
            body = ", ".join(
                f"({self._coords(part.coords)})" for part in geometry.parts
            )
            return f"MULTILINESTRING ({body})"
        if tag is GeometryType.MULTIPOLYGON:
            body = ", ".join(self._polygon_body(p) for p in geometry.parts)
            return f"MULTIPOLYGON ({body})"
        if tag is GeometryType.GEOMETRYCOLLECTION:
            body = ", ".join(self.write(g) for g in geometry.parts)
            return f"GEOMETRYCOLLECTION ({body})"
        raise WKTParseError(f"cannot serialise geometry type {tag}")

    def _polygon_body(self, polygon: Polygon) -> str:
        rings = ", ".join(f"({self._coords(ring.coords)})" for ring in polygon.rings)
        return f"({rings})"


_EMPTY_FACTORIES = {
    GeometryType.POINT: Point.empty,
    GeometryType.LINESTRING: LineString.empty,
    GeometryType.POLYGON: Polygon.empty,
    GeometryType.MULTIPOINT: lambda: MultiPoint(()),
    GeometryType.MULTILINESTRING: lambda: MultiLineString(()),
    GeometryType.MULTIPOLYGON: lambda: MultiPolygon(()),
    GeometryType.GEOMETRYCOLLECTION: lambda: GeometryCollection(()),
}

_DEFAULT_READER = WKTReader()
_DEFAULT_WRITER = WKTWriter()


def loads(text: str) -> Geometry:
    """Parse a WKT string using a shared default reader."""
    return _DEFAULT_READER.read(text)


def dumps(geometry: Geometry, precision: int | None = None) -> str:
    """Serialise a geometry to WKT (optionally with fixed precision)."""
    if precision is None:
        return _DEFAULT_WRITER.write(geometry)
    return WKTWriter(precision=precision).write(geometry)
