"""Bulk WKT → column conversion for the data loaders.

The hot case — point datasets like the paper's taxi pickups — parses the
whole file in three vectorised steps (regex capture per line, one join,
one ``np.asarray(..., dtype=float64)``) instead of building a Python
object per row.  numpy's string→float64 conversion is correctly rounded
(strtod), so the coordinates are bit-identical to ``float(token)`` and
therefore to the per-row object parser.

Anything that is not a uniform point file falls back to the per-row WKT
reader and still lands in a column via ``from_entries``.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

import numpy as np

from repro.columnar.column import GeometryColumn, _point_only_data
from repro.geometry.wkt import loads as wkt_loads

__all__ = ["column_from_wkt"]

_POINT_LINE = re.compile(r"\s*POINT\s*\(\s*(\S+)\s+(\S+)\s*\)\s*$", re.IGNORECASE)


def column_from_wkt(
    texts: Iterable[str], payloads: Sequence[object] | None = None
) -> GeometryColumn | None:
    """Parse WKT strings into a :class:`GeometryColumn` in bulk.

    Returns ``None`` when a geometry type outside the columnar model
    (e.g. ``GEOMETRYCOLLECTION``) appears; malformed WKT, and points with
    a NaN or infinite coordinate, raise exactly like the scalar reader.
    """
    texts = list(texts)
    n = len(texts)
    tokens: list[str] | None = []
    for text in texts:
        match = _POINT_LINE.match(text)
        if match is None:
            tokens = None
            break
        tokens.append(match.group(1))
        tokens.append(match.group(2))
    values = np.asarray(tokens, dtype=np.float64) if tokens is not None else None
    if values is not None and np.isfinite(values).all():
        coords = np.ascontiguousarray(values.reshape(n, 2))
        payload_list = list(payloads) if payloads is not None else [None] * n
        if len(payload_list) != n:
            raise ValueError("payloads length does not match texts")
        return GeometryColumn(_point_only_data(coords), payload_list)
    if payloads is None:
        payloads = [None] * n
    return GeometryColumn.from_entries(
        (payload, wkt_loads(text)) for payload, text in zip(payloads, texts)
    )
