"""The reference the join identity suites compare production against.

Production has one data plane (geometry packed into columns, objects
only for input the column model cannot hold) and one probe path
(:meth:`BroadcastIndex.probe_batch`).  The reference is the simplest
correct form of each, and it lives here, not in ``src/``:

* :func:`reference_probe` — an object-built :class:`BroadcastIndex`
  probed row by row with ``probe_with_cost``: the pairs, in probe order,
  and each row's cost units;
* :func:`summed_units` / :func:`units_seconds` — what a task that probed
  those rows accrues, and its simulated seconds;
* :func:`naive_pairs` — the nested-loop join, ground truth for pairs;
* :func:`reference_plane` — runs the production drivers on the
  reference: packing always declines (object plane), every
  ``probe_batch`` probes row by row with ``probe_with_cost``, and
  Impala's residual filter runs its scalar interpreter.  A run inside
  it is what a production run must match byte for byte.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterable, Iterator

import pytest

from repro.cluster.metrics import TaskMetrics
from repro.cluster.model import CostModel
from repro.columnar.block import ColumnBlock
from repro.columnar.column import GeometryColumn
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, naive_spatial_join

__all__ = [
    "naive_pairs",
    "reference_plane",
    "reference_probe",
    "summed_units",
    "units_seconds",
]


def reference_probe(
    left: Iterable[tuple[Any, Any]],
    right: Iterable[tuple[Any, Any]],
    operator: SpatialOperator | str,
    radius: float = 0.0,
) -> tuple[list[tuple[Any, Any]], list[dict[str, float]]]:
    """Pairs in probe order, and each left row's units, probing row by row."""
    index = BroadcastIndex(list(right), SpatialOperator(operator), radius)
    pairs: list[tuple[Any, Any]] = []
    row_units: list[dict[str, float]] = []
    for left_id, geometry in left:
        matches, units = index.probe_with_cost(geometry)
        pairs.extend((left_id, right_id) for right_id in matches)
        row_units.append(units)
    return pairs, row_units


def summed_units(row_units: Iterable[dict[str, float] | None]) -> dict[str, float]:
    """Per-row unit dicts summed in row order (``None`` rows skipped)."""
    totals: dict[str, float] = {}
    for units in row_units:
        for resource, amount in (units or {}).items():
            totals[resource] = totals.get(resource, 0.0) + amount
    return totals


def units_seconds(units: dict[str, float]) -> float:
    """Simulated seconds, under the default cost model, of a task that
    accrued ``units``."""
    return TaskMetrics(dict(units)).seconds(CostModel())


def naive_pairs(left, right, operator, radius: float = 0.0) -> list:
    """Ground truth: the nested-loop join, sorted."""
    return sorted(
        naive_spatial_join(list(left), list(right), SpatialOperator(operator), radius)
    )


def _row_by_row_probe_batch(self, geometries, per_row=False):
    """``probe_batch`` as N ``probe_with_cost`` calls (``None`` rows skipped)."""
    matches: list[list[Any]] = []
    row_units: list[dict[str, float] | None] = []
    for geometry in geometries:
        if geometry is None:
            matches.append([])
            row_units.append(None)
            continue
        row_matches, units = self.probe_with_cost(geometry)
        matches.append(row_matches)
        row_units.append(units)
    if per_row:
        return matches, row_units
    return matches, summed_units(row_units)


@contextlib.contextmanager
def reference_plane() -> Iterator[None]:
    """Run the production join drivers on the reference plane and probe.

    The patches are class attributes, so forked pool workers inherit
    them.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GeometryColumn, "from_entries", classmethod(lambda cls, entries: None))
        patch.setattr(ColumnBlock, "from_records", classmethod(lambda cls, records: None))
        patch.setattr(BroadcastIndex, "probe_batch", _row_by_row_probe_batch)
        patch.setattr(
            "repro.impala.coordinator.vectorize_conjuncts", lambda *args: None
        )
        yield
