"""Statistics-driven spatial-join optimization.

The paper attributes ISP-MC's stragglers to *static* scheduling over
skewed spatial data and SpatialSpark's edge to dynamic placement — but
choosing the join strategy (broadcast vs partitioned vs dual-tree) and
the tile layout was still manual.  This package closes that gap the way
LocationSpark does (see PAPERS.md): cheap reservoir/stratified samples of
both inputs feed per-table statistics and per-tile histograms, a cost
formula calibrated against the simulated cluster picks the cheapest plan,
and hot tiles whose estimated cost exceeds ``skew_factor x median`` are
recursively split before task generation.

* :mod:`repro.optimizer.sampler` — deterministic reservoir and stratified
  sampling over (id, geometry) collections;
* :mod:`repro.optimizer.stats` — :class:`TableStats`, :class:`JoinStats`
  and per-tile histograms, all derived from samples plus the existing
  :class:`~repro.cluster.model.CostModel`;
* :mod:`repro.optimizer.planner` — :func:`choose_plan` over ``broadcast``
  / ``partitioned`` / ``dual-tree`` / ``naive``, plus the
  LocationSpark-style :func:`split_hot_tiles` repartitioner.
"""

from repro.optimizer.planner import (
    PlanChoice,
    choose_plan,
    derive_skew_aware_partitioning,
    estimate_plan_costs,
    estimate_plan_terms,
    predicted_makespans,
    split_hot_tiles,
)
from repro.optimizer.sampler import reservoir_sample, stratified_sample
from repro.optimizer.stats import (
    JoinStats,
    TableStats,
    TileHistogram,
    collect_join_stats,
)

__all__ = [
    "PlanChoice",
    "choose_plan",
    "derive_skew_aware_partitioning",
    "estimate_plan_costs",
    "estimate_plan_terms",
    "predicted_makespans",
    "split_hot_tiles",
    "reservoir_sample",
    "stratified_sample",
    "TableStats",
    "JoinStats",
    "TileHistogram",
    "collect_join_stats",
]
