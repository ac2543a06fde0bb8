"""repro — a reproduction of "Large-Scale Spatial Join Query Processing in Cloud".

Simin You, Jianting Zhang, Le Gruenwald (ICDE Workshops 2015) built two
prototypes for large-scale spatial joins: **SpatialSpark** (on Apache
Spark) and **ISP-MC** (on Cloudera Impala).  This package re-implements
both systems *and every substrate they stand on* in pure Python:

* :mod:`repro.geometry` — geometry model, WKT/WKB, predicates, and two
  refinement engines reproducing the paper's JTS-vs-GEOS axis;
* :mod:`repro.index` — the STR-packed R-tree, Morton codes and spatial
  partitioners;
* :mod:`repro.columnar` — the packed-buffer geometry data plane every
  join runs on;
* :mod:`repro.hdfs` — a block-oriented simulated HDFS;
* :mod:`repro.spark` — a mini-Spark: lazy RDDs, DAG scheduler, shuffles,
  broadcast, dynamic task placement;
* :mod:`repro.impala` — a mini-Impala: SQL frontend with the paper's
  ``SPATIAL JOIN`` extension, plan fragments, row batches, static
  scheduling;
* :mod:`repro.core` — the paper's contribution: broadcast and partitioned
  spatial joins on the Spark substrate, the SpatialJoin plan node on the
  Impala substrate, the standalone ISP-MC program, and a simple in-memory
  API (:func:`spatial_join`);
* :mod:`repro.data` — synthetic stand-ins for the taxi/nycb/lion/GBIF/WWF
  datasets;
* :mod:`repro.obs` — observability: trace spans, a counter registry,
  Impala-style query profiles and Chrome-trace exporters;
* :mod:`repro.bench` — the harness regenerating every table and figure.

Quickstart::

    >>> from repro import spatial_join
    >>> result = spatial_join(
    ...     [(0, "POINT (1 1)"), (1, "POINT (9 9)")],
    ...     [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")],
    ... )
    >>> result == [(0, 'cell')]
    True
"""

from repro.core.api import JoinConfig, JoinResult, spatial_join, spatial_join_pairs
from repro.optimizer import PlanChoice, choose_plan
from repro.core.operators import SpatialOperator
from repro.core.broadcast_join import BroadcastSpatialJoin, broadcast_spatial_join
from repro.core.partitioned_join import partitioned_spatial_join
from repro.core.standalone import standalone_spatial_join
from repro.geometry import (
    Envelope,
    Geometry,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    wkt_dumps,
    wkt_loads,
)
from repro.errors import ReproError
from repro.obs import QueryProfile, tracing
from repro.runtime import FaultPlan, RuntimeConfig

__version__ = "1.0.0"

__all__ = [
    "spatial_join",
    "spatial_join_pairs",
    "JoinConfig",
    "JoinResult",
    "PlanChoice",
    "choose_plan",
    "SpatialOperator",
    "broadcast_spatial_join",
    "BroadcastSpatialJoin",
    "partitioned_spatial_join",
    "standalone_spatial_join",
    "Geometry",
    "Envelope",
    "Point",
    "LineString",
    "Polygon",
    "MultiPoint",
    "MultiLineString",
    "MultiPolygon",
    "wkt_loads",
    "wkt_dumps",
    "ReproError",
    "QueryProfile",
    "tracing",
    "RuntimeConfig",
    "FaultPlan",
    "__version__",
]
