"""Kernels microbenchmark: columnar batch execution vs scalar, wall-clock.

Everything else in :mod:`repro.bench` reports *simulated* seconds from the
cost model — deliberately identical between the scalar and batch code
paths.  This module measures the one thing that does change: real Python
wall-clock.  It times the scalar probe loop (R-tree query + per-candidate
refinement per point) against the columnar path (one Morton-sorted bulk
index probe + one numpy kernel call per build geometry) on a taxi-vs-NYCB
style workload, and cross-checks every join method on both substrates
against the nested-loop (``method="naive"``) ground truth.

Run it with ``python -m repro.bench kernels``; the committed
``BENCH_kernels.json`` at the repo root is this benchmark's output.
"""

from __future__ import annotations

import math
from typing import Any

from repro.bench.harness import Study, best_of, positive_int
from repro.bench.workloads import WORKLOADS, materialize
from repro.core.broadcast_join import broadcast_spatial_join
from repro.core.operators import SpatialOperator
from repro.core.partitioned_join import derive_partitioning, partitioned_spatial_join
from repro.core.probe import BroadcastIndex, naive_spatial_join
from repro.data.catalog import DATASETS, load_dataset
from repro.errors import BenchError
from repro.geometry.wkt import loads as wkt_loads
from repro.impala.catalog import ColumnType
from repro.impala.coordinator import ImpalaBackend
from repro.impala.parser import parse as parse_sql
from repro.optimizer import choose_plan
from repro.spark.context import SparkContext

__all__ = ["run_kernels_benchmark", "render_kernels", "STUDY"]

_EQUIV_SQL = {
    SpatialOperator.WITHIN: (
        "SELECT l.id, r.id FROM {left} l SPATIAL JOIN {right} r "
        "WHERE ST_WITHIN(l.geom, r.geom)"
    ),
    SpatialOperator.NEAREST_D: (
        "SELECT l.id, r.id FROM {left} l SPATIAL JOIN {right} r "
        "WHERE ST_NEARESTD(l.geom, r.geom, {radius})"
    ),
}


def _probe_points(num_points: int) -> list:
    """Taxi pickup points, at whatever scale yields ``num_points``."""
    full = DATASETS["taxi"].count_at(1.0)
    scale = num_points / full
    dataset = load_dataset("taxi", scale)
    points = [geometry for _, geometry in dataset.records][:num_points]
    if len(points) < num_points:
        raise BenchError(
            f"taxi at scale {scale} yields {len(points)} < {num_points} points"
        )
    return points


def _time_kernel(
    name: str,
    index: BroadcastIndex,
    points: list,
    repeat: int,
) -> dict[str, Any]:
    """Best-of-``repeat`` wall-clock for the scalar loop vs one bulk probe."""
    scalar_best, scalar_result = best_of(
        lambda: [index.probe_with_cost(p) for p in points], repeat
    )
    batch_best, batch_result = best_of(
        lambda: index.probe_batch(points, per_row=True), repeat
    )
    scalar_matches = [m for m, _ in scalar_result]
    scalar_units = [u for _, u in scalar_result]
    batch_matches, batch_units = batch_result
    identical = scalar_matches == batch_matches and scalar_units == batch_units
    pairs = sum(len(m) for m in scalar_matches)
    return {
        "kernel": name,
        "points": len(points),
        "build_geometries": len(index),
        "pairs": pairs,
        "scalar_seconds": scalar_best,
        "batch_seconds": batch_best,
        "speedup": scalar_best / batch_best if batch_best > 0 else math.inf,
        "identical": identical,
    }


def _spark_context(mat) -> SparkContext:
    from repro.cluster.model import ClusterSpec

    return SparkContext(ClusterSpec(2, 2), hdfs=mat.hdfs)


def _spark_pairs(mat, method: str, partitioning) -> tuple[list, str]:
    sc = _spark_context(mat)
    left = sc.parallelize(mat.left.records, 4)
    right = sc.parallelize(mat.right.records, 4)
    operator = mat.workload.operator
    resolved = method
    if method == "auto":
        plan = choose_plan(
            mat.left.records,
            mat.right.records,
            operator,
            radius=mat.radius,
            cluster=sc.cluster,
        )
        resolved = plan.method if plan.method in ("broadcast", "partitioned") else "broadcast"
    if resolved == "partitioned":
        pairs = partitioned_spatial_join(
            sc,
            left,
            right,
            operator,
            radius=mat.radius,
            partitioning=partitioning,
        ).collect()
    else:
        pairs = broadcast_spatial_join(
            sc, left, right, operator, radius=mat.radius
        ).collect()
    return sorted(pairs), resolved


def _impala_pairs(mat, method: str) -> tuple[list, str]:
    from repro.cluster.model import ClusterSpec

    backend = ImpalaBackend(
        ClusterSpec(2, 4),
        hdfs=mat.hdfs,
        engine="fast",
        build_cost_weight=mat.build_cost_weight,
    )
    schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    left_name = f"kern_left_{mat.left.name}"
    right_name = f"kern_right_{mat.right.name}"
    backend.metastore.create_table(left_name, schema, mat.left_path)
    backend.metastore.create_table(right_name, schema, mat.right_path)
    sql = _EQUIV_SQL[mat.workload.operator].format(
        left=left_name, right=right_name, radius=mat.radius
    )
    plan = backend._planner.plan(parse_sql(sql))
    resolved = plan.join.distribution
    if method != "auto":
        # JoinSpec is mutable by design: force the exchange strategy the
        # matrix row asks for (billing differs; rows must not).
        plan.join.distribution = method
        resolved = method
    result = backend._execute_plan(plan)
    return sorted(result.rows), resolved


def _naive_pairs(mat, left, right) -> list:
    """Ground truth: the nested-loop join, sorted."""
    return sorted(
        naive_spatial_join(left, right, mat.workload.operator, mat.radius)
    )


def _parsed(dataset) -> list:
    """``dataset`` as the Impala scanners read it: ids and WKT off its lines."""
    rows = (line.split("\t") for line in dataset.to_lines())
    return [(int(record_id), wkt_loads(text)) for record_id, text in rows]


def _equivalence_matrix(scale: float) -> dict[str, Any]:
    """Every method x substrate against ``method="naive"``, pair for pair.

    Spark joins the in-memory records; Impala joins the WKT text files,
    whose coordinates are rounded, so each substrate gets the ground
    truth of its own input.
    """
    cases = []
    for workload_name in ("taxi-nycb", "taxi-lion-100"):
        mat = materialize(workload_name, scale=scale)
        partitioning = derive_partitioning(
            _spark_context(mat).parallelize(mat.left.records, 4), num_tiles=4
        )
        truth = {
            "spark": _naive_pairs(mat, mat.left.records, mat.right.records),
            "impala": _naive_pairs(mat, _parsed(mat.left), _parsed(mat.right)),
        }
        for method in ("broadcast", "partitioned", "auto"):
            for substrate, (pairs, resolved) in (
                ("spark", _spark_pairs(mat, method, partitioning)),
                ("impala", _impala_pairs(mat, method)),
            ):
                cases.append(
                    {
                        "workload": workload_name,
                        "substrate": substrate,
                        "method": method,
                        "resolved": resolved,
                        "pairs": len(pairs),
                        "identical": pairs == truth[substrate],
                    }
                )
    return {
        "scale": scale,
        "cases": cases,
        "all_identical": all(c["identical"] for c in cases),
    }


def run_kernels_benchmark(
    points: int = 100_000,
    repeat: int = 3,
    equivalence_scale: float = 0.02,
) -> dict[str, Any]:
    """Time scalar vs batch probes and run the equivalence matrix.

    Returns a JSON-ready document; ``python -m repro.bench kernels`` both
    prints it and (with ``--out``) writes it to disk.
    """
    if points < 1:
        raise BenchError(f"points must be positive, got {points}")
    probes = _probe_points(points)
    nycb = load_dataset("nycb", 1.0)
    within_index = BroadcastIndex(
        nycb.records, SpatialOperator.WITHIN, engine="fast"
    )
    lion = load_dataset("lion", 1.0)
    radius = WORKLOADS["taxi-lion-100"].radius_at(1.0)
    nearestd_index = BroadcastIndex(
        lion.records, SpatialOperator.NEAREST_D, radius=radius, engine="fast"
    )
    kernels = {
        "within": _time_kernel("within", within_index, probes, repeat),
        "nearestd": _time_kernel("nearestd", nearestd_index, probes, repeat),
    }
    return {
        "benchmark": "kernels",
        "points": points,
        "repeat": repeat,
        "kernels": kernels,
        "equivalence": _equivalence_matrix(equivalence_scale),
    }


def render_kernels(doc: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_kernels_benchmark` output."""
    lines = [
        f"Columnar kernels microbenchmark ({doc['points']} points, "
        f"best of {doc['repeat']})",
        "",
        f"{'kernel':>10} {'build':>6} {'pairs':>9} {'scalar s':>10} "
        f"{'batch s':>10} {'speedup':>8} {'identical':>10}",
    ]
    for entry in doc["kernels"].values():
        lines.append(
            f"{entry['kernel']:>10} {entry['build_geometries']:>6} "
            f"{entry['pairs']:>9} {entry['scalar_seconds']:>10.4f} "
            f"{entry['batch_seconds']:>10.4f} {entry['speedup']:>7.2f}x "
            f"{str(entry['identical']):>10}"
        )
    eq = doc["equivalence"]
    lines.append("")
    lines.append(
        f"Equivalence matrix vs naive ground truth (scale {eq['scale']}): "
        f"{'all identical' if eq['all_identical'] else 'MISMATCH'}"
    )
    for case in eq["cases"]:
        lines.append(
            f"  {case['workload']:>14} {case['substrate']:>7} "
            f"{case['method']:>12} (-> {case['resolved']:<12}) "
            f"pairs={case['pairs']:<7} identical={case['identical']}"
        )
    return "\n".join(lines)


def _arguments(parser) -> None:
    parser.add_argument("--points", type=positive_int, default=100_000,
                        help="probe points (default 100000)")
    parser.add_argument("--assert-not-slower", action="store_true",
                        help="exit nonzero if the batch path is slower than the scalar path")


def _identity(doc: dict[str, Any]) -> list[tuple[str, bool]]:
    """Batch == scalar per kernel, and the method x substrate matrix."""
    checks = [
        (f"identical:{name}", entry["identical"])
        for name, entry in sorted(doc["kernels"].items())
    ]
    return checks + [("equivalence-matrix", doc["equivalence"]["all_identical"])]


def _gates(args, doc: dict[str, Any]) -> list[str]:
    if not args.assert_not_slower:
        return []
    return [
        f"batch path slower than scalar for {entry['kernel']}"
        for entry in doc["kernels"].values()
        if entry["batch_seconds"] > entry["scalar_seconds"]
    ]


STUDY = Study(
    name="kernels",
    help="columnar batch kernels vs the scalar probe loop, wall-clock",
    arguments=_arguments,
    run=lambda args: run_kernels_benchmark(points=args.points),
    render=render_kernels,
    identity=_identity,
    gates=_gates,
)
