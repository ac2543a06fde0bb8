"""Columnar data plane benchmark: packed buffers vs the object path.

Measures the three stages the columnar plane (DESIGN.md section 13)
accelerates, each against the object-path code it replaced (still the
fallback for input the column model cannot hold):

- **load** — bulk WKT parsing (:func:`repro.columnar.column_from_wkt`,
  one regex capture + one vectorised strtod) vs one
  :func:`repro.geometry.wkt.loads` call per row;
- **index** — STR bulk-load straight from the column's bbox arrays
  (:meth:`BroadcastIndex.from_column`) vs the per-geometry object
  constructor;
- **join** — the batched probe reading packed coordinate buffers vs the
  same probe fed geometry objects.

Both arms must produce bit-identical coordinates, identical match lists
and identical probe cost totals — the benchmark fails loudly otherwise.

The second half weighs what actually *ships*: a routed shuffle bucket as
a pickled record list vs a packed :class:`~repro.columnar.ColumnBlock`
(record envelopes are touched first, as the routing step has always done
by the time records reach a shuffle write), and a broadcast build side as
a pickled object index vs a column-backed one.

Run it with ``python -m repro.bench columnar``; the committed
``BENCH_columnar.json`` at the repo root is this benchmark's output on
the container it was generated in.
"""

from __future__ import annotations

import pickle
import random
import time
from typing import Any

from repro.bench.harness import Study, positive_int
from repro.columnar import COLUMNAR_STATS, ColumnBlock, column_from_wkt
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex
from repro.errors import BenchError
from repro.geometry.polygon import Polygon
from repro.geometry.wkt import clear_wkt_cache, dumps
from repro.geometry.wkt import loads as wkt_loads

__all__ = ["run_columnar_benchmark", "render_columnar", "STUDY"]

_SHUFFLE_SAMPLE = 5000
_SHUFFLE_TILES = 16


def _workload(points: int, polygons: int, seed: int) -> tuple[list[str], list[str]]:
    """WKT texts shaped like the paper's taxi-vs-blocks query."""
    rng = random.Random(seed)
    point_texts = [
        f"POINT ({rng.uniform(0, 100):.12f} {rng.uniform(0, 100):.12f})"
        for _ in range(points)
    ]
    poly_texts = []
    for _ in range(polygons):
        x, y = rng.uniform(0, 95), rng.uniform(0, 95)
        w, h = rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)
        poly_texts.append(
            dumps(Polygon([(x, y), (x + w, y), (x + w, y + h), (x, y + h)]))
        )
    return point_texts, poly_texts


def _object_arm(point_texts, poly_texts, op):
    clear_wkt_cache()
    start = time.perf_counter()
    point_geoms = [wkt_loads(text) for text in point_texts]
    poly_geoms = [wkt_loads(text) for text in poly_texts]
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    index = BroadcastIndex(enumerate(poly_geoms), op)
    index_s = time.perf_counter() - start
    start = time.perf_counter()
    matches, totals = index.probe_batch(point_geoms)
    join_s = time.perf_counter() - start
    return {"load": load_s, "index": index_s, "join": join_s}, (
        point_geoms,
        index,
        matches,
        totals,
    )


def _columnar_arm(point_texts, poly_texts, op):
    clear_wkt_cache()
    start = time.perf_counter()
    point_column = column_from_wkt(point_texts)
    poly_column = column_from_wkt(
        poly_texts, payloads=list(range(len(poly_texts)))
    )
    load_s = time.perf_counter() - start
    start = time.perf_counter()
    index = BroadcastIndex.from_column(poly_column, op)
    index_s = time.perf_counter() - start
    start = time.perf_counter()
    matches, totals = index.probe_batch(point_column)
    join_s = time.perf_counter() - start
    return {"load": load_s, "index": index_s, "join": join_s}, (
        point_column,
        index,
        matches,
        totals,
    )


def _shipping_study(point_geoms, obj_index, col_index) -> dict[str, Any]:
    """Honest wire sizes: pickled object graphs vs binary column encodings."""
    sample = point_geoms[:_SHUFFLE_SAMPLE]
    for geometry in sample:
        geometry.envelope  # routing computes these before any shuffle write
    records = [
        (i % _SHUFFLE_TILES, (i, geometry)) for i, geometry in enumerate(sample)
    ]
    block = ColumnBlock.from_records(records)
    pickled_records = len(pickle.dumps(records))
    pickled_block = len(pickle.dumps(block))
    pickled_obj_index = len(pickle.dumps(obj_index))
    pickled_col_index = len(pickle.dumps(col_index))
    return {
        "shuffle_records": len(records),
        "shuffle_object_bytes": pickled_records,
        "shuffle_column_bytes": pickled_block,
        "shuffle_bytes_ratio": pickled_records / pickled_block,
        "index_object_bytes": pickled_obj_index,
        "index_column_bytes": pickled_col_index,
        "index_bytes_ratio": pickled_obj_index / pickled_col_index,
    }


def run_columnar_benchmark(
    points: int = 100_000,
    polygons: int = 2000,
    repeat: int = 3,
    seed: int = 42,
) -> dict[str, Any]:
    """Object-arm vs columnar-arm sweep; returns a JSON-ready document.

    Each repetition runs both arms back to back on the same texts; the
    headline ``speedup`` compares the best (minimum) end-to-end totals,
    the per-stage table reports best stage times.  Every repetition's
    results are checked identical across arms.
    """
    if points < 1 or polygons < 1:
        raise BenchError(
            f"need positive dataset sizes, got points={points} polygons={polygons}"
        )
    if repeat < 1:
        raise BenchError(f"repeat must be >= 1, got {repeat}")
    op = SpatialOperator.WITHIN
    point_texts, poly_texts = _workload(points, polygons, seed)

    object_runs: list[dict[str, float]] = []
    columnar_runs: list[dict[str, float]] = []
    identical = True
    shipping: dict[str, Any] = {}
    matched_rows = 0
    for rep in range(repeat):
        obj_times, (point_geoms, obj_index, obj_matches, obj_totals) = _object_arm(
            point_texts, poly_texts, op
        )
        col_times, (point_column, col_index, col_matches, col_totals) = _columnar_arm(
            point_texts, poly_texts, op
        )
        object_runs.append(obj_times)
        columnar_runs.append(col_times)
        coords_equal = all(
            point_column.geometry(i).x == g.x and point_column.geometry(i).y == g.y
            for i, g in enumerate(point_geoms[:1000])
        )
        identical = identical and (
            obj_matches == col_matches
            and obj_totals == col_totals
            and coords_equal
        )
        matched_rows = sum(len(m) for m in obj_matches)
        if rep == 0:
            shipping = _shipping_study(point_geoms, obj_index, col_index)

    def best(runs: list[dict[str, float]]) -> dict[str, float]:
        stages = {k: min(r[k] for r in runs) for k in ("load", "index", "join")}
        stages["total"] = min(sum(r.values()) for r in runs)
        return stages

    object_best = best(object_runs)
    columnar_best = best(columnar_runs)
    return {
        "benchmark": "columnar",
        "points": points,
        "polygons": polygons,
        "repeat": repeat,
        "seed": seed,
        "matched_rows": matched_rows,
        "object_seconds": object_best,
        "columnar_seconds": columnar_best,
        "stage_speedups": {
            stage: object_best[stage] / columnar_best[stage]
            if columnar_best[stage] > 0
            else float("inf")
            for stage in ("load", "index", "join")
        },
        "speedup": (
            object_best["total"] / columnar_best["total"]
            if columnar_best["total"] > 0
            else float("inf")
        ),
        "shipping": shipping,
        "columnar_stats": COLUMNAR_STATS.as_dict(),
        "all_identical": identical,
    }


def render_columnar(doc: dict[str, Any]) -> str:
    """Human-readable summary of :func:`run_columnar_benchmark` output."""
    ship = doc["shipping"]
    lines = [
        f"Columnar data plane benchmark ({doc['points']} points, "
        f"{doc['polygons']} polygons, best of {doc['repeat']})",
        "",
        f"{'stage':>8} {'object s':>10} {'columnar s':>11} {'speedup':>8}",
    ]
    for stage in ("load", "index", "join", "total"):
        obj_s = doc["object_seconds"][stage]
        col_s = doc["columnar_seconds"][stage]
        ratio = (
            doc["speedup"]
            if stage == "total"
            else doc["stage_speedups"][stage]
        )
        lines.append(
            f"{stage:>8} {obj_s:>10.3f} {col_s:>11.3f} {ratio:>7.2f}x"
        )
    lines += [
        "",
        f"shuffle bucket ({ship['shuffle_records']} routed records): "
        f"{ship['shuffle_object_bytes']} B pickled objects vs "
        f"{ship['shuffle_column_bytes']} B packed block "
        f"({ship['shuffle_bytes_ratio']:.2f}x smaller)",
        f"broadcast index: {ship['index_object_bytes']} B pickled objects "
        f"vs {ship['index_column_bytes']} B column-backed "
        f"({ship['index_bytes_ratio']:.2f}x smaller)",
        "",
        f"results {'identical' if doc['all_identical'] else 'MISMATCH'} "
        f"across arms ({doc['matched_rows']} matched rows)",
    ]
    return "\n".join(lines)


def _arguments(parser) -> None:
    parser.add_argument("--points", type=positive_int, default=100_000,
                        help="probe points (default 100000)")
    parser.add_argument("--assert-speedup", type=float, metavar="RATIO",
                        help="exit nonzero unless load+index+join is RATIOx faster than "
                        "the object path")
    parser.add_argument("--assert-bytes-ratio", type=float, metavar="RATIO",
                        help="exit nonzero unless both the shuffle bucket and the broadcast "
                        "index ship at least RATIOx fewer bytes than the pickled object path")


def _identity(doc: dict[str, Any]) -> list[tuple[str, bool]]:
    """Coordinates, matches and probe cost totals equal across arms."""
    return [("all_identical", doc["all_identical"])]


def _gates(args, doc: dict[str, Any]) -> list[str]:
    failures = []
    if args.assert_speedup is not None and doc["speedup"] < args.assert_speedup:
        failures.append(
            f"columnar speedup {doc['speedup']:.2f}x < {args.assert_speedup:.2f}x"
        )
    if args.assert_bytes_ratio is not None:
        worst = min(
            doc["shipping"]["shuffle_bytes_ratio"],
            doc["shipping"]["index_bytes_ratio"],
        )
        if worst < args.assert_bytes_ratio:
            failures.append(
                f"shipped-bytes reduction {worst:.2f}x < {args.assert_bytes_ratio:.2f}x"
            )
    return failures


STUDY = Study(
    name="columnar",
    help="packed-buffer data plane vs the object path: time and shipped bytes",
    arguments=_arguments,
    run=lambda args: run_columnar_benchmark(points=args.points),
    render=render_columnar,
    identity=_identity,
    gates=_gates,
)
