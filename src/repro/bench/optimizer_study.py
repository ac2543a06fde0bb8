"""Stats-driven plan study: ``python -m repro.bench optimizer``.

For each study workload the plan chooser samples both inputs, prices
every join strategy against the simulated cluster, and reports the
winner.  For the skewed ``hotspot-nycb`` workload the study additionally
compares the predicted makespan of a fixed tile grid — the static
decomposition the paper blames for ISP-MC's stragglers — before and
after LocationSpark-style hot-tile splitting, under each scheduler in
:mod:`repro.cluster.simulation`.  ``BENCH_optimizer.json`` at the repo
root is a committed run of :func:`optimizer_study`.
"""

from __future__ import annotations

from repro.bench.harness import Study, positive_float, positive_int
from repro.bench.report import DEFAULT_SCALE
from repro.bench.workloads import materialize
from repro.cluster.model import ClusterSpec
from repro.index.partitioner import FixedGridPartitioner
from repro.optimizer import choose_plan, predicted_makespans, split_hot_tiles
from repro.optimizer.stats import collect_join_stats, tile_histogram

__all__ = [
    "STUDY_WORKLOADS",
    "SKEW_WORKLOAD",
    "optimizer_study",
    "render_optimizer_study",
    "STUDY",
]

STUDY_WORKLOADS = ("taxi-nycb", "taxi-lion-500", "G10M-wwf", "hotspot-nycb")
SKEW_WORKLOAD = "hotspot-nycb"
# A 6x6 fixed grid stands in for the static tile decomposition; the skew
# section measures how much hot-tile splitting repairs it.
BASE_GRID = 6


def _plan_for(name: str, scale: float, cluster: ClusterSpec) -> dict:
    mat = materialize(name, scale=scale, num_datanodes=cluster.num_nodes)
    plan = choose_plan(
        mat.left.records,
        mat.right.records,
        operator=mat.workload.operator,
        radius=mat.radius,
        cluster=cluster,
    )
    info = plan.to_info()
    info["workload"] = name
    info["explain"] = plan.explain()
    return info


def _skew_section(scale: float, cluster: ClusterSpec) -> dict:
    """Makespans of a fixed grid before/after hot-tile splitting."""
    mat = materialize(SKEW_WORKLOAD, scale=scale, num_datanodes=cluster.num_nodes)
    stats = collect_join_stats(
        mat.left.records, mat.right.records, radius=mat.radius
    )
    base = FixedGridPartitioner(BASE_GRID, BASE_GRID).partition(mat.left.extent)
    before_hist = tile_histogram(base, stats)
    refined, after_hist, added = split_hot_tiles(base, stats)
    workers = cluster.total_cores
    before = predicted_makespans(before_hist, workers)
    after = predicted_makespans(after_hist, workers)
    return {
        "workload": SKEW_WORKLOAD,
        "base_tiles": len(base),
        "refined_tiles": len(refined),
        "split_tiles_added": added,
        "workers": workers,
        "makespan_before": {k: round(v, 6) for k, v in before.items()},
        "makespan_after": {k: round(v, 6) for k, v in after.items()},
        "speedup": {
            k: round(before[k] / after[k], 4) if after[k] > 0 else 1.0
            for k in before
        },
    }


def optimizer_study(scale: float, nodes: int = 4) -> dict:
    """Run the plan chooser over the study workloads plus the skew demo."""
    cluster = ClusterSpec(num_nodes=nodes)
    return {
        "scale": scale,
        "nodes": nodes,
        "workers": cluster.total_cores,
        "plans": [_plan_for(name, scale, cluster) for name in STUDY_WORKLOADS],
        "skew": _skew_section(scale, cluster),
    }


def render_optimizer_study(study: dict) -> str:
    """Text rendering of :func:`optimizer_study`."""
    lines = [
        f"Optimizer study (scale factor {study['scale']}, "
        f"{study['nodes']} nodes / {study['workers']} workers)",
        "",
    ]
    for plan in study["plans"]:
        lines.append(f"{plan['workload']}:")
        lines.extend(f"  {line}" for line in plan["explain"])
        lines.append("")
    skew = study["skew"]
    lines.append(
        f"Skew-aware splitting on {skew['workload']}: "
        f"{skew['base_tiles']} fixed tiles -> {skew['refined_tiles']} "
        f"({skew['split_tiles_added']} added)"
    )
    lines.append(
        f"{'scheduler':>20} | {'before (s)':>10} | {'after (s)':>10} | speedup"
    )
    for scheduler in skew["makespan_before"]:
        lines.append(
            f"{scheduler:>20} | {skew['makespan_before'][scheduler]:10.2f} | "
            f"{skew['makespan_after'][scheduler]:10.2f} | "
            f"{skew['speedup'][scheduler]:7.2f}x"
        )
    return "\n".join(lines)


def _arguments(parser) -> None:
    parser.add_argument("--scale", type=positive_float, default=DEFAULT_SCALE,
                        help=f"dataset scale factor (default {DEFAULT_SCALE}; the committed "
                        "BENCH_optimizer.json is --scale 0.12 --nodes 4)")
    parser.add_argument("--nodes", type=positive_int, default=1, help="cluster size (default 1)")


STUDY = Study(
    name="optimizer",
    help="plan choice per workload and the hot-tile-splitting makespan study",
    arguments=_arguments,
    run=lambda args: optimizer_study(scale=args.scale, nodes=args.nodes),
    render=render_optimizer_study,
)
