"""Table/figure renderers: regenerate every artefact of Section V.

Each ``table*``/``fig*`` function runs the workloads through the engines
and returns structured rows; ``render_*`` turns them into the same
row/series layout the paper prints.  ``experiments_report`` assembles the
full paper-vs-measured comparison used by EXPERIMENTS.md.

Runs are memoised per (workload, engine, nodes, scale) because Table 2
and Fig 4/5 share their 10-node measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.harness import Study, positive_float
from repro.bench.runner import (
    RunResult,
    run_isp_standalone,
    run_ispmc,
    run_spatialspark,
)
from repro.bench.workloads import materialize

__all__ = [
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "BenchCache",
    "table1",
    "table2",
    "fig4",
    "fig5",
    "render_table1",
    "render_table2",
    "render_scaling",
    "experiments_report",
    "experiments_json",
    "render_report",
    "STUDY",
    "DEFAULT_SCALE",
    "SCALING_NODES",
]

DEFAULT_SCALE = 0.12
SCALING_NODES = (4, 6, 8, 10)
WORKLOAD_ORDER = ("taxi-nycb", "taxi-lion-100", "taxi-lion-500", "G10M-wwf")

# The paper's numbers (seconds), for side-by-side reporting.
PAPER_TABLE1 = {
    # workload: (SpatialSpark, ISP-MC, Standalone ISP-MC)
    "taxi-nycb": (682.0, 588.0, 507.0),
    "taxi-lion-100": (696.0, 1061.0, 983.0),
    "taxi-lion-500": (825.0, 5720.0, 4922.0),
    "G10M-wwf": (2445.0, 12736.0, 11634.0),
}
PAPER_TABLE2 = {
    # workload: (SpatialSpark, ISP-MC) on 10 EC2 nodes
    "taxi-nycb": (110.0, 758.0),
    "taxi-lion-100": (65.0, 307.0),
    "taxi-lion-500": (249.0, 1785.0),
    "G10M-wwf": (735.0, 7728.0),
}


@dataclass
class BenchCache:
    """Memoised engine runs shared across tables and figures."""

    scale: float = DEFAULT_SCALE
    _runs: dict[tuple[str, str, int], RunResult] = field(default_factory=dict)

    def run(self, workload: str, engine: str, nodes: int) -> RunResult:
        key = (workload, engine, nodes)
        if key not in self._runs:
            mat = materialize(workload, scale=self.scale)
            if engine == "spatialspark":
                self._runs[key] = run_spatialspark(mat, nodes)
            elif engine == "isp-mc":
                self._runs[key] = run_ispmc(mat, nodes)
            elif engine == "isp-standalone":
                self._runs[key] = run_isp_standalone(mat)
            else:
                raise ValueError(f"unknown engine {engine!r}")
        return self._runs[key]


def table1(cache: BenchCache) -> list[dict]:
    """Single-node runtimes: the three systems on the in-house machine."""
    rows = []
    for workload in WORKLOAD_ORDER:
        ss = cache.run(workload, "spatialspark", 1)
        isp = cache.run(workload, "isp-mc", 1)
        sta = cache.run(workload, "isp-standalone", 1)
        rows.append(
            {
                "workload": workload,
                "SpatialSpark": ss.simulated_seconds,
                "ISP-MC": isp.simulated_seconds,
                "Standalone ISP-MC": sta.simulated_seconds,
                "result_rows": ss.result_rows,
            }
        )
    return rows


def table2(cache: BenchCache) -> list[dict]:
    """10-node EC2 runtimes for both systems."""
    rows = []
    for workload in WORKLOAD_ORDER:
        ss = cache.run(workload, "spatialspark", 10)
        isp = cache.run(workload, "isp-mc", 10)
        rows.append(
            {
                "workload": workload,
                "SpatialSpark": ss.simulated_seconds,
                "ISP-MC": isp.simulated_seconds,
                "speedup": isp.simulated_seconds / ss.simulated_seconds,
                "result_rows": ss.result_rows,
            }
        )
    return rows


def _scaling(cache: BenchCache, engine: str) -> dict[str, list[tuple[int, float]]]:
    series: dict[str, list[tuple[int, float]]] = {}
    for workload in WORKLOAD_ORDER:
        series[workload] = [
            (nodes, cache.run(workload, engine, nodes).simulated_seconds)
            for nodes in SCALING_NODES
        ]
    return series


def fig4(cache: BenchCache) -> dict[str, list[tuple[int, float]]]:
    """SpatialSpark runtime vs cluster size (4-10 nodes)."""
    return _scaling(cache, "spatialspark")


def fig5(cache: BenchCache) -> dict[str, list[tuple[int, float]]]:
    """ISP-MC runtime vs cluster size (4-10 nodes)."""
    return _scaling(cache, "isp-mc")


def parallel_efficiency_of(series: list[tuple[int, float]]) -> float:
    """Speedup over the node increase across a scaling series."""
    (n0, t0), (n1, t1) = series[0], series[-1]
    return (t0 / t1) / (n1 / n0)


# -- text rendering ------------------------------------------------------------


def render_table1(rows: list[dict], with_paper: bool = True) -> str:
    lines = [
        "Table 1: Runtimes (simulated seconds) on a single node",
        f"{'':>14} | {'SpatialSpark':>12} | {'ISP-MC':>12} | {'Standalone ISP-MC':>18}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:>14} | {row['SpatialSpark']:12.0f} | "
            f"{row['ISP-MC']:12.0f} | {row['Standalone ISP-MC']:18.0f}"
        )
        if with_paper:
            p = PAPER_TABLE1[row["workload"]]
            lines.append(
                f"{'(paper)':>14} | {p[0]:12.0f} | {p[1]:12.0f} | {p[2]:18.0f}"
            )
    return "\n".join(lines)


def render_table2(rows: list[dict], with_paper: bool = True) -> str:
    lines = [
        "Table 2: Runtimes (simulated seconds) using 10 EC2 nodes",
        f"{'':>14} | {'SpatialSpark':>12} | {'ISP-MC':>12} | {'ISP/SS':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:>14} | {row['SpatialSpark']:12.0f} | "
            f"{row['ISP-MC']:12.0f} | {row['speedup']:7.1f}"
        )
        if with_paper:
            p = PAPER_TABLE2[row["workload"]]
            lines.append(
                f"{'(paper)':>14} | {p[0]:12.0f} | {p[1]:12.0f} | {p[1]/p[0]:7.1f}"
            )
    return "\n".join(lines)


def render_scaling(series: dict[str, list[tuple[int, float]]], title: str) -> str:
    nodes = [n for n, _ in next(iter(series.values()))]
    lines = [title, f"{'':>14} | " + " | ".join(f"{n:>3d} nodes" for n in nodes) + " | efficiency"]
    for workload, points in series.items():
        cells = " | ".join(f"{t:9.0f}" for _, t in points)
        lines.append(
            f"{workload:>14} | {cells} | {parallel_efficiency_of(points):10.2f}"
        )
    return "\n".join(lines)


def render_report(doc: dict) -> str:
    """Text rendering of :func:`experiments_json`: measured vs paper."""
    parts = [
        f"Reproduction report (scale factor {doc['scale']}; simulated seconds)",
        "",
        render_table1(doc["table1"]),
        "",
        render_table2(doc["table2"]),
        "",
        render_scaling(doc["fig4"], "Fig 4: Scalability of SpatialSpark (runtime vs nodes)"),
        "(paper: ~80% parallel efficiency from 4 to 10 nodes)",
        "",
        render_scaling(doc["fig5"], "Fig 5: Scalability of ISP-MC (runtime vs nodes)"),
        "(paper: near-linear, with G10M-wwf flattening from 8 to 10 nodes)",
    ]
    return "\n".join(parts)


def experiments_report(scale: float = DEFAULT_SCALE) -> str:
    """Full text report: every table and figure, measured vs paper."""
    return render_report(experiments_json(scale))


def experiments_json(scale: float = DEFAULT_SCALE) -> dict:
    """The full report as a JSON-safe dict (``--json`` output mode).

    Scaling series become ``[[nodes, seconds], ...]`` lists; the paper's
    published numbers ride along under ``paper`` keys so downstream
    tooling can diff measured vs published without re-parsing text.
    """
    cache = BenchCache(scale=scale)
    return {
        "scale": scale,
        "units": "simulated_seconds",
        "table1": table1(cache),
        "table2": table2(cache),
        "fig4": {w: [list(p) for p in pts] for w, pts in fig4(cache).items()},
        "fig5": {w: [list(p) for p in pts] for w, pts in fig5(cache).items()},
        "paper": {
            "table1": {w: list(v) for w, v in PAPER_TABLE1.items()},
            "table2": {w: list(v) for w, v in PAPER_TABLE2.items()},
        },
    }


def _arguments(parser) -> None:
    parser.add_argument("--scale", type=positive_float, default=DEFAULT_SCALE,
                        help=f"dataset scale factor (default {DEFAULT_SCALE}, the calibration "
                        "scale)")


STUDY = Study(
    name="report",
    help="Tables 1-2 and Figs 4-5 with the paper's numbers inline",
    arguments=_arguments,
    run=lambda args: experiments_json(scale=args.scale),
    render=render_report,
)
