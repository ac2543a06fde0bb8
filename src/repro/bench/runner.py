"""Benchmark runner: execute a workload on an engine at a cluster size.

Every run performs the *real* join (real parsing, indexing, refinement —
the result row count is asserted identical across engines) and reports
the deterministic simulated runtime from the cost model, which is what
Tables 1-2 and Figs 4-5 plot.  See DESIGN.md section 5 for why simulated
makespans replace EC2 wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.model import ClusterSpec, CostModel
from repro.core.broadcast_join import broadcast_spatial_join, read_geometry_pairs
from repro.core.standalone import standalone_spatial_join
from repro.errors import BenchError
from repro.bench.workloads import MaterializedWorkload, materialize
from repro.impala.catalog import ColumnType
from repro.impala.coordinator import ImpalaBackend
from repro.obs.profile import QueryProfile
from repro.runtime.config import RuntimeConfig
from repro.spark.context import SparkContext

__all__ = [
    "RunResult",
    "run_spatialspark",
    "run_ispmc",
    "run_isp_standalone",
    "run_engine",
    "SINGLE_NODE_SPEC",
    "cluster_spec",
]

# Table 1's single node is the in-house machine: 16 cores, 128 GB.
SINGLE_NODE_SPEC = ClusterSpec(num_nodes=1, cores_per_node=16, mem_per_node_gb=128.0,
                               name="in-house")


def cluster_spec(num_nodes: int) -> ClusterSpec:
    """The paper's EC2 fleet (g2.2xlarge: 8 vCPU, 15 GB) at any size."""
    if num_nodes == 1:
        return SINGLE_NODE_SPEC
    return ClusterSpec(num_nodes=num_nodes, cores_per_node=8, mem_per_node_gb=15.0,
                       name="g2.2xlarge")


@dataclass
class RunResult:
    """One engine's execution of one workload."""

    engine: str
    workload: str
    num_nodes: int
    scale: float
    simulated_seconds: float
    result_rows: int
    profile: QueryProfile | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return (
            f"{self.workload:>14} {self.engine:>14} nodes={self.num_nodes:<3} "
            f"rows={self.result_rows:<9} t={self.simulated_seconds:.4f}"
        )


def run_spatialspark(
    mat: MaterializedWorkload,
    num_nodes: int,
    cost_model: CostModel | None = None,
    engine: str = "fast",
    num_partitions: int | None = None,
    profile: bool = False,
    executors: int | str | None = None,
    events_out: str | None = None,
    runtime: RuntimeConfig | None = None,
) -> RunResult:
    """SpatialSpark: broadcast join on the mini-Spark substrate."""
    sc = SparkContext(
        cluster_spec(num_nodes),
        hdfs=mat.hdfs,
        cost_model=cost_model,
        executors=executors,
        events_out=events_out,
        runtime=runtime,
    )
    left = read_geometry_pairs(sc, mat.left_path, 1, num_partitions=num_partitions)
    right = read_geometry_pairs(
        sc, mat.right_path, 1, cost_weight=mat.build_cost_weight
    )
    pairs = broadcast_spatial_join(
        sc,
        left,
        right,
        mat.workload.operator,
        radius=mat.radius,
        engine=engine,
        build_cost_weight=mat.build_cost_weight,
    )
    count = pairs.count()
    sc.close_events()
    return RunResult(
        engine="SpatialSpark",
        workload=mat.workload.name,
        num_nodes=num_nodes,
        scale=mat.scale,
        simulated_seconds=sc.simulated_seconds(),
        result_rows=count,
        profile=(
            sc.to_profile(f"SpatialSpark:{mat.workload.name}") if profile else None
        ),
    )


_SQL = {
    "within": (
        "SELECT l.id, r.id FROM {left} l SPATIAL JOIN {right} r "
        "WHERE ST_WITHIN(l.geom, r.geom)"
    ),
    "nearestd": (
        "SELECT l.id, r.id FROM {left} l SPATIAL JOIN {right} r "
        "WHERE ST_NEARESTD(l.geom, r.geom, {radius})"
    ),
}


def run_ispmc(
    mat: MaterializedWorkload,
    num_nodes: int,
    cost_model: CostModel | None = None,
    engine: str = "slow",
    assignment: str = "round_robin",
    profile: bool = False,
    batch_size: int | None = None,
    executors: int | str | None = None,
    events_out: str | None = None,
    runtime: RuntimeConfig | None = None,
) -> RunResult:
    """ISP-MC: SQL spatial join on the mini-Impala substrate."""
    backend = ImpalaBackend(
        cluster_spec(num_nodes),
        hdfs=mat.hdfs,
        cost_model=cost_model,
        engine=engine,
        assignment=assignment,
        build_cost_weight=mat.build_cost_weight,
        batch_size=batch_size,
        executors=executors,
        events_out=events_out,
        runtime=runtime,
    )
    schema = [("id", ColumnType.BIGINT), ("geom", ColumnType.STRING)]
    left_name = f"left_{mat.left.name}"
    right_name = f"right_{mat.right.name}"
    backend.metastore.create_table(left_name, schema, mat.left_path)
    backend.metastore.create_table(right_name, schema, mat.right_path)
    template = _SQL[mat.workload.operator.value]
    sql = template.format(left=left_name, right=right_name, radius=mat.radius)
    result = backend.execute(sql)
    backend.close_events()
    return RunResult(
        engine="ISP-MC",
        workload=mat.workload.name,
        num_nodes=num_nodes,
        scale=mat.scale,
        simulated_seconds=result.simulated_seconds,
        result_rows=len(result),
        profile=(
            result.to_profile(f"ISP-MC:{mat.workload.name}") if profile else None
        ),
    )


def run_isp_standalone(
    mat: MaterializedWorkload,
    cost_model: CostModel | None = None,
    engine: str = "slow",
    cores: int = 16,
    scheduling: str = "static",
    profile: bool = False,
) -> RunResult:
    """Standalone ISP-MC on the Table-1 single machine (16 cores)."""
    result = standalone_spatial_join(
        mat.hdfs,
        mat.left_path,
        mat.right_path,
        mat.workload.operator,
        radius=mat.radius,
        cores=cores,
        engine=engine,
        scheduling=scheduling,
        cost_model=cost_model,
        build_cost_weight=mat.build_cost_weight,
    )
    return RunResult(
        engine="Standalone ISP-MC",
        workload=mat.workload.name,
        num_nodes=1,
        scale=mat.scale,
        simulated_seconds=result.simulated_seconds,
        result_rows=len(result),
        profile=(
            result.to_profile(f"Standalone:{mat.workload.name}") if profile else None
        ),
    )


def run_engine(
    workload_name: str,
    engine: str,
    num_nodes: int,
    scale: float = 0.1,
    cost_model: CostModel | None = None,
    profile: bool = False,
    executors: int | str | None = None,
    events_out: str | None = None,
    runtime: RuntimeConfig | None = None,
) -> RunResult:
    """Dispatch by engine label (the harness entry used by benches)."""
    mat = materialize(workload_name, scale=scale)
    if engine == "spatialspark":
        return run_spatialspark(
            mat,
            num_nodes,
            cost_model,
            profile=profile,
                executors=executors,
            events_out=events_out,
            runtime=runtime,
        )
    if engine == "isp-mc":
        return run_ispmc(
            mat,
            num_nodes,
            cost_model,
            profile=profile,
                executors=executors,
            events_out=events_out,
            runtime=runtime,
        )
    if engine == "isp-standalone":
        if num_nodes != 1:
            raise BenchError("standalone ISP-MC runs on a single node")
        if events_out is not None:
            raise BenchError(
                "events_out is not supported by the standalone engine; "
                "use spatialspark or isp-mc"
            )
        if runtime is not None and runtime.fault_plan is not None:
            raise BenchError(
                "fault injection is not supported by the standalone engine; "
                "use spatialspark or isp-mc"
            )
        return run_isp_standalone(mat, cost_model, profile=profile)
    raise BenchError(
        f"unknown engine {engine!r}; choose spatialspark|isp-mc|isp-standalone"
    )
