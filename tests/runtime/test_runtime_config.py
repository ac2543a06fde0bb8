"""RuntimeConfig: validation and plumbing.

``RuntimeConfig`` is the only place a run's executors and event log are
set; ``JoinConfig``, ``SparkContext`` and ``ImpalaBackend`` take it via
``runtime=``.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import JoinConfig, spatial_join
from repro.errors import ReproError
from repro.impala import ImpalaBackend
from repro.obs.events import read_events
from repro.runtime import FaultPlan, RuntimeConfig, SerialBackend
from repro.spark import SparkContext

SPEC = ClusterSpec(num_nodes=2, cores_per_node=2, mem_per_node_gb=4.0)

LEFT = [(0, "POINT (1 1)"), (1, "POINT (9 9)"), (2, "POINT (3 2)")]
RIGHT = [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")]


class TestValidation:
    def test_defaults_are_valid_and_frozen(self):
        runtime = RuntimeConfig()
        assert runtime.executors is None
        assert runtime.max_task_attempts == 4
        assert runtime.speculation is True
        assert runtime.fault_plan is None
        with pytest.raises(Exception):
            runtime.executors = 2

    def test_with_returns_modified_copy(self):
        base = RuntimeConfig()
        changed = base.with_(executors=2, restart_budget=5)
        assert changed.executors == 2 and changed.restart_budget == 5
        assert base.executors is None  # original untouched

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"executors": "parallel-ish"},
            {"executors": 0},
            {"max_task_attempts": 0},
            {"max_task_attempts": True},
            {"task_timeout": 0},
            {"backoff_base": -1.0},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.5},
            {"speculation_k": 0},
            {"speculation_min_tasks": 0},
            {"blacklist_after": 0},
            {"restart_budget": -1},
            {"fault_plan": "chaos"},
        ],
    )
    def test_bad_fields_raise(self, kwargs):
        with pytest.raises(ReproError):
            RuntimeConfig(**kwargs)

    def test_accepts_task_pool_instance_and_fault_plan(self):
        runtime = RuntimeConfig(
            executors=SerialBackend(), fault_plan=FaultPlan(seed=1)
        )
        assert runtime.fault_plan.seed == 1

    def test_join_config_rejects_non_runtime(self):
        with pytest.raises(ReproError, match="runtime"):
            JoinConfig(runtime="serial")


class TestPlumbing:
    def test_max_task_attempts_reaches_the_scheduler(self):
        sc = SparkContext(SPEC, runtime=RuntimeConfig(max_task_attempts=7))
        assert sc._scheduler.max_task_attempts == 7

    def test_default_scheduler_attempts_match_runtime_default(self):
        sc = SparkContext(SPEC)
        assert sc._scheduler.max_task_attempts == RuntimeConfig().max_task_attempts

    def test_recovery_context_installed_on_both_substrates(self):
        plan = FaultPlan(seed=5, fault_rate=0.1)
        sc = SparkContext(SPEC, runtime=RuntimeConfig(fault_plan=plan))
        backend = ImpalaBackend(SPEC, runtime=RuntimeConfig(fault_plan=plan))
        assert sc.recovery.active and backend.recovery.active
        assert SparkContext(SPEC).recovery.active is False

    def test_runtime_exported_at_package_root(self):
        import repro

        assert repro.RuntimeConfig is RuntimeConfig
        assert repro.FaultPlan is FaultPlan

    def test_spatial_join_loose_events_out_still_works(self, tmp_path):
        path = str(tmp_path / "loose.jsonl")
        spatial_join(LEFT, RIGHT, runtime=RuntimeConfig(events_out=path))
        assert any(e["event"] == "QueryEnd" for e in read_events(path))
