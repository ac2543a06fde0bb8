"""`RuntimeConfig`: one value for every execution-runtime knob.

Before this existed the runtime surface was spread across loose keywords
— ``executors=`` and ``events_out=`` on :class:`~repro.core.api.JoinConfig`,
:class:`~repro.spark.context.SparkContext` and
:class:`~repro.impala.coordinator.ImpalaBackend`, plus retry constants
baked into the Spark scheduler.  :class:`RuntimeConfig` gathers them,
adds the fault-tolerance policy (retry/timeout/backoff, speculation,
blacklisting, restart budget, the injected :class:`~repro.runtime.faults.FaultPlan`),
and is accepted everywhere via a ``runtime=`` keyword.

**Precedence rule (the only one):** an explicit ``RuntimeConfig`` wins
over the loose keywords.  When no ``RuntimeConfig`` is given, the loose
``executors``/``events_out`` keywords are packed into an implicit one,
so every existing call shape keeps working — it just routes through
here.  (This mirrors ``spatial_join``'s existing rule that ``config=``
beats loose keywords.)

Timeouts and backoff delays are *simulated* quantities: they classify
hangs and are recorded in recovery events, but never sleep the driver
and never charge the cost model — recovery bookkeeping must not perturb
the byte-identity invariant (pairs, counters, profiles and simulated
seconds match the fault-free run exactly).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import TaskPool, validate_executors

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """Execution-runtime policy shared by both substrates.

    ==================== =======================================================
    field                meaning
    ==================== =======================================================
    executors            pool size: ``None``/``"serial"``/int >= 1/`TaskPool`
    max_task_attempts    Spark-side attempts per task (injected + real errors)
    task_timeout         simulated seconds before an attempt counts as hung
    backoff_base         first retry delay (simulated seconds)
    backoff_factor       exponential growth per further retry
    backoff_jitter       +/- fraction of deterministic jitter on each delay
    speculation          launch duplicate attempts for stragglers (Spark/core)
    speculation_k        speculate when effective time > k x stage median
    speculation_min_tasks minimum sibling tasks before medians mean anything
    blacklist_after      virtual-worker failures before it is blacklisted
    restart_budget       Impala-side whole-query restarts before giving up
    fault_plan           the injected :class:`FaultPlan` (``None`` = no chaos)
    events_out           JSONL event-log path (same as the loose keyword)
    cache_budget_bytes   cross-query cache budget; ``None``/``0`` = caching off
    ==================== =======================================================
    """

    executors: Any = None
    max_task_attempts: int = 4
    task_timeout: float = 30.0
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    speculation: bool = True
    speculation_k: float = 2.0
    speculation_min_tasks: int = 2
    blacklist_after: int = 2
    restart_budget: int = 2
    fault_plan: FaultPlan | None = None
    events_out: str | None = None
    cache_budget_bytes: int | None = None

    def __post_init__(self):
        if not isinstance(self.executors, TaskPool):
            validate_executors(self.executors, what="RuntimeConfig.executors")
        if (
            isinstance(self.max_task_attempts, bool)
            or not isinstance(self.max_task_attempts, int)
            or self.max_task_attempts < 1
        ):
            raise ReproError(
                "RuntimeConfig.max_task_attempts must be an integer >= 1, "
                f"got {self.max_task_attempts!r}"
            )
        if self.task_timeout <= 0:
            raise ReproError(
                f"RuntimeConfig.task_timeout must be > 0, got {self.task_timeout!r}"
            )
        if self.backoff_base < 0:
            raise ReproError(
                f"RuntimeConfig.backoff_base must be >= 0, got {self.backoff_base!r}"
            )
        if self.backoff_factor < 1.0:
            raise ReproError(
                f"RuntimeConfig.backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ReproError(
                f"RuntimeConfig.backoff_jitter must be in [0, 1], "
                f"got {self.backoff_jitter!r}"
            )
        if self.speculation_k <= 0:
            raise ReproError(
                f"RuntimeConfig.speculation_k must be > 0, got {self.speculation_k!r}"
            )
        if self.speculation_min_tasks < 1:
            raise ReproError(
                "RuntimeConfig.speculation_min_tasks must be >= 1, "
                f"got {self.speculation_min_tasks!r}"
            )
        if self.blacklist_after < 1:
            raise ReproError(
                "RuntimeConfig.blacklist_after must be >= 1, "
                f"got {self.blacklist_after!r}"
            )
        if self.restart_budget < 0:
            raise ReproError(
                "RuntimeConfig.restart_budget must be >= 0, "
                f"got {self.restart_budget!r}"
            )
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ReproError(
                f"RuntimeConfig.fault_plan must be a FaultPlan or None, "
                f"got {type(self.fault_plan).__name__}"
            )
        if self.cache_budget_bytes is not None and (
            isinstance(self.cache_budget_bytes, bool)
            or not isinstance(self.cache_budget_bytes, int)
            or self.cache_budget_bytes < 0
        ):
            raise ReproError(
                "RuntimeConfig.cache_budget_bytes must be None or an "
                f"integer >= 0, got {self.cache_budget_bytes!r}"
            )

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields replaced (frozen dataclass idiom)."""
        return dataclasses.replace(self, **changes)
