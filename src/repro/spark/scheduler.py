"""DAG scheduler: stages, tasks, dynamic placement, cost accounting.

Spark's scheduler splits the lineage DAG into stages at shuffle
dependencies, runs each stage as a set of per-partition tasks, and places
tasks *dynamically* onto free executor slots.  Section III of the paper
observes that Spark "selects a new leader and reconstructs an actor system
to exchange the metadata of partitions for every job stage that involves
shuffling", with overhead proportional to the partition count — both
charged here per shuffle stage, which is what the partition-count ablation
(a1) measures.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cluster.metrics import QueryMetrics, StageMetrics, TaskMetrics
from repro.cluster.model import Resource
from repro.columnar.block import ColumnBlock
from repro.errors import SparkError
from repro.obs.events import get_event_log, install_event_log
from repro.obs.tracer import get_tracer
from repro.runtime.faults import InjectedFaultError
from repro.runtime.pool import SerialBackend, current_worker_id, picklable_error
from repro.runtime.recovery import run_recovered
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability
from repro.spark.rdd import RDD, NarrowDependency, ShuffleDependency
from repro.spark.shuffle import ShuffleStore
from repro.spark.taskcontext import task_scope
from repro.cluster.simulation import simulate_dynamic

__all__ = ["DAGScheduler"]


@dataclass
class _TaskShipment:
    """Everything one pool task sends back to the driver.

    Worker processes can't touch driver state, so every side effect a
    serial task would have — counter increments, spans, cache fills,
    scheduler failure counts, shuffle-store writes — rides back here and
    is replayed by :meth:`DAGScheduler._absorb_shipment` in deterministic
    task order.
    """

    task: TaskMetrics
    capture: ObsCapture
    value: object = None
    seconds: float = 0.0
    failures: int = 0  # failed attempts (the driver's task_failures delta)
    error: BaseException | None = None  # fatal/terminal error to re-raise
    cache_entries: dict = field(default_factory=dict)


class DAGScheduler:
    """Executes RDD jobs stage by stage with simulated-time accounting.

    Fault tolerance follows Spark's model (Section III: "Spark provides
    fault tolerance through re-computing as RDDs keep track of data
    processing workflows"): a failing task is retried up to
    ``MAX_TASK_ATTEMPTS`` times, recomputing its partition from lineage;
    only then does the job fail.  Failed attempts still cost simulated
    time — the work was done before the crash.
    """

    MAX_TASK_ATTEMPTS = 4  # Spark's spark.task.maxFailures default

    def __init__(self, sc):
        self.sc = sc
        self._job_counter = 0
        self.task_failures = 0
        self._events_query: int | None = None  # current job's event-log query id
        # Per-stage scheduling outcomes (name, tasks, makespan, overhead,
        # skew), appended as stages finish — the EXPLAIN ANALYZE feed for
        # SpatialSpark runs.  Observational only; never read by execution.
        self.stage_summaries: list[dict] = []
        # The attempt budget is a RuntimeConfig knob now; the class
        # attribute stays as the documented Spark default.
        self.max_task_attempts = getattr(
            sc.runtime, "max_task_attempts", self.MAX_TASK_ATTEMPTS
        )

    # -- event emission ---------------------------------------------------------
    #
    # Ids (query, stage, task index) are always allocated on the driver so
    # they are identical whether tasks run serially or on a pool; pooled
    # tasks receive them via closure and emit into the worker's buffering
    # sink, which ships back and replays in task order.

    def _emit_stage(self, name: str, num_tasks: int) -> int | None:
        """Allocate a stage id and emit StageSubmitted (None while disabled)."""
        log = get_event_log()
        if not log.enabled or self._events_query is None:
            return None
        stage_id = log.next_id("stage")
        log.emit(
            "StageSubmitted",
            query=self._events_query,
            stage=stage_id,
            name=name,
            num_tasks=num_tasks,
        )
        return stage_id

    def _attempt_task(
        self,
        task: TaskMetrics,
        body,
        label: str = "task",
        events_ctx: tuple[int, int, int] | None = None,
        partition: int | None = None,
    ) -> float:
        """Run ``body`` with retries; returns the task's total seconds.

        Each attempt accrues into ``task`` (lineage recomputation repeats
        the work); the exception from the final failed attempt propagates
        wrapped in :class:`SparkError`.  ``events_ctx`` is the
        ``(query, stage, task)`` id triple for event emission (None while
        the event sink is disabled).
        """
        model = self.sc.cost_model
        log = get_event_log()
        if events_ctx is not None and log.enabled:
            query_id, stage_id, task_index = events_ctx
            log.emit(
                "TaskStart",
                query=query_id,
                stage=stage_id,
                task=task_index,
                partition=partition,
                label=label,
                worker=current_worker_id(),
                pid=os.getpid(),
                wall_start=time.perf_counter(),
            )
        last_error: Exception | None = None
        failures_before = self.task_failures
        with get_tracer().span(label, category="task") as span:
            for attempt in range(self.max_task_attempts):
                try:
                    with task_scope(task):
                        body()
                    seconds = task.seconds(model) * model.spark_jvm_factor
                    span.add_sim(seconds)
                    span.add_counts(task.counts)
                    if attempt:
                        span.set_attr("attempts", attempt + 1)
                    if events_ctx is not None and log.enabled:
                        log.emit(
                            "TaskEnd",
                            query=query_id,
                            stage=stage_id,
                            task=task_index,
                            partition=partition,
                            label=label,
                            worker=current_worker_id(),
                            pid=os.getpid(),
                            wall_end=time.perf_counter(),
                            sim_seconds=seconds,
                            counters=dict(task.counts),
                            failures=self.task_failures - failures_before,
                        )
                    return seconds
                except SparkError:
                    raise
                except Exception as error:  # noqa: BLE001 - any task crash retries
                    self.task_failures += 1
                    last_error = error
        raise SparkError(
            f"task failed {self.max_task_attempts} times; last error: "
            f"{last_error!r}"
        ) from last_error

    # -- pool execution ---------------------------------------------------------

    def _pool(self):
        """The context's task pool when it can run this scheduler's closures."""
        pool = self.sc.task_pool
        if pool.is_serial or not pool.supports_closures:
            return None
        return pool

    def _dispatch_pool(self):
        """The pool the shipment path should use, or None for inline serial.

        With a fault plan active every stage routes through the shipment
        path — even serially, on a :class:`SerialBackend` — because the
        recovery loop needs capture-based tasks it can re-run (and whose
        losing duplicates it can discard).  Without a plan this returns
        exactly what :meth:`_pool` does, leaving the fault-free paths
        untouched.
        """
        pool = self._pool()
        if pool is None and self.sc.recovery.active:
            return SerialBackend()
        return pool

    def _pool_run_tasks(
        self, pool, specs, stage_id=None, scope="stage", repair=None
    ) -> list[_TaskShipment]:
        """Run ``(label, body, partition)`` specs on the pool, in task order.

        Each worker wrapper mirrors :meth:`_attempt_task` exactly — same
        retry loop, same span shape, same simulated-seconds arithmetic,
        same TaskStart/TaskEnd events — but accumulates every side effect
        into a :class:`_TaskShipment` instead of touching (its forked copy
        of) driver state.  Failures never raise in the worker; the driver
        re-raises at merge time so error semantics match the serial path.

        With a fault plan active, dispatch goes through
        :func:`run_recovered` under the stage's logical ``scope``:
        injected faults are retried/speculated/blacklisted driver-side,
        ``repair`` restores lost shuffle output from lineage, and an
        exhausted budget surfaces as :class:`SparkError` like any other
        terminal task failure.
        """
        model = self.sc.cost_model
        max_attempts = self.max_task_attempts
        cache = self.sc._cache
        query_id = self._events_query if get_event_log().enabled else None

        def make_task(index: int, label: str, body: Callable, partition):
            def run_one() -> _TaskShipment:
                task = TaskMetrics()
                capture = ObsCapture()
                shipment = _TaskShipment(task=task, capture=capture)
                cache_before = set(cache)
                with capture_observability(capture):
                    log = get_event_log()
                    emit_events = (
                        log.enabled and query_id is not None and stage_id is not None
                    )
                    if emit_events:
                        log.emit(
                            "TaskStart",
                            query=query_id,
                            stage=stage_id,
                            task=index,
                            partition=partition,
                            label=label,
                            worker=current_worker_id(),
                            pid=os.getpid(),
                            wall_start=time.perf_counter(),
                        )
                    with get_tracer().span(label, category="task") as span:
                        last_error: Exception | None = None
                        for attempt in range(max_attempts):
                            try:
                                with task_scope(task):
                                    value = body(task)
                                seconds = (
                                    task.seconds(model) * model.spark_jvm_factor
                                )
                                span.add_sim(seconds)
                                span.add_counts(task.counts)
                                if attempt:
                                    span.set_attr("attempts", attempt + 1)
                                shipment.value = value
                                shipment.seconds = seconds
                                last_error = None
                                break
                            except SparkError as error:
                                # Fatal in the serial path: no retry.
                                shipment.error = picklable_error(error)
                                last_error = None
                                break
                            except Exception as error:  # noqa: BLE001
                                shipment.failures += 1
                                last_error = error
                        if last_error is not None:
                            shipment.error = picklable_error(
                                SparkError(
                                    f"task failed {max_attempts} times; "
                                    f"last error: {last_error!r}"
                                )
                            )
                    if emit_events and shipment.error is None:
                        log.emit(
                            "TaskEnd",
                            query=query_id,
                            stage=stage_id,
                            task=index,
                            partition=partition,
                            label=label,
                            worker=current_worker_id(),
                            pid=os.getpid(),
                            wall_end=time.perf_counter(),
                            sim_seconds=shipment.seconds,
                            counters=dict(task.counts),
                            failures=shipment.failures,
                        )
                shipment.cache_entries = {
                    key: cache[key] for key in cache.keys() - cache_before
                }
                return shipment

            return run_one

        thunks = [
            make_task(index, label, body, partition)
            for index, (label, body, partition) in enumerate(specs)
        ]
        recovery = self.sc.recovery
        if recovery.active:
            try:
                outcomes = run_recovered(
                    pool,
                    thunks,
                    recovery,
                    scope=scope,
                    events=(query_id, stage_id),
                    sim_seconds=lambda index, shipment: shipment.seconds,
                    repair=repair,
                )
            except InjectedFaultError as error:
                raise SparkError(f"{scope}: {error}") from error
            return [outcome.value for outcome in outcomes]
        return pool.run(thunks)

    def _absorb_shipment(self, shipment: _TaskShipment, stage: StageMetrics):
        """Replay one task's side effects on the driver (deterministic order)."""
        self.task_failures += shipment.failures
        apply_capture(shipment.capture)
        for key, value in shipment.cache_entries.items():
            self.sc._cache.setdefault(key, value)
        if shipment.error is not None:
            raise shipment.error
        stage.tasks.append(shipment.task)
        return shipment

    # -- public entry ---------------------------------------------------------

    def run_job(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int] | None = None,
    ) -> list:
        """Run ``func`` over each requested partition; returns its results.

        Side effects: shuffle map stages for unmaterialised shuffle
        dependencies are executed first, and a :class:`QueryMetrics` entry
        is appended to the context's job log.
        """
        if partitions is None:
            partitions = range(rdd.num_partitions)
        self._job_counter += 1
        metrics = QueryMetrics(name=f"job-{self._job_counter}")
        with install_event_log(self.sc._event_log):
            log = get_event_log()
            self._events_query = log.next_id("query") if log.enabled else None
            if self._events_query is not None:
                log.emit(
                    "QueryStart",
                    query=self._events_query,
                    name=metrics.name,
                    engine="spark",
                    wall_start=time.perf_counter(),
                )
            try:
                with get_tracer().span(metrics.name, category="job") as span:
                    if self.sc._charge_jar_ship():
                        metrics.overhead_seconds += self.sc.cost_model.spark_jar_ship
                    for dep in self._unmaterialised_shuffles(rdd):
                        self._run_shuffle_stage(dep, metrics)
                    results = self._run_result_stage(rdd, func, partitions, metrics)
                    span.add_sim(metrics.simulated_seconds)
                    span.set_attr("stages", len(metrics.stages))
                if self._events_query is not None:
                    log.emit(
                        "QueryEnd",
                        query=self._events_query,
                        name=metrics.name,
                        sim_seconds=metrics.simulated_seconds,
                        rows=len(results),
                        wall_end=time.perf_counter(),
                    )
            finally:
                self._events_query = None
        self.sc._record_job(metrics)
        return results

    # -- stage discovery --------------------------------------------------------

    def _unmaterialised_shuffles(self, rdd: RDD) -> list[ShuffleDependency]:
        """Shuffle dependencies reachable from ``rdd``, parents first."""
        ordered: list[ShuffleDependency] = []
        seen_rdds: set[int] = set()

        def visit(node: RDD) -> None:
            if node.id in seen_rdds:
                return
            seen_rdds.add(node.id)
            for dep in node.dependencies:
                visit(dep.parent)
                if isinstance(dep, ShuffleDependency) and dep.shuffle_id is None:
                    ordered.append(dep)

        visit(rdd)
        return ordered

    # -- stage execution --------------------------------------------------------

    def _run_shuffle_stage(self, dep: ShuffleDependency, metrics: QueryMetrics) -> None:
        store = self.sc._shuffle_store
        dep.shuffle_id = store.new_shuffle_id()
        parent = dep.parent
        partitioner = dep.partitioner
        stage = StageMetrics(name=f"shuffle-{dep.shuffle_id}")
        with get_tracer().span(stage.name, category="stage"):
            self._run_shuffle_tasks(dep, store, parent, partitioner, stage, metrics)

    @staticmethod
    def _shuffle_buckets(dep, parent, partitioner, split: int) -> dict[int, list]:
        """One map task's output, bucketed by reduce partition."""
        bucketed: dict[int, list] = {}
        if dep.combiner is not None:
            create, merge_value, _ = dep.combiner
            combined: dict[int, dict] = {}
            for key, value in parent.iterator(split):
                bucket = partitioner.partition(key)
                per_bucket = combined.setdefault(bucket, {})
                if key in per_bucket:
                    per_bucket[key] = merge_value(per_bucket[key], value)
                else:
                    per_bucket[key] = create(value)
            for bucket, pairs in combined.items():
                bucketed[bucket] = list(pairs.items())
        else:
            for record in parent.iterator(split):
                key = record[0]
                bucketed.setdefault(partitioner.partition(key), []).append(record)
        return bucketed

    def _pack_buckets(self, bucketed: dict[int, list]) -> dict[int, object]:
        """Pack geometry-record buckets into columnar shuffle blocks.

        Every bucket whose records are ``(key, (id, geometry))`` tuples
        becomes a :class:`~repro.columnar.block.ColumnBlock` — iterating it yields
        value-identical records, the store charges the same byte total,
        and pickling it (pooled map tasks ship buckets back to the
        driver) moves the packed binary encoding instead of the object
        graph.  Non-matching buckets (combiner output, plain key/value
        jobs) pass through untouched.
        """
        packed: dict[int, object] = {}
        for reduce_partition, records in bucketed.items():
            block = ColumnBlock.from_records(records)
            packed[reduce_partition] = records if block is None else block
        return packed

    def _emit_shuffle_write(
        self, stage_id, task_index: int, dep, task: TaskMetrics
    ) -> None:
        """ShuffleWrite is always driver-side so serial/pooled order matches."""
        log = get_event_log()
        if stage_id is None or not log.enabled:
            return
        log.emit(
            "ShuffleWrite",
            query=self._events_query,
            stage=stage_id,
            task=task_index,
            shuffle_id=dep.shuffle_id,
            bytes=task.get(Resource.SHUFFLE_BYTES),
        )

    def _run_shuffle_tasks(
        self, dep, store, parent, partitioner, stage, metrics
    ) -> None:
        stage_id = self._emit_stage(stage.name, parent.num_partitions)
        pool = self._dispatch_pool()
        if pool is not None:
            self._run_shuffle_tasks_pooled(
                pool, dep, store, parent, partitioner, stage, metrics, stage_id
            )
            return
        task_seconds: list[float] = []
        for split in range(parent.num_partitions):
            task = TaskMetrics()

            def map_task(split=split, task=task):
                bucketed = self._pack_buckets(
                    self._shuffle_buckets(dep, parent, partitioner, split)
                )
                written = store.write(dep.shuffle_id, split, bucketed)
                task.add(Resource.SHUFFLE_BYTES, written)

            events_ctx = (
                (self._events_query, stage_id, split) if stage_id is not None else None
            )
            task_seconds.append(
                self._attempt_task(
                    task,
                    map_task,
                    label=f"map-{split}",
                    events_ctx=events_ctx,
                    partition=split,
                )
            )
            stage.tasks.append(task)
            self._emit_shuffle_write(stage_id, split, dep, task)
        self._finish_stage(stage, task_seconds, shuffling=True, metrics=metrics)

    def _run_shuffle_tasks_pooled(
        self, pool, dep, store, parent, partitioner, stage, metrics, stage_id=None
    ) -> None:
        """Map tasks on the pool; the driver replays the store writes.

        Workers charge ``SHUFFLE_BYTES`` via :meth:`ShuffleStore.bucket_bytes`
        (byte-for-byte what ``write`` returns) and ship the buckets; the
        actual store write — and its registry increments — happens here,
        in task order, exactly as the serial path would have done it.
        """

        def make_body(split: int):
            def body(task: TaskMetrics):
                bucketed = self._pack_buckets(
                    self._shuffle_buckets(dep, parent, partitioner, split)
                )
                task.add(Resource.SHUFFLE_BYTES, ShuffleStore.bucket_bytes(bucketed))
                return bucketed

            return body

        specs = [
            (f"map-{split}", make_body(split), split)
            for split in range(parent.num_partitions)
        ]
        shipments = self._pool_run_tasks(
            pool, specs, stage_id=stage_id, scope=f"{metrics.name}:{stage.name}"
        )
        task_seconds: list[float] = []
        for split, shipment in enumerate(shipments):
            self._absorb_shipment(shipment, stage)
            store.write(dep.shuffle_id, split, shipment.value)
            task_seconds.append(shipment.seconds)
            self._emit_shuffle_write(stage_id, split, dep, shipment.task)
        self._finish_stage(stage, task_seconds, shuffling=True, metrics=metrics)

    def _run_result_stage(
        self,
        rdd: RDD,
        func: Callable,
        partitions: Sequence[int],
        metrics: QueryMetrics,
    ) -> list:
        stage = StageMetrics(name="result")
        results = []
        task_seconds: list[float] = []
        reads_shuffle = self._pipeline_reads_shuffle(rdd)
        pool = self._dispatch_pool()
        stage_id = self._emit_stage(stage.name, len(partitions))
        with get_tracer().span(stage.name, category="stage"):
            if pool is not None:
                specs = [
                    (
                        f"task-{split}",
                        lambda task, split=split: func(rdd.iterator(split)),
                        split,
                    )
                    for split in partitions
                ]
                shipments = self._pool_run_tasks(
                    pool,
                    specs,
                    stage_id=stage_id,
                    scope=f"{metrics.name}:{stage.name}",
                    repair=self._make_repair(rdd, stage_id),
                )
                for shipment in shipments:
                    self._absorb_shipment(shipment, stage)
                    results.append(shipment.value)
                    task_seconds.append(shipment.seconds)
            else:
                for index, split in enumerate(partitions):
                    task = TaskMetrics()

                    def result_task(split=split):
                        results.append(func(rdd.iterator(split)))

                    events_ctx = (
                        (self._events_query, stage_id, index)
                        if stage_id is not None
                        else None
                    )
                    task_seconds.append(
                        self._attempt_task(
                            task,
                            result_task,
                            label=f"task-{split}",
                            events_ctx=events_ctx,
                            partition=split,
                        )
                    )
                    stage.tasks.append(task)
            self._finish_stage(
                stage, task_seconds, shuffling=reads_shuffle, metrics=metrics
            )
        return results

    def _pipeline_reads_shuffle(self, rdd: RDD) -> bool:
        """True when the result stage's pipeline starts at a shuffle read."""
        node = rdd
        while True:
            narrow_parents = [
                dep for dep in node.dependencies if isinstance(dep, NarrowDependency)
            ]
            if any(
                isinstance(dep, ShuffleDependency) for dep in node.dependencies
            ):
                return True
            if not narrow_parents:
                return False
            node = narrow_parents[0].parent

    # -- lineage recovery --------------------------------------------------------

    def _pipeline_shuffle_deps(self, rdd: RDD) -> list[ShuffleDependency]:
        """The materialised shuffle dependencies the result pipeline reads."""
        node = rdd
        while True:
            shuffles = [
                dep
                for dep in node.dependencies
                if isinstance(dep, ShuffleDependency) and dep.shuffle_id is not None
            ]
            if shuffles:
                return shuffles
            narrow_parents = [
                dep for dep in node.dependencies if isinstance(dep, NarrowDependency)
            ]
            if not narrow_parents:
                return []
            node = narrow_parents[0].parent

    def _make_repair(self, rdd: RDD, stage_id):
        """Lineage-based recovery hook for ``shuffle_loss`` faults.

        This is Spark's answer to the static model's whole-query restart
        (Section III: RDDs "keep track of data processing workflows"): a
        reduce task that finds its shuffle input gone re-derives *only*
        the lost map output by re-running the parent stage's bucketing
        for that map partition, then retries.  The recompute happens
        under a discarded observability capture and writes back via
        :meth:`ShuffleStore.restore` — recovery restores state, it never
        re-bills counters or simulated time, which keeps chaos runs
        byte-identical to fault-free ones.  Returns ``None`` when the
        pipeline reads no shuffle (the fault then degrades to a
        transient).
        """
        deps = self._pipeline_shuffle_deps(rdd)
        if not deps:
            return None
        store = self.sc._shuffle_store

        def repair(task_index: int, fault) -> None:
            for dep in deps:
                parent = dep.parent
                map_split = task_index % parent.num_partitions
                store.drop_map_output(dep.shuffle_id, map_split)
                with capture_observability(ObsCapture()):
                    bucketed = self._shuffle_buckets(
                        dep, parent, dep.partitioner, map_split
                    )
                store.restore(dep.shuffle_id, map_split, bucketed)
                log = get_event_log()
                if log.enabled and self._events_query is not None:
                    log.emit(
                        "StageRecomputed",
                        query=self._events_query,
                        stage=stage_id,
                        shuffle_id=dep.shuffle_id,
                        map_partition=map_split,
                        reason=fault.kind,
                    )

        return repair

    def _finish_stage(
        self,
        stage: StageMetrics,
        task_seconds: list[float],
        shuffling: bool,
        metrics: QueryMetrics,
    ) -> None:
        model = self.sc.cost_model
        stage.makespan_seconds = simulate_dynamic(
            task_seconds,
            workers=self.sc.cluster.total_cores,
            per_task_overhead=model.spark_task_launch,
        )
        # Partition-metadata exchange: the driver tracks per-task metadata
        # for every stage, so this grows with the partition count (the a1
        # ablation's tradeoff).  Stages that shuffle additionally pay the
        # actor-system reconstruction the paper observed (Section III).
        stage.overhead_seconds = model.spark_stage_per_partition * max(
            1, stage.num_tasks
        )
        if shuffling:
            stage.overhead_seconds += model.spark_stage_base
        metrics.add_stage(stage)
        # The enclosing stage span (a no-op while tracing is disabled)
        # gets the scheduling outcome: makespan + overhead as duration,
        # straggler statistics as attributes.
        span = get_tracer().current_span()
        span.add_sim(stage.makespan_seconds + stage.overhead_seconds)
        span.set_attr("tasks", stage.num_tasks)
        span.set_attr("makespan_seconds", stage.makespan_seconds)
        span.set_attr("max_task_seconds", stage.max_task_seconds(model))
        span.set_attr("median_task_seconds", stage.median_task_seconds(model))
        span.set_attr("skew", stage.skew(model))
        self.stage_summaries.append(
            {
                "name": stage.name,
                "tasks": stage.num_tasks,
                "makespan_seconds": stage.makespan_seconds,
                "overhead_seconds": stage.overhead_seconds,
                "max_task_seconds": stage.max_task_seconds(model),
                "median_task_seconds": stage.median_task_seconds(model),
                "skew": stage.skew(model),
                "shuffling": shuffling,
            }
        )
