"""High-level spatial-join API.

Most users don't want to stand up a (mini-)cluster; this module joins
in-memory collections directly with the same filter+refine machinery the
engines use.  Geometries may be given as objects or WKT strings.

The default ``method="auto"`` samples both inputs and lets
:func:`repro.optimizer.choose_plan` pick the cheapest strategy
(``broadcast`` / ``partitioned`` / ``dual-tree`` / ``naive``); any of the
method names may also be forced explicitly.  Every call returns a
:class:`JoinResult`, which behaves exactly like the list of (left_id,
right_id) pairs older code expects while also carrying the query profile,
the optimizer's :class:`~repro.optimizer.PlanChoice` and the sampled
:class:`~repro.optimizer.JoinStats`.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence as _SequenceABC
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Sequence

from repro.cache import (
    cache_for,
    estimate_index_bytes,
    fingerprint_entries,
    fingerprint_rows,
)
from repro.cluster.metrics import QueryMetrics, StageMetrics, TaskMetrics
from repro.cluster.model import CostModel, Resource
from repro.cluster.simulation import simulate_dynamic
from repro.columnar.column import GeometryColumn
from repro.core.operators import SpatialOperator
from repro.core.probe import BroadcastIndex, naive_spatial_join
from repro.errors import ReproError
from repro.geometry.base import Geometry
from repro.geometry.wkt import loads as wkt_loads
from repro.obs.events import EventLog, get_event_log, install_event_log
from repro.obs.tracer import get_tracer
from repro.runtime.config import RuntimeConfig
from repro.runtime.pool import SerialBackend, current_worker_id, make_pool
from repro.runtime.recovery import RecoveryContext, run_recovered
from repro.runtime.shipping import ObsCapture, apply_capture, capture_observability

__all__ = ["spatial_join", "spatial_join_pairs", "JoinConfig", "JoinResult"]

_METHODS = ("auto", "broadcast", "partitioned", "dual-tree", "naive", "index")


@dataclass(frozen=True)
class JoinConfig:
    """All knobs of :func:`spatial_join` as one value.

    ``spatial_join(left, right, config=JoinConfig(...))`` takes every
    knob; its loose keywords cover the common subset.  A call that passes
    ``config`` together with a loose keyword set to a non-default value
    raises rather than silently dropping it.  (The legacy loose
    ``profile=True`` call shape, which used to return a ``(pairs,
    profile)`` tuple, completed its deprecation cycle and now raises.)

    ``workers`` is the parallelism the optimizer prices parallel plans
    against (and the partitioned method's simulated task slots);
    ``num_tiles``/``skew_factor``/``sample_size`` tune the partitioned
    plan's skew-aware tiling.

    ``batch_size`` is the row-batch granularity shared with the Impala
    substrate: how many probes each batched kernel dispatch (and each
    probe task) covers.  It must be a positive integer.

    ``runtime`` is the execution policy
    (:class:`~repro.runtime.config.RuntimeConfig`) and the only place
    the run's real parallelism and event log are set: its ``executors``
    fans probe chunks / tile joins out to worker processes (unlike
    ``workers``, which only scales the *simulated* task slots, it changes
    wall-clock time and nothing else), and its ``events_out`` names the
    JSONL file that receives the structured event log (the CLI form is
    ``python -m repro.bench profile --events-out PATH``;
    ``python -m repro.bench monitor PATH`` replays it).  It also carries the
    retry / speculation budgets, an optional
    :class:`~repro.runtime.faults.FaultPlan` and the cache budget.

    ``explain`` selects the plan-introspection surface (DESIGN.md §15):
    ``"off"`` (default) adds nothing; ``"plan"`` attaches an estimate-only
    :class:`~repro.obs.explain.ExplainReport` to the result;
    ``"analyze"`` additionally runs the query under full metrics and
    overlays the measured per-operator actuals onto the same tree,
    flagging estimates that are off by more than ``explain_ratio``.
    Both are observers only: pairs, counters, profiles, simulated seconds and
    events are byte-identical whatever their values.
    """

    operator: SpatialOperator | str = SpatialOperator.WITHIN
    radius: float = 0.0
    engine: str = "fast"
    method: str = "auto"
    profile: bool = False
    cost_model: CostModel | None = None
    workers: int = 1
    num_tiles: int | None = None
    skew_factor: float = 2.0
    sample_size: int | None = None
    batch_size: int = 1024
    runtime: RuntimeConfig = RuntimeConfig()
    explain: str = "off"
    explain_ratio: float = 4.0

    def __post_init__(self) -> None:
        for name in ("batch_size", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ReproError(f"{name} must be a positive integer, got {value!r}")
        if self.explain not in ("off", "plan", "analyze"):
            raise ReproError(
                f"explain must be 'off', 'plan' or 'analyze', got {self.explain!r}"
            )
        if not self.explain_ratio > 1.0:
            raise ReproError(
                f"explain_ratio must be > 1, got {self.explain_ratio!r}"
            )
        if not isinstance(self.runtime, RuntimeConfig):
            raise ReproError(
                f"runtime must be a RuntimeConfig, got {type(self.runtime).__name__}"
            )

    def with_(self, **changes) -> "JoinConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class JoinResult(_SequenceABC):
    """The outcome of a spatial join.

    Behaves like the plain ``list[(left_id, right_id)]`` the API used to
    return (iteration, ``len``, indexing, ``==`` against lists), so
    existing callers keep working, while exposing:

    * ``pairs`` — the matching id pairs;
    * ``profile`` — a :class:`~repro.obs.profile.QueryProfile` when the
      join ran with ``profile=True``, else ``None``;
    * ``plan`` — the optimizer's :class:`~repro.optimizer.PlanChoice`
      when ``method="auto"`` chose the strategy, else ``None``;
    * ``stats`` — the sampled :class:`~repro.optimizer.JoinStats` backing
      that choice, else ``None``;
    * ``method`` — the strategy that actually executed;
    * ``explain_report`` — the :class:`~repro.obs.explain.ExplainReport`
      when the join ran with ``explain="plan"`` / ``"analyze"``, else
      ``None``.
    """

    __hash__ = None  # mutable-list semantics, like the list it replaces

    def __init__(
        self,
        pairs: list[tuple[Any, Any]],
        profile=None,
        plan=None,
        stats=None,
        method: str | None = None,
        explain_report=None,
    ):
        self.pairs = pairs
        self.profile = profile
        self.plan = plan
        self.stats = stats
        self.method = method
        self.explain_report = explain_report

    def __getitem__(self, index):
        return self.pairs[index]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if isinstance(other, JoinResult):
            return self.pairs == other.pairs
        if isinstance(other, list):
            return self.pairs == other
        if isinstance(other, tuple):
            return tuple(self.pairs) == other
        return NotImplemented

    def __repr__(self) -> str:
        method = f" method={self.method!r}" if self.method else ""
        return f"JoinResult({self.pairs!r}{method})"

    def explain(self) -> str:
        """The optimizer's plan summary (empty string when none)."""
        if self.plan is None:
            return ""
        return "\n".join(self.plan.explain())

    def explain_analyze(self):
        """The estimate-vs-actual :class:`~repro.obs.explain.ExplainReport`.

        Returns the report attached by ``explain="analyze"`` directly.
        Joins that ran with ``profile=True`` but without the analyze knob
        still get a report, lazily built from the query profile (actuals
        and skew only — no per-operator estimates, since the plan was not
        priced operator-by-operator at run time).  Anything else raises
        with guidance.
        """
        if self.explain_report is not None and self.explain_report.mode == "analyze":
            return self.explain_report
        from repro.obs.explain import overlay_profile, report_from_profile

        if self.explain_report is not None and self.profile is not None:
            return overlay_profile(self.explain_report, self.profile)
        if self.profile is not None:
            return report_from_profile(self.profile, method=self.method)
        raise ReproError(
            "explain_analyze() needs measured actuals — run the join with"
            " config=JoinConfig(explain='analyze') (or at least"
            " profile=True) and call it on that result"
        )


def _normalise(
    entries: Iterable[tuple[Any, Geometry | str]],
    metrics: TaskMetrics | None = None,
) -> list[tuple[Any, Geometry]]:
    normalised = []
    for entry in entries:
        try:
            payload, geometry = entry
        except (TypeError, ValueError):
            raise ReproError(
                f"expected (id, geometry) pairs, got {type(entry).__name__}"
                f" {entry!r}"
            ) from None
        if isinstance(geometry, str):
            if metrics is not None:
                metrics.add(Resource.WKT_BYTES, float(len(geometry)))
            geometry = wkt_loads(geometry)
        if not isinstance(geometry, Geometry):
            raise ReproError(
                f"expected Geometry or WKT string, got {type(geometry).__name__}"
            )
        normalised.append((payload, geometry))
    return normalised


def _normalise_cached(entries, metrics, cache) -> list[tuple[Any, Geometry]]:
    """`_normalise` through the cross-query parsed-column cache.

    The key is a content fingerprint of the *raw* rows (payloads plus WKT
    strings / geometry coordinates), so re-submitting the same table skips
    the WKT parse while a mutated or different table misses.  Counter
    identity: the entry stores the exact ``WKT_BYTES`` total the parse
    accrued, and a hit charges that same total — profiles and simulated
    seconds cannot tell the difference.  Inputs whose payloads the
    fingerprinter does not understand simply bypass the cache.
    """
    if cache is None:
        return _normalise(entries, metrics)
    entries = entries if isinstance(entries, list) else list(entries)
    if not any(isinstance(geometry, str) for _, geometry in entries):
        # Nothing to parse: caching would only add hashing overhead.
        return _normalise(entries, metrics)
    try:
        key = fingerprint_rows(entries, "parsed-column")
    except TypeError:
        return _normalise(entries, metrics)
    cached = cache.get(key, "parsed-column")
    if cached is not None:
        normalised, wkt_chars = cached
        if metrics is not None and wkt_chars:
            metrics.add(Resource.WKT_BYTES, wkt_chars)
        return list(normalised)
    parse_metrics = TaskMetrics()
    normalised = _normalise(entries, parse_metrics)
    wkt_chars = parse_metrics.counts.get(Resource.WKT_BYTES, 0.0)
    if metrics is not None and wkt_chars:
        metrics.add(Resource.WKT_BYTES, wkt_chars)
    cache.put(key, "parsed-column", (normalised, wkt_chars),
              build_cost=float(wkt_chars))
    return list(normalised)


def _broadcast_index_key(right_entries, op, cfg):
    """Cache key for the broadcast build side: dataset + predicate context."""
    return fingerprint_entries(
        right_entries, "broadcast-index", op.value, float(cfg.radius), cfg.engine
    )


def _build_broadcast_index(right_entries, op, cfg, cache, key=None):
    """Build the broadcast index, or reuse a cache-resident one.

    A hit returns the very same index object a cold build would have
    produced from equal content — probes charge delta-based units, so
    counters, profiles and pairs are byte-identical either way; only the
    STR-tree construction wall-clock is saved.
    """
    if cache is None:
        return BroadcastIndex.build(
            right_entries, op, radius=cfg.radius, engine=cfg.engine
        )
    if key is None:
        key = _broadcast_index_key(right_entries, op, cfg)
    index = cache.get(key, "broadcast-index")
    if index is None:
        index = BroadcastIndex.build(
            right_entries, op, radius=cfg.radius, engine=cfg.engine
        )
        cache.put(key, "broadcast-index", index,
                  size_bytes=estimate_index_bytes(index),
                  build_cost=sum(index.build_cost_units().values()))
    return index


def _coerce_operator(operator: SpatialOperator | str) -> SpatialOperator:
    if isinstance(operator, str):
        try:
            return SpatialOperator(operator.lower())
        except ValueError:
            raise ReproError(f"unknown operator {operator!r}") from None
    return operator


def spatial_join(
    left: Iterable[tuple[Any, Geometry | str]],
    right: Iterable[tuple[Any, Geometry | str]],
    operator: SpatialOperator | str = SpatialOperator.WITHIN,
    radius: float = 0.0,
    engine: str = "fast",
    method: str = "auto",
    profile: bool = False,
    cost_model: CostModel | None = None,
    workers: int = 1,
    runtime: RuntimeConfig = RuntimeConfig(),
    explain: str = "off",
    config: JoinConfig | None = None,
) -> JoinResult:
    """Join two (id, geometry) collections; returns matching id pairs.

    ``operator`` accepts a :class:`SpatialOperator` or its name
    (``"within"``, ``"nearestd"``, ``"intersects"``, ``"contains"``).
    ``method`` is one of:

    * ``"auto"`` (default) — sample both inputs and run the cheapest plan
      per :func:`repro.optimizer.choose_plan`;
    * ``"broadcast"`` — index the right side, probe with the left (the
      paper's broadcast join; ``"index"`` is the historical alias);
    * ``"partitioned"`` — skew-aware tiled join with reference-point
      duplicate suppression;
    * ``"dual-tree"`` — synchronized traversal of two R-trees;
    * ``"naive"`` — the O(n*m) nested loop, ground truth in tests.

    The returned :class:`JoinResult` compares equal to the plain list of
    pairs older code expects.  With ``config=JoinConfig(profile=True)``
    it carries a :class:`~repro.obs.profile.QueryProfile` whose phases
    hold the run's resource counters.  The historical *loose-keyword*
    ``profile=True`` call (which returned a ``(pairs, profile)`` tuple)
    completed its deprecation cycle and now raises.

    ``runtime`` is the :class:`~repro.runtime.config.RuntimeConfig` the
    join runs under: executor pool, event log, retry / speculation
    policy, fault plan, cache budget.  ``config`` replaces the loose
    keywords entirely; passing it with any of them set to a non-default
    value raises :class:`~repro.errors.ReproError` naming them.

    Example::

        >>> from repro import spatial_join
        >>> pairs = spatial_join(
        ...     [(0, "POINT (1 1)"), (1, "POINT (9 9)")],
        ...     [("cell", "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))")],
        ... )
        >>> pairs == [(0, 'cell')]
        True
    """
    if config is None and profile:
        raise ReproError(
            "spatial_join(..., profile=True) as a loose keyword used to"
            " return the legacy (pairs, profile) tuple; that shape"
            " completed its deprecation cycle and was removed — pass"
            " config=JoinConfig(profile=True) and read .pairs / .profile"
            " off the returned JoinResult"
        )
    cfg = _resolve_config(
        config,
        operator=operator,
        radius=radius,
        engine=engine,
        method=method,
        profile=profile,
        cost_model=cost_model,
        workers=workers,
        runtime=runtime,
        explain=explain,
    )
    return _execute_join(left, right, cfg)


def _resolve_config(config: JoinConfig | None, **loose) -> JoinConfig:
    """The :class:`JoinConfig` a call runs with.

    Without ``config`` the loose keywords build one.  With it, every
    loose keyword must hold its default: one that does not would be
    silently dropped, so it raises :class:`ReproError` naming it.
    """
    if "operator" in loose:
        loose["operator"] = _coerce_operator(loose["operator"])
    if config is None:
        return JoinConfig(**loose)
    defaults = {f.name: f.default for f in fields(JoinConfig)}
    ignored = sorted(
        name for name, value in loose.items()
        if name not in defaults or value != defaults[name]
    )
    if ignored:
        raise ReproError(
            "config= replaces the loose keywords, so "
            + ", ".join(f"{name}=" for name in ignored)
            + " would be ignored; set "
            + ("it" if len(ignored) == 1 else "them")
            + " on the JoinConfig instead"
        )
    return config


def _execute_join(left, right, cfg: JoinConfig) -> JoinResult:
    """Event-log envelope around :func:`_run_join`.

    With ``events_out`` set, the join owns a JSONL-backed
    :class:`EventLog` for its duration; otherwise the ambient sink (an
    enclosing :func:`~repro.obs.events.logging_events` block, or the
    disabled no-op default) is left in place.
    """
    events_out = cfg.runtime.events_out
    owned = EventLog(path=events_out) if events_out else None
    try:
        with install_event_log(owned):
            return _run_join(left, right, cfg)
    finally:
        if owned is not None:
            owned.close()


def _run_join(left, right, cfg: JoinConfig) -> JoinResult:
    op = _coerce_operator(cfg.operator)
    if cfg.method not in _METHODS:
        raise ReproError(
            f"method must be one of {', '.join(sorted(set(_METHODS)))},"
            f" got {cfg.method!r}"
        )
    model = cfg.cost_model or CostModel()
    # One recovery context per join call: blacklist state and fault
    # consumption are scoped to the query, like the engines' drivers.
    recovery = RecoveryContext(cfg.runtime)
    # None unless the runtime opts in via cache_budget_bytes.
    cache = cache_for(cfg.runtime)
    tracer = get_tracer()
    # Pure observers: nothing below this block changes when explain is on.
    explain_on = cfg.explain != "off"
    raw_wkt = False
    cache_before = None
    if explain_on:
        left = left if isinstance(left, list) else list(left)
        right = right if isinstance(right, list) else list(right)
        raw_wkt = any(isinstance(g, str) for _, g in left) or any(
            isinstance(g, str) for _, g in right
        )
        if cache is not None:
            cache_before = cache.stats.as_dict()
    query = (
        QueryMetrics(name="spatial-join")
        if cfg.profile or cfg.explain == "analyze"
        else None
    )
    log = get_event_log()
    events_query = log.next_id("query") if log.enabled else None
    if events_query is not None:
        log.emit(
            "QueryStart",
            query=events_query,
            name="spatial-join",
            engine="core",
            wall_start=time.perf_counter(),
        )

    if query is not None:
        parse_metrics = TaskMetrics()
        with tracer.span("parse", category="phase") as span:
            left_entries = _normalise_cached(left, parse_metrics, cache)
            right_entries = _normalise_cached(right, parse_metrics, cache)
            span.add_sim(parse_metrics.seconds(model))
        _add_stage(query, "parse", [parse_metrics], model)
    else:
        left_entries = _normalise_cached(left, None, cache)
        right_entries = _normalise_cached(right, None, cache)

    method = "broadcast" if cfg.method == "index" else cfg.method
    plan = None
    stats = None
    bindex_key = None
    if cache is not None:
        bindex_key = _broadcast_index_key(right_entries, op, cfg)
    # Residency of the broadcast build side *at planning time*.  A
    # cache-resident build side makes broadcast (nearly) free to set up,
    # so the planner is told (a warm cache can flip the plan) and the
    # explain report records it before execution can warm the cache.
    # The peek is a plain containment test — it must not count a
    # hit/miss the subsequent build lookup will count again.
    build_resident = bindex_key is not None and bindex_key in cache
    if method == "auto":
        with tracer.span("plan", category="phase") as span:
            plan = _choose_plan(
                left_entries, right_entries, op, cfg, model, build_resident
            )
            span.set_attr("method", plan.method)
        stats = plan.stats
        method = plan.method

    if method == "naive":
        pairs = _naive_join(left_entries, right_entries, op, cfg, model, query)
    elif method == "broadcast":
        pairs = _broadcast_join(
            left_entries, right_entries, op, cfg, model, query, events_query,
            recovery, cache=cache, cache_key=bindex_key,
        )
    elif method == "dual-tree":
        pairs = _dual_tree_join(left_entries, right_entries, op, cfg, model, query)
    elif method == "partitioned":
        pairs = _partitioned_join_local(
            left_entries, right_entries, op, cfg, model, query, plan, events_query,
            recovery, cache=cache,
        )
    else:  # pragma: no cover - guarded by the _METHODS check above
        raise ReproError(f"unhandled method {method!r}")

    if events_query is not None:
        log.emit(
            "QueryEnd",
            query=events_query,
            name="spatial-join",
            sim_seconds=query.simulated_seconds if query is not None else None,
            rows=len(pairs),
            wall_end=time.perf_counter(),
        )

    profile_obj = None
    if query is not None:
        profile_obj = query.to_profile(model)
        profile_obj.root.info["method"] = method
        if plan is not None:
            profile_obj.root.info["plan_est_seconds"] = plan.estimated_seconds
            if plan.partitioning is not None:
                profile_obj.root.info["plan_tiles"] = len(plan.partitioning)
    report = None
    if explain_on:
        report = _build_explain_report(
            cfg, op, model, plan, method, left_entries, right_entries,
            raw_wkt, cache, build_resident, cache_before, profile_obj,
        )
    return JoinResult(
        pairs=pairs, profile=profile_obj, plan=plan, stats=stats,
        method=method, explain_report=report,
    )


def _choose_plan(left_entries, right_entries, op, cfg, model, cached_build):
    """:func:`repro.optimizer.choose_plan` priced with ``cfg``'s knobs."""
    from repro.optimizer import choose_plan

    return choose_plan(
        left_entries,
        right_entries,
        operator=op,
        radius=cfg.radius,
        cost_model=model,
        workers=cfg.workers,
        num_tiles=cfg.num_tiles,
        skew_factor=cfg.skew_factor,
        engine=cfg.engine,
        sample_size=cfg.sample_size,
        cached_build=cached_build,
    )


def _build_explain_report(
    cfg, op, model, plan, method, left_entries, right_entries, raw_wkt,
    cache, build_resident, cache_before, profile_obj,
):
    """Price the executed plan and (for ANALYZE) overlay measured actuals.

    Runs strictly after the join: it reads the already-built profile and
    plan, re-prices via the same deterministic chooser when the caller
    forced a method, and never touches metrics, events or the cache's
    hit/miss counters (residency checks are containment peeks).
    """
    from repro.obs.explain import build_plan_report, overlay_profile

    pricing = plan
    if pricing is None:
        pricing = _choose_plan(
            left_entries, right_entries, op, cfg, model, build_resident
        )
    cache_info = {
        "enabled": cache is not None,
        "build_resident": build_resident,
    }
    if cache is not None and cache_before is not None:
        after = cache.stats.as_dict()
        cache_info["hits_delta"] = after["hits"] - cache_before["hits"]
        cache_info["misses_delta"] = after["misses"] - cache_before["misses"]
        cache_info["residency"] = cache.residency()
    report = build_plan_report(
        pricing,
        method=method if plan is None else None,
        model=model,
        engine=cfg.engine,
        parse_wkt=raw_wkt,
        ratio=cfg.explain_ratio,
        cache_info=cache_info,
    )
    if cfg.explain == "analyze" and profile_obj is not None:
        overlay_profile(report, profile_obj, cache_info=cache_info)
    return report


def _add_stage(
    query: QueryMetrics,
    name: str,
    tasks: list[TaskMetrics],
    model: CostModel,
    makespan: float | None = None,
) -> None:
    stage = StageMetrics(name=name, tasks=tasks)
    if makespan is None:
        makespan = max((task.seconds(model) for task in tasks), default=0.0)
    stage.makespan_seconds = makespan
    query.add_stage(stage)


def _naive_join(left_entries, right_entries, op, cfg, model, query):
    tracer = get_tracer()
    with tracer.span("join", category="phase") as span:
        pairs = naive_spatial_join(left_entries, right_entries, op, cfg.radius)
        if query is not None:
            join_metrics = TaskMetrics()
            join_metrics.add(
                Resource.INDEX_VISIT,
                float(len(left_entries)) * float(len(right_entries)),
            )
            join_metrics.add(Resource.ROWS_OUT, float(len(pairs)))
            span.add_sim(join_metrics.seconds(model))
            _add_stage(query, "join", [join_metrics], model)
        span.set_attr("rows_out", len(pairs))
    return pairs


def _emit_task_start(log, events_ctx, index, label, partition) -> None:
    query_id, stage_id = events_ctx
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


def _emit_task_end(log, events_ctx, index, label, partition, sim_seconds, counters) -> None:
    query_id, stage_id = events_ctx
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
        sim_seconds=sim_seconds,
        counters=counters,
        failures=0,
    )


def _submit_stage(events_query, name: str, num_tasks: int):
    """Emit StageSubmitted; returns the ``(query, stage)`` pair its tasks
    tag their events with, or None when the event log is off."""
    log = get_event_log()
    if events_query is None or not log.enabled:
        return None
    stage = log.next_id("stage")
    log.emit(
        "StageSubmitted",
        query=events_query,
        stage=stage,
        name=name,
        num_tasks=num_tasks,
    )
    return events_query, stage


def _task_pool(cfg: JoinConfig):
    """The pool join tasks run on: the executors pool, or an inline
    :class:`SerialBackend` when that pool is serial or cannot run
    closures (tasks read the fork-inherited index and columns)."""
    pool = make_pool(cfg.runtime.executors)
    if pool.is_serial or not pool.supports_closures:
        return SerialBackend()
    return pool


def _run_join_tasks(pool, tasks, model, events_ctx, recovery, scope):
    """Run ``tasks`` on ``pool``; returns their (pairs, TaskMetrics) in order.

    ``tasks`` are ``(label, partition, body)`` triples whose ``body()``
    returns the task's pairs and the :class:`TaskMetrics` it accrued.
    With the event log on (``events_ctx`` is a ``(query, stage)`` pair)
    each task is framed in TaskStart / TaskEnd; a pool worker buffers
    those in an :class:`ObsCapture` the driver replays in task order.
    Under an active fault plan the tasks go through
    :func:`run_recovered` on whatever pool runs them, the inline one
    included, and always buffer their events, so injection, recovery
    and the event stream are the same at every executor count.
    """
    chaos = recovery is not None and recovery.active
    ship = events_ctx is not None and (chaos or not pool.is_serial)

    def make_thunk(task_index, label, partition, body):
        def run():
            capture = ObsCapture() if ship else None
            with capture_observability(capture) if ship else nullcontext():
                log = get_event_log()
                if events_ctx is not None:
                    _emit_task_start(log, events_ctx, task_index, label, partition)
                pairs, task = body()
                if events_ctx is not None:
                    _emit_task_end(
                        log, events_ctx, task_index, label, partition,
                        task.seconds(model), dict(task.counts),
                    )
            return pairs, task, capture

        return run

    thunks = [make_thunk(index, *task) for index, task in enumerate(tasks)]
    if chaos:
        outcomes = run_recovered(
            pool,
            thunks,
            recovery,
            scope=scope,
            events=events_ctx,
            sim_seconds=lambda index_, value: value[1].seconds(model),
        )
        results = [outcome.value for outcome in outcomes]
    else:
        results = pool.run(thunks)
    for _, _, capture in results:
        if capture is not None:
            apply_capture(capture)
    return [(pairs, task) for pairs, task, _ in results]


def _broadcast_join(
    left_entries, right_entries, op, cfg, model, query, events_query=None,
    recovery=None, cache=None, cache_key=None,
):
    """The paper's broadcast join: index the right side, then probe it
    with the left side in ``batch_size`` chunks, one task per chunk.
    With profiling on, build and probe become exactly-billed stages."""
    tracer = get_tracer()
    size = cfg.batch_size
    starts = range(0, len(left_entries), size)
    events_ctx = _submit_stage(events_query, "probe", len(starts))
    build_metrics = TaskMetrics()
    with tracer.span("build", category="phase") as span:
        # The build stage charges index.build_cost_units() whether the
        # index was rebuilt or reused — a warm query simulates the same
        # cluster, it just skips the real STR-tree construction.
        index = _build_broadcast_index(right_entries, op, cfg, cache, cache_key)
        for resource, amount in index.build_cost_units().items():
            build_metrics.add(resource, amount)
        span.add_sim(build_metrics.seconds(model))
        span.set_attr("index_entries", len(index))
    if query is not None:
        _add_stage(query, "build", [build_metrics], model)

    # One packed column over the probe side; each chunk probes a
    # zero-copy slice of it, or its geometry objects when unpackable.
    left_column = GeometryColumn.from_entries(left_entries)

    def make_body(start):
        chunk = left_entries[start : start + size]
        if left_column is not None:
            probe_input = left_column.slice(start, start + size)
        else:
            probe_input = [geometry for _, geometry in chunk]

        def probe_chunk():
            matches_per_row, totals = index.probe_batch(probe_input)
            task = TaskMetrics()
            for resource, amount in totals.items():
                task.add(resource, amount)
            chunk_pairs = [
                (left_id, right_id)
                for (left_id, _), matches in zip(chunk, matches_per_row)
                for right_id in matches
            ]
            return chunk_pairs, task

        return probe_chunk

    tasks = [
        (f"chunk-{task_index}", task_index, make_body(start))
        for task_index, start in enumerate(starts)
    ]
    pairs: list[tuple[Any, Any]] = []
    probe_metrics = TaskMetrics()
    with tracer.span("probe", category="phase") as span:
        for chunk_pairs, task in _run_join_tasks(
            _task_pool(cfg), tasks, model, events_ctx, recovery,
            "spatial-join:probe",
        ):
            probe_metrics.merge(task)
            pairs.extend(chunk_pairs)
        span.add_sim(probe_metrics.seconds(model))
        span.set_attr("rows_out", len(pairs))
    if query is not None:
        _add_stage(query, "probe", [probe_metrics], model)
    return pairs


def _dual_tree_join(left_entries, right_entries, op, cfg, model, query):
    """Filter with a synchronized R-tree join (both sides indexed), then
    refine.  Section II's 'both can be indexed' option — it beats the
    probe-per-row plan when the left side is also large and indexable.
    """
    from repro.core.probe import refine_pair
    from repro.geometry.engine import create_engine
    from repro.index.rtree import STRtree

    tracer = get_tracer()
    engine_obj = create_engine(cfg.engine)
    expand = cfg.radius if op.needs_radius else 0.0
    build_metrics = TaskMetrics() if query is not None else None
    with tracer.span("build", category="phase"):
        left_tree = STRtree(
            ((left_id, geometry), geometry.envelope)
            for left_id, geometry in left_entries
            if not geometry.is_empty
        )
        right_tree = STRtree(
            ((right_id, geometry, engine_obj.prepare(geometry)), geometry.envelope)
            for right_id, geometry in right_entries
            if not geometry.is_empty
        )
        if build_metrics is not None:
            build_metrics.add(
                Resource.INDEX_BUILD, float(len(left_tree) + len(right_tree))
            )
    if query is not None:
        _add_stage(query, "build", [build_metrics], model)
    pairs = []
    join_metrics = TaskMetrics() if query is not None else None
    with tracer.span("join", category="phase") as span:
        for (left_id, left_geom), (right_id, right_geom, handle) in left_tree.join(
            right_tree, expand=expand
        ):
            if join_metrics is not None:
                join_metrics.add(
                    Resource.REFINE_VERTEX_FAST
                    if cfg.engine != "slow"
                    else Resource.REFINE_VERTEX_SLOW,
                    float(max(right_geom.num_points, 2)),
                )
            if refine_pair(
                engine_obj, op, left_geom, right_geom, handle, cfg.radius
            ):
                pairs.append((left_id, right_id))
        if join_metrics is not None:
            join_metrics.add(Resource.ROWS_OUT, float(len(pairs)))
        span.set_attr("rows_out", len(pairs))
    if query is not None:
        _add_stage(query, "join", [join_metrics], model)
    return pairs


def _record_bytes(geometry: Geometry) -> float:
    return 48.0 + 16.0 * geometry.num_points


def _join_one_tile(
    tile_id, tile_left, left_probe, right_source, tiles, op, cfg, task, expand,
):
    """Index-join one tile, owner-rule deduped; accrues costs into ``task``.

    This is the partitioned join's task granularity — the unit the
    executors pool fans out — so it must stay free of driver-global side
    effects (it only touches its own ``TaskMetrics``).  ``left_probe`` is
    what :meth:`BroadcastIndex.probe_batch` reads for ``tile_left`` and
    ``right_source`` what :meth:`BroadcastIndex.build` indexes: zero-copy
    slices of the whole-side columns, or the tile's objects when a side
    could not be packed.
    """
    index = BroadcastIndex.build(
        right_source, op, radius=cfg.radius, engine=cfg.engine
    )
    task.add(Resource.INDEX_BUILD, float(len(index)))
    matches_per_row, totals = index.probe_batch(left_probe)
    for resource, amount in totals.items():
        task.add(resource, amount)
    return tiles.owned_pairs(tile_id, tile_left, matches_per_row, expand)


def _partitioned_join_local(
    left_entries, right_entries, op, cfg, model, query, plan, events_query=None,
    recovery=None, cache=None,
):
    """Skew-aware tiled join over in-memory collections.

    Mirrors :func:`repro.core.partitioned_join.partitioned_spatial_join`:
    both sides are routed to every tile they overlap, each tile runs an
    indexed join, and the reference-point owner rule (lowest common tile
    emits) suppresses the duplicates replication would create.  Tiles come
    from the optimizer's skew-aware partitioner, so hot spots are split
    before tasks are formed.
    """
    from repro.optimizer import collect_join_stats
    from repro.optimizer.planner import derive_skew_aware_partitioning

    tracer = get_tracer()
    expand = cfg.radius if op.needs_radius else 0.0
    partitioning = plan.partitioning if plan is not None else None
    if partitioning is None:
        num_tiles = cfg.num_tiles or max(4, 2 * cfg.workers)
        layout_key = None
        if cache is not None:
            # Both sides shape the sampled stats and the tile layout, so
            # both belong in the key, along with every deriving knob.
            layout_key = fingerprint_entries(
                left_entries, "partition-layout", float(expand),
                num_tiles, float(cfg.skew_factor), cfg.engine,
                cfg.sample_size, fingerprint_entries(right_entries),
            )
            layout = cache.get(layout_key, "partition-layout")
            if layout is not None:
                stats, partitioning = layout
                if not (stats.left.count and stats.right.count):
                    return []
        if partitioning is None:
            sample_kwargs = (
                {"sample_size": cfg.sample_size} if cfg.sample_size else {}
            )
            stats = collect_join_stats(
                left_entries, right_entries, radius=expand, **sample_kwargs
            )
            if not (stats.left.count and stats.right.count):
                if layout_key is not None:
                    cache.put(layout_key, "partition-layout", (stats, None))
                return []
            with tracer.span("derive-partitioning", category="phase") as span:
                partitioning, _, _ = derive_skew_aware_partitioning(
                    stats,
                    num_tiles,
                    model,
                    skew_factor=cfg.skew_factor,
                    engine=cfg.engine,
                )
                span.set_attr("tiles", len(partitioning))
            if layout_key is not None:
                cache.put(
                    layout_key, "partition-layout", (stats, partitioning),
                    build_cost=float(stats.left.count + stats.right.count),
                )
    tiles = partitioning

    shuffle_metrics = TaskMetrics() if query is not None else None
    left_by_tile: dict[int, list] = {}
    right_by_tile: dict[int, list] = {}
    # Whole-side columns built once; each tile gets zero-copy slices
    # (row-index arrays into the shared buffers) instead of fresh object
    # lists for build and probe.  A side the column model cannot hold
    # stays on its objects.
    left_column = GeometryColumn.from_entries(left_entries)
    right_column = GeometryColumn.from_entries(
        (pair, pair[1]) for pair in right_entries
    )
    left_rows_by_tile: dict[int, list[int]] = {}
    right_rows_by_tile: dict[int, list[int]] = {}
    with tracer.span("route", category="phase"):
        for row, (left_id, geometry) in enumerate(left_entries):
            if geometry.is_empty:
                continue
            for tile in tiles.route(geometry.envelope):
                left_by_tile.setdefault(tile, []).append((left_id, geometry))
                left_rows_by_tile.setdefault(tile, []).append(row)
                if shuffle_metrics is not None:
                    shuffle_metrics.add(
                        Resource.SHUFFLE_BYTES, _record_bytes(geometry)
                    )
        for row, (right_id, geometry) in enumerate(right_entries):
            if geometry.is_empty:
                continue
            for tile in tiles.route(geometry.envelope.expand_by(expand)):
                right_by_tile.setdefault(tile, []).append((right_id, geometry))
                right_rows_by_tile.setdefault(tile, []).append(row)
                if shuffle_metrics is not None:
                    shuffle_metrics.add(
                        Resource.SHUFFLE_BYTES, _record_bytes(geometry)
                    )
    if shuffle_metrics is not None:
        _add_stage(query, "shuffle", [shuffle_metrics], model)

    def make_body(tile_id):
        # Sliced driver-side so a process pool ships only this tile's
        # buffers, not the whole column, with each task.
        tile_left = left_by_tile[tile_id]
        if left_column is not None:
            left_probe = left_column.take(left_rows_by_tile[tile_id])
        else:
            left_probe = [geometry for _, geometry in tile_left]
        if right_column is not None:
            right_source = right_column.take(right_rows_by_tile[tile_id])
        else:
            right_source = [(pair, pair[1]) for pair in right_by_tile[tile_id]]

        def join_tile():
            task = TaskMetrics()
            tile_pairs = _join_one_tile(
                tile_id, tile_left, left_probe, right_source, tiles, op, cfg,
                task, expand,
            )
            return tile_pairs, task

        return join_tile

    joinable = [
        tile_id for tile_id in sorted(left_by_tile) if right_by_tile.get(tile_id)
    ]
    events_ctx = _submit_stage(events_query, "join", len(joinable))
    tasks = [(f"tile-{tile_id}", tile_id, make_body(tile_id)) for tile_id in joinable]
    # A lone tile is not worth a process pool.
    pool = _task_pool(cfg) if len(tasks) > 1 else SerialBackend()
    pairs: list[tuple[Any, Any]] = []
    tile_tasks: list[TaskMetrics] = []
    with tracer.span("join", category="phase") as span:
        for tile_pairs, task in _run_join_tasks(
            pool, tasks, model, events_ctx, recovery, "spatial-join:join"
        ):
            pairs.extend(tile_pairs)
            tile_tasks.append(task)
        span.set_attr("rows_out", len(pairs))
        span.set_attr("tiles_joined", len(tile_tasks))
    if query is not None and tile_tasks:
        makespan = simulate_dynamic(
            [task.seconds(model) for task in tile_tasks], cfg.workers
        )
        _add_stage(query, "join", tile_tasks, model, makespan=makespan)
    return pairs


def spatial_join_pairs(
    left_geometries: Sequence[Geometry | str],
    right_geometries: Sequence[Geometry | str],
    operator: SpatialOperator | str = SpatialOperator.WITHIN,
    radius: float = 0.0,
    engine: str = "fast",
    method: str = "auto",
    profile: bool = False,
    cost_model: CostModel | None = None,
    workers: int = 1,
    runtime: RuntimeConfig = RuntimeConfig(),
    config: JoinConfig | None = None,
) -> JoinResult:
    """Positional variant: ids are the sequences' indexes.

    Forwards every option (``method``, ``profile``, ``cost_model``,
    ``runtime``, ``config``...) to :func:`spatial_join` — historically it
    silently dropped everything past ``engine``.
    """
    left = list(enumerate(left_geometries))
    right = list(enumerate(right_geometries))
    return spatial_join(
        left,
        right,
        operator,
        radius=radius,
        engine=engine,
        method=method,
        profile=profile,
        cost_model=cost_model,
        workers=workers,
        runtime=runtime,
        config=config,
    )
