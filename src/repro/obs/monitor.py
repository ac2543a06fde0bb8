"""Replay-driven cluster monitor: timelines, stage tables, stragglers.

Everything here consumes a structured event stream
(:mod:`repro.obs.events`) *after the fact* — the monitor never touches
live engine state, so the same report can be rendered from the in-memory
event list of a run that just finished or from a JSONL file written by a
run last week (``python -m repro.bench profile --events-out events.jsonl``,
replayed by ``python -m repro.bench monitor events.jsonl``).

Four views, stacked by :func:`monitor_report`:

* **per-worker Gantt timelines** — one ASCII lane per ``(pid, worker)``
  pair on the real wall clock ('█' busy, '·' idle), which is where PR 4's
  dynamic task placement becomes visible: a serial run is one solid
  driver lane, a pooled run is N interleaved worker lanes;
* **stage summary tables** — per-stage task counts and duration
  histograms (p50/p95/max via :class:`~repro.obs.registry.Histogram`)
  on the *simulated* clock, so the numbers are deterministic;
* **straggler detection** — the paper's skew diagnostic: any task whose
  simulated duration exceeds ``k×`` its stage's median is reported with
  its partition/tile id, making hot tiles attributable (Section V's
  static-vs-dynamic discussion, LocationSpark's sQSMonitor idea);
* **utilization accounting** — per-lane busy fraction and largest idle
  gap over the run's wall-clock span;
* **recovery timelines** — the schema-v2 recovery events (retries with
  backoff, speculative duplicates, blacklisted virtual workers, lineage
  recomputes, whole-query restarts) rendered chronologically, so a chaos
  run's healing is as inspectable as its stragglers;
* **cache activity** — the schema-v3 cross-query cache events summarised
  per artifact kind (hits/misses/evictions and bytes served from cache),
  shown only when the log contains any.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import CACHE_EVENT_TYPES, RECOVERY_EVENT_TYPES
from repro.obs.registry import Histogram

__all__ = [
    "TaskRecord",
    "parse_tasks",
    "stage_names",
    "median_sim_seconds",
    "render_timelines",
    "render_stage_summary",
    "detect_stragglers",
    "render_stragglers",
    "render_utilization",
    "render_recovery",
    "render_cache_activity",
    "monitor_report",
]


def median_sim_seconds(durations: list[float]) -> float:
    """Median of simulated durations, via the stage-table histogram.

    This is the statistic both :func:`detect_stragglers` (after the
    fact) and the speculation logic in :mod:`repro.runtime.recovery`
    (at run time) measure against — one definition, nearest-rank exact,
    order-independent.
    """
    return Histogram(list(durations)).percentile(50)


@dataclass
class TaskRecord:
    """One completed unit of work: a joined TaskStart/TaskEnd pair.

    Impala fragment instances (FragmentStart/FragmentEnd) are folded into
    the same shape — their stage is the synthetic ``"fragments"`` group —
    so every monitor view works for both engines.
    """

    query: int
    stage: object  # stage id (int) or "fragments"
    task: object  # task index or fragment node id
    partition: object
    label: str
    worker: object
    pid: object
    wall_start: float
    wall_end: float
    sim_seconds: float
    counters: dict = field(default_factory=dict)
    failures: int = 0

    @property
    def lane(self) -> str:
        """The timeline row this task renders on."""
        if self.worker is None:
            return "driver"
        return f"worker-{self.worker} (pid {self.pid})"


def _num(value, default: float = 0.0) -> float:
    """A numeric field that may be absent *or* present-but-null.

    Hand-written or truncated JSONL logs carry ``"sim_seconds": null``
    where the emitters write a float; ``record.get(key, 0.0)`` returns
    that ``None`` and a later histogram raises.  Treat null as missing.
    """
    return default if value is None else float(value)


def parse_tasks(events: list[dict]) -> list[TaskRecord]:
    """Join start/end events into :class:`TaskRecord` rows.

    Unpaired starts (a crashed query's tail) are dropped — the monitor
    reports completed work.  Null-valued numeric fields are treated as
    absent, so partially-written logs degrade instead of raising.
    """
    starts: dict[tuple, dict] = {}
    records: list[TaskRecord] = []
    for record in events:
        kind = record.get("event")
        if kind == "TaskStart":
            starts[("t", record.get("query"), record.get("stage"), record.get("task"))] = record
        elif kind == "FragmentStart":
            starts[("f", record.get("query"), record.get("fragment"))] = record
        elif kind == "TaskEnd":
            start = starts.pop(
                ("t", record.get("query"), record.get("stage"), record.get("task")),
                {},
            )
            records.append(
                TaskRecord(
                    query=record.get("query"),
                    stage=record.get("stage"),
                    task=record.get("task"),
                    partition=record.get("partition"),
                    label=record.get("label", f"task-{record.get('task')}"),
                    worker=record.get("worker"),
                    pid=record.get("pid"),
                    wall_start=_num(
                        start.get("wall_start", record.get("wall_end"))
                    ),
                    wall_end=_num(record.get("wall_end")),
                    sim_seconds=_num(record.get("sim_seconds")),
                    counters=record.get("counters") or {},
                    failures=int(_num(record.get("failures"))),
                )
            )
        elif kind == "FragmentEnd":
            start = starts.pop(("f", record.get("query"), record.get("fragment")), {})
            records.append(
                TaskRecord(
                    query=record.get("query"),
                    stage="fragments",
                    task=record.get("fragment"),
                    partition=record.get("fragment"),
                    label=f"fragment-{record.get('fragment')}",
                    worker=record.get("worker"),
                    pid=record.get("pid"),
                    wall_start=_num(
                        start.get("wall_start", record.get("wall_end"))
                    ),
                    wall_end=_num(record.get("wall_end")),
                    sim_seconds=_num(record.get("sim_seconds")),
                    counters=record.get("counters") or {},
                )
            )
    return records


def stage_names(events: list[dict]) -> dict[tuple, str]:
    """(query, stage) -> submitted stage name (for table headers)."""
    names: dict[tuple, str] = {}
    for record in events:
        if record.get("event") == "StageSubmitted":
            names[(record.get("query"), record.get("stage"))] = record.get("name", "?")
    return names


def _query_headers(events: list[dict]) -> list[str]:
    lines = []
    for record in events:
        if record.get("event") == "QueryStart":
            lines.append(
                f"query {record.get('query')}: {record.get('name', '?')} "
                f"[{record.get('engine', '?')}]"
            )
        elif record.get("event") == "QueryEnd":
            sim = record.get("sim_seconds")
            rows = record.get("rows")
            extra = f", {rows} row(s)" if rows is not None else ""
            lines.append(
                f"query {record.get('query')} done: "
                f"{sim:.3f}s simulated{extra}"
                if isinstance(sim, (int, float))
                else f"query {record.get('query')} done"
            )
    return lines


# -- timelines -------------------------------------------------------------------


def render_timelines(tasks: list[TaskRecord], width: int = 64) -> str:
    """ASCII Gantt: one lane per worker/driver on the real wall clock."""
    timed = [t for t in tasks if t.wall_end > t.wall_start]
    if not timed:
        return "(no wall-clock task intervals recorded)"
    t0 = min(t.wall_start for t in timed)
    t1 = max(t.wall_end for t in timed)
    span = max(t1 - t0, 1e-9)
    lanes: dict[str, list[TaskRecord]] = {}
    for t in timed:
        lanes.setdefault(t.lane, []).append(t)
    label_width = max(len(name) for name in lanes)
    lines = [f"wall-clock timeline ({span * 1000:.1f} ms total, {width} cols)"]
    for name in sorted(lanes):
        cells = [False] * width
        busy = 0.0
        for t in lanes[name]:
            busy += t.wall_end - t.wall_start
            lo = int((t.wall_start - t0) / span * width)
            hi = int((t.wall_end - t0) / span * width)
            for i in range(max(0, lo), min(width, max(hi, lo + 1))):
                cells[i] = True
        bar = "".join("█" if cell else "·" for cell in cells)
        pct = min(100.0, busy / span * 100.0)
        lines.append(
            f"  {name:<{label_width}} |{bar}| "
            f"{len(lanes[name])} task(s), busy {pct:.0f}%"
        )
    return "\n".join(lines)


# -- stage summaries -------------------------------------------------------------


def render_stage_summary(
    tasks: list[TaskRecord], names: dict[tuple, str] | None = None
) -> str:
    """Per-stage table of task-duration statistics on the simulated clock."""
    if not tasks:
        return "(no completed tasks in the log)"
    names = names or {}
    groups: dict[tuple, list[TaskRecord]] = {}
    for t in tasks:
        groups.setdefault((t.query, t.stage), []).append(t)
    header = (
        f"{'stage':<22} {'tasks':>5} {'sim total':>10} "
        f"{'p50':>8} {'p95':>8} {'max':>8} {'skew':>6}"
    )
    lines = ["stage summary (simulated seconds)", header, "-" * len(header)]
    for (query, stage), group in sorted(
        groups.items(), key=lambda item: (item[0][0], str(item[0][1]))
    ):
        hist = Histogram([t.sim_seconds for t in group])
        summary = hist.summary()
        median = hist.percentile(50)
        skew = summary["max"] / median if median > 0 else 0.0
        name = names.get((query, stage), str(stage))
        lines.append(
            f"{f'q{query}/{name}':<22} {summary['count']:>5} "
            f"{summary['sum']:>10.3f} {summary['p50']:>8.3f} "
            f"{summary['p95']:>8.3f} {summary['max']:>8.3f} {skew:>6.2f}"
        )
    return "\n".join(lines)


# -- stragglers ------------------------------------------------------------------


def detect_stragglers(tasks: list[TaskRecord], k: float = 2.0) -> list[dict]:
    """Tasks whose simulated duration exceeds ``k×`` their stage median.

    Detection runs on the simulated clock so the verdict is a property of
    the *workload* (hot tiles), not of scheduling luck — the same log
    normalized across executor counts yields the same stragglers.
    """
    groups: dict[tuple, list[TaskRecord]] = {}
    for t in tasks:
        groups.setdefault((t.query, t.stage), []).append(t)
    found: list[dict] = []
    for (query, stage), group in sorted(
        groups.items(), key=lambda item: (item[0][0], str(item[0][1]))
    ):
        if len(group) < 2:
            continue
        median = median_sim_seconds([t.sim_seconds for t in group])
        if median <= 0:
            continue
        for t in sorted(group, key=lambda t: (-t.sim_seconds, str(t.task))):
            if t.sim_seconds > k * median:
                found.append(
                    {
                        "query": query,
                        "stage": stage,
                        "task": t.task,
                        "partition": t.partition,
                        "label": t.label,
                        "sim_seconds": t.sim_seconds,
                        "median_seconds": median,
                        "ratio": t.sim_seconds / median,
                    }
                )
    return found


def render_stragglers(
    stragglers: list[dict], k: float, names: dict[tuple, str] | None = None
) -> str:
    names = names or {}
    if not stragglers:
        return f"stragglers (> {k:g}x stage median): none"
    lines = [f"stragglers (> {k:g}x stage median):"]
    for s in stragglers:
        stage = names.get((s["query"], s["stage"]), str(s["stage"]))
        lines.append(
            f"  q{s['query']}/{stage} {s['label']} partition={s['partition']}: "
            f"{s['sim_seconds']:.3f}s = {s['ratio']:.1f}x median "
            f"({s['median_seconds']:.3f}s)"
        )
    return "\n".join(lines)


# -- utilization -----------------------------------------------------------------


def render_utilization(tasks: list[TaskRecord]) -> str:
    """Per-lane busy fraction and largest idle gap on the wall clock."""
    timed = [t for t in tasks if t.wall_end > t.wall_start]
    if not timed:
        return "(no wall-clock intervals for utilization)"
    t0 = min(t.wall_start for t in timed)
    t1 = max(t.wall_end for t in timed)
    span = max(t1 - t0, 1e-9)
    lanes: dict[str, list[TaskRecord]] = {}
    for t in timed:
        lanes.setdefault(t.lane, []).append(t)
    lines = ["utilization (wall clock)"]
    for name in sorted(lanes):
        intervals = sorted(
            (t.wall_start, t.wall_end) for t in lanes[name]
        )
        busy = 0.0
        gap = intervals[0][0] - t0
        cursor = t0
        for lo, hi in intervals:
            if lo > cursor:
                gap = max(gap, lo - cursor)
            busy += hi - max(lo, cursor)
            cursor = max(cursor, hi)
        gap = max(gap, t1 - cursor)
        pct = min(100.0, busy / span * 100.0)
        lines.append(
            f"  {name}: busy {pct:.0f}% of {span * 1000:.1f} ms, "
            f"largest idle gap {gap * 1000:.1f} ms"
        )
    return "\n".join(lines)


# -- recovery timelines ----------------------------------------------------------


def render_recovery(
    events: list[dict], names: dict[tuple, str] | None = None
) -> str | None:
    """Chronological view of recovery decisions, or ``None`` if there were none.

    Events are rendered in emission order — which is deterministic task
    order, not wall-clock order, so the same chaos run reads identically
    at every executor count.
    """
    names = names or {}
    recs = [e for e in events if e.get("event") in RECOVERY_EVENT_TYPES]
    if not recs:
        return None
    lines = [f"recovery timeline ({len(recs)} event(s))"]
    for e in recs:
        kind = e.get("event")
        query = e.get("query")
        stage = names.get((query, e.get("stage")), e.get("stage"))
        where = f"q{query}" + (f"/{stage}" if stage is not None else "")
        if kind == "TaskRetried":
            lines.append(
                f"  {where} task {e.get('task')}: retry #{e.get('attempt')} "
                f"after {e.get('reason')} on vworker {e.get('vworker')} "
                f"(backoff {e.get('backoff_seconds', 0.0):.3f}s)"
            )
        elif kind == "TaskSpeculated":
            lines.append(
                f"  {where} task {e.get('task')}: speculative duplicate "
                f"launched at {e.get('effective_seconds', 0.0):.3f}s effective "
                f"vs median {e.get('median_seconds', 0.0):.3f}s "
                f"(x{e.get('factor', 1.0):g} slowdown) — {e.get('winner')} won"
            )
        elif kind == "WorkerBlacklisted":
            lines.append(
                f"  {where}: vworker {e.get('vworker')} blacklisted after "
                f"{e.get('failures')} failure(s) (last: {e.get('reason')})"
            )
        elif kind == "StageRecomputed":
            lines.append(
                f"  {where}: shuffle {e.get('shuffle_id')} map partition "
                f"{e.get('map_partition')} recomputed from lineage "
                f"({e.get('reason')})"
            )
        elif kind == "QueryRestarted":
            lines.append(
                f"  {where}: restart #{e.get('restart')} after {e.get('reason')} "
                f"in fragment {e.get('fragment')}"
            )
    return "\n".join(lines)


# -- cache activity --------------------------------------------------------------


def render_cache_activity(events: list[dict]) -> str | None:
    """Per-kind table of cross-query cache traffic, or ``None`` if silent.

    The v3 cache events (:data:`~repro.obs.events.CACHE_EVENT_TYPES`) are
    the *only* place reuse bookkeeping appears in a log — they are dropped
    by ``normalize_events``, so this section summarises exactly what the
    byte-identity invariant excludes from query-visible state.
    """
    recs = [e for e in events if e.get("event") in CACHE_EVENT_TYPES]
    if not recs:
        return None
    by_kind: dict[str, dict[str, int]] = {}
    hit_bytes: dict[str, int] = {}
    for e in recs:
        kind = e.get("kind", "?")
        row = by_kind.setdefault(
            kind, {"CacheHit": 0, "CacheMiss": 0, "CacheEvict": 0}
        )
        row[e["event"]] += 1
        if e["event"] == "CacheHit":
            hit_bytes[kind] = hit_bytes.get(kind, 0) + int(e.get("size_bytes", 0))
    header = (
        f"{'kind':<24} {'hits':>6} {'misses':>6} {'evicts':>6} "
        f"{'hit rate':>8} {'hit bytes':>10}"
    )
    lines = ["cache activity (cross-query reuse)", header, "-" * len(header)]
    for kind in sorted(by_kind):
        row = by_kind[kind]
        lookups = row["CacheHit"] + row["CacheMiss"]
        rate = row["CacheHit"] / lookups if lookups else 0.0
        lines.append(
            f"{kind:<24} {row['CacheHit']:>6} {row['CacheMiss']:>6} "
            f"{row['CacheEvict']:>6} {rate:>7.0%} {hit_bytes.get(kind, 0):>10}"
        )
    return "\n".join(lines)


# -- the full report -------------------------------------------------------------


def monitor_report(events: list[dict], k: float = 2.0, width: int = 64) -> str:
    """The complete monitor view of one event stream.

    An empty or zero-task log degrades to a one-line "no tasks recorded"
    notice (plus any query headers / recovery / cache sections the log
    does contain) instead of four empty-placeholder tables.
    """
    tasks = parse_tasks(events)
    names = stage_names(events)
    sections = []
    headers = _query_headers(events)
    if headers:
        sections.append("\n".join(headers))
    if tasks:
        sections.append(render_stage_summary(tasks, names))
        sections.append(render_timelines(tasks, width=width))
        sections.append(
            render_stragglers(detect_stragglers(tasks, k=k), k, names)
        )
        sections.append(render_utilization(tasks))
    else:
        sections.append("no tasks recorded")
    recovery = render_recovery(events, names)
    if recovery:
        sections.append(recovery)
    cache_activity = render_cache_activity(events)
    if cache_activity:
        sections.append(cache_activity)
    heartbeats = [e for e in events if e.get("event") == "WorkerHeartbeat"]
    if heartbeats:
        workers = sorted(
            {(e.get("worker"), e.get("pid")) for e in heartbeats},
            key=lambda pair: (str(pair[0]), str(pair[1])),
        )
        sections.append(
            f"{len(heartbeats)} worker heartbeat(s) from "
            + ", ".join(f"worker-{w} (pid {p})" for w, p in workers)
        )
    return "\n\n".join(sections)
