"""Timing shims around the public entry points of each layer.

A shim wraps one function or method of the program.  While it is
installed, every call opens a span (name, start, end, parent, query) on a
:class:`Recorder` and adds to the span name's call count; optional
``after`` hooks add per-call counts (tiles routed, candidates, bytes).

Self time is computed online: each open span keeps the seconds its child
spans covered, and on close its self time is its duration minus that.
Spans nest strictly on one thread, so this equals duration minus the
union of the children's intervals.

Pool workers are separate processes, so their spans cannot reach the
driver's recorder.  Inside a worker a closing span is written to the
program's metrics registry instead: its fields go into a histogram named
after the span, and its call and counts into counters.  The executor
pool already ships each task's registry writes back in its
``ObsCapture`` and merges them on the driver (histogram values are
appended, so the fields of one span stay adjacent), where
:meth:`Recorder.absorb_registry` turns them back into worker spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.obs.registry import REGISTRY
from repro.runtime.pool import current_worker_id

WORKER_KEY = "perfbench."
# Fields of one worker span, in the order they are written to its histogram.
WORKER_SPAN_FIELDS = ("pid", "seq", "parent", "start", "end", "self")


class Recorder:
    """Spans and counts of the traced queries of one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_query = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.query = -1
        # Spans closed in pool workers, one row of WORKER_SPAN_FIELDS each;
        # ``parent`` is the enclosing span's ``seq`` in the same worker, or -1.
        self.worker_span_name = array("i")
        self.worker_span_query = array("i")
        self.worker_span_fields = array("d")
        self._seq = 0
        # Open spans, innermost last: [name, start, child_seconds, index,
        # outermost, in_worker]; index is the span's row on the driver, its
        # seq in a worker.  A forked worker inherits the driver's open spans.
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self.self_seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.worker_self_seconds: dict[str, float] = {}
        self.worker_calls: dict[str, int] = {}

    # -- span lifecycle -------------------------------------------------------

    def depth(self, name: str) -> int:
        """How many spans called ``name`` are open on this process."""
        return self._depth.get(name, 0)

    def enter(self, name: str) -> None:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        in_worker = current_worker_id() is not None
        if in_worker:
            index = self._seq
            self._seq += 1
        else:
            index = len(self.span_start)
            self.span_name.append(self._name_id(name))
            self.span_query.append(self.query)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_end.append(0.0)
            self.span_self.append(0.0)
            self.span_start.append(0.0)
        frame = [name, 0.0, 0.0, index, depth == 0, in_worker]
        self._stack.append(frame)
        frame[1] = start = time.perf_counter()
        if not in_worker:
            self.span_start[index] = start

    def exit(self) -> bool:
        """Close the innermost span; True if it was the outermost of its name."""
        end = time.perf_counter()
        name, start, child_seconds, index, outermost, in_worker = self._stack.pop()
        self._depth[name] -= 1
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        own = duration - child_seconds
        if in_worker:
            enclosing = self._stack[-1] if self._stack else None
            parent = enclosing[3] if enclosing is not None and enclosing[5] else -1
            key = f"{WORKER_KEY}span.{name}"
            for value in (os.getpid(), index, parent, start, end, own):
                REGISTRY.observe(key, value)
            if outermost:
                REGISTRY.inc(f"{WORKER_KEY}calls.{name}")
        else:
            self.span_end[index] = end
            self.span_self[index] = own
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + own
            if outermost:
                self.calls[name] = self.calls.get(name, 0) + 1
        return outermost

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def count(self, metric: str, amount: float = 1.0) -> None:
        """Add ``amount`` to a per-layer count."""
        if current_worker_id() is None:
            self.counts[metric] = self.counts.get(metric, 0.0) + amount
        else:
            REGISTRY.inc(f"{WORKER_KEY}count.{metric}", amount)

    def absorb_registry(self, counters: dict[str, float],
                        histograms: dict[str, list[float]]) -> None:
        """Fold in the worker spans and totals the pool shipped to the registry."""
        width = len(WORKER_SPAN_FIELDS)
        for key, values in histograms.items():
            if not key.startswith(f"{WORKER_KEY}span."):
                continue
            name = key[len(WORKER_KEY) + len("span."):]
            name_id = self._name_id(name)
            for row in range(0, len(values), width):
                self.worker_span_name.append(name_id)
                self.worker_span_query.append(self.query)
                self.worker_span_fields.extend(values[row:row + width])
            self.worker_self_seconds[name] = (
                self.worker_self_seconds.get(name, 0.0) + sum(values[width - 1::width])
            )
        for key, value in counters.items():
            if not key.startswith(WORKER_KEY):
                continue
            kind, _, name = key[len(WORKER_KEY):].partition(".")
            if kind == "calls":
                self.worker_calls[name] = self.worker_calls.get(name, 0) + int(value)
            elif kind == "count":
                self.counts[name] = self.counts.get(name, 0.0) + value

    # -- read side ---------------------------------------------------------------

    def driver_self_seconds(self, query: int) -> dict[str, float]:
        """Driver-side self seconds per span name for one query."""
        totals: dict[str, float] = {}
        for name_id, q, own in zip(self.span_name, self.span_query, self.span_self):
            if q == query:
                name = self.names[name_id]
                totals[name] = totals.get(name, 0.0) + own
        return totals

    def spans(self) -> dict[str, Any]:
        """Every span, column-wise, for writing out.

        Driver spans are ``name``/``query``/``parent``/``start``/``end``/
        ``self`` (``parent`` is a row index); worker spans are the
        ``worker_*`` columns, ``worker_fields`` holding WORKER_SPAN_FIELDS
        per row.
        """
        return {
            "names": list(self.names),
            "name": self.span_name,
            "query": self.span_query,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "self": self.span_self,
            "worker_name": self.worker_span_name,
            "worker_query": self.worker_span_query,
            "worker_fields": self.worker_span_fields,
        }


# -- what is shimmed ----------------------------------------------------------------


def _count_tiles(rec: Recorder, args, result) -> None:
    rec.count("partitioner.tiles", len(result))


def _count_one_tile(rec: Recorder, args, result) -> None:
    rec.count("partitioner.tiles", 1)


def _count_batch_pairs(rec: Recorder, args, result) -> None:
    rec.count("probe.pairs", sum(map(len, result[0])))


def _count_pairs(rec: Recorder, args, result) -> None:
    rec.count("probe.pairs", len(result))


def _count_pairs_with_cost(rec: Recorder, args, result) -> None:
    rec.count("probe.pairs", len(result[0]))


def _count_candidates(rec: Recorder, args, result) -> None:
    if rec.depth("probe.probe"):
        rec.count("probe.candidates", len(result))


def _count_chunk_candidates(rec: Recorder, args, result) -> None:
    if rec.depth("probe.probe"):
        rec.count("probe.candidates", sum(len(positions) for _, positions in result[0]))


def _count_batch_points(rec: Recorder, args, result) -> None:
    rec.count("engine.points", len(args[2]))


def _count_one_point(rec: Recorder, args, result) -> None:
    rec.count("engine.points", 1)


def _count_bytes(rec: Recorder, args, result) -> None:
    rec.count("hdfs.bytes_read", len(result))


def _count_pool_tasks(rec: Recorder, args, result) -> None:
    rec.count("pool.tasks", len(args[1]))


@dataclass(frozen=True)
class Shim:
    """One wrapped entry point: ``module:function`` or ``module:Class.method``.

    ``span`` is the span name; ``None`` wraps for counting only.
    ``after(recorder, args, result)`` runs once the call returns.  On a
    timed shim it runs only for the outermost open span of that name, so
    nested calls of one layer are counted once; on a counting shim it runs
    on every call.
    """

    target: str
    span: str | None
    after: Callable[[Recorder, tuple, Any], None] | None = None


_ENGINE_BATCH = ("contains_batch_counted", "within_distance_batch_counted",
                 "distance_batch_counted")
_ENGINE_SCALAR = ("point_within", "point_within_distance", "point_distance")

SHIMS: tuple[Shim, ...] = (
    Shim("repro.geometry.wkt:WKTReader.read", "wkt.parse"),
    Shim("repro.optimizer.planner:choose_plan", "optimizer.plan"),
    Shim("repro.index.partitioner:SpatialPartitioning.route", "partitioner.route",
         _count_tiles),
    Shim("repro.index.partitioner:SpatialPartitioning.route_point",
         "partitioner.route", _count_one_tile),
    Shim("repro.core.probe:BroadcastIndex.__init__", "probe.build"),
    Shim("repro.core.probe:BroadcastIndex.from_column", "probe.build"),
    Shim("repro.core.probe:BroadcastIndex.probe_batch", "probe.probe",
         _count_batch_pairs),
    Shim("repro.core.probe:BroadcastIndex.probe", "probe.probe", _count_pairs),
    Shim("repro.core.probe:BroadcastIndex.probe_with_cost", "probe.probe",
         _count_pairs_with_cost),
    Shim("repro.index.rtree:STRtree.query", None, _count_candidates),
    Shim("repro.index.rtree:STRtree.query_batch_points_chunks", None,
         _count_chunk_candidates),
    *(Shim(f"repro.geometry.engine:FastGeometryEngine.{m}", "engine.kernel",
           _count_batch_points) for m in _ENGINE_BATCH),
    *(Shim(f"repro.geometry.engine:FastGeometryEngine.{m}", "engine.kernel",
           _count_one_point) for m in _ENGINE_SCALAR),
    *(Shim(f"repro.geometry.engine:SlowGeometryEngine.{m}", "engine.refine_slow",
           _count_batch_points) for m in _ENGINE_BATCH),
    *(Shim(f"repro.geometry.engine:SlowGeometryEngine.{m}", "engine.refine_slow",
           _count_one_point) for m in _ENGINE_SCALAR),
    *(Shim(f"repro.hdfs.filesystem:SimulatedHDFS.{m}", "hdfs.read", _count_bytes)
      for m in ("read", "read_block", "read_range")),
    Shim("repro.spark.scheduler:DAGScheduler.run_job", "spark.job"),
    Shim("repro.spark.shuffle:ShuffleStore.write", "spark.shuffle_write"),
    Shim("repro.impala.parser:parse", "impala.plan"),
    Shim("repro.impala.planner:Planner.plan", "impala.plan"),
    Shim("repro.impala.coordinator:ImpalaBackend.execute", "impala.execute"),
    Shim("repro.cache.manager:CacheManager.get", "cache.lookup"),
    *(Shim(f"repro.cache.fingerprint:{f}", "cache.fingerprint")
      for f in ("fingerprint_geometry", "fingerprint_value", "fingerprint_entries",
                "fingerprint_rows")),
    Shim("repro.runtime.pool:ProcessBackend.run", "pool.wait", _count_pool_tasks),
)


def _wrap(rec: Recorder, shim: Shim, fn: Callable) -> Callable:
    span, after = shim.span, shim.after
    if span is None:
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(rec, args, result)
            return result

        return counter

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        rec.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            outermost = rec.exit()
        if after is not None and outermost:
            after(rec, args, result)
        return result

    return timed


@contextlib.contextmanager
def installed(rec: Recorder, shims: tuple[Shim, ...] = SHIMS) -> Iterator[Recorder]:
    """Install ``shims`` recording into ``rec`` for the block, then restore.

    A method is replaced on its class.  A function is replaced in every
    ``repro`` module that holds a reference to it, since callers bind it
    at import time (``from repro.x import f``).
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for shim in shims:
            module_name, _, qualname = shim.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(rec, shim, raw.__func__))
                else:
                    wrapped = _wrap(rec, shim, raw)
                setattr(owner, attr, wrapped)
                patches.append((owner, attr, raw))
                continue
            original = getattr(module, qualname)
            wrapped = _wrap(rec, shim, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        patches.append((mod, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
