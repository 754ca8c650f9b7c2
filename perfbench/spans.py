"""Outside-in span recorder for the benchmark's traced runs.

Nothing here edits the program: :func:`install` replaces public callables
where their callers resolve them -- methods on their class, and module
functions on the defining module *and* on every ``repro.*`` module that
bound the name at import -- with timing wrappers, and
:meth:`Installation.restore` puts the originals back.  Each wrapped call records a span: name, start,
end and parent.  A span's self time is its duration minus the time of
the wrapped calls nested inside it on the same thread.

Targets flagged hot -- called once per device-day or per row -- are
aggregated as counters (calls, total, child time) rather than stored one
by one; all other spans are kept in memory and written out by
:meth:`Recorder.dump` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, hot, units) -- ``units(args,
#: kwargs, result)`` returns the work count the span adds to its stat.
Target = Tuple[str, str, str, bool, Optional[Callable[..., int]]]


def _rows(*stores: Any) -> int:
    return sum(len(store) for store in stores)


def _update_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return _rows(args[2], args[3])


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _extend_rows(args: tuple, kwargs: dict, result: Any) -> int:
    indices = args[2] if len(args) > 2 else kwargs.get("indices")
    return len(args[1]) if indices is None else len(indices)


def _select_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1])


def _save_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[3])


def _parse_rows(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


def _shard_count(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1])


#: Every wrapped callable, by layer.  ``parallel.map_shards`` and the
#: service queue get extra handling in :func:`install`.
TARGETS: List[Target] = [
    ("repro.core.catalog", "CatalogBuilder.build", "core.catalog.build", False, None),
    ("repro.core.catalog", "CatalogBuilder.build_from_columns", "core.catalog.build", False, None),
    ("repro.core.catalog", "CatalogBuilder.update", "core.catalog.update", False, _update_rows),
    ("repro.core.catalog", "CatalogBuilder.summarize", "core.catalog.summarize", False, _len_result),
    ("repro.core.catalog", "CatalogBuilder.snapshot", "core.catalog.snapshot", False, None),
    ("repro.core.mobility", "daily_mobility", "core.mobility.daily", True, None),
    ("repro.core.mobility", "daily_mobility_from_pairs", "core.mobility.daily", True, None),
    ("repro.core.classifier", "DeviceClassifier.classify", "core.classifier.classify", False, _len_result),
    ("repro.columnar.store", "ColumnarRadioEvents.append", "columnar.intern", True, _one),
    ("repro.columnar.store", "ColumnarServiceRecords.append", "columnar.intern", True, _one),
    ("repro.columnar.store", "ColumnarRadioEvents.extend_from", "columnar.extend", False, _extend_rows),
    ("repro.columnar.store", "ColumnarServiceRecords.extend_from", "columnar.extend", False, _extend_rows),
    ("repro.columnar.store", "ColumnarRadioEvents.select", "columnar.select", False, _select_rows),
    ("repro.columnar.store", "ColumnarServiceRecords.select", "columnar.select", False, _select_rows),
    ("repro.parallel.pool", "map_shards", "parallel.map_shards", False, _shard_count),
    ("repro.runtime.serialize", "pack_day_block", "runtime.pack", False, _len_result),
    ("repro.runtime.serialize", "unpack_day_block", "runtime.unpack", False, None),
    ("repro.runtime.checkpoint", "CheckpointStore.save_unit", "runtime.save_unit", False, _save_bytes),
    ("repro.runtime.checkpoint", "CheckpointStore.load_unit", "runtime.load_unit", False, _len_result),
    ("os", "fsync", "runtime.fsync", False, None),
    ("repro.datasets.io", "_radio_event_fields", "datasets.io.decode", True, _one),
    ("repro.datasets.io", "_service_record_fields", "datasets.io.decode", True, _one),
    ("repro.service.protocol", "parse_batch_rows", "service.parse", False, _parse_rows),
    ("repro.service.wal", "BatchLog.append", "service.wal_append", False, None),
    ("repro.service.wal", "BatchLog.replay", "service.wal_replay", False, _len_result),
    ("repro.service.daemon", "_radio_sort_permutation", "service.sort", False, None),
    ("repro.service.daemon", "_service_sort_permutation", "service.sort", False, None),
]

#: Private helpers whose absence (a later refactor) is not an error;
#: every other target must exist, or :func:`install` raises.
OPTIONAL = {
    "_radio_event_fields",
    "_service_record_fields",
    "_radio_sort_permutation",
    "_service_sort_permutation",
    "CatalogBuilder.build_from_columns",
}

#: Modules imported before aliases are patched, so names they bound at
#: import are found and wrapped too.
CALLER_MODULES = (
    "repro.pipeline",
    "repro.parallel.executor",
    "repro.runtime.run",
    "repro.runtime.checkpoint",
    "repro.runtime.fsio",
    "repro.service.daemon",
    "repro.service.wal",
    "repro.service.protocol",
)

#: Span names each workload must record at least one call of: the
#: layers the metric table says do most of their work there.  A wrapper
#: a call bypasses reads as zero calls and fails the traced run.
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "batch": (
        "core.catalog.build",
        "core.catalog.summarize",
        "core.mobility.daily",
        "core.classifier.classify",
    ),
    "durable": (
        "core.catalog.update",
        "core.catalog.summarize",
        "core.mobility.daily",
        "parallel.map_shards",
        "parallel.shard",
        "runtime.pack",
        "runtime.unpack",
        "runtime.save_unit",
        "runtime.load_unit",
        "runtime.fsync",
    ),
    "serve": (
        "core.catalog.update",
        "core.catalog.snapshot",
        "core.classifier.classify",
        "columnar.intern",
        "columnar.extend",
        "columnar.select",
        "runtime.fsync",
        "service.parse",
        "service.queue_wait",
        "service.wal_append",
        "service.wal_replay",
    ),
}


class Stat:
    """Aggregate of every call recorded under one span name."""

    __slots__ = ("calls", "total_ns", "child_ns", "units")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.units = 0

    @property
    def self_s(self) -> float:
        return (self.total_ns - self.child_ns) / 1e9

    def as_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "total_s": self.total_ns / 1e9,
            "self_s": self.self_s,
            "units": self.units,
        }


class Recorder:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        self.stats: Dict[str, Stat] = {}
        #: (id, name, start_ns, end_ns, parent_id, thread_id) of every
        #: non-hot span; parent_id is -1 at the top of a thread's stack.
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        #: Summed duration of each thread's top-level spans (hot ones
        #: too): the time some layer accounts for, for attribution.
        self.top_ns: Dict[int, int] = {}
        self.queue_waits_ns: List[int] = []
        self.queue_depth_max = 0
        #: Labelers built while tracing, held so their memo counters
        #: outlive the pass that made them.
        self.labelers: List[Any] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def note(
        self,
        name: str,
        hot: bool,
        span_id: int,
        start: int,
        end: int,
        child_ns: int,
        parent_id: int,
        units: int,
    ) -> None:
        with self._lock:
            stat = self.stat(name)
            stat.calls += 1
            stat.total_ns += end - start
            stat.child_ns += child_ns
            stat.units += units
            if parent_id < 0 or not hot:
                thread = threading.get_ident()
                if parent_id < 0:
                    self.top_ns[thread] = self.top_ns.get(thread, 0) + end - start
                if not hot:
                    self.spans.append((span_id, name, start, end, parent_id, thread))

    def attributed_ns(self) -> int:
        """Time covered by top-level spans, summed over threads.

        Self times partition the time top-level spans cover, so this is
        the sum of every layer's self time.  Concurrent threads can
        overlap in wall time, so callers clamp the remainder at zero.
        """
        with self._lock:
            return sum(self.top_ns.values())

    def dump(self, path: str, **extra: Any) -> None:
        """Write every stat and stored span out as one JSON document."""
        payload = {
            "stats": {name: stat.as_dict() for name, stat in sorted(self.stats.items())},
            "spans": [
                {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                 "parent": s[4], "thread": s[5]}
                for s in self.spans
            ],
            **extra,
            "queue_waits_ns": self.queue_waits_ns,
            "queue_depth_max": self.queue_depth_max,
            "labels": label_stats(self),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def label_stats(recorder: Recorder) -> Dict[str, int]:
    hits = misses = 0
    for labeler in recorder.labelers:
        stats = labeler.cache_stats()
        hits += stats.hits
        misses += stats.misses
    return {"hits": hits, "misses": misses}


def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable[..., Any],
    hot: bool,
    units: Optional[Callable[..., int]],
) -> Callable[..., Any]:
    perf = time.perf_counter_ns
    next_id = recorder._ids.__next__
    note = recorder.note
    stack_of = recorder.stack

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = stack_of()
        parent = stack[-1] if stack else None
        frame = [0, next_id()]
        stack.append(frame)
        start = perf()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf()
            stack.pop()
            if parent is not None:
                parent[0] += end - start
            note(
                name, hot, frame[1], start, end, frame[0],
                -1 if parent is None else parent[1],
                0 if units is None else units(args, kwargs, result),
            )

    return wrapper


def _resolve(module_name: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """Replaced attributes, so :meth:`restore` can put them back."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Rebind ``original`` to ``wrapper`` wherever a module holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "os" or module_name.startswith("repro")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every target; returns the handle that undoes it."""
    for module_name in CALLER_MODULES:
        importlib.import_module(module_name)
    inst = Installation(recorder)
    for module_name, path, name, hot, units in TARGETS:
        try:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (AttributeError, KeyError):
            if path.split(".")[-1] in OPTIONAL or path in OPTIONAL:
                continue
            raise RuntimeError(f"trace target {module_name}.{path} is missing")
        if name == "parallel.map_shards":
            wrapper = _wrap(recorder, name, _shard_timer(recorder, original), hot, units)
        elif name == "service.parse":
            wrapper = _wrap(recorder, name, _rejection_counter(recorder, original), hot, units)
        else:
            wrapper = _wrap(recorder, name, original, hot, units)
        if isinstance(owner, type):
            inst.patch(owner, attr, wrapper)
        else:
            inst.patch_function(original, wrapper)
    _install_queue_probe(inst)
    _install_labeler_registry(inst)
    return inst


def _shard_timer(recorder: Recorder, map_shards: Callable[..., Any]) -> Callable[..., Any]:
    """``map_shards`` whose in-process shard calls are spans too.

    With one worker the shard function runs in this process and each
    call is recorded as ``parallel.shard``; a pool's workers are other
    processes, whose shard calls this recorder cannot see.
    """

    @functools.wraps(map_shards)
    def timed(fn: Callable[..., Any], shards: Any, n_workers: int, *args: Any, **kwargs: Any) -> Any:
        if n_workers <= 1 or len(shards) <= 1:
            fn = _wrap(recorder, "parallel.shard", fn, False, _one)
        return map_shards(fn, shards, n_workers, *args, **kwargs)

    return timed


def _rejection_counter(recorder: Recorder, parse: Callable[..., Any]) -> Callable[..., Any]:
    """``parse_batch_rows`` that also counts the rows its report rejected."""

    @functools.wraps(parse)
    def counted(*args: Any, **kwargs: Any) -> Any:
        events, records, report = parse(*args, **kwargs)
        with recorder._lock:
            recorder.stat("service.rows_rejected").units += report.n_quarantined
        return events, records, report

    return counted


def _install_queue_probe(inst: Installation) -> None:
    """Time each ingest batch from enqueue to dequeue, and track depth."""
    from repro.service.queue import BoundedIngestQueue

    recorder = inst.recorder
    stamps: Dict[int, int] = {}
    put_nowait = BoundedIngestQueue.__dict__["put_nowait"]
    get = BoundedIngestQueue.__dict__["get"]

    @functools.wraps(put_nowait)
    def stamped_put(self: Any, item: Any) -> None:
        put_nowait(self, item)
        stamps[id(item)] = time.perf_counter_ns()
        recorder.queue_depth_max = max(recorder.queue_depth_max, self.depth)

    @functools.wraps(get)
    async def timed_get(self: Any) -> Any:
        item = await get(self)
        stamp = stamps.pop(id(item), None)
        if stamp is not None:
            wait = time.perf_counter_ns() - stamp
            recorder.queue_waits_ns.append(wait)
            with recorder._lock:
                stat = recorder.stat("service.queue_wait")
                stat.calls += 1
                stat.total_ns += wait
        return item

    inst.patch(BoundedIngestQueue, "put_nowait", stamped_put)
    inst.patch(BoundedIngestQueue, "get", timed_get)


def _install_labeler_registry(inst: Installation) -> None:
    """Remember every labeler built while tracing, for its cache stats."""
    from repro.core.roaming import RoamingLabeler

    recorder = inst.recorder
    init = RoamingLabeler.__dict__["__init__"]

    @functools.wraps(init)
    def registering_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        recorder.labelers.append(self)

    inst.patch(RoamingLabeler, "__init__", registering_init)


def process_cpu_s(pid: Optional[int] = None) -> float:
    """User plus system CPU seconds of a process, from ``/proc``."""
    if pid is None:
        times = os.times()
        return times.user + times.system
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


#: Every per-layer metric, with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("core.catalog.build_s", "s"),
    ("core.catalog.build_calls", "count"),
    ("core.catalog.update_s", "s"),
    ("core.catalog.update_calls", "count"),
    ("core.catalog.update_rows", "rows"),
    ("core.catalog.summarize_s", "s"),
    ("core.catalog.summarize_devices", "count"),
    ("core.catalog.snapshot_s", "s"),
    ("core.catalog.snapshot_calls", "count"),
    ("core.mobility.daily_s", "s"),
    ("core.mobility.daily_calls", "count"),
    ("core.roaming.label_calls", "count"),
    ("core.roaming.label_hit_rate", "ratio"),
    ("core.classifier.classify_s", "s"),
    ("core.classifier.classify_calls", "count"),
    ("columnar.intern_s", "s"),
    ("columnar.extend_rows", "rows"),
    ("columnar.select_s", "s"),
    ("columnar.select_rows", "rows"),
    ("parallel.map_shards_s", "s"),
    ("parallel.map_shards_calls", "count"),
    ("parallel.shard_s", "s"),
    ("runtime.pack_s", "s"),
    ("runtime.unpack_s", "s"),
    ("runtime.save_unit_s", "s"),
    ("runtime.bytes_written", "bytes"),
    ("runtime.load_unit_s", "s"),
    ("runtime.bytes_read", "bytes"),
    ("runtime.fsync_s", "s"),
    ("runtime.fsync_calls", "count"),
    ("runtime.storage_retries", "count"),
    ("datasets.io.decode_s", "s"),
    ("datasets.io.decode_rows", "rows"),
    ("service.parse_s", "s"),
    ("service.parse_rows", "rows"),
    ("service.rows_rejected", "rows"),
    ("service.sort_s", "s"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.queue_wait_p95_ms", "ms"),
    ("service.queue_depth_max", "count"),
    ("service.wal_append_s", "s"),
    ("service.wal_append_calls", "count"),
    ("service.wal_replay_s", "s"),
    ("service.fold_amplification", "ratio"),
    ("service.refresh_per_query", "ratio"),
    ("service.sheds", "count"),
    ("service.retries", "count"),
    ("loadgen.query_p50_ms", "ms"),
    ("loadgen.query_p90_ms", "ms"),
    ("loadgen.query_samples", "count"),
    ("loadgen.query_late_p90_ms", "ms"),
    ("loadgen.query_late_max_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
]

#: Span stats reported as ``<span>_s`` (self seconds) and, where the
#: second element is set, as that count: calls or the span's units.
SPAN_METRICS: List[Tuple[str, Optional[Tuple[str, str]]]] = [
    ("core.catalog.build", ("core.catalog.build_calls", "calls")),
    ("core.catalog.update", ("core.catalog.update_calls", "calls")),
    ("core.catalog.summarize", ("core.catalog.summarize_devices", "units")),
    ("core.catalog.snapshot", ("core.catalog.snapshot_calls", "calls")),
    ("core.mobility.daily", ("core.mobility.daily_calls", "calls")),
    ("core.classifier.classify", ("core.classifier.classify_calls", "calls")),
    ("columnar.intern", None),
    ("columnar.select", ("columnar.select_rows", "units")),
    ("parallel.map_shards", ("parallel.map_shards_calls", "calls")),
    ("parallel.shard", None),
    ("runtime.pack", None),
    ("runtime.unpack", None),
    ("runtime.save_unit", ("runtime.bytes_written", "units")),
    ("runtime.load_unit", ("runtime.bytes_read", "units")),
    ("runtime.fsync", ("runtime.fsync_calls", "calls")),
    ("datasets.io.decode", ("datasets.io.decode_rows", "units")),
    ("service.parse", ("service.parse_rows", "units")),
    ("service.sort", None),
    ("service.wal_append", ("service.wal_append_calls", "calls")),
    ("service.wal_replay", None),
]


def span_values(stats: Dict[str, Dict[str, Any]], per: float = 1.0) -> Dict[str, float]:
    """Per-layer values from span stats, divided by ``per`` passes."""
    values: Dict[str, float] = {}
    for span, count in SPAN_METRICS:
        stat = stats.get(span, {})
        values[f"{span}_s"] = stat.get("self_s", 0.0) / per
        if count is not None:
            values[count[0]] = stat.get(count[1], 0) / per
    values["core.catalog.update_rows"] = stats.get("core.catalog.update", {}).get("units", 0) / per
    values["columnar.extend_rows"] = stats.get("columnar.extend", {}).get("units", 0) / per
    return values


def stats_dict(recorder: Recorder) -> Dict[str, Dict[str, Any]]:
    with recorder._lock:
        return {name: stat.as_dict() for name, stat in recorder.stats.items()}


def missing_required(workload: str, stats: Dict[str, Dict[str, Any]]) -> List[str]:
    """Required spans that recorded zero calls (the completeness check)."""
    return [
        name for name in REQUIRED[workload]
        if stats.get(name, {}).get("calls", 0) == 0
    ]
