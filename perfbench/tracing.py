"""Per-layer spans recorded from outside the program.

The traced run wraps public calls into each layer of ``repro`` — the
substrate, the probing and selection code, the router, collection, the
trace store, the engine, analysis and FEC — with spans installed from
here, so the program under test is never edited.  A span records its
name, start, end, parent span and thread; a layer's *self time* is the
span's duration minus the time its child spans cover.

Wrappers are installed only for a traced operation and removed again
afterwards, so untraced operations run the unmodified functions.
Inside forked engine workers a wrapper calls straight through (spans
from another process could not reach this recorder); the engine's own
telemetry counters cover that work instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped call: where it lives and which metrics it feeds.

    ``owner`` is ``"module:Class"`` for a method and ``"module"`` for a
    module-level function; ``metric`` names the self-time metric the
    span's self time adds to; ``count`` (a metric name) and ``counter``
    (``result -> int``) add the work the call did.
    """

    owner: str
    attr: str
    metric: str
    count: str | None = None
    counter: Callable | None = None


NETWORK = "repro.netsim.network:Network"
RESULT = "repro.api.result:ExperimentResult"
ANALYZER = "repro.analysis.streaming.analyzer:StreamingAnalyzer"
STORE = "repro.trace.store"
REACTIVE = "repro.core.reactive"


def _paths(network) -> int:
    return network.paths.seg.shape[0]


def _packets(outcome) -> int:
    return len(outcome.lost)


def _pair_packets(outcome) -> int:
    return 2 * len(outcome.lost1)


def _train_packets(outcome) -> int:
    return outcome[0].size


def _size(array) -> int:
    return array.size


def _table_entries(tables) -> int:
    return tables.loss_best.size


def _routes(routes) -> int:
    return len(routes.pid1)


def _rows(trace) -> int:
    return len(trace)


def _groups(stats) -> int:
    return stats.n_groups


#: every wrapped call, grouped by layer.  The metric names are the
#: per-layer metrics of BENCHMARK.json.
TARGETS = (
    # netsim: substrate build, packet sampling, timeline lookups
    Target(NETWORK, "build", "netsim.build_s", "netsim.paths", _paths),
    Target(NETWORK, "sample_packets", "netsim.sample_s", "netsim.packets", _packets),
    Target(NETWORK, "sample_pairs", "netsim.sample_s", "netsim.packets", _pair_packets),
    Target(NETWORK, "sample_train", "netsim.sample_s", "netsim.packets", _train_packets),
    Target(
        "repro.netsim.state:TimelineBank",
        "severity_at",
        "netsim.severity_at_s",
        "netsim.severity_at_queries",
        _size,
    ),
    # core.reactive, core.selector, core.router
    Target(REACTIVE, "run_probing", "reactive.probe_s"),
    Target(
        REACTIVE,
        "build_routing_tables",
        "reactive.tables_s",
        "selector.table_entries",
        _table_entries,
    ),
    Target(
        REACTIVE,
        "build_table_block",
        "reactive.tables_s",
        "selector.table_entries",
        _table_entries,
    ),
    Target("repro.core.router", "resolve_routes", "router.resolve_s", "router.routes", _routes),
    # testbed.collection
    Target(
        "repro.testbed.collection",
        "collect_rows",
        "collection.self_s",
        "collection.rows",
        _rows,
    ),
    # trace: merges, filters, spill writes
    Target("repro.trace.records:Trace", "concatenate", "trace.merge_s"),
    Target(f"{STORE}:StreamingMerge", "add", "trace.merge_s"),
    Target(f"{STORE}:StreamingMerge", "finalize", "trace.merge_s"),
    Target("repro.trace.filters", "apply_standard_filters", "trace.filter_s"),
    Target(STORE, "save_trace", "trace.spill_write_s"),
    # engine: the parent side of a sharded run
    Target("repro.engine.sharding:ShardedCollector", "collect", "engine.self_s"),
    # analysis: eager tables and figures, the streaming analyzer
    Target("repro.analysis.lossstats", "method_stats_table", "analysis.tables_s"),
    Target(RESULT, "loss_table", "analysis.tables_s"),
    Target(RESULT, "high_loss", "analysis.tables_s"),
    Target(RESULT, "path_loss_cdf", "analysis.figures_s"),
    Target(RESULT, "window_cdf", "analysis.figures_s"),
    Target(RESULT, "clp_cdf", "analysis.figures_s"),
    Target(RESULT, "latency_cdf", "analysis.figures_s"),
    Target(RESULT, "latency_improvement", "analysis.figures_s"),
    Target(RESULT, "design_space", "analysis.figures_s"),
    Target(ANALYZER, "from_run_dir", "analysis.streaming_s"),
    Target(ANALYZER, "update", "analysis.streaming_s"),
    Target(ANALYZER, "ingest", "analysis.streaming_s"),
    Target(ANALYZER, "ingest_dir", "analysis.streaming_s"),
    Target(ANALYZER, "snapshot", "analysis.streaming_s"),
    # fec: the Section 5.2 group simulation
    Target(RESULT, "fec_report", "fec.self_s"),
    Target("repro.fec.interleave", "simulate_group_delivery", "fec.self_s", "fec.groups", _groups),
)

#: self-time metrics fed by wrappers, in declaration order.
SELF_METRICS = tuple(dict.fromkeys(t.metric for t in TARGETS))
#: count metrics fed by wrappers.
COUNT_METRICS = tuple(dict.fromkeys(t.count for t in TARGETS if t.count))


class _Frame:
    __slots__ = ("index", "t0", "child_ns")

    def __init__(self, index: int, t0: int) -> None:
        self.index = index
        self.t0 = t0
        self.child_ns = 0


class Tracer:
    """In-memory spans and per-metric self times for one phase.

    Each thread keeps its own stack of open spans, so a span's parent
    is the innermost span open on the same thread when it began.
    ``main_self_ns`` holds the self time of spans on the thread that
    created the tracer: the part of the phase's wall time the named
    layers account for.
    """

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.main_thread = threading.get_ident()
        self.spans: list[tuple] = []  # (name, t0_ns, t1_ns, parent index, thread id)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.main_self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1].index if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0, 0, parent, threading.get_ident()))
        frame = _Frame(index, time.perf_counter_ns())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, metric: str) -> None:
        t1 = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = t1 - frame.t0
        own = duration - frame.child_ns
        if stack:
            stack[-1].child_ns += duration
        tid = threading.get_ident()
        with self._lock:
            name, _, _, parent, _ = self.spans[frame.index]
            self.spans[frame.index] = (name, frame.t0, t1, parent, tid)
            self.self_ns[metric] += own
            self.total_ns[name] += duration
            if tid == self.main_thread:
                self.main_self_ns[metric] += own

    def add_count(self, metric: str, value: int) -> None:
        with self._lock:
            self.counts[metric] += value

    def write_spans(self, path, phase: str) -> None:
        """Append this phase's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for i, (name, t0, t1, parent, tid) in enumerate(self.spans):
                record = {
                    "phase": phase,
                    "id": i,
                    "name": name,
                    "start_ns": t0,
                    "end_ns": t1,
                    "parent": parent,
                    "thread": tid,
                }
                fh.write(json.dumps(record) + "\n")


class Instrumentation:
    """Installs the wrappers of :data:`TARGETS` and routes their spans
    to whichever :class:`Tracer` is :attr:`active`."""

    def __init__(self) -> None:
        self.active: Tracer | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, fn, name: str, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer = self.active
            if tracer is None or os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, target.metric)
            if target.counter is not None:
                tracer.add_count(target.count, target.counter(result))
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("wrappers are already installed")
        for target in TARGETS:
            module_name, _, cls_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            name = f"{cls_name or module_name.rsplit('.', 1)[-1]}.{target.attr}"
            if cls_name:
                self._wrap_method(getattr(module, cls_name), name, target)
            else:
                self._wrap_function(getattr(module, target.attr), name, target)

    def _wrap_method(self, cls, name: str, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span(raw.__func__, name, target))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._span(raw.__func__, name, target))
        else:
            wrapped = self._span(raw, name, target)
        self._restore.append((cls, target.attr, raw))
        setattr(cls, target.attr, wrapped)

    def _wrap_function(self, fn, name: str, target: Target) -> None:
        """Replace ``fn`` wherever a ``repro`` module holds it by name
        (``from x import fn`` copies the reference into the importer)."""
        wrapped = self._span(fn, name, target)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self.active = None
