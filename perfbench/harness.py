"""The closed measurement loop and the metrics it reports.

A run first builds the workload's substrate several times (``setup_s``
is the median build), then one client runs operations on the last
substrate back to back, each starting when the last one finished,
until the run's time is spent (and at least :data:`MIN_OPS` operations
ran).  An operation is the workload's run plus its output
checks (``run_s``); one whose checks fail, or that raises, counts in
``failed`` and the loop goes on.

The fixed task of :mod:`perfbench.reference` is timed before every
build and operation; every reported time (and rate) is scaled from the
run's wall clock to the reference machine speed, so the host's drift
between runs cancels out.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced operations: the traced ones give the per-layer
metrics, and the difference of the two ``run_s`` medians is the
tracing overhead.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

from repro import telemetry

from .memory import ProcessTreeMemory
from .reference import Reference
from .tracing import COUNT_METRICS, SELF_METRICS, Instrumentation, Tracer

#: substrate builds per run: at least SETUPS, and more while the builds
#: so far took less than SETUP_SECONDS; ``setup_s`` is their median.
SETUPS = 3
SETUP_SECONDS = 3.0
#: fewest operations per run, whatever ``seconds`` says.
MIN_OPS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "probes_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics read from the engine's own telemetry (recorded in
#: the parent and shipped back from forked workers).
TELEMETRY_METRICS = {
    "reactive.probes": "count",
    "trace.spill_bytes": "count",
    "engine.queue_wait_probe_s": "s",
    "engine.queue_wait_collect_s": "s",
    "engine.exec_probe_s": "s",
    "engine.exec_collect_s": "s",
    "engine.parallel_efficiency": "ratio",
    "analysis.rows": "count",
}

PER_LAYER = {
    **{name: "s" for name in SELF_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    **TELEMETRY_METRICS,
    "unattributed_s": "s",
    "tracing_overhead_s": "s",
    "machine.slowdown": "ratio",
}


#: per-layer metrics a substrate build adds to; a traced run reports
#: one extra, traced build plus the median traced operation.
SETUP_METRICS = ("netsim.build_s", "netsim.paths")


@dataclass
class Op:
    run_s: float
    probes: int
    layers: dict = field(default_factory=dict)


def _layer_metrics(tracer: Tracer, rec, run_s: float, workers: int) -> dict:
    """Per-layer values of one traced phase (a build or an operation)."""
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    for name, ns in tracer.self_ns.items():
        values[name] += ns / 1e9
    for name, n in tracer.counts.items():
        values[name] += n
    counters = rec.counter_snapshot()
    me = os.getpid()
    worker_spill_ns = sum(
        ev["dur_ns"]
        for ev in rec.events_since(0)
        if ev.get("name") == "spill-write" and ev.get("pid") != me
    )
    values["trace.spill_write_s"] += worker_spill_ns / 1e9
    values["reactive.probes"] = counters.get("probe.probes", 0)
    values["trace.spill_bytes"] = counters.get("spill.bytes", 0)
    values["analysis.rows"] = counters.get("analyze.rows", 0)
    exec_ns = 0
    for stage in ("probe", "collect"):
        wait = counters.get(f"shard.queue_wait_ns.{stage}", 0)
        busy = counters.get(f"shard.exec_ns.{stage}", 0)
        values[f"engine.queue_wait_{stage}_s"] = wait / 1e9
        values[f"engine.exec_{stage}_s"] = busy / 1e9
        exec_ns += busy
    engine_ns = tracer.total_ns.get("ShardedCollector.collect", 0)
    if engine_ns and workers:
        values["engine.parallel_efficiency"] = exec_ns / (engine_ns * workers)
    values["unattributed_s"] = run_s - sum(tracer.main_self_ns.values()) / 1e9
    return values


def _traced(wrappers: Instrumentation | None, fn, *args):
    """Call ``fn(*args)`` with the wrappers and the engine's telemetry
    on when ``wrappers`` is given; returns (result, tracer, recorder)."""
    if wrappers is None:
        return fn(*args), None, None
    rec = telemetry.Recorder()
    previous = telemetry.set_recorder(rec)
    wrappers.install()
    tracer = wrappers.active = Tracer()
    try:
        return fn(*args), tracer, rec
    finally:
        wrappers.uninstall()
        telemetry.set_recorder(previous)


def _timed(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _run_and_check(workload, network) -> tuple[dict, list[str]]:
    out = workload.run(network)
    return out, workload.check(out)


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    scratch: str = ".",
    spans_path: str | None = None,
) -> dict:
    """Build ``workload``'s substrate several times, then run it in a
    closed loop for ``seconds`` on the last one built; returns the result
    object the command prints (``correct``/``attempted``/``failed``/
    ``metrics``)."""
    workload.prepare(seed, scratch)
    wrappers = Instrumentation() if trace else None
    reference = Reference()
    setups: list[float] = []
    ops: list[Op] = []
    attempted = failed = 0
    try:
        with ProcessTreeMemory() as memory:
            network = build_layers = None
            while len(setups) < SETUPS or sum(setups) < SETUP_SECONDS:
                network = None  # free the last substrate before building the next
                gc.collect()
                reference.sample(reps=1)
                elapsed, network = _timed(workload.setup)
                setups.append(elapsed)
                _log(workload, f"setup {len(setups)}: {elapsed:.3f} s")
            if wrappers is not None:
                network = None
                gc.collect()
                elapsed, (network, tracer, rec) = _timed(_traced, wrappers, workload.setup)
                build_layers = _layer_metrics(tracer, rec, elapsed, 0)
                if spans_path is not None:
                    tracer.write_spans(spans_path, "setup")
                _log(workload, f"setup traced: {elapsed:.3f} s")
            start = time.perf_counter()
            while attempted < MIN_OPS or _time_left(start, seconds, ops):
                traced = wrappers if attempted % 2 == 1 else None
                attempted += 1
                reference.sample()
                try:
                    run_s, ((out, problems), tracer, rec) = _timed(
                        _traced, traced, _run_and_check, workload, network
                    )
                except Exception:
                    failed += 1
                    traceback.print_exc()
                    continue
                op = Op(run_s=run_s, probes=out["probes"])
                if tracer is not None:
                    op.layers = _layer_metrics(tracer, rec, run_s, workload.workers)
                    if spans_path is not None:
                        tracer.write_spans(spans_path, f"op{attempted}")
                workload.release(out)
                del out
                gc.collect()
                if problems:
                    failed += 1
                    for problem in problems:
                        _log(workload, f"check failed: {problem}")
                _log(
                    workload,
                    f"op {attempted}{' traced' if traced else ''}: run {run_s:.3f} s, "
                    f"{'failed' if problems else 'ok'}",
                )
                ops.append(op)
            network = None
            reference.sample()
            peak_mb = memory.peak_mb()
    finally:
        workload.close()
    if not ops:
        raise RuntimeError(f"{workload.name}: every operation raised")
    if trace:
        metrics = _per_layer(ops, build_layers)
    else:
        metrics = _end_to_end(setups, ops, peak_mb)
    scale = reference.scale()
    if trace:
        metrics["machine.slowdown"] = 1.0 / scale
    units = PER_LAYER if trace else END_TO_END
    _log(workload, f"wall times x {scale:.3f} to the reference speed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _at_reference_speed(value, units[name], scale), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def _at_reference_speed(value: float, unit: str, scale: float) -> float:
    """A wall time (or rate) as it reads at the reference machine speed."""
    if unit == "s":
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def _time_left(start: float, seconds: float, ops: list[Op]) -> bool:
    """Whether one more operation of the median length fits in ``seconds``."""
    typical = statistics.median(op.run_s for op in ops) if ops else 0.0
    return time.perf_counter() - start + typical <= seconds


def _log(workload, message: str) -> None:
    print(f"{workload.name} {message}", file=sys.stderr)


def _end_to_end(setups: list[float], ops: list[Op], peak_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(op.run_s for op in ops),
        "probes_per_s": statistics.median(op.probes / op.run_s for op in ops),
        "peak_rss_mb": peak_mb,
    }


def _per_layer(ops: list[Op], build_layers: dict) -> dict:
    traced = [op for op in ops if op.layers]
    plain = [op for op in ops if not op.layers]
    if not traced or not plain:
        raise RuntimeError("a traced run needs at least one traced and one untraced operation")
    out = {}
    for name, unit in PER_LAYER.items():
        # a count is work done, identical across operations: keep it whole
        median = statistics.median_low if unit == "count" else statistics.median
        out[name] = median(op.layers[name] for op in traced)
        if name in SETUP_METRICS:
            out[name] += build_layers[name]
    traced_run_s = statistics.median(op.run_s for op in traced)
    out["tracing_overhead_s"] = traced_run_s - statistics.median(op.run_s for op in plain)
    return out
