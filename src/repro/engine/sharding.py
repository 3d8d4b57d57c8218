"""Sharded collection: one big ``collect()`` across all cores.

:class:`ShardedCollector` partitions a run's source hosts into
contiguous shards, evaluates each shard's schedule slice against the
shared read-only :class:`~repro.netsim.network.Network`, and merges the
partial traces with :meth:`repro.trace.Trace.concatenate`.  The shard
layout cannot affect the output: every source block consumes its own
named RNG substreams, the probing subsystem and schedule are generated
once in the parent, and the merged rows land in canonical probe-id
order — so 1 shard, 2 shards or one shard per host all fingerprint
identically to the sequential pipeline.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from dataclasses import dataclass, replace
from pathlib import Path

from repro import telemetry
from repro.netsim.network import Network
from repro.netsim.substrate import SharedTimelineBank
from repro.telemetry import clock as _tclock
from repro.testbed.collection import (
    CollectionPlan,
    CollectionResult,
    collect_rows,
    prepare_collection,
)
from repro.testbed.datasets import DatasetSpec
from repro.trace.records import Trace

from . import spill as spill_mod
from .spill import SpillPlan, collect_rows_spilled, run_slug

__all__ = [
    "EngineConfig",
    "StageConfig",
    "ShardedCollector",
    "plan_shards",
    "always_shard",
    "run_shards",
    "auto_executor",
    "PROCESS_MIN_HOSTS",
]

_EXECUTORS = ("serial", "thread", "process")
_SUBSTRATES = ("eager", "lazy")

#: host count at which a zero-copy (shared-memory) run defaults to the
#: process executor: below it, pool start-up costs more than the GIL.
PROCESS_MIN_HOSTS = 64


def auto_executor(network: Network, n_hosts: int, min_hosts: int = PROCESS_MIN_HOSTS) -> str:
    """The executor an unset (``None``) config resolves to.

    ``"process"`` once the substrate is zero-copy across workers — its
    timeline arrays live in shared memory — and the mesh is big enough
    to amortise pool start-up; ``"thread"`` otherwise (the kernels are
    NumPy-heavy and release the GIL).
    """
    if (
        n_hosts >= min_hosts
        and hasattr(os, "fork")
        and isinstance(network.state.bank, SharedTimelineBank)
    ):
        return "process"
    return "thread"


def run_shards(plan, ranges, kernel, worker, initializer, executor, max_workers, on_result=None):
    """Evaluate ``kernel(plan, lo, hi)`` over shard ``ranges`` on one of
    the three executors — the dispatch shared by every sharded stage
    (collection, probing).

    ``serial`` (or a single range) runs inline; ``thread`` maps the
    kernel over a pool (the kernels are NumPy-heavy and release the
    GIL); ``process`` forks workers that inherit ``plan`` by memory
    through ``initializer`` and run the module-level ``worker`` (it
    must be picklable by name), so nothing but the (small) shard ranges
    and partial results crosses the pipe.

    ``on_result`` is called in the parent, in *completion* order, with
    each result the moment its shard finishes — a slow shard cannot
    head-of-line-block streaming ingest of faster ones (the analysis
    accumulators are order-invariant, see
    :mod:`repro.analysis.streaming`).  The returned list, by contrast,
    is always in submission (= shard range) order, so merge call sites
    never depend on completion timing.

    With telemetry enabled, each shard's submit time is stamped and the
    shard spans it records are annotated with their pool queue wait
    (see :func:`_annotate_shard_waits`) when the fan-out drains.
    Process workers return :class:`~repro.telemetry.ShardEnvelope`
    wrappers (result + the worker's batched spans/counters); they are
    unwrapped here — events absorbed into the parent's recorder —
    before ``on_result`` or the caller sees the value, so every call
    site keeps its pre-telemetry object flow.
    """
    rec = telemetry.get_recorder()
    mark = rec.mark()
    submit_ns: dict[tuple[int, int], int] = {}
    if executor == "serial" or len(ranges) == 1:
        out = []
        for lo, hi in ranges:
            if rec.enabled:
                submit_ns[(lo, hi)] = _tclock.monotonic_ns()
            part = telemetry.unwrap_envelope(kernel(plan, lo, hi))
            if on_result is not None:
                on_result(part)
            out.append(part)
        if rec.enabled:
            _annotate_shard_waits(rec, rec.events_since(mark), submit_ns)
        return out
    workers = min(max_workers or os.cpu_count() or 1, len(ranges))
    if executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = []
            for lo, hi in ranges:
                if rec.enabled:
                    submit_ns[(lo, hi)] = _tclock.monotonic_ns()
                futures.append(pool.submit(kernel, plan, lo, hi))
            out = _drain_completed(futures, on_result)
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise RuntimeError(
                "the 'process' executor needs fork(); use executor='thread'"
            ) from exc
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=initializer,
            initargs=(plan,),
        ) as pool:
            futures = []
            for bounds in ranges:
                if rec.enabled:
                    submit_ns[tuple(bounds)] = _tclock.monotonic_ns()
                futures.append(pool.submit(worker, bounds))
            out = _drain_completed(futures, on_result)
    if rec.enabled:
        _annotate_shard_waits(rec, rec.events_since(mark), submit_ns)
    return out


def _drain_completed(futures, on_result):
    """Drain futures as they complete; return results in submission order."""
    index = {fut: i for i, fut in enumerate(futures)}
    out: list = [None] * len(futures)
    for fut in as_completed(index):
        part = telemetry.unwrap_envelope(fut.result())
        out[index[fut]] = part
        if on_result is not None:
            on_result(part)
    return out


def plan_shards(n_hosts: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous host ranges ``[lo, hi)`` covering ``range(n_hosts)``.

    Shard sizes differ by at most one host; asking for more shards than
    hosts yields one host per shard.
    """
    if n_hosts < 1:
        raise ValueError("need at least one host")
    if n_shards < 1:
        raise ValueError("need at least one shard")
    n_shards = min(n_shards, n_hosts)
    base, extra = divmod(n_hosts, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass(frozen=True)
class StageConfig:
    """Execution settings for one engine stage (``probe`` or ``collect``).

    ``None`` fields inherit the run-level ``EngineConfig.n_shards`` /
    ``EngineConfig.executor``; :meth:`EngineConfig.stage` applies that
    resolution rule and returns a fully-resolved ``StageConfig`` (whose
    fields may still be ``None`` when the run-level knobs are auto).
    """

    shards: int | None = None
    executor: str | None = None

    def __post_init__(self) -> None:
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be None (inherit) or >= 1")
        if self.executor is not None and self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be None (inherit) or one of {_EXECUTORS}, "
                f"got {self.executor!r}"
            )


@dataclass(frozen=True)
class EngineConfig:
    """How the engine should execute one large collection.

    ``n_shards=None`` means one shard per available core.  The
    ``executor`` defaults to ``None`` — auto: ``"thread"`` normally
    (the kernels are NumPy-heavy and release the GIL), ``"process"``
    once ``shared_memory`` makes the substrate zero-copy across workers
    and the mesh has at least ``process_min_hosts`` hosts; set it
    explicitly to pin a choice (``"serial"`` runs shards inline —
    debugging, tests).  ``min_hosts`` is the scenario size at which
    :class:`repro.api.Runner` switches a run from the sequential
    pipeline to the engine.  ``substrate="lazy"`` builds networks with
    on-demand timeline generation bounded by an LRU budget of
    ``max_cached_segments`` segments; ``shared_memory=True`` parks the
    (eager) fused bank's arrays in ``multiprocessing.shared_memory`` so
    pool workers read one physical copy.

    Out-of-core runs: ``spill_dir`` makes every shard write its partial
    trace to disk as it completes and the merge stream through
    memory-mapped arrays (see :mod:`repro.engine.spill`), and
    ``max_resident_shards`` caps how many shards may be in flight — and
    therefore resident — at once.  Each run spills into its own
    subdirectory ``<spill_dir>/<dataset>-seed<seed>-<identity hash>/``
    (see :func:`repro.engine.spill.run_slug`; sweeps over any spec axis
    may share one ``spill_dir``); the merged trace's columns are
    read-only memory maps under its ``merged/``.

    The probing subsystem — formerly the last sequential stage of a
    sharded run — is sharded too.  Per-stage execution is configured
    through :class:`StageConfig`: ``probe=StageConfig(shards=...,
    executor=...)`` scales the :class:`~repro.engine.ShardedProbe` that
    computes the probe grid and routing tables once in the parent
    (before collection shards fan out and share them read-only), and
    ``collect=StageConfig(...)`` does the same for the collection
    fan-out.  Unset (``None``) stage fields inherit the run-level
    ``n_shards``/``executor`` — the single resolution rule of
    :meth:`stage`.  The legacy paired knobs ``probe_shards``/
    ``probe_executor`` are deprecated aliases for ``probe=``; they
    still work (folded into ``probe`` with a :class:`DeprecationWarning`)
    but cannot be combined with an explicit ``probe``.

    ``pipeline=True`` replaces the barrier stage sequence (probe →
    tables → collect → merge, each waiting for the last) with the
    completion-order scheduler of :mod:`repro.engine.pipeline`:
    estimates fold as probe shards land, each collection shard starts
    the moment *its* routing-table block is selected, and the merge
    (plus streaming analysis) scatters finished shards while later ones
    are still collecting.  The output is bitwise identical — stage
    overlap only moves wall-clock idle time, never a byte.  Pipelined
    runs drive probing and collection through one shared pool, so
    ``probe_executor`` is ignored in this mode.

    The engine parallelises *within* one run; the runner's
    ``max_workers`` parallelises *across* runs.  Combining both
    oversubscribes cores (each concurrent run spawns its own shard
    pool), so engine sweeps should keep ``Runner(max_workers=1)`` (the
    default) or cap per-run width via ``max_workers`` here.
    """

    n_shards: int | None = None
    executor: str | None = None
    max_workers: int | None = None
    min_hosts: int = 32
    substrate: str = "eager"
    max_cached_segments: int | None = None
    probe_shards: int | None = None
    probe_executor: str | None = None
    probe: StageConfig | None = None
    collect: StageConfig | None = None
    spill_dir: str | Path | None = None
    max_resident_shards: int | None = None
    shared_memory: bool = False
    process_min_hosts: int = PROCESS_MIN_HOSTS
    pipeline: bool = False

    def __post_init__(self) -> None:
        if self.n_shards is not None and self.n_shards < 1:
            raise ValueError("n_shards must be None (auto) or >= 1")
        if self.executor is not None and self.executor not in _EXECUTORS:
            raise ValueError(
                f"executor must be None (auto) or one of {_EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be None or >= 1")
        if self.min_hosts < 1:
            raise ValueError("min_hosts must be >= 1")
        if self.substrate not in _SUBSTRATES:
            raise ValueError(f"substrate must be one of {_SUBSTRATES}, got {self.substrate!r}")
        if self.probe is not None and not isinstance(self.probe, StageConfig):
            raise TypeError("probe must be a StageConfig or None")
        if self.collect is not None and not isinstance(self.collect, StageConfig):
            raise TypeError("collect must be a StageConfig or None")
        if self.probe_shards is not None or self.probe_executor is not None:
            if self.probe is not None:
                raise ValueError(
                    "pass either probe=StageConfig(...) or the deprecated "
                    "probe_shards/probe_executor aliases, not both"
                )
            warnings.warn(
                "probe_shards/probe_executor are deprecated; use "
                "probe=StageConfig(shards=..., executor=...)",
                DeprecationWarning,
                stacklevel=3,
            )
            # StageConfig validates the alias values (>= 1, known executor);
            # the aliases are cleared after folding so the canonical form
            # lives in ``probe`` alone (keeps dataclasses.replace sound).
            object.__setattr__(
                self,
                "probe",
                StageConfig(shards=self.probe_shards, executor=self.probe_executor),
            )
            object.__setattr__(self, "probe_shards", None)
            object.__setattr__(self, "probe_executor", None)
        if self.max_resident_shards is not None:
            if self.max_resident_shards < 1:
                raise ValueError("max_resident_shards must be None or >= 1")
            if self.spill_dir is None:
                raise ValueError(
                    "max_resident_shards bounds spilled shards in flight; "
                    "it needs spill_dir"
                )
        if self.shared_memory and self.substrate != "eager":
            raise ValueError(
                "shared_memory shares the eager timeline arrays; combine it "
                f"with substrate='eager', not {self.substrate!r}"
            )
        if self.process_min_hosts < 1:
            raise ValueError("process_min_hosts must be >= 1")

    @property
    def resolved_substrate(self) -> str:
        """The ``Network.build`` substrate flavour this config implies."""
        return "shared" if self.shared_memory else self.substrate

    def stage(self, name: str) -> StageConfig:
        """Resolved execution settings for one stage.

        The single resolution rule of the per-stage config surface: the
        stage's own :class:`StageConfig` fields win where set, the
        run-level ``n_shards``/``executor`` fill the rest.  Fields may
        still come back ``None`` — auto — when neither level pins them.
        """
        if name not in ("probe", "collect"):
            raise ValueError(f"unknown stage {name!r}; stages are 'probe' and 'collect'")
        override = self.probe if name == "probe" else self.collect
        if override is None:
            override = StageConfig()
        return StageConfig(
            shards=override.shards if override.shards is not None else self.n_shards,
            executor=override.executor if override.executor is not None else self.executor,
        )


# -- process-pool plumbing ---------------------------------------------------
# fork workers inherit the plan (network included) by memory, so nothing
# but the (small) shard ranges and partial traces crosses the pipe.

_WORKER_PLAN: CollectionPlan | None = None


def _init_worker(plan: CollectionPlan) -> None:
    global _WORKER_PLAN
    _WORKER_PLAN = plan


def _run_shard(bounds: tuple[int, int]) -> Trace:
    assert _WORKER_PLAN is not None, "worker used before initialisation"
    return telemetry.run_instrumented(collect_rows, _WORKER_PLAN, *bounds)


#: which per-stage counter suffix a shard span's waits fold into.
#: ``spill-write`` spans get the args annotation but no counter: the
#: write happens inside an already-executing shard, so its "wait" is
#: the same pool wait the enclosing ``shard-collect`` span reports.
_SPAN_STAGE = {"shard-probe": "probe", "shard-collect": "collect"}


def _annotate_shard_waits(recorder, events, submit_ns: dict) -> None:
    """Stamp per-shard queue wait onto the shard spans of one fan-out.

    ``submit_ns`` maps each shard's ``(host_lo, host_hi)`` to the
    parent's submit time for that shard.  ``CLOCK_MONOTONIC`` is
    machine-wide, so a worker span's begin time minus that stamp is the
    shard's pool queue wait — how long it sat behind ``max_workers``/
    ``max_resident_shards`` before executing.  Waits and exec times
    fold into per-stage counters (``shard.queue_wait_ns.probe`` /
    ``shard.queue_wait_ns.collect``, likewise ``shard.exec_ns.*``) and
    into the stage-summed totals (``shard.queue_wait_ns`` /
    ``shard.exec_ns``) — the numbers the pipelined scheduler reclaims
    barrier idle time against.  Spans already annotated (an earlier
    fan-out's) are left untouched.
    """
    for ev in events:
        if ev.get("ev") != "span" or ev.get("cat") != "shard":
            continue
        args = ev["args"]
        if "queue_wait_ns" in args:
            continue
        base = submit_ns.get((args.get("host_lo"), args.get("host_hi")))
        if base is None:
            continue
        wait = max(ev["ts_ns"] - base, 0)
        args["queue_wait_ns"] = wait
        stage = _SPAN_STAGE.get(ev["name"])
        if stage is not None:
            recorder.counter_add("shard.queue_wait_ns", wait)
            recorder.counter_add("shard.exec_ns", ev["dur_ns"])
            recorder.counter_add(f"shard.queue_wait_ns.{stage}", wait)
            recorder.counter_add(f"shard.exec_ns.{stage}", ev["dur_ns"])


class ShardedCollector:
    """Executes one collection sharded by source host.

    Drop-in for :func:`repro.testbed.collect`::

        col = ShardedCollector().collect(dataset("ron2003"), 3600.0, seed=1)

    produces a :class:`CollectionResult` whose trace fingerprint is
    identical to the sequential call with the same arguments.
    """

    def __init__(self, config: EngineConfig | None = None, **overrides) -> None:
        if config is not None and overrides:
            raise ValueError("pass either a config or field overrides, not both")
        self.config = config if config is not None else EngineConfig(**overrides)

    def resolve_shards(self, n_hosts: int) -> int:
        wanted = self.config.stage("collect").shards or os.cpu_count() or 1
        return max(1, min(wanted, n_hosts))

    def resolve_workers(self) -> int | None:
        """Pool width: ``max_workers``, capped by ``max_resident_shards``
        in spill mode (a shard in flight is a shard resident)."""
        cfg = self.config
        if cfg.max_resident_shards is None:
            return cfg.max_workers
        return min(cfg.max_workers or os.cpu_count() or 1, cfg.max_resident_shards)

    def probe_runner(self):
        """The :class:`~repro.engine.ShardedProbe` this config implies.

        The probe stage's :class:`StageConfig` resolves against the
        run-level settings (see :meth:`EngineConfig.stage`), so one
        config scales both stages together; a ``None`` executor
        resolves per run (see :func:`auto_executor`).
        """
        from .probing import ShardedProbe  # sharding <-> probing cycle

        cfg = self.config
        probe = cfg.stage("probe")
        return ShardedProbe(
            n_shards=probe.shards,
            executor=probe.executor,
            max_workers=cfg.max_workers,
            process_min_hosts=cfg.process_min_hosts,
        )

    def collect(
        self,
        spec: DatasetSpec,
        duration_s: float,
        seed: int = 0,
        include_events: bool = True,
        network: Network | None = None,
        analyzer=None,
    ) -> CollectionResult:
        """Collect ``spec`` sharded across the configured executor.

        The probing stage runs first, itself sharded (see
        :meth:`probe_runner`); the resulting routing tables are part of
        the shared plan every collection shard reads.  With
        ``spill_dir`` set, shards stream through disk instead of RAM
        (see :mod:`repro.engine.spill`) — same bytes, bounded
        residency, and the result records its run's spill directory.

        ``analyzer`` (a
        :class:`repro.analysis.StreamingAnalyzer`) has each completed
        shard folded into it — ``analyzer.ingest(part)`` in the parent,
        in completion order (the accumulators are order-invariant) — so
        Table/Figure statistics are ready the moment the run (or even
        just its first shards) are.

        With ``pipeline=True`` the whole call is handed to the
        completion-order scheduler (:mod:`repro.engine.pipeline`),
        which overlaps the probe/tables/collect/merge stages instead of
        running them as barriers; result, spans and manifest keep this
        method's contract, and the trace is bitwise identical.

        With telemetry enabled (:func:`repro.telemetry.enable`), the
        full stage pipeline — probe, tables, collect, per-shard
        kernels, spill writes, merge, analyze — records spans and
        counters; a spilled run additionally persists them as a
        ``telemetry.jsonl`` manifest in its run directory (see
        :mod:`repro.telemetry`).  The output trace is byte-identical
        either way."""
        if self.config.pipeline:
            from .pipeline import collect_pipelined  # sharding <-> pipeline cycle

            return collect_pipelined(
                self,
                spec,
                duration_s,
                seed=seed,
                include_events=include_events,
                network=network,
                analyzer=analyzer,
            )
        rec = telemetry.get_recorder()
        mark = rec.mark()
        counters_base = rec.counter_snapshot()
        plan = prepare_collection(
            spec,
            duration_s,
            seed=seed,
            include_events=include_events,
            network=network,
            substrate=self.config.resolved_substrate,
            max_cached_segments=self.config.max_cached_segments,
            probing=self.probe_runner(),
        )
        ranges = plan_shards(plan.n_hosts, self.resolve_shards(plan.n_hosts))
        executor = self.config.stage("collect").executor or auto_executor(
            plan.network, plan.n_hosts, self.config.process_min_hosts
        )
        on_result = analyzer.ingest if analyzer is not None else None
        directory: Path | None = None
        with rec.span("collect", cat="stage", executor=executor, shards=len(ranges)):
            if self.config.spill_dir is not None:
                directory = Path(self.config.spill_dir) / run_slug(plan)
                directory.mkdir(parents=True, exist_ok=True)
                parts = run_shards(
                    SpillPlan(plan=plan, directory=directory),
                    ranges,
                    kernel=collect_rows_spilled,
                    worker=spill_mod._run_shard,
                    initializer=spill_mod._init_worker,
                    executor=executor,
                    max_workers=self.resolve_workers(),
                    on_result=on_result,
                )
            else:
                parts = self._run(plan, ranges, executor, on_result)
        with rec.span("merge", cat="stage", parts=len(parts)):
            trace = Trace.concatenate(parts)
        if rec.enabled:
            rss = _tclock.peak_rss_bytes()
            if rss is not None:
                rec.gauge_set("process.peak_rss_bytes", rss)
            if directory is not None:
                telemetry.write_manifest(
                    directory,
                    rec.events(mark, counters_base),
                    run={
                        "dataset": plan.meta.dataset,
                        "mode": plan.meta.mode,
                        "seed": plan.seed,
                        "horizon_s": plan.meta.horizon_s,
                        "hosts": plan.n_hosts,
                        "methods": list(plan.meta.method_names),
                        "executor": executor,
                        "n_shards": len(ranges),
                        "pid": os.getpid(),
                    },
                )
        return CollectionResult(
            trace=trace, network=plan.network, tables=plan.tables, spill_dir=directory
        )

    def _run(
        self,
        plan: CollectionPlan,
        ranges: list[tuple[int, int]],
        executor: str,
        on_result=None,
    ) -> list[Trace]:
        return run_shards(
            plan,
            ranges,
            kernel=collect_rows,
            worker=_run_shard,
            initializer=_init_worker,
            executor=executor,
            max_workers=self.resolve_workers(),
            on_result=on_result,
        )


# re-exported convenience: an EngineConfig with sharding forced on for
# any size, used by tests and small-scenario experiments
def always_shard(**overrides) -> EngineConfig:
    """An :class:`EngineConfig` that engages the engine at any host count."""
    return replace(EngineConfig(min_hosts=1), **overrides)
