"""`repro.engine`: the scale-out collection engine.

The measurement pipeline in :mod:`repro.testbed.collection` defines the
*semantics* of a run; this package makes large runs fast without
changing a single output bit:

* :class:`ShardedCollector` splits one ``collect()`` by source host into
  deterministic shards executed on a thread/process pool and merged with
  :meth:`repro.trace.Trace.concatenate` — the trace fingerprint is
  identical to a sequential run, because every source block draws from
  its own named RNG substreams and canonical row order is by probe id.
* :class:`ShardedProbe` does the same for the probing subsystem — the
  all-pairs probe grid that feeds reactive routing: per-source-host
  ``probing/<host>`` substreams make any shard layout merge into the
  bitwise-identical :class:`~repro.core.reactive.ProbeSeries`, and the
  routing tables built from it select every grid slot in one batched
  NumPy pass instead of a per-slot Python loop.
* :class:`~repro.netsim.substrate.LazyTimelineBank` (via
  ``Network.build(..., substrate="lazy")``) generates each segment's
  substrate timelines on demand behind an LRU budget, so 100-host
  meshes don't pay for — or hold — state their probes never touch.
* **Out-of-core runs** — ``EngineConfig(spill_dir=...)`` streams each
  shard's partial trace through disk as it completes
  (:mod:`repro.engine.spill`) and merges into memory-mapped arrays, so
  a run larger than RAM finishes with residency bounded by
  ``max_resident_shards``; ``shared_memory=True`` parks the substrate
  timeline arrays in one ``multiprocessing.shared_memory`` block
  (:class:`~repro.netsim.substrate.SharedTimelineBank`) so process
  pools stop duplicating the substrate — at which point ``"process"``
  becomes the default executor above ``process_min_hosts`` hosts.
* **Pipelined stage execution** — ``EngineConfig(pipeline=True)`` hands
  the run to :func:`~repro.engine.pipeline.collect_pipelined`, which
  drops the barriers between probe/tables/collect/merge that the data
  flow does not force: estimates fold as probe shards land, each
  collection shard starts the moment *its* routing-table block is
  selected, and the merge (plus streaming analysis) scatters finished
  shards while later ones still run.  Same bytes, less pool idle time.

Wire it into sweeps through ``repro.api.Runner(engine=EngineConfig())``.
"""

from repro.netsim.substrate import LazyTimelineBank, SharedTimelineBank

from .pipeline import collect_pipelined
from .probing import ShardedProbe
from .sharding import (
    EngineConfig,
    ShardedCollector,
    StageConfig,
    always_shard,
    auto_executor,
    plan_shards,
)

__all__ = [
    "EngineConfig",
    "StageConfig",
    "ShardedCollector",
    "ShardedProbe",
    "always_shard",
    "auto_executor",
    "collect_pipelined",
    "plan_shards",
    "LazyTimelineBank",
    "SharedTimelineBank",
]
