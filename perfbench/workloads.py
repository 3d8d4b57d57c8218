"""The benchmark's workloads: what each operation runs and checks.

A run builds the substrate with ``setup`` (timed as ``setup_s``), then
repeats operations on it: ``run`` plus ``check``, timed together as
``run_s``.  Every input is derived from the workload seed; the program
only ever receives the generated spec.

At :data:`DEFAULT_SEED` and the standard sizes each workload also
compares a SHA-256 of its output with the value pinned here; at any
seed it checks invariants that need no pinned value.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import tempfile

import numpy as np

from repro import Experiment, FecSpec, Network, collect
from repro.analysis import StreamingAnalyzer, method_stats_table
from repro.api import ExperimentResult
from repro.engine import ShardedCollector
from repro.netsim import config_2003
from repro.scenarios import stress_mesh
from repro.testbed import dataset, hosts_2003
from repro.testbed.collection import prepare_collection_base
from repro.trace import apply_standard_filters, trace_fingerprint

#: the seed whose outputs are pinned below.
DEFAULT_SEED = 1

#: SHA-256 pins at DEFAULT_SEED and each workload's standard size:
#: the raw trace (Trace fingerprint) of paper-ron2003, the merged trace
#: of mesh100-engine (equal to sequential ``collect`` of the same spec),
#: and the five float64 CLP values of clp-sweep.
PIN_RON2003 = "65862f5e3b5df66a31afbc55db1951d66d464f1710a1d956901996a1be3a0102"
PIN_CLP = "1bc1fd5ae5ec9a66904ba64a6b053facb6e5047eba5e1f8d34bbe7f2f8014940"
PIN_MESH100 = "c2d87e4f8c5d29ef506e8f83d5be06109849bd3cd343121a8fc0fd35ad8fb30b"

WINDOW_SERIES = ("direct_direct", "direct_rand", "lat_loss", "dd_10ms", "dd_20ms", "loss")
CLP_SERIES = ("direct_direct", "direct_rand", "dd_10ms", "dd_20ms")
LATENCY_SERIES = ("direct_direct", "direct_rand", "lat_loss", "loss")
STATS_FIELDS = ("n_probes", "lp1", "lp2", "totlp", "clp", "latency_ms", "inferred")


def _schedule_rows(ds, duration_s: float, seed: int, include_events: bool, network) -> int:
    """Rows the collection schedule holds (every probe yields one row)."""
    plan = prepare_collection_base(
        ds, duration_s, seed=seed, include_events=include_events, network=network
    )
    return len(plan.sched)


def _same(x, y) -> bool:
    if isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y):
        return True
    return x == y


class Workload:
    """What the loop in :mod:`perfbench.harness` drives.

    ``prepare`` (untimed) fixes the seed and any registration;
    ``setup`` builds the substrate; ``run`` produces the outputs,
    including ``"probes"``, the fixed probe count of one operation;
    ``check`` lists every failed check; ``release`` and ``close`` clean
    up after an operation and after the run (both untimed).  ``workers``
    is how many worker processes the workload runs on.
    """

    name = ""
    workers = 0

    def prepare(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def setup(self) -> Network:
        raise NotImplementedError

    def run(self, network: Network) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        raise NotImplementedError

    def release(self, out: dict) -> None:
        pass

    def close(self) -> None:
        pass


class PaperRon2003(Workload):
    """A scaled paper reproduction on the sequential pipeline.

    ``Experiment("ron2003", fec=FecSpec(n_paths=2))`` is collected with
    :func:`repro.collect` (no engine, no spill), then Table 5, Table 6,
    Figures 2-5, the Figure 6 design space and the Section 5.2 FEC
    report are computed from it.
    """

    name = "paper-ron2003"

    def __init__(
        self, hours: float = 1.0, fec_groups: int = 20_000, pin: str | None = None
    ) -> None:
        self.hours = hours
        self.fec_groups = fec_groups
        self.pin = pin

    def prepare(self, seed: int, scratch: str) -> None:
        super().prepare(seed, scratch)
        self.spec = Experiment(
            "ron2003",
            duration_s=self.hours * 3600.0,
            seeds=(seed,),
            fec=FecSpec(n_paths=2, groups=self.fec_groups),
        ).spec
        self.ds = self.spec.resolved_dataset()

    def setup(self) -> Network:
        spec, ds = self.spec, self.ds
        cfg = ds.network_config(spec.duration_s, include_events=spec.include_events)
        return Network.build(
            ds.hosts(), cfg, spec.duration_s, seed=self.seed, relay_policy=ds.relay_policy
        )

    def run(self, network: Network) -> dict:
        spec = self.spec
        col = collect(
            self.ds,
            spec.duration_s,
            seed=self.seed,
            include_events=spec.include_events,
            network=network,
        )
        res = ExperimentResult(spec=spec, seed=self.seed, collection=col)
        return {
            "network": network,
            "trace": res.raw_trace,
            "probes": len(res.raw_trace),
            "table5": res.loss_table(),
            "table6": res.high_loss(),
            "fig2": res.path_loss_cdf(),
            "fig3": {m: res.window_cdf(m) for m in WINDOW_SERIES},
            "fig4": {m: res.clp_cdf(m) for m in CLP_SERIES},
            "fig5": {m: res.latency_cdf(m, baseline="direct_direct") for m in LATENCY_SERIES},
            "fig6": res.design_space(),
            "fec": res.fec_report(),
        }

    def check(self, out: dict) -> list[str]:
        spec = self.spec
        problems = []
        expected = _schedule_rows(
            self.ds, spec.duration_s, self.seed, spec.include_events, out["network"]
        )
        if len(out["trace"]) != expected:
            problems.append(f"trace has {len(out['trace'])} rows, schedule has {expected}")
        if out["fec"].n_groups != spec.fec.groups:
            problems.append(
                f"FEC simulated {out['fec'].n_groups} groups, spec asks {spec.fec.groups}"
            )
        if self.pin is not None and self.seed == DEFAULT_SEED:
            digest = trace_fingerprint(out["trace"])["sha256"]
            if digest != self.pin:
                problems.append(f"raw trace sha256 {digest} != pinned {self.pin}")
        return problems


class ClpSweep(Workload):
    """The Section 4.4 round: conditional loss probability of paired
    probes against their spacing, sampled straight from the substrate
    with :meth:`repro.Network.sample_pairs`."""

    name = "clp-sweep"
    GAPS_S = (0.0, 0.010, 0.020, 0.100, 0.500)

    def __init__(
        self, hours: float = 24.0, pairs: int = 250_000, pin: str | None = None
    ) -> None:
        self.hours = hours
        self.pairs = pairs
        self.pin = pin

    def setup(self) -> Network:
        return Network.build(
            hosts_2003(), config_2003(), horizon=self.hours * 3600.0, seed=self.seed
        )

    def run(self, network: Network) -> dict:
        rng = np.random.default_rng(self.seed)
        n = network.topology.n_hosts
        src = rng.integers(0, n, self.pairs)
        dst = (src + 1 + rng.integers(0, n - 1, self.pairs)) % n
        times = rng.uniform(0.0, network.horizon * 0.999, self.pairs)
        pid = network.paths.direct_pids(src, dst)
        clp = {}
        for gap in self.GAPS_S:
            pair = network.sample_pairs(pid, pid, times, gap=gap, rng=rng)
            first = int(pair.lost1.sum())
            clp[gap] = 100.0 * int((pair.lost1 & pair.lost2).sum()) / max(first, 1)
        return {"clp": clp, "probes": self.pairs * len(self.GAPS_S)}

    @staticmethod
    def digest(clp: dict) -> str:
        values = np.asarray(list(clp.values()), dtype=np.float64)
        return hashlib.sha256(values.tobytes()).hexdigest()

    def check(self, out: dict) -> list[str]:
        c = out["clp"]
        problems = []
        # the Section 4.4 assertions: decay with spacing (within noise),
        # massive back-to-back correlation, a plateau at 10-20 ms
        if not c[0.0] >= c[0.010] - 4:
            problems.append(f"CLP(0)={c[0.0]:.2f} < CLP(10ms)={c[0.010]:.2f} - 4")
        if not c[0.010] >= c[0.020] - 4:
            problems.append(f"CLP(10ms)={c[0.010]:.2f} < CLP(20ms)={c[0.020]:.2f} - 4")
        if not c[0.020] >= c[0.500] - 5:
            problems.append(f"CLP(20ms)={c[0.020]:.2f} < CLP(500ms)={c[0.500]:.2f} - 5")
        if not c[0.0] > 55.0:
            problems.append(f"CLP(0)={c[0.0]:.2f} <= 55")
        if not c[0.020] > 40.0:
            problems.append(f"CLP(20ms)={c[0.020]:.2f} <= 40")
        if self.pin is not None and self.seed == DEFAULT_SEED:
            digest = self.digest(c)
            if digest != self.pin:
                problems.append(f"CLP sha256 {digest} != pinned {self.pin}")
        return problems


class Mesh100Engine(Workload):
    """A 100-host ``stress_mesh`` collected by the pipelined, spilling
    engine on two forked workers, then analysed by streaming over the
    spilled shards."""

    name = "mesh100-engine"
    shards = 8
    workers = 2

    def __init__(
        self, hosts: int = 100, duration_s: float = 600.0, pin: str | None = None
    ) -> None:
        self.hosts = hosts
        self.duration_s = duration_s
        self.pin = pin

    def prepare(self, seed: int, scratch: str) -> None:
        super().prepare(seed, scratch)
        self.scratch = scratch
        self.scenario = stress_mesh(n_hosts=self.hosts, seed=seed)
        self.scenario.register()
        self.ds = dataset(self.scenario.name)

    def setup(self) -> Network:
        ds = self.ds
        return Network.build(
            ds.hosts(),
            ds.network_config(self.duration_s),
            self.duration_s,
            seed=self.seed,
            relay_policy=ds.relay_policy,
        )

    def run(self, network: Network) -> dict:
        spill = tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
        col = ShardedCollector(
            pipeline=True,
            spill_dir=spill,
            n_shards=self.shards,
            executor="process",
            max_workers=self.workers,
        ).collect(self.ds, self.duration_s, seed=self.seed, network=network)
        snapshot = StreamingAnalyzer.from_run_dir(col.spill_dir).snapshot()
        return {
            "network": network,
            "trace": col.trace,
            "probes": len(col.trace),
            "streaming": snapshot,
            "spill": spill,
        }

    def check(self, out: dict) -> list[str]:
        problems = []
        trace = out["trace"]
        expected = _schedule_rows(self.ds, self.duration_s, self.seed, True, out["network"])
        if len(trace) != expected:
            problems.append(f"merged trace has {len(trace)} rows, schedule has {expected}")
        eager = method_stats_table(apply_standard_filters(trace))
        streamed = out["streaming"].stats
        if [s.method for s in streamed] != [s.method for s in eager]:
            problems.append("streaming and eager Table 5 list different methods")
        else:
            for s, e in zip(streamed, eager):
                diff = [f for f in STATS_FIELDS if not _same(getattr(s, f), getattr(e, f))]
                if diff:
                    problems.append(f"streaming {s.method} differs from eager in {diff}")
        if self.pin is not None and self.seed == DEFAULT_SEED:
            digest = trace_fingerprint(trace)["sha256"]
            if digest != self.pin:
                problems.append(f"merged trace sha256 {digest} != pinned {self.pin}")
        return problems

    def release(self, out: dict) -> None:
        shutil.rmtree(out["spill"], ignore_errors=True)

    def close(self) -> None:
        self.scenario.unregister()


def standard(name: str):
    """The workload ``name`` at its benchmark size, with its pin."""
    if name == PaperRon2003.name:
        return PaperRon2003(pin=PIN_RON2003)
    if name == ClpSweep.name:
        return ClpSweep(pin=PIN_CLP)
    if name == Mesh100Engine.name:
        return Mesh100Engine(pin=PIN_MESH100)
    raise KeyError(name)


NAMES = (PaperRon2003.name, ClpSweep.name, Mesh100Engine.name)
