"""Substrate lookup bench: the fused bank against a per-cause reference.

Every packet copy looks up congestion, outage and delay severity on each
segment it crosses.  The fused :class:`~repro.netsim.state.TimelineBank`
answers all three from one search; the reference below is how the
lookup used to work — one shifted, concatenated boundary array and one
``searchsorted`` per cause, over the same regenerated timelines.

Two measurements, each asserted bitwise equal to the reference:

* a CI-sized Section 4.4 round — paired probes at five spacings through
  :meth:`repro.Network.sample_pairs`, once per bank on the same RNG
  stream;
* a raw bank query over a (rows x path length) batch of real path
  segments, with NO_SEGMENT padding.

Results land in ``benchmarks/out/substrate_lookup.json``;
``tools/perf_gate.py`` gates the fused ``*_seconds`` leaves (the
reference timings are informational, ``*_s``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.netsim import Network, RngFactory, config_2003
from repro.netsim.state import CAUSES, SegmentTimelineRecipe
from repro.testbed import hosts_2003

OUT_DIR = Path(__file__).parent / "out"

HORIZON = 6 * 3600.0
SEED = 1
PAIRS = 60_000
GAPS_S = (0.0, 0.010, 0.020, 0.100, 0.500)
QUERY_ROWS = 200_000
REPEATS = 3


class PerCauseBank:
    """The pre-fusion lookup, duck-typed for :class:`repro.Network`: three
    separate shifted boundary arrays and three searches per query."""

    def __init__(self, net: Network, seed: int) -> None:
        horizon = net.horizon
        self.shift = horizon * 2.0 + 1.0
        self.horizon = horizon
        recipe = SegmentTimelineRecipe(net.topology, horizon, RngFactory(seed))
        self.banks = []
        for kind in CAUSES:
            tls = [recipe.timeline(kind, seg) for seg in net.topology.registry]
            bounds = [tl.boundaries + sid * self.shift for sid, tl in enumerate(tls)]
            sev = [tl.severity for tl in tls]
            self.banks.append((np.concatenate(bounds), np.concatenate(sev)))
        self.corr_length = net.state.bank.corr_length

    def severity_at(self, sids: np.ndarray, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=np.float64)
        ok = (sids >= 0) & (t >= 0.0) & (t < self.horizon)
        q = np.where(ok, t, 0.0) + np.where(ok, sids, 0) * self.shift
        return np.stack(
            [
                np.where(ok, sev[np.searchsorted(bounds, q, side="right") - 1], 0.0)
                for bounds, sev in self.banks
            ]
        )


def clp_round(net: Network) -> tuple[dict, list]:
    rng = RngFactory(SEED).stream("substrate-lookup")
    n = net.topology.n_hosts
    src = rng.integers(0, n, PAIRS)
    dst = (src + 1 + rng.integers(0, n - 1, PAIRS)) % n
    times = rng.uniform(0.0, net.horizon * 0.999, PAIRS)
    pid = net.paths.direct_pids(src, dst)
    clp, outcomes = {}, []
    for gap in GAPS_S:
        pair = net.sample_pairs(pid, pid, times, gap=gap, rng=rng)
        clp[gap] = 100.0 * int((pair.lost1 & pair.lost2).sum()) / max(int(pair.lost1.sum()), 1)
        outcomes.append(pair)
    return clp, outcomes


def best_of(fn, repeats: int = REPEATS):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), result


def test_fused_lookup_matches_per_cause_reference():
    net = Network.build(hosts_2003(), config_2003(), HORIZON, seed=SEED)
    fused = net.state.bank
    reference = PerCauseBank(net, SEED)

    # --- raw bank query over real path segments -----------------------
    rng = np.random.default_rng(SEED)
    pids = rng.integers(0, len(net.paths.valid), QUERY_ROWS)
    pids = pids[net.paths.valid[pids]]
    segs = net.paths.seg[pids]
    t = rng.uniform(-60.0, HORIZON + 60.0, len(pids))[:, None] + net.paths.offset[pids]
    query_s, got = best_of(lambda: fused.severity_at(segs, t))
    reference_query_s, want = best_of(lambda: reference.severity_at(segs, t))
    np.testing.assert_array_equal(got, want)

    # --- Section 4.4 round through sample_pairs -----------------------
    round_s, (clp, outcomes) = best_of(lambda: clp_round(net))
    net.state.bank = reference
    try:
        reference_round_s, (ref_clp, ref_outcomes) = best_of(lambda: clp_round(net))
    finally:
        net.state.bank = fused
    assert clp == ref_clp
    for a, b in zip(outcomes, ref_outcomes):
        for field in ("lost1", "lost2", "latency1", "latency2"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert clp[0.0] > clp[0.500]  # back-to-back copies share their fate

    results = {
        "horizon_s": HORIZON,
        "pairs": PAIRS,
        "gaps": len(GAPS_S),
        "queries": int(got.size),
        "bounds": int(len(fused._bounds)),
        "round_seconds": round(round_s, 4),
        "reference_round_s": round(reference_round_s, 4),
        "round_speedup": round(reference_round_s / round_s, 2),
        "query_seconds": round(query_s, 4),
        "reference_query_s": round(reference_query_s, 4),
        "query_speedup": round(reference_query_s / query_s, 2),
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "substrate_lookup.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    # one search for three causes must beat three searches
    assert query_s < reference_query_s, results
