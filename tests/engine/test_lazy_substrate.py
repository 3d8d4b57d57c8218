"""Lazy substrate parity: on-demand per-segment generation of the fused
bank (with and without an LRU budget) must answer every query bitwise
identically to the eager TimelineBank."""

import numpy as np
import pytest

from repro.netsim import Network, RngFactory, config_2003
from repro.netsim.state import CAUSES, SegmentTimelineRecipe, TimelineBank, build_state
from repro.netsim.substrate import LazyTimelineBank
from repro.netsim.topology import build_topology
from repro.testbed import collect, dataset
from repro.trace import trace_fingerprint

from ..conftest import tiny_hosts

HORIZON = 3600.0


@pytest.fixture(scope="module")
def topo():
    return build_topology(tiny_hosts(), config_2003(), RngFactory(13))


@pytest.fixture(scope="module")
def eager(topo):
    return build_state(topo, HORIZON, RngFactory(13))


def random_queries(n_seg, rng, n=4000):
    """(sids, times) matrices including padding and out-of-horizon rows."""
    sids = rng.integers(-1, n_seg, size=(n, 7))
    times = rng.uniform(-50.0, HORIZON * 1.1, size=(n, 7))
    return sids, times


@pytest.mark.parametrize("budget", [None, 3, 16])
@pytest.mark.parametrize("kind", ["congestion", "outage", "delay"])
def test_severity_matches_eager_bitwise(topo, eager, kind, budget):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, max_cached=budget)
    bank = getattr(eager, kind)
    rng = np.random.default_rng(5)
    for _ in range(3):
        sids, times = random_queries(len(topo.registry), rng)
        np.testing.assert_array_equal(
            lazy.cause(kind).severity_at(sids, times), bank.severity_at(sids, times)
        )
        # the fused query answers all three causes at once, same bits
        np.testing.assert_array_equal(
            lazy.severity_at(sids, times), eager.bank.severity_at(sids, times)
        )
    np.testing.assert_array_equal(lazy.cause(kind).corr_length, bank.corr_length)
    if budget is not None:
        assert lazy.cached_segments <= budget


def test_budget_churn_regenerates_identically(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, max_cached=2)
    rng = np.random.default_rng(9)
    sids, times = random_queries(len(topo.registry), rng)
    first = lazy.cause("outage").severity_at(sids, times)
    again = lazy.cause("outage").severity_at(sids, times)
    np.testing.assert_array_equal(first, again)
    assert lazy.generated_segments > lazy.cached_segments  # it really churned

    np.testing.assert_array_equal(first, eager.outage.severity_at(sids, times))


def test_warm_unbounded_bank_flattens(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe)
    n = len(topo.registry)
    sids = np.arange(n)
    times = np.linspace(0.0, HORIZON * 0.99, n)
    warm = lazy.severity_at(sids, times)  # touches every segment
    assert lazy._flat is not None
    np.testing.assert_array_equal(warm, eager.bank.severity_at(sids, times))
    # post-flatten queries go through the eager layout, same bits
    rng = np.random.default_rng(21)
    q_sids, q_times = random_queries(n, rng)
    np.testing.assert_array_equal(
        lazy.cause("congestion").severity_at(q_sids, q_times),
        eager.congestion.severity_at(q_sids, q_times),
    )


def test_budgeted_bank_never_flattens(topo):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe, max_cached=4)
    n = len(topo.registry)
    lazy.severity_at(np.arange(n), np.full(n, 10.0))
    assert lazy._flat is None
    assert lazy.cached_segments <= 4


def test_mean_severity_and_materialize_match_eager(topo, eager):
    recipe = SegmentTimelineRecipe(topo, HORIZON, RngFactory(13))
    lazy = LazyTimelineBank(recipe)
    np.testing.assert_array_equal(
        lazy.cause("congestion").mean_severity, eager.congestion.mean_severity
    )
    # re-fusing the lazy rows materialises the eager layout, same bytes
    bank = TimelineBank.fuse({kind: lazy.cause(kind) for kind in CAUSES})
    np.testing.assert_array_equal(bank.mean_severity, eager.bank.mean_severity)
    np.testing.assert_array_equal(bank._bounds, eager.bank._bounds)
    np.testing.assert_array_equal(bank._sev, eager.bank._sev)


def test_lazy_network_collects_identically():
    ds = dataset("ronnarrow")
    eager_col = collect(ds, 300.0, seed=8)
    lazy_net = Network.build(
        ds.hosts(),
        ds.network_config(300.0),
        300.0,
        seed=8,
        substrate="lazy",
        max_cached_segments=32,
    )
    lazy_col = collect(ds, 300.0, seed=8, network=lazy_net)
    assert trace_fingerprint(lazy_col.trace) == trace_fingerprint(eager_col.trace)


def test_substrate_validation():
    ds = dataset("ronnarrow")
    with pytest.raises(ValueError, match="substrate"):
        Network.build(ds.hosts(), ds.network_config(100.0), 100.0, substrate="warm")
    topo = build_topology(tiny_hosts(), config_2003(), RngFactory(0))
    recipe = SegmentTimelineRecipe(topo, 100.0, RngFactory(0))
    with pytest.raises(ValueError):
        LazyTimelineBank(recipe, max_cached=0)
