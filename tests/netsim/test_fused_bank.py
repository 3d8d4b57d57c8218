"""The fused substrate bank: one search answering congestion, outage and
delay must return, bit for bit, what a plain per-cause ``searchsorted``
over each cause's own shifted boundaries returns — on every storage
backend (eager, lazy with any LRU budget, shared memory)."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Network, Timeline, config_2003
from repro.netsim.state import CAUSES, TimelineBank
from repro.netsim.substrate import LazyTimelineBank, SharedTimelineBank

from ..conftest import tiny_hosts

HORIZONS = (10.0, 3600.0, 86400.0)


def reference(timelines, horizon, sids, times):
    """Per-cause severities the way the separate banks computed them:
    one shifted, concatenated boundary array per cause and one
    ``searchsorted`` over it."""
    shift = horizon * 2.0 + 1.0
    sids = np.asarray(sids)
    t = np.asarray(times, dtype=np.float64)
    ok = (sids >= 0) & (t >= 0.0) & (t < horizon)
    q = np.where(ok, t, 0.0) + np.where(ok, sids, 0) * shift
    rows = []
    for kind in CAUSES:
        tls = timelines[kind]
        bounds = np.concatenate([tl.boundaries + sid * shift for sid, tl in enumerate(tls)])
        sev = np.concatenate([tl.severity for tl in tls])
        rows.append(np.where(ok, sev[np.searchsorted(bounds, q, side="right") - 1], 0.0))
    return np.stack(rows)


class FakeRecipe:
    """The slice of SegmentTimelineRecipe a lazy bank reads, over fixed
    timelines (segments are plain ints)."""

    def __init__(self, timelines, horizon):
        self.timelines = timelines
        self.horizon = horizon
        self.topology = SimpleNamespace(registry=list(range(len(timelines["delay"]))))

    def timeline(self, kind, seg):
        return self.timelines[kind][seg]

    def corr_lengths(self, kind):
        return np.array([tl.corr_length for tl in self.timelines[kind]])


def eager_bank(timelines, horizon):
    return TimelineBank.fuse({kind: TimelineBank(timelines[kind], horizon) for kind in CAUSES})


@st.composite
def substrates(draw):
    """Per-cause timelines over a few segments whose causes share many
    boundaries (each picks a subset of one per-segment pool), some
    ending exactly at the horizon."""
    horizon = draw(st.sampled_from(HORIZONS))
    n_seg = draw(st.integers(1, 6))
    timelines = {kind: [] for kind in CAUSES}
    for _ in range(n_seg):
        inner = draw(
            st.lists(
                st.floats(0.0, horizon, exclude_min=True, allow_nan=False),
                max_size=6,
                unique=True,
            )
        )
        pool = sorted(set(inner) | ({horizon} if draw(st.booleans()) else set()))
        for kind in CAUSES:
            chosen = sorted(x for x in pool if draw(st.booleans()))
            bounds = np.array([0.0] + chosen)
            sev = draw(st.lists(st.floats(0.0, 1.0), min_size=len(bounds), max_size=len(bounds)))
            corr = draw(st.floats(0.0, 200.0))
            timelines[kind].append(Timeline(bounds, np.array(sev), horizon, corr_length=corr))
    return timelines, horizon


@st.composite
def queries(draw, timelines, horizon, n=64):
    """(sids, times) with NO_SEGMENT padding, queries exactly on
    boundaries, before 0 and at or after the horizon."""
    n_seg = len(timelines["delay"])
    on_bounds = np.concatenate([tl.boundaries for kind in CAUSES for tl in timelines[kind]])
    specials = np.array([-1.0, -1e-9, 0.0, horizon, horizon * (1 - 1e-12), horizon * 1.5])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = np.concatenate(
        [
            rng.choice(on_bounds, n),
            rng.choice(specials, n // 4),
            rng.uniform(-0.1 * horizon, 1.1 * horizon, n),
        ]
    )
    sids = rng.integers(-1, n_seg, size=len(times))
    return sids.reshape(-1, 3), times.reshape(-1, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eager_fused_lookup_equals_per_cause_search(data):
    timelines, horizon = data.draw(substrates())
    bank = eager_bank(timelines, horizon)
    sids, times = data.draw(queries(timelines, horizon))
    want = reference(timelines, horizon, sids, times)
    np.testing.assert_array_equal(bank.severity_at(sids, times), want)
    for i, kind in enumerate(CAUSES):
        np.testing.assert_array_equal(bank.cause(kind).severity_at(sids, times), want[i])
        # a one-cause bank answers without the leading cause axis
        one = TimelineBank(timelines[kind], horizon)
        np.testing.assert_array_equal(one.severity_at(sids, times), want[i])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([None, 2, 16]))
def test_lazy_backend_equals_per_cause_search(data, budget):
    timelines, horizon = data.draw(substrates())
    lazy = LazyTimelineBank(FakeRecipe(timelines, horizon), max_cached=budget)
    for _ in range(3):
        sids, times = data.draw(queries(timelines, horizon))
        np.testing.assert_array_equal(
            lazy.severity_at(sids, times), reference(timelines, horizon, sids, times)
        )
    if budget is not None:
        assert lazy.cached_segments <= budget
    eager = eager_bank(timelines, horizon)
    np.testing.assert_array_equal(lazy.corr_length, eager.corr_length)
    np.testing.assert_array_equal(lazy.mean_severity, eager.mean_severity)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lazy_backend_flattens_to_the_eager_layout(data):
    timelines, horizon = data.draw(substrates())
    n_seg = len(timelines["delay"])
    lazy = LazyTimelineBank(FakeRecipe(timelines, horizon))
    lazy.severity_at(np.arange(n_seg), np.zeros(n_seg))  # touches every segment
    assert lazy._flat is not None and lazy.cached_segments == 0
    eager = eager_bank(timelines, horizon)
    np.testing.assert_array_equal(lazy._flat[0], eager._bounds)
    np.testing.assert_array_equal(lazy._flat[1], eager._sev)
    sids, times = data.draw(queries(timelines, horizon))
    np.testing.assert_array_equal(
        lazy.severity_at(sids, times), reference(timelines, horizon, sids, times)
    )


def test_lazy_backend_churns_and_regenerates_identically():
    rng = np.random.default_rng(3)
    horizon = 3600.0
    timelines = {kind: [_random_timeline(rng, horizon) for _ in range(12)] for kind in CAUSES}
    lazy = LazyTimelineBank(FakeRecipe(timelines, horizon), max_cached=2)
    sids = rng.integers(-1, 12, size=(500, 4))
    times = rng.uniform(-10.0, horizon + 10.0, size=(500, 4))
    first = lazy.severity_at(sids, times)
    again = lazy.severity_at(sids, times)
    assert lazy.generated_segments > 12  # evicted slices were regenerated
    np.testing.assert_array_equal(first, again)
    np.testing.assert_array_equal(first, reference(timelines, horizon, sids, times))


def test_lazy_backend_broadcasts_segments_against_times():
    rng = np.random.default_rng(4)
    horizon = 3600.0
    timelines = {kind: [_random_timeline(rng, horizon) for _ in range(5)] for kind in CAUSES}
    lazy = LazyTimelineBank(FakeRecipe(timelines, horizon), max_cached=2)
    sids = rng.integers(-1, 5, size=(50, 1))
    times = rng.uniform(-10.0, horizon + 10.0, size=(50, 4))
    np.testing.assert_array_equal(
        lazy.severity_at(sids, times), reference(timelines, horizon, sids, times)
    )


def _random_timeline(rng, horizon):
    bounds = np.unique(np.concatenate([[0.0], rng.uniform(0.0, horizon, rng.integers(0, 8))]))
    return Timeline(bounds, rng.uniform(0.0, 1.0, len(bounds)), horizon)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_shared_backend_and_its_attached_copy_answer_identically(data):
    timelines, horizon = data.draw(substrates())
    eager = eager_bank(timelines, horizon)
    shared = SharedTimelineBank(eager)
    attached = pickle.loads(pickle.dumps(shared))
    assert attached.shm_name == shared.shm_name and attached.causes == CAUSES
    sids, times = data.draw(queries(timelines, horizon))
    want = reference(timelines, horizon, sids, times)
    np.testing.assert_array_equal(shared.severity_at(sids, times), want)
    np.testing.assert_array_equal(attached.severity_at(sids, times), want)
    np.testing.assert_array_equal(attached.cause("outage").severity_at(sids, times), want[1])
    np.testing.assert_array_equal(attached.corr_length, eager.corr_length)
    del attached


def test_guide_tables_are_built_only_for_whole_bank_layouts():
    rng = np.random.default_rng(5)
    horizon = 3600.0
    timelines = {kind: [_random_timeline(rng, horizon) for _ in range(6)] for kind in CAUSES}
    parts = {kind: TimelineBank(timelines[kind], horizon) for kind in CAUSES}
    fused = TimelineBank.fuse(parts)
    assert all(b._guide is None for b in parts.values())  # fusing builds one, for itself
    assert fused._guide is not None and SharedTimelineBank(fused)._guide is not None
    sids, times = np.arange(6), np.full(6, 10.0)
    bounded = LazyTimelineBank(FakeRecipe(timelines, horizon), max_cached=2)
    bounded.severity_at(sids, times)  # per-query layouts binary-search
    assert bounded._guide is None and bounded._flat is None
    unbounded = LazyTimelineBank(FakeRecipe(timelines, horizon))
    unbounded.severity_at(sids, times)
    assert unbounded._flat is not None and unbounded._guide is not None


def test_fuse_rejects_mismatched_banks():
    a = TimelineBank([Timeline.quiet(10.0)], 10.0)
    with pytest.raises(ValueError, match="horizon"):
        TimelineBank.fuse({"a": a, "b": TimelineBank([Timeline.quiet(20.0)], 20.0)})
    with pytest.raises(ValueError, match="segments"):
        TimelineBank.fuse({"a": a, "b": TimelineBank([Timeline.quiet(10.0)] * 2, 10.0)})


def test_replacing_a_cause_steers_sampling():
    net = Network.build(tiny_hosts(), config_2003(), 1800.0, seed=3)
    n_seg = len(net.topology.registry)
    pids = np.full(400, net.paths.direct_pid(0, 1))
    times = np.linspace(0.0, 1799.0, 400)
    before = net.path_loss_prob(pids, times)
    congestion = net.state.bank.cause("congestion").severity_at(
        net.paths.seg[pids], times[:, None] + net.paths.offset[pids]
    )

    net.state.outage = TimelineBank(
        [Timeline(np.zeros(1), np.full(1, 0.999), 1800.0, 120.0)] * n_seg, 1800.0
    )
    after = net.path_loss_prob(pids, times)
    assert np.all(after > before) and np.all(after > 0.99)
    lost = net.sample_packets(pids, times, rng=np.random.default_rng(0)).lost
    assert lost.all()
    # the other causes are untouched, bit for bit
    np.testing.assert_array_equal(
        net.state.congestion.severity_at(
            net.paths.seg[pids], times[:, None] + net.paths.offset[pids]
        ),
        congestion,
    )
