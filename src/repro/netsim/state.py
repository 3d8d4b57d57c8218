"""Per-segment stochastic state: generation and fused vectorised lookup.

:func:`build_state` draws, for every segment of a topology and a given
horizon, the three timelines (:data:`CAUSES`) that drive packet fate:

* ``congestion`` — bursty elevated-loss episodes (diurnally modulated),
* ``outage``     — near-total loss episodes (edge-biased, SRG-correlated),
* ``delay``      — added one-way delay in seconds (latency pathologies).

:class:`TimelineBank` packs all segments' piecewise-constant timelines
into flat arrays, and a fused bank aligns the three causes on the union
of their boundaries, so a whole batch of (segment, time) queries is one
search — mostly a bucket-table read — answering congestion, outage and
delay together: the trick that keeps million-probe trace generation fast.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .config import MajorEvent, OutageParams, PathologyParams
from .episodes import (
    EpisodeSet,
    Timeline,
    generate_poisson_episodes,
    lognormal_sampler,
    pareto_sampler,
)
from .rng import RngFactory
from .segments import Segment, SegmentKind
from .topology import Topology
from .units import HOUR, MILLISECOND

__all__ = ["CAUSES", "TimelineBank", "SegmentState", "SegmentTimelineRecipe", "build_state"]

#: the causes a segment's state carries, in the row order of a fused bank
CAUSES = ("congestion", "outage", "delay")

#: guide-table buckets per boundary: at 16, 9% of the valid queries of
#: perfbench's ``clp-sweep`` (24 h ron2003 substrate) still land in a
#: bucket holding a boundary and binary-search
GUIDE_PER_BOUND = 16


def with_sentinel(sev: np.ndarray) -> np.ndarray:
    """Prepend the zero severity that queries before every boundary —
    padding and out-of-horizon ones — land on (index 0)."""
    return np.concatenate([np.zeros(sev.shape[:-1] + (1,)), sev], axis=-1)


def fuse_layouts(layouts) -> tuple[np.ndarray, np.ndarray]:
    """Align causes' ``(bounds, sentinel + severity)`` on the union of
    their boundaries: per cause the row ``sev_c[searchsorted(bounds_c,
    union, "right")]``.  Every timeline starts at 0, so each union point
    has a boundary of every cause at or before it in its own segment,
    and a search over the union lands on the same severities bit for bit.
    """
    union = np.unique(np.concatenate([b for b, _ in layouts]))
    rows = [s[np.searchsorted(b, union, side="right")] for b, s in layouts]
    return union, with_sentinel(np.stack(rows))


def build_guide(bounds: np.ndarray, shift: float):
    """A bucket table answering most searches of ``bounds`` by lookup.

    ``f(q) = int(q * scale + 1)`` is monotone, so boundaries in buckets
    before ``f(q)`` are ``<= q`` and those after it ``> q``: ``below[f(q)]``
    is the exact right-side search index unless ``q``'s own bucket holds
    a boundary (``busy``).  Covers queries in ``[-1, bounds[-1] + shift)``.
    """
    span = (bounds[-1] if len(bounds) else 0.0) + shift
    scale = min(1.0, GUIDE_PER_BOUND * max(len(bounds), 1) / span)
    keys = (bounds * scale + 1.0).astype(np.intp)
    below = np.searchsorted(keys, np.arange(int(span * scale + 1.0) + 2))
    # the table outnumbers the boundaries 16:1, so store its indices small
    below = below.astype(np.min_scalar_type(len(bounds)))
    return scale, below[:-1], below[1:] != below[:-1]


class TimelineBank:
    """All segments' timelines flattened for one-shot vectorised queries.

    Each segment's boundaries are shifted by ``sid * shift`` with
    ``shift > horizon`` so the concatenated boundary array stays sorted
    and a query for ``(sid, t)`` is a single global search for ``t + sid
    * shift`` (mostly a table lookup, see :func:`build_guide`).

    ``TimelineBank(timelines, horizon)`` holds one cause; :meth:`fuse`
    aligns several on the union of their boundaries, one severity row
    each, so one search answers every cause.  The storage backends of
    :mod:`repro.netsim.substrate` override only :meth:`_layout`.
    """

    #: row names of a fused bank; None for a one-cause bank
    causes: tuple[str, ...] | None = None
    #: :func:`build_guide` table over ``_bounds``; None: binary search
    _guide = None

    def __init__(self, timelines: list[Timeline], horizon: float) -> None:
        if not timelines:
            raise ValueError("a TimelineBank needs at least one timeline")
        if any(tl.horizon != horizon for tl in timelines):
            raise ValueError("all timelines in a bank must share the horizon")
        self._init(horizon)
        bounds = [tl.boundaries + sid * self.shift for sid, tl in enumerate(timelines)]
        self._bounds = np.concatenate(bounds)
        self._sev = with_sentinel(np.concatenate([tl.severity for tl in timelines]))
        self.corr_length = np.array([tl.corr_length for tl in timelines], dtype=np.float64)
        self.mean_severity = np.array([tl.mean_severity() for tl in timelines])

    def _init(self, horizon: float) -> None:
        self.horizon = float(horizon)
        self.shift = self.horizon * 2.0 + 1.0

    @classmethod
    def fuse(cls, banks: dict[str, TimelineBank]) -> TimelineBank:
        """One bank whose rows are the one-cause ``banks``, in order."""
        parts = list(banks.values())
        horizon, n_seg = parts[0].horizon, parts[0].corr_length.shape
        if any(b.horizon != horizon or b.corr_length.shape != n_seg for b in parts):
            raise ValueError("fused banks must share the horizon and the segments")
        bank = cls.__new__(cls)
        bank._init(horizon)
        bank.causes = tuple(banks)
        bank._bounds, bank._sev = fuse_layouts([b._layout(None, None) for b in parts])
        bank._guide = build_guide(bank._bounds, bank.shift)  # the one bank queried
        bank.corr_length = np.stack([b.corr_length for b in parts])
        bank.mean_severity = np.stack([b.mean_severity for b in parts])
        return bank

    def _layout(self, sids: np.ndarray | None, ok: np.ndarray | None):
        """``(bounds, sentinel + severity)`` covering the segments of
        ``sids[ok]`` (``None``: all of them)."""
        return self._bounds, self._sev

    def _search(self, bounds: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Right-side search index of ``q`` in ``bounds``: by guide table
        over the guided whole-bank layout, else by binary search."""
        if self._guide is None or bounds is not self._bounds:
            return np.searchsorted(bounds, q, side="right")
        scale, below, busy = self._guide
        k = (q * scale + 1.0).astype(np.intp)
        idx, hit = below[k], busy[k]
        idx[hit] = np.searchsorted(bounds, q[hit], side="right")
        return idx

    def severity_at(self, sids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Severity of segment ``sids[i]`` at ``times[i]`` (vectorised),
        behind a leading axis of one row per cause on a fused bank.

        ``sids`` may contain NO_SEGMENT (-1) padding; those entries and
        out-of-horizon times return 0.
        """
        sids = np.asarray(sids)
        t = np.asarray(times, dtype=np.float64)
        ok = (sids >= 0) & (t >= 0.0) & (t < self.horizon)
        # rejected queries search for -1: index 0, the zero sentinel
        q = np.where(ok, t + sids * self.shift, -1.0)
        bounds, sev = self._layout(sids, ok)
        return np.take(sev, self._search(bounds, q), axis=-1)

    def cause(self, name: str) -> TimelineBank:
        """One row of a fused bank as a one-cause bank (shared storage)."""
        return _CauseRow(self, self.causes.index(name))


class _CauseRow(TimelineBank):
    """One cause of a fused bank, whatever its backend."""

    def __init__(self, parent: TimelineBank, row: int) -> None:
        self._init(parent.horizon)
        self._parent, self._row = parent, row
        self.corr_length = parent.corr_length[row]

    @property
    def mean_severity(self) -> np.ndarray:
        return self._parent.mean_severity[self._row]

    def _layout(self, sids, ok):
        bounds, sev = self._parent._layout(sids, ok)
        return bounds, sev[self._row]

    def _search(self, bounds, q):
        return self._parent._search(bounds, q)


def _cause_property(name: str) -> property:
    def set_(state: SegmentState, bank: TimelineBank) -> None:
        # re-fuse: sampling reads state.bank, never a stale copy
        fused = {c: bank if c == name else state.bank.cause(c) for c in CAUSES}
        state.bank = TimelineBank.fuse(fused)

    return property(lambda state: state.bank.cause(name), set_)


@dataclass
class SegmentState:
    """Generated state for one topology over one horizon.

    ``bank`` is the fused substrate (one row per cause in
    :data:`CAUSES`); ``congestion``/``outage``/``delay`` read one row,
    and assigning a one-cause bank to one of them re-fuses ``bank``.
    """

    topology: Topology
    horizon: float
    bank: TimelineBank
    base_loss: np.ndarray  # (n_segments,)
    jitter_s: np.ndarray  # (n_segments,) mean jitter in seconds
    queue_s: np.ndarray  # (n_segments,) queue delay at severity 1.0
    host_down: list[Timeline]  # per host

    congestion = _cause_property("congestion")
    outage = _cause_property("outage")
    delay = _cause_property("delay")

    def host_down_at(self, host_ids: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Boolean: was each host down at the given time?"""
        out = np.zeros(len(host_ids), dtype=bool)
        host_ids = np.asarray(host_ids)
        times = np.asarray(times, dtype=np.float64)
        for hid in np.unique(host_ids):
            mask = host_ids == hid
            out[mask] = self.host_down[int(hid)].severity_at(times[mask]) > 0
        return out


def _diurnal_profile(
    horizon: float, amplitude: float, tz_offset_h: float
) -> np.ndarray:
    """Hourly rate multipliers: a sinusoid peaking mid-afternoon local time.

    The paper notes "during many hours of the day, the Internet is mostly
    quiescent" (Section 4.2); congestion concentrates in busy hours.
    """
    n_hours = max(int(np.ceil(horizon / HOUR)), 1)
    hours = (np.arange(n_hours) + tz_offset_h) % 24.0
    # peak at 15:00 local, trough at 03:00
    return 1.0 + amplitude * np.sin((hours - 9.0) / 24.0 * 2.0 * np.pi)


def _outage_episodes(
    rng: np.random.Generator, horizon: float, params: OutageParams, rate_mult: float
) -> EpisodeSet:
    dur = pareto_sampler(params.duration_min_s, params.duration_alpha, params.duration_cap_s)
    sev = lambda r, size: np.full(size, params.severity)  # noqa: E731
    rate_per_hour = params.rate_per_day * rate_mult / 24.0
    return generate_poisson_episodes(rng, horizon, rate_per_hour, dur, sev)


def _pathology_episodes(
    rng: np.random.Generator, horizon: float, params: PathologyParams
) -> EpisodeSet:
    dur = lognormal_sampler(params.duration_median_s, params.duration_sigma)

    def delay_sampler(r: np.random.Generator, size: int) -> np.ndarray:
        delays = r.lognormal(
            np.log(params.added_delay_median_ms * MILLISECOND), params.added_delay_sigma, size
        )
        # Timeline severities must stay in [0, 1]; we store seconds of
        # added delay, capped at 1 s (the magnitude the paper reports
        # for the Cornell incident).
        return np.minimum(delays, 1.0)

    rate_per_hour = params.rate_per_day / 24.0
    return generate_poisson_episodes(rng, horizon, rate_per_hour, dur, delay_sampler)


def _apply_major_events(
    topology: Topology,
    horizon: float,
    events: tuple[MajorEvent, ...],
    outage_eps: dict[int, list[EpisodeSet]],
    delay_eps: dict[int, list[EpisodeSet]],
) -> None:
    for ev in events:
        targets: list[int] = []
        if ev.target.startswith("trunk:"):
            _, r1, r2 = ev.target.split(":")
            for pair in [(r1, r2), (r2, r1)]:
                name = topology.trunk_name(*pair)
                try:
                    targets.append(topology.registry.by_name(name).sid)
                except KeyError:
                    pass  # region absent from this (scaled) host set
        elif ev.target.startswith("host:"):
            host = ev.target.split(":", 1)[1]
            if host in topology.host_index:
                targets = [
                    s
                    for s in topology.registry.sids_of_host(host)
                    if topology.registry[s].kind
                    in (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT)
                ]
        else:
            raise ValueError(f"unknown major-event target: {ev.target!r}")
        start = ev.start_frac * horizon
        for sid in targets:
            if ev.severity > 0:
                outage_eps.setdefault(sid, []).append(
                    EpisodeSet(
                        np.array([start]),
                        np.array([ev.duration_s]),
                        np.array([min(ev.severity, 0.999)]),
                    )
                )
            if ev.added_delay_ms > 0:
                delay_eps.setdefault(sid, []).append(
                    EpisodeSet(
                        np.array([start]),
                        np.array([ev.duration_s]),
                        np.array([min(ev.added_delay_ms * MILLISECOND, 1.0)]),
                    )
                )


class SegmentTimelineRecipe:
    """Deterministic per-segment timeline generation, kind by kind.

    Every segment's congestion/outage/delay timeline is a pure function
    of (topology, horizon, seed) through its own named RNG substream, so
    timelines can be generated in any order — eagerly all at once (the
    classic :func:`build_state` path) or segment by segment on demand by
    :class:`repro.netsim.substrate.LazyTimelineBank` — and come out
    bitwise identical.  Shared-risk-group episodes are drawn once per
    group (thread-safe) from the group's own stream.
    """

    def __init__(self, topology: Topology, horizon: float, rngs: RngFactory) -> None:
        self.topology = topology
        self.horizon = float(horizon)
        self._rngs = rngs
        cfg = topology.config
        self.cfg = cfg
        self.class_cfg = {
            SegmentKind.ACCESS_OUT: cfg.access,
            SegmentKind.ACCESS_IN: cfg.access,
            SegmentKind.ISP: cfg.isp,
            SegmentKind.TRUNK: cfg.trunk,
            SegmentKind.MIDDLE: cfg.middle,
        }
        self._outage_extra: dict[int, list[EpisodeSet]] = {}
        self._delay_extra: dict[int, list[EpisodeSet]] = {}
        _apply_major_events(
            topology, horizon, cfg.major_events, self._outage_extra, self._delay_extra
        )
        # SRG-correlated outages: physical events (fibre cuts, line
        # drops) drawn once per shared-risk group, applied to all members.
        # The group's outage params and rate multiplier come from its
        # lowest-sid member with an outage config — pinned here so
        # generation order (eager sweep, lazy first-touch, concurrent
        # shard threads) can never change which member's settings win.
        self._srg_outage: dict[str, tuple[OutageParams, float]] = {}
        for seg in topology.registry:
            scfg = self.class_cfg[seg.kind]
            if (
                seg.srg is not None
                and scfg.outage is not None
                and seg.srg not in self._srg_outage
            ):
                self._srg_outage[seg.srg] = (scfg.outage, self._mults(seg)[1])
        self._srg_events: dict[str, EpisodeSet] = {}
        self._srg_lock = threading.Lock()

    def _mults(self, seg: Segment) -> tuple[float, float, float]:
        """(congestion multiplier, outage multiplier, tz offset) of a segment."""
        cong_mult = outage_mult = 1.0
        tz = 0.0
        if seg.host is not None:
            host = self.topology.host(seg.host)
            tz = host.tz_offset_h
            if seg.kind in (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT):
                cong_mult = host.link_class.congestion_mult
                outage_mult = host.link_class.outage_mult
        return cong_mult, outage_mult, tz

    def congestion(self, seg: Segment) -> Timeline:
        scfg = self.class_cfg[seg.kind]
        if scfg.congestion is None:
            return Timeline.quiet(self.horizon)
        cp = scfg.congestion
        cong_mult, _, tz = self._mults(seg)
        profile = _diurnal_profile(self.horizon, self.cfg.diurnal_amplitude, tz)
        rng = self._rngs.stream("congestion", seg.name)
        eps = generate_poisson_episodes(
            rng,
            self.horizon,
            cp.rate_per_hour * cong_mult * profile,
            lognormal_sampler(cp.duration_median_s, cp.duration_sigma),
            cp.severity.sampler(),
        )
        return Timeline.from_episodes(eps, self.horizon, cp.corr_length_s)

    def _srg(self, srg: str) -> EpisodeSet:
        with self._srg_lock:
            if srg not in self._srg_events:
                params, mult = self._srg_outage[srg]
                srg_rng = self._rngs.stream("srg", srg)
                # shared events are rarer than per-direction ones
                self._srg_events[srg] = _outage_episodes(
                    srg_rng, self.horizon, params, 0.5 * mult
                )
            return self._srg_events[srg]

    def outage(self, seg: Segment) -> Timeline:
        scfg = self.class_cfg[seg.kind]
        _, outage_mult, _ = self._mults(seg)
        pieces: list[EpisodeSet] = []
        if scfg.outage is not None:
            rng = self._rngs.stream("outage", seg.name)
            pieces.append(_outage_episodes(rng, self.horizon, scfg.outage, outage_mult))
            if seg.srg is not None:
                pieces.append(self._srg(seg.srg))
        pieces.extend(self._outage_extra.get(seg.sid, []))
        return Timeline.from_episodes(
            EpisodeSet.concat(pieces), self.horizon, self.corr_length(seg, "outage")
        )

    def delay(self, seg: Segment) -> Timeline:
        dpieces: list[EpisodeSet] = []
        if seg.kind in (SegmentKind.ACCESS_IN, SegmentKind.ACCESS_OUT):
            rng = self._rngs.stream("pathology", seg.name)
            dpieces.append(_pathology_episodes(rng, self.horizon, self.cfg.pathology))
        dpieces.extend(self._delay_extra.get(seg.sid, []))
        return Timeline.from_episodes(EpisodeSet.concat(dpieces), self.horizon, 60.0)

    def timeline(self, kind: str, seg: Segment) -> Timeline:
        return getattr(self, kind)(seg)

    def corr_length(self, seg: Segment, kind: str) -> float:
        """Correlation length of one cause on one segment (config-only:
        needs no episode generation, so lazy banks can expose the full
        ``corr_length`` array up front)."""
        scfg = self.class_cfg[seg.kind]
        if kind == "congestion":
            return scfg.congestion.corr_length_s if scfg.congestion else 0.0
        if kind == "outage":
            return scfg.outage.corr_length_s if scfg.outage else 120.0
        if kind == "delay":
            return 60.0
        raise ValueError(f"unknown timeline kind {kind!r}")

    def corr_lengths(self, kind: str) -> np.ndarray:
        return np.array(
            [self.corr_length(seg, kind) for seg in self.topology.registry],
            dtype=np.float64,
        )


def build_state(
    topology: Topology,
    horizon: float,
    rngs: RngFactory,
    substrate: str = "eager",
    max_cached_segments: int | None = None,
) -> SegmentState:
    """Draw all stochastic state for ``topology`` over ``[0, horizon)``.

    ``substrate="eager"`` (the default) generates every segment's
    timelines up front into one fused :class:`TimelineBank`; ``"lazy"``
    defers each segment's generation to first use behind an LRU budget
    of ``max_cached_segments`` segments; ``"shared"`` generates eagerly
    into :mod:`multiprocessing.shared_memory` so process-pool workers
    read one physical copy (see :mod:`repro.netsim.substrate`).  All
    produce bitwise-identical query results.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if substrate not in ("eager", "lazy", "shared"):
        raise ValueError(
            f"substrate must be 'eager', 'lazy' or 'shared', got {substrate!r}"
        )
    cfg = topology.config
    reg = topology.registry
    n_seg = len(reg)
    recipe = SegmentTimelineRecipe(topology, horizon, rngs)

    base_loss = np.zeros(n_seg)
    jitter_s = np.zeros(n_seg)
    queue_s = np.zeros(n_seg)
    for seg in reg:
        base_loss[seg.sid] = seg.base_loss
        jitter_s[seg.sid] = seg.jitter_ms * MILLISECOND
        queue_s[seg.sid] = seg.queue_ms * MILLISECOND

    # function-level: netsim.substrate imports this module's types
    from .substrate import LazyTimelineBank, SharedTimelineBank

    if substrate == "lazy":
        bank = LazyTimelineBank(recipe, max_cached=max_cached_segments)
    else:
        bank = TimelineBank.fuse(
            {
                kind: TimelineBank([recipe.timeline(kind, seg) for seg in reg], horizon)
                for kind in CAUSES
            }
        )
        if substrate == "shared":
            bank = SharedTimelineBank(bank)

    # -- whole-host failures ---------------------------------------------
    host_down: list[Timeline] = []
    hf = cfg.host_failure
    for h in topology.hosts:
        rng = rngs.stream("host-down", h.name)
        eps = generate_poisson_episodes(
            rng,
            horizon,
            hf.rate_per_day / 24.0,
            lognormal_sampler(hf.duration_median_s, hf.duration_sigma),
            lambda r, size: np.ones(size),
        )
        host_down.append(Timeline.from_episodes(eps, horizon))

    return SegmentState(
        topology=topology,
        horizon=horizon,
        bank=bank,
        base_loss=base_loss,
        jitter_s=jitter_s,
        queue_s=queue_s,
        host_down=host_down,
    )
