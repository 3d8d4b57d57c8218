"""Storage backends of the fused substrate: same layout, same search,
different residency.

A 100-host mesh has ~10k segments, each with three stochastic
timelines.  Eager :func:`repro.netsim.state.build_state` draws them all
into one fused :class:`~repro.netsim.state.TimelineBank` before the
first packet flies.  Both backends here subclass that bank and override
only where its ``(bounds, severity)`` arrays come from; the search in
:meth:`~repro.netsim.state.TimelineBank.severity_at` is shared — a
guide-table lookup over a whole-bank layout, a plain binary search over
a lazy bank's per-query one.

:class:`LazyTimelineBank` generates a segment's three causes together on
its first query — each still from its own named RNG substream
(:class:`~repro.netsim.state.SegmentTimelineRecipe`) — fuses them into
the segment's slice of the layout, and keeps at most ``max_cached``
slices alive (LRU).  Generation order, and eviction followed by
regeneration, cannot change a single drawn value, so lazy and eager
substrates answer every query bitwise identically.

:class:`SharedTimelineBank` parks the fused arrays in one
:mod:`multiprocessing.shared_memory` block, so a process pool's workers
all read the same physical pages — zero-copy across ``fork`` (no
copy-on-write unsharing of substrate data) and attachable by name from
``spawn`` children via pickling.  The floats are byte-for-byte copies
of the private bank's, so queries answer bitwise identically there too.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from .state import (
    CAUSES,
    SegmentTimelineRecipe,
    TimelineBank,
    build_guide,
    fuse_layouts,
    with_sentinel,
)

__all__ = ["LazyTimelineBank", "SharedTimelineBank"]


class LazyTimelineBank(TimelineBank):
    """Fused bank whose per-segment slices are generated on first use.

    A query concatenates the slices of the segments it touches — the
    eager layout restricted to them, bit for bit — and searches that.
    """

    #: unbounded caches graduate to the eager layout at this coverage
    #: (some segments — e.g. same-region trunks of single-host regions —
    #: sit on no path at all, so exact-full never happens).
    FLATTEN_MIN_FRACTION = 0.95

    def __init__(self, recipe: SegmentTimelineRecipe, max_cached: int | None = None) -> None:
        if max_cached is not None and max_cached < 1:
            raise ValueError("max_cached must be None (unbounded) or >= 1")
        self._init(recipe.horizon)
        self.recipe = recipe
        self.causes = CAUSES
        self.corr_length = np.stack([recipe.corr_lengths(kind) for kind in CAUSES])
        self.n_segments = len(recipe.topology.registry)
        self.max_cached = max_cached
        self._cache: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._lock = threading.Lock()
        self._generated = 0
        self._mean_severity: np.ndarray | None = None
        #: once an unbounded cache holds (nearly) every segment, queries
        #: search this prebuilt whole-bank layout instead of re-concatenating
        self._flat: tuple | None = None

    @property
    def cached_segments(self) -> int:
        return len(self._cache)

    @property
    def generated_segments(self) -> int:
        """Lifetime generation count (> n_segments means LRU churn)."""
        return self._generated

    def _generate(self, sid: int) -> tuple[np.ndarray, np.ndarray]:
        """One segment's slice of the fused layout (shifted bounds, rows)."""
        seg = self.recipe.topology.registry[sid]
        timelines = [self.recipe.timeline(kind, seg) for kind in CAUSES]
        bounds, sev = fuse_layouts(
            [(tl.boundaries + sid * self.shift, with_sentinel(tl.severity)) for tl in timelines]
        )
        return bounds, sev[:, 1:]

    def _slices_for(self, sids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        from repro import telemetry  # leaf import; netsim has no engine deps

        rec = telemetry.get_recorder()
        found: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        with self._lock:
            for s in sids:
                sid = int(s)
                piece = self._cache.get(sid)
                if piece is not None:
                    self._cache.move_to_end(sid)
                    found[sid] = piece
        # generate misses *outside* the lock: each slice comes from its
        # segment's own named substreams, so concurrent shard threads
        # generating the same segment produce identical arrays — no
        # serialisation needed
        fresh = {sid: self._generate(sid) for sid in {int(s) for s in sids} - found.keys()}
        evicted = 0
        if fresh:
            with self._lock:
                for sid, piece in fresh.items():
                    cached = self._cache.get(sid)
                    if cached is None:
                        self._cache[sid] = piece
                        self._generated += 1
                    else:  # another thread won the race; both are identical
                        self._cache.move_to_end(sid)
                        fresh[sid] = cached
                if self.max_cached is not None:
                    while len(self._cache) > self.max_cached:
                        self._cache.popitem(last=False)
                        evicted += 1
            found.update(fresh)
        if rec.enabled:
            rec.counter_add("substrate.lru_hits", len(found) - len(fresh))
            rec.counter_add("substrate.lru_misses", len(fresh))
            rec.counter_add("substrate.lru_evictions", evicted)
        return [found[int(s)] for s in sids]

    def _layout(self, sids, ok):
        if self._flat is not None:
            return self._flat
        whole = sids is None
        touched = np.arange(self.n_segments) if whole else np.broadcast_to(sids, ok.shape)[ok]
        slices = self._slices_for(np.unique(touched))
        unbounded = self.max_cached is None
        warm = len(self._cache) >= self.FLATTEN_MIN_FRACTION * self.n_segments
        if not whole and unbounded and warm:
            # nearly warm: graduate to the whole-bank layout, so a long
            # collection stops paying per-query concatenation (the few
            # never-touched stragglers are generated once)
            return self._layout(None, None)
        bounds = np.concatenate([np.empty(0)] + [b for b, _ in slices])
        sev = np.concatenate([np.empty((len(CAUSES), 0))] + [s for _, s in slices], axis=1)
        layout = bounds, with_sentinel(sev)
        if whole and unbounded:
            with self._lock:
                # the flat layout owns the data now; keeping the
                # per-segment cache too would double the substrate's memory
                # guide the flat layout; per-query ones binary-search
                self._bounds, self._guide = bounds, build_guide(bounds, self.shift)
                self._flat = layout
                self._cache.clear()
        return layout

    @property
    def mean_severity(self) -> np.ndarray:
        """Per-cause, per-segment time-average severity (regenerates every
        timeline — a diagnostics accessor, not a hot path)."""
        if self._mean_severity is None:
            reg = self.recipe.topology.registry
            self._mean_severity = np.array(
                [[self.recipe.timeline(k, seg).mean_severity() for seg in reg] for k in CAUSES]
            )
        return self._mean_severity


def _release_shm(shm: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Finalizer: close this process's mapping; the creator unlinks.

    ``close`` raises ``BufferError`` if an outside reference to a view
    survives the bank; ``unlink`` (name removal, creator only) still
    proceeds, so nothing leaks in ``/dev/shm``.  Forked workers inherit
    the creator's pid, so their exit never unlinks the parent's segment.
    """
    try:
        shm.close()
    except BufferError:  # pragma: no cover - depends on caller's refs
        pass
    if os.getpid() == owner_pid:
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


def _attach_shared_bank(name, layout, horizon, causes):
    """Rebuild a :class:`SharedTimelineBank` around an existing segment
    (the unpickling path for ``spawn`` workers)."""
    bank = SharedTimelineBank.__new__(SharedTimelineBank)
    shm = shared_memory.SharedMemory(name=name)
    bank._init_views(shm, layout, horizon, causes, owner_pid=-1)
    return bank


class SharedTimelineBank(TimelineBank):
    """A fused :class:`~repro.netsim.state.TimelineBank` whose arrays
    live in POSIX shared memory.

    Construction copies an eager bank's arrays (boundaries, severity
    rows, correlation lengths, mean severities) into one
    ``SharedMemory`` block and binds read-only views over it; the bytes
    are copies, so results are bitwise identical to a private bank.
    Pickling sends only the block's *name* and layout, so ``spawn``
    workers attach to the one copy (``fork`` workers inherit it); the
    creating process unlinks the block when its bank is collected.
    """

    #: the arrays relocated into shared memory.
    SHARED_FIELDS = ("_bounds", "_sev", "corr_length", "mean_severity")

    def __init__(self, bank: TimelineBank) -> None:
        arrays = [np.ascontiguousarray(getattr(bank, f)) for f in self.SHARED_FIELDS]
        shm = shared_memory.SharedMemory(create=True, size=max(sum(a.nbytes for a in arrays), 1))
        layout, offset = [], 0
        for field, arr in zip(self.SHARED_FIELDS, arrays):
            layout.append((field, arr.shape, str(arr.dtype), offset))
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
            view[...] = arr
            offset += arr.nbytes
        self._init_views(shm, layout, bank.horizon, bank.causes, owner_pid=os.getpid())

    def _init_views(self, shm, layout, horizon, causes, owner_pid: int) -> None:
        self._init(horizon)
        self.causes = causes
        self._shm = shm
        self._layout_spec = layout
        for field, shape, dtype, offset in layout:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
            view.flags.writeable = False  # workers share these pages
            setattr(self, field, view)
        # private to each process (fork children inherit the creator's)
        self._guide = build_guide(self._bounds, self.shift)
        self._finalizer = weakref.finalize(self, _release_shm, shm, owner_pid)

    @property
    def shm_name(self) -> str:
        """Name of the backing shared-memory segment (diagnostics)."""
        return self._shm.name

    def __reduce__(self):
        return (
            _attach_shared_bank,
            (self._shm.name, self._layout_spec, self.horizon, self.causes),
        )
