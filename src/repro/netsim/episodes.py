"""Loss-episode processes and piecewise-constant severity timelines.

The paper's central observations are about *temporal structure* of loss:

* back-to-back packets on one path see a ~72% conditional loss
  probability (CLP), falling to ~66% with a 10 ms gap (Section 4.4);
* most 20-minute windows are loss-free while the worst hour exceeds 13%
  loss (Section 4.2);
* reactive routing wins by dodging sustained outages while duplication
  wins against transient congestion bursts (Section 4.3).

We model each network segment's loss state as the superposition of
*episodes*: intervals during which the segment drops packets with some
severity.  Two populations of episodes are generated per segment:

``congestion``
    Minutes-long periods of elevated loss.  Within an episode, loss is
    bursty on a short correlation length (tens of milliseconds), which is
    what produces the CLP-vs-spacing decay measured in Section 4.4.

``outage``
    Rare, near-total losses lasting seconds to many minutes — routing
    faults, link failures.  These are what probe-based reactive routing
    can route around.

Episodes are compiled into a :class:`Timeline`: a piecewise-constant
severity function supporting O(log n) vectorised point queries, which is
what makes million-probe trace generation tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpisodeSet",
    "Timeline",
    "generate_poisson_episodes",
    "lognormal_sampler",
    "pareto_sampler",
]


@dataclass
class EpisodeSet:
    """Raw episodes: parallel arrays of start time, duration and severity."""

    start: np.ndarray
    duration: np.ndarray
    severity: np.ndarray

    def __post_init__(self) -> None:
        self.start = np.asarray(self.start, dtype=np.float64)
        self.duration = np.asarray(self.duration, dtype=np.float64)
        self.severity = np.asarray(self.severity, dtype=np.float64)
        if not (self.start.shape == self.duration.shape == self.severity.shape):
            raise ValueError("start/duration/severity must have identical shapes")
        if self.start.ndim != 1:
            raise ValueError("episode arrays must be one-dimensional")
        if np.any(self.duration < 0):
            raise ValueError("episode durations must be non-negative")
        if np.any((self.severity < 0) | (self.severity > 1)):
            raise ValueError("episode severities must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.start.shape[0])

    @property
    def end(self) -> np.ndarray:
        return self.start + self.duration

    @staticmethod
    def empty() -> "EpisodeSet":
        z = np.zeros(0)
        return EpisodeSet(z, z.copy(), z.copy())

    @staticmethod
    def concat(sets: list["EpisodeSet"]) -> "EpisodeSet":
        if not sets:
            return EpisodeSet.empty()
        return EpisodeSet(
            np.concatenate([s.start for s in sets]),
            np.concatenate([s.duration for s in sets]),
            np.concatenate([s.severity for s in sets]),
        )


@dataclass
class Timeline:
    """Piecewise-constant severity over ``[0, horizon)``.

    ``severity[i]`` applies on ``[boundaries[i], boundaries[i+1])``; the
    final value applies up to ``horizon``.  Queries outside the horizon
    return 0 severity (the network is quiescent beyond the simulated
    window, which keeps deliberately-out-of-range probes harmless).
    """

    boundaries: np.ndarray
    severity: np.ndarray
    horizon: float
    corr_length: float = 0.0

    def __post_init__(self) -> None:
        self.boundaries = np.asarray(self.boundaries, dtype=np.float64)
        self.severity = np.asarray(self.severity, dtype=np.float64)
        if self.boundaries.ndim != 1 or self.boundaries.shape != self.severity.shape:
            raise ValueError("boundaries and severity must be 1-D and equal length")
        if len(self.boundaries) == 0 or self.boundaries[0] != 0.0:
            raise ValueError("a timeline must start with a boundary at t=0")
        if np.any(np.diff(self.boundaries) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if self.horizon < float(self.boundaries[-1]):
            raise ValueError("horizon must not precede the last boundary")

    @staticmethod
    def quiet(horizon: float, corr_length: float = 0.0) -> "Timeline":
        """A timeline with zero severity everywhere."""
        return Timeline(np.zeros(1), np.zeros(1), horizon, corr_length)

    @staticmethod
    def from_episodes(
        episodes: EpisodeSet, horizon: float, corr_length: float = 0.0
    ) -> "Timeline":
        """Compile possibly-overlapping episodes into a max-severity sweep.

        Where episodes overlap, the instantaneous severity is the maximum
        of the active ones — two simultaneous congestion events on one
        link do not drop more than every packet.
        """
        if len(episodes) == 0:
            return Timeline.quiet(horizon, corr_length)
        starts = np.clip(episodes.start, 0.0, horizon)
        ends = np.clip(episodes.end, 0.0, horizon)
        keep = ends > starts
        starts, ends, sev = starts[keep], ends[keep], episodes.severity[keep]
        if starts.size == 0:
            return Timeline.quiet(horizon, corr_length)

        # Sweep line over the sorted start/end events, keeping the active
        # episodes in a max-heap by severity: O(k log k) per segment.
        import heapq

        order = np.argsort(starts, kind="stable")
        starts, ends, sev = starts[order], ends[order], sev[order]
        bounds: list[float] = [0.0]
        values: list[float] = [0.0]
        active: list[tuple[float, float]] = []  # (-severity, end)
        event_times = np.unique(np.concatenate([starts, ends]))
        idx = 0
        n = starts.size
        for t in event_times:
            # admit episodes starting at or before t
            while idx < n and starts[idx] <= t:
                heapq.heappush(active, (-float(sev[idx]), float(ends[idx])))
                idx += 1
            # evict episodes that have ended by t
            while active and active[0][1] <= t:
                heapq.heappop(active)
            current = -active[0][0] if active else 0.0
            if values[-1] != current:
                if bounds[-1] == t:
                    values[-1] = current
                    if len(values) >= 2 and values[-2] == current:
                        bounds.pop()
                        values.pop()
                else:
                    bounds.append(float(t))
                    values.append(current)
        boundaries = np.array(bounds)
        severity = np.array(values)
        if boundaries[0] != 0.0:
            boundaries = np.insert(boundaries, 0, 0.0)
            severity = np.insert(severity, 0, 0.0)
        return Timeline(boundaries, severity, horizon, corr_length)

    # -- queries -------------------------------------------------------

    def severity_at(self, times: np.ndarray) -> np.ndarray:
        """Vectorised point query; 0 outside ``[0, horizon)``."""
        t = np.asarray(times, dtype=np.float64)
        idx = np.searchsorted(self.boundaries, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.severity) - 1)
        out = self.severity[idx]
        return np.where((t < 0) | (t >= self.horizon), 0.0, out)

    def coverage(self) -> float:
        """Fraction of the horizon with non-zero severity."""
        if self.horizon <= 0:
            return 0.0
        widths = np.diff(np.append(self.boundaries, self.horizon))
        return float(widths[self.severity > 0].sum() / self.horizon)

    def mean_severity(self) -> float:
        """Time-average severity == expected per-packet loss contribution."""
        if self.horizon <= 0:
            return 0.0
        widths = np.diff(np.append(self.boundaries, self.horizon))
        return float((widths * self.severity).sum() / self.horizon)

    def max_severity(self) -> float:
        return float(self.severity.max(initial=0.0))

    def overlay_max(self, other: "Timeline") -> "Timeline":
        """Pointwise maximum of two timelines (same horizon required)."""
        if self.horizon != other.horizon:
            raise ValueError("cannot overlay timelines with different horizons")
        bounds = np.union1d(self.boundaries, other.boundaries)
        sev = np.maximum(self.severity_at(bounds), other.severity_at(bounds))
        keep = np.ones(len(bounds), dtype=bool)
        keep[1:] = sev[1:] != sev[:-1]
        return Timeline(
            bounds[keep], sev[keep], self.horizon, max(self.corr_length, other.corr_length)
        )


# -- duration samplers -------------------------------------------------------


def lognormal_sampler(median: float, sigma: float):
    """Duration sampler: lognormal parameterised by its median.

    Lognormal durations capture the wide spread of congestion-event
    lengths without the infinite-variance pathologies of a raw Pareto.
    """
    if median <= 0:
        raise ValueError("median must be positive")
    mu = np.log(median)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.lognormal(mean=mu, sigma=sigma, size=size)

    return sample


def pareto_sampler(minimum: float, alpha: float, cap: float = np.inf):
    """Duration sampler: Pareto with optional cap.

    Heavy-tailed outage durations are well documented (Labovitz et al.);
    the cap keeps a single sampled outage from covering an entire scaled
    benchmark run.
    """
    if minimum <= 0 or alpha <= 0:
        raise ValueError("minimum and alpha must be positive")

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        draws = minimum * (1.0 + rng.pareto(alpha, size=size))
        return np.minimum(draws, cap)

    return sample


def generate_poisson_episodes(
    rng: np.random.Generator,
    horizon: float,
    rate_per_hour: np.ndarray | float,
    duration_sampler,
    severity_sampler,
) -> EpisodeSet:
    """Generate episodes from an (optionally non-homogeneous) Poisson process.

    ``rate_per_hour`` may be a scalar or an array giving the expected
    episode count for each successive hour of the horizon (the diurnal
    profile).  Episodes start uniformly within their hour, so the process
    is piecewise-homogeneous — adequate at the hour granularity the paper
    reports (Table 6 uses one-hour windows).
    """
    if horizon <= 0:
        return EpisodeSet.empty()
    n_hours = int(np.ceil(horizon / 3600.0))
    rates = np.broadcast_to(np.asarray(rate_per_hour, dtype=np.float64), (n_hours,))
    if np.any(rates < 0):
        raise ValueError("episode rates must be non-negative")
    counts = rng.poisson(rates)
    total = int(counts.sum())
    if total == 0:
        return EpisodeSet.empty()
    hour_index = np.repeat(np.arange(n_hours), counts)
    starts = (hour_index + rng.random(total)) * 3600.0
    keep = starts < horizon
    starts = starts[keep]
    total = int(keep.sum())
    if total == 0:
        return EpisodeSet.empty()
    durations = np.asarray(duration_sampler(rng, total), dtype=np.float64)
    severities = np.clip(np.asarray(severity_sampler(rng, total), dtype=np.float64), 0.0, 1.0)
    return EpisodeSet(starts, durations, severities)
