"""A fixed reference task that measures how fast the machine runs now.

The benchmark shares a host whose speed drifts by tens of percent over
minutes, whatever the benchmark itself does.  Every run therefore times
this task between its builds and operations and scales its wall times
to the speed the task had when :data:`REFERENCE_S` was measured: a
reported time is the wall time the work would have taken on the machine
at that speed.  The task is independent of the program under test (it
imports nothing from ``repro``), so a change to the program cannot move
it; it mixes interpreted Python with numpy passes over arrays larger
than the CPU caches, as the workloads do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: median duration of one :func:`task` on the 2-vCPU Xeon VM the
#: benchmark was tuned on; the reported times are at that speed.
REFERENCE_S = 0.125

#: reference tasks timed before each operation; one is timed before
#: each build, of which a run makes many more.
REPS = 3

_N = 500_000


def task() -> int:
    """The fixed work: a Python loop over dicts and lists, then a sort,
    a binary search and a gather over 4 MB arrays."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(80_000):
        key = (i * 7919) % 4093
        table[key] = table.get(key, 0) + i
        acc += len(table) & 7
    rng = np.random.default_rng(12345)
    values = rng.random(_N)
    order = np.argsort(values, kind="stable")
    found = np.searchsorted(values[order], rng.random(_N // 2))
    acc += int(order[np.minimum(found, _N - 1)].sum() & 0xFFFF)
    return acc


class Reference:
    """The reference task's timings over one run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        task()  # warm up: first-call allocations and imports

    def sample(self, reps: int = REPS) -> None:
        """Time ``reps`` tasks back to back."""
        for _ in range(reps):
            t0 = time.perf_counter()
            task()
            self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """The factor taking this run's wall times to the reference speed."""
        return REFERENCE_S / statistics.median(self.times)
