"""Peak resident memory of the benchmark process and its workers.

``ru_maxrss`` is not used: on Linux it can carry a high-water mark
across fork+exec, so it misreports a fresh process.  The benchmark
process reads its own ``VmHWM`` from ``/proc/self/status``.  Engine
workers are forked children whose untouched pages are shared with the
parent, so their ``VmHWM`` would count the parent's memory again; a
background thread instead samples each live child's *private* resident
memory (``Private_Clean + Private_Dirty`` of ``/proc/<pid>/smaps_rollup``)
and keeps the highest total seen at one instant.
"""

from __future__ import annotations

import glob
import threading

#: sampling period of the child-process poller, in seconds.
SAMPLE_PERIOD_S = 0.25


def vm_hwm_kb(pid: str = "self") -> int:
    """The ``VmHWM`` line of ``/proc/<pid>/status``, in kB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def _children() -> list[str]:
    pids: list[str] = []
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as fh:
                pids.extend(fh.read().split())
        except FileNotFoundError:  # the thread ended while listing
            continue
    return pids


def _private_kb(pid: str) -> int:
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total


class ProcessTreeMemory:
    """Samples child processes' private memory while the ``with``
    block runs.

    ``peak_mb()`` is this process's ``VmHWM`` plus the largest total
    private resident memory of its children seen at one sample.
    """

    def __init__(self) -> None:
        self.children_peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, name="memory-poller", daemon=True)

    def __enter__(self) -> "ProcessTreeMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            total = 0
            for pid in _children():
                try:
                    total += _private_kb(pid)
                except (FileNotFoundError, ProcessLookupError):  # exited meanwhile
                    continue
            self.children_peak_kb = max(self.children_peak_kb, total)

    def peak_mb(self) -> float:
        return (vm_hwm_kb() + self.children_peak_kb) / 1024.0
