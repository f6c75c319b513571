"""Host-speed adjustment of the benchmark's timings.

On a shared host the speed of the same Python code swings by 15-70% over
bursts of 1-30 s as other tenants load the machine, so raw wall-clock
figures of two runs of the same program differ by more than any bound
worth setting.  The benchmark therefore times two fixed units of its own
work (this file's code, never the program's) right before and after each
timed sample: one of pure-Python dict, set and tuple churn, and one of
small-file writes, renames, reads and unlinks.  It scales the user-time
share of the samples by the speed at which the first unit takes
:data:`REFERENCE_CPU_S` and their system-time share by the speed at
which the second takes :data:`REFERENCE_IO_S`.  A change to the program
moves the adjusted figure as it moves the raw one; a change in how busy
the host is largely cancels out.
"""

from __future__ import annotations

import os
import resource
import time

#: duration of the CPU unit on the reference host (its fastest observed
#: speed on the 2-vCPU host the bounds were set on)
REFERENCE_CPU_S = 0.0011
#: duration of the I/O unit on the same host
REFERENCE_IO_S = 0.0003

#: units timed per calibration; the fastest one counts, which drops the
#: timer interrupts and preemptions a single short unit is exposed to
UNITS = 3

_FILES = 8
_BLOB = b"\0" * 2048


def cpu_unit() -> float:
    """Seconds taken by one fixed unit of dict, set and tuple churn (the
    operations the analyzer spends its user time on)."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    order: list[tuple[int, int]] = []
    for i in range(4000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        if key & 1:
            seen.add(key >> 1)
        order.append((key, i ^ key))
    if len(table) + len(seen) + len(order) <= 0:  # keep the work live
        raise AssertionError("unreachable")
    return time.perf_counter() - started


def io_unit(directory: str) -> float:
    """Seconds taken to write, rename, read and unlink a few small files
    in ``directory`` (the operations the artifact store spends its system
    time on)."""
    started = time.perf_counter()
    paths = [os.path.join(directory, f"unit-{i}") for i in range(_FILES)]
    for path in paths:
        with open(path + ".tmp", "wb") as f:
            f.write(_BLOB)
        os.replace(path + ".tmp", path)
        with open(path, "rb") as f:
            f.read()
    for path in paths:
        os.unlink(path)
    return time.perf_counter() - started


def _thread_times() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_THREAD)
    return usage.ru_utime, usage.ru_stime


class HostSpeed:
    """Scale factors for consecutive timed samples of one thread.

    :meth:`factor` is called right after each sample: it calibrates,
    averages the result with the calibration made right before the
    sample (after the previous sample, or by :meth:`start`), and returns
    the factor that converts the sample's duration to reference speed.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.join(directory, "hostspeed")
        os.makedirs(self.directory, exist_ok=True)
        self.factors: list[float] = []
        #: user and system seconds of every sample so far
        self._user = self._system = 0.0
        self.start()

    def _calibrate(self) -> tuple[float, float]:
        """The fastest of :data:`UNITS` runs of each unit."""
        return (
            min(cpu_unit() for _ in range(UNITS)),
            min(io_unit(self.directory) for _ in range(UNITS)),
        )

    def start(self) -> None:
        """Re-calibrate before a sample that follows untimed work."""
        self._before = self._calibrate()
        self._times = _thread_times()

    def factor(self) -> float:
        user, system = (b - a for a, b in zip(self._times, _thread_times()))
        after = self._calibrate()
        cpu = (self._before[0] + after[0]) / 2
        io = (self._before[1] + after[1]) / 2
        # The kernel splits a thread's time into user and system by timer
        # ticks, so one 10 ms sample's split is mostly rounding: use the
        # split of all samples so far.
        self._user += user
        self._system += system
        total = self._user + self._system
        system_share = self._system / total if total else 0.0
        factor = ((1 - system_share) * REFERENCE_CPU_S / cpu
                  + system_share * REFERENCE_IO_S / io)
        self._before = after
        self._times = _thread_times()
        self.factors.append(factor)
        return factor
