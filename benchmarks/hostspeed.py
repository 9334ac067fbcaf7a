"""Host-speed probe: a fixed pure-Python loop timed next to the measured work.

On the shared hosts this benchmark runs on, the speed of a core changes by up
to a third from one tenth of a second to the next, for the probe and the
program alike, and steal time stays near zero.  So every process that does
measured work also times the probe: library passes after every case, a CLI
command and its forked pool workers every PROBE_EVERY_S from SIGALRM, whose
handler runs in the main thread between bytecodes, on the core that process
runs on.  Probe time is left out.  An interval is scaled by
``REFERENCE_S / p``, where ``p`` is the median of the WINDOW probes of its
process nearest to it: the result is the time it would have taken on a core
where the probe takes REFERENCE_S.  The probe runs no hookweight code, so no
change to the program can move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from bisect import bisect_left

# About the probe's time on the host the bounds were set on (Intel Xeon at
# 2.1 GHz, Python 3.11.7); it only fixes the unit of the scaled times.
REFERENCE_S = 0.0008

PROBE_EVERY_S = 0.05
WINDOW = 3

_POLY = {(i << 16) | (i * 7 % 5): (i * 7919) % 1009 + 1 for i in range(20)}


def probe() -> float:
    """Time one fixed dict-of-ints polynomial product; seconds."""
    t0 = time.perf_counter()
    for _ in range(12):
        out: dict = {}
        for ka, va in _POLY.items():
            for kb, vb in _POLY.items():
                k = ka + kb
                out[k] = out.get(k, 0) + va * vb
    return time.perf_counter() - t0


def pool_factor(probes: list[tuple[float, float]], t0: float,
                t1: float) -> float:
    """Scale for a pool pass [t0, t1] from its workers' probes.

    The work done is the integral of speed over time, and a probe's speed is
    1/p, so the pass at reference speed is its length times the mean of
    REFERENCE_S / p (a median would ignore the slow stretches).  A pool that
    forked no workers leaves no probes; they then come from this process,
    right after the pass.
    """
    inside = [took for at, took in probes if t0 <= at < t1]
    inside = inside or [probe() for _ in range(20)]
    return REFERENCE_S * statistics.mean(1 / took for took in inside)


def start_alarm_probes(record) -> None:
    """Probe every PROBE_EVERY_S from SIGALRM; ``record(start, seconds)``.

    The handler runs in the main thread between bytecodes, so it times the
    core the process's own work is running on.
    """
    def on_alarm(signum, frame) -> None:
        start = time.perf_counter()
        record(start, probe())

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)


def stop_alarm_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Timeline:
    """Probes of one process in time order, to scale what it timed."""

    def __init__(self, probes: list[tuple[float, float]]):
        self.probes = sorted(probes)
        self._at = [start for start, _ in self.probes]
        self._took = [took for _, took in self.probes]

    def factor_at(self, t: float) -> float:
        """REFERENCE_S over the median of the WINDOW probes nearest to t."""
        hi = min(len(self._took),
                 max(bisect_left(self._at, t) + WINDOW // 2, WINDOW))
        lo = max(0, hi - WINDOW)
        return REFERENCE_S / statistics.median(self._took[lo:hi])

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(unscaled, scaled) time of [t0, t1] less the probes inside it;
        each stretch between probes is scaled by the probes nearest to it."""
        inside = self.probes[bisect_left(self._at, t0):bisect_left(self._at, t1)]
        raw = scaled = 0.0
        edge = t0
        for start, took in inside + [(t1, 0.0)]:
            stretch = max(0.0, start - edge)
            raw += stretch
            scaled += stretch * self.factor_at(edge)
            edge = start + took
        return raw, scaled


class ProbeTimer:
    """Probes from SIGALRM in this process while a block runs.

    For work that cannot stop between cases, such as one CLI command.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []

    def _record(self, start: float, seconds: float) -> None:
        self.probes.append((start, seconds))

    def __enter__(self) -> "ProbeTimer":
        self._record(time.perf_counter(), probe())
        start_alarm_probes(self._record)
        return self

    def __exit__(self, *exc) -> None:
        stop_alarm_probes()
        self._record(time.perf_counter(), probe())


class ForkedProbes:
    """Probes in every process forked while the block runs (a CLI's pool).

    The forked workers write their probes to a pipe that is read when the
    block ends; a worker drops a probe rather than wait on a full pipe.  A
    block that forks nothing leaves ``probes`` empty.
    """

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._active = False
        self._read, self._write = os.pipe()
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        if not self._active:
            return
        os.close(self._read)
        fd = self._write
        os.set_blocking(fd, False)

        def send(start: float, took: float) -> None:
            try:
                os.write(fd, f"{start!r} {took!r}\n".encode())
            except BlockingIOError:
                pass

        start_alarm_probes(send)

    def __enter__(self) -> "ForkedProbes":
        self._active = True
        return self

    def __exit__(self, *exc) -> None:
        self._active = False
        os.close(self._write)
        with os.fdopen(self._read) as fh:
            for line in fh:
                start, took = line.split()
                self.probes.append((float(start), float(took)))


def scale_cases(cases: list[tuple[float, float, int, float]]
                ) -> list[tuple[float, float]]:
    """(unscaled, scaled) seconds of each (start, end, pid, probe) case.

    ``probe`` is the time of the probe its process ran right after it.
    """
    timelines: dict[int, list[tuple[float, float]]] = {}
    for _, end, pid, took in cases:
        timelines.setdefault(pid, []).append((end, took))
    lines = {pid: Timeline(probes) for pid, probes in timelines.items()}
    return [lines[pid].scaled(start, end) for start, end, pid, _ in cases]
