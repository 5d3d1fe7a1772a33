"""Machine-speed calibration: times rescaled to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts by 20% and more over
minutes, for pure-Python and numpy work alike.  A fixed piece of
pure-Python work (``spin``) is timed between the requests, on the same CPU,
and each timed stretch of work is rescaled by ``REF_S`` over the local time
of ``spin``:

    scaled = raw * REF_S / local_spin_time

so a slow spell of the host, which slows ``spin`` and the work together,
cancels out, while a change to the program does not touch ``spin``.
``spin`` builds a dict of strings, tuples and lists: a slow spell slows
allocation-heavy work (Fractions, JSON, the n^4 grids) more than a tight
integer loop, and ``spin`` follows it where an integer loop did not.  The
dense DFT requests, whose time goes to numpy and to page faults on fresh
O(n^2) arrays, are rescaled by ``stream`` instead, which writes and sums
fresh arrays; ``spin`` does not follow them.
``REF_S`` and ``REF_STREAM_S`` are the typical times of the two kernels
between requests on the box the baseline was measured on; they are fixed,
so scaled times of two commits compare directly.  Do not change them or the
kernels: either rescales every recorded time.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

REF_S = 0.0035  # typical time of one ``spin`` call on the baseline box (s)
REF_STREAM_S = 0.00625  # typical time of one ``stream`` call on the baseline box (s)
EVERY_S = 0.1  # take a sample when the last one is older than this
WINDOW_S = 1.0  # samples this close to a stretch of work set its scale
WARM_SPINS = 20  # untimed spins when the calibration process starts


def spin() -> int:
    d = {}
    for i in range(6000):
        d[str(i)] = (i, [i * i])
    return sum(v[1][0] for v in d.values())


def stream() -> float:
    import numpy as np

    a = np.ones(1_000_000)
    return float((a * 2.0).sum())


KERNELS = {"spin": (2, REF_S), "stream": (3, REF_STREAM_S)}  # sample index, reference


def pin_to_one_cpu() -> int:
    """Pin this process, and so every process it starts, to one CPU: the
    calibration process then runs on the CPU whose speed it is to measure."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Calibration:
    """Calibration samples, (start, end, spin time, stream time), taken on
    request by a calibration process of its own.  The kernels run there, not
    in the process under test, so the program's heap and garbage collector,
    which slow allocation-heavy work such as ``spin``, do not enter the
    scale."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, bufsize=1)

    def take(self) -> None:
        t0 = perf_counter()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        spin_s, stream_s = map(float, self._proc.stdout.readline().split())
        self.samples.append((t0, perf_counter(), spin_s, stream_s))

    def maybe_take(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.take()

    def close(self) -> None:
        """Stop the calibration process; it also stops by itself when the
        process that started it ends and its input closes."""
        self._proc.stdin.close()
        self._proc.wait()

    def local(self, start: float, end: float, kernel: str = "spin") -> float:
        """Median kernel time around [start, end]: the last sample before it,
        the first after it, and every sample within WINDOW_S of it."""
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        near = [s for s in self.samples
                if s[1] > start - WINDOW_S and s[0] < end + WINDOW_S]
        chosen = dict.fromkeys(before + near + after) or self.samples
        return statistics.median(s[KERNELS[kernel][0]] for s in chosen)

    def scale(self, start: float, end: float, kernel: str = "spin") -> float:
        """The factor that rescales work done in [start, end] to the
        kernel's reference time."""
        return KERNELS[kernel][1] / self.local(start, end, kernel)

    def median(self) -> float:
        return statistics.median(s[2] for s in self.samples)


def serve() -> None:
    """The calibration process: one timed ``spin`` and ``stream`` per input
    line."""
    for _ in range(WARM_SPINS):
        spin()
        stream()
    for _ in sys.stdin:
        t0 = perf_counter()
        spin()
        t1 = perf_counter()
        stream()
        print(repr(t1 - t0), repr(perf_counter() - t1), flush=True)


if __name__ == "__main__":
    serve()
