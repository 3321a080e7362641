"""A fixed stdlib-only piece of work that measures the interpreter's current speed.

The benchmark runs on a few cores of a shared host, where the same work can
run up to twice as slowly for seconds or minutes at a time.  ``calibrate``
times one small fixed piece of work of the same kind as the program's --
exact Fraction elimination plus tuple-keyed dictionary traffic -- but none
of the program's code, so a change to toricsheaf cannot move it.

``SpeedProbe`` repeats that timing every ``period`` seconds while a job runs,
from a SIGALRM handler, and keeps the time it spent so that the caller can
take it out of the job's times.
"""
from __future__ import annotations

import random
import signal
import time
from fractions import Fraction


def _eliminate(rows: list[list[Fraction]]) -> int:
    """Rank by reduced row echelon form, as exact linear algebra does it."""
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        lead = rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        rank += 1
    return rank


def _work() -> int:
    rng = random.Random(20211105)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(8)] for _ in range(7)]
    total = _eliminate(rows)
    seen: dict[tuple[int, ...], int] = {}
    for i in range(3000):
        key = (i % 7 - 3, i % 11 - 5, (i * 7) % 13 - 6, i % 5)
        seen[key] = seen.get(key, 0) + sum(key)
    return total + len(seen)


def calibrate() -> float:
    """Seconds the fixed piece of work takes now (a few milliseconds)."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibrates every ``period`` seconds of wall time between start and stop."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.spent_s = 0.0      # wall time inside the handler
        self.spent_cpu_s = 0.0  # process CPU time inside the handler

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        c0 = time.process_time()
        self.samples.append(calibrate())
        self.spent_cpu_s += time.process_time() - c0
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
