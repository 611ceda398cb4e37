"""Host-speed calibration of the timed runs.

The benchmark runs on a shared host whose CPU speed is not its own: a
fixed pure-Python loop takes from 1.0x to 1.7x its fastest time within
seconds, and the mean over half a minute drifts by tens of percent
between minutes.  Wall time alone then measures the neighbours more
than the program.

``Calibrated`` times a block and, every ``PERIOD_S`` while the block
runs, interrupts it (SIGALRM) to time a fixed loop made of the two kinds
of work the simulator and the analysis do: dict updates on a small
table, and random reads from a list larger than the per-core cache.
Contention on the host slows the two differently, and the simulator
sits between them, so the loop times both.  The loop's own time is taken
out of the block's time, and the rest is scaled by ``REFERENCE_S`` /
(mean loop time): the block's seconds at the reference speed.  A
program change moves it as it moves wall time; a slower host moves both
the block and the loop and cancels out.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, List, Optional

#: steps of the loop's two phases, each about 2.5 ms on the reference host
DICT_STEPS = 12_000
LIST_STEPS = 6_000
#: the random reads' list: 4 MB of pointers to 16 MB of ints
_LIST = list(range(1 << 19))
_LIST_MASK = (1 << 19) - 1
#: seconds between two calibration samples inside a timed block
PERIOD_S = 0.1
#: seconds the loop takes at the reference speed: its fastest time on a
#: 2-vCPU Xeon (Sapphire Rapids) KVM guest under Python 3.11.  A fixed
#: constant; changing it rescales every reference-speed time.
REFERENCE_S = 0.0055


def _loop() -> int:
    table: dict = {}
    total = 0
    for i in range(DICT_STEPS):
        key = i % 5000
        table[key] = table.get(key, 0) + i
        total += table[key] & 7
    values = _LIST
    index = 12345
    for _ in range(LIST_STEPS):
        index = (index * 1103515245 + 12345) & _LIST_MASK
        total += values[index]
    return total


def _sample() -> float:
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started


class Calibrated:
    """Context manager timing a block and the host's speed during it.

    After the block: ``wall_s`` is its wall time without the
    calibration samples taken inside it, ``loop_s`` the mean time of the
    loop over the samples before, inside and after it, and
    ``reference_s`` the block's time at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.wall_s = 0.0
        self.loop_s = 0.0
        self.reference_s = 0.0
        self._inside_s = 0.0
        self._started = 0.0
        self._previous: Any = None

    def _tick(self, signum: int, frame: Optional[Any]) -> None:
        started = time.perf_counter()
        self.samples.append(_sample())
        self._inside_s += time.perf_counter() - started

    def __enter__(self) -> "Calibrated":
        self.samples.append(_sample())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_sample())
        self.wall_s = elapsed - self._inside_s
        self.loop_s = statistics.fmean(self.samples)
        self.reference_s = self.wall_s * REFERENCE_S / self.loop_s
