"""Host-speed normalisation of the benchmark's timings.

On a shared host the speed of a core drifts: over seconds to minutes the
same code runs up to 1.8x faster or slower, because of what runs beside it.
Within one run the drift moves every timing together, so runs of identical
code disagree by more than any useful regression bound.

The benchmark therefore times a fixed calibration loop, which uses no code of
the package, right before and right after each timed call, and during a long
call every ``TICK_S`` seconds from a timer signal. A timing is reported at the
reference speed, the speed at which the loop takes ``REFERENCE_S``:

    normalised = measured * REFERENCE_S / calibration

where ``calibration`` is the mean of the loop's times around and during the
call, and ``measured`` leaves out the time of the passes made during it. A
change to the package moves the measured time and leaves the loop alone, so
it shows in full. The raw wall times are printed beside the normalised ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

# about the loop's time on the 2-vCPU Xeon VM the baseline was taken on; it
# fixes the unit, and is the same for every run and every commit
REFERENCE_S = 0.005
# passes before and after a call, and the period of the passes during it
BRACKET_PASSES = 10
TICK_S = 0.2

_A = (np.arange(24 * 24, dtype=np.int64).reshape(24, 24) * 7919) % 101
_B = _A.T.copy()


def calibration() -> float:
    """Seconds of one pass of a fixed loop, mixing interpreted Python
    (ints, strings, dicts and lists, as in parsing and writing CSV) with small
    numpy (min,+) products, as the package does. The garbage collector is
    off meanwhile, so that the garbage of the timed calls does not land here."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    table = {}
    for i in range(2500):
        key = str(i * 31)
        table[key] = int(key) % 97
    "\n".join(f"{k},{v}" for k, v in table.items())
    for _ in range(30):
        (_A[:, :, None] + _B[None, :, :]).min(axis=1)
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def normalised(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and ``after``,
    at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class Speed:
    """Calibration passes around one timed call and, with ``ticks``, during
    it: a timer signal interrupts the call every ``TICK_S`` seconds for one
    pass, whose time ``spent`` counts apart from the call's."""

    def __init__(self, ticks: bool = True):
        self.ticks = ticks

    def __enter__(self):
        self.before = statistics.fmean(calibration() for _ in range(BRACKET_PASSES))
        self.during = []
        self.spent = 0.0
        if self.ticks:
            self._handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.during.append(calibration())
        self.spent += perf_counter() - t0

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)
        self.after = statistics.fmean(calibration() for _ in range(BRACKET_PASSES))

    def own(self, seconds: float) -> float:
        """``seconds`` timed around the call, less the passes made during it."""
        return seconds - self.spent

    def normalised(self, seconds: float) -> float:
        """The call's own time, at the reference speed."""
        cal = statistics.fmean([self.before, *self.during, self.after])
        return self.own(seconds) * REFERENCE_S / cal
