"""Host-speed-adjusted timing for a shared, noisy host.

On a shared virtual machine the same code can run up to twice as slow
for minutes at a time, because of what other tenants run on the same
physical cores.  Wall time alone then measures the neighbours.  This
module interleaves a fixed calibration unit with the measured code and
rescales the measured time by the speed the unit saw meanwhile:

- a one-shot ``SIGALRM`` timer fires every ``PERIOD_S`` of wall time;
  its handler runs one calibration unit (small numpy array work plus a
  pure-Python loop, the mix eqflow itself runs), records how long it
  took, and re-arms the timer;
- the time spent in the handler is taken out of the measured interval,
  so the measured code is timed as if the handler never ran;
- the measured interval is then scaled by ``REF_UNIT_S`` times the mean
  of ``1 / unit time`` over the units run inside it: the time the code
  would have taken on a host where one unit takes ``REF_UNIT_S``.

Interleaving finely matters: the host's speed changes within seconds,
and units run only before and after a multi-second run do not track it.
The unit is independent of eqflow, so a change to the program cannot
change the scale.  The raw (unscaled) times are reported as well.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
REF_UNIT_S = 0.003     # nominal unit time; sets the scale of the results

_N = 401
_R = 1.0 + 0.1 * np.cos(np.linspace(0.0, np.pi, _N))
_W = np.linspace(1.0, 2.0, _N)


def _now() -> float:
    # The system-wide monotonic clock, so that a reading taken by the
    # parent before it started this process can serve as a start point.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit() -> float:
    """One calibration unit: fixed work, a few milliseconds long."""
    s = 0.0
    r = _R
    for _ in range(90):
        d = np.diff(r)
        m = 0.5 * (r[1:] + r[:-1])
        c = np.cumsum(d * d * m)
        s += float(c[-1]) + float(np.dot(_W[1:], m)) + float(np.max(np.abs(d)))
        x = 0.5
        for j in range(30):
            x = (x * 1.000001 + j) % 7.0
            s += x ** 0.5
    return s


class HostClock:
    """Runs calibration units on a timer; ``mark``/``since`` time spans."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period = period_s
        self.paused_s = 0.0          # wall time spent in the handler
        self.units: list[float] = []  # duration of each unit

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _unit(self) -> None:
        t0 = _now()
        unit()
        self.units.append(_now() - t0)

    def _sample(self, signum, frame) -> None:
        t0 = _now()
        self._unit()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.paused_s += _now() - t0

    def clock(self) -> float:
        """Monotonic wall clock that stands still while a unit runs."""
        return _now() - self.paused_s

    def mark(self, t0: float | None = None) -> tuple[float, int]:
        """A start point: now, or the earlier monotonic clock reading
        ``t0`` if no unit has run since."""
        return (self.clock() if t0 is None else t0), len(self.units)

    def since(self, mark: tuple[float, int]) -> dict:
        """Raw and scaled time from ``mark`` to now, without the handler."""
        t, k = mark
        raw = self.clock() - t
        units = self.units[k:]
        if not units:               # too short to be sampled: run one now
            self._unit()
            units = self.units[-1:]
        speed = REF_UNIT_S * sum(1.0 / u for u in units) / len(units)
        return {"raw_s": raw, "s": raw * speed, "speed": speed,
                "units": len(units)}
