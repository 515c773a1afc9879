"""Host-speed probe for steady timings on a shared machine.

On a host shared with other tenants, the speed of Fraction-heavy Python
code drifts by 30-50 % over seconds, so raw wall times of the same work
disagree from run to run far beyond any useful regression bound.  While
a `Sampler` is active, a SIGALRM handler runs a fixed probe of Fraction
arithmetic every PROBE_PERIOD_S, so the host's speed is sampled during the
timed work itself, not beside it.  A measured interval is reported as

    (wall time - probe time inside it) * PROBE_REF_S / mean probe time

that is, in reference seconds: seconds on a host where the probe takes
PROBE_REF_S.  The probe is the benchmark's own code, so a change to
kscontext cannot move it.  Raw wall times are reported next to the
normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.0025     # probe time that defines one reference second

_TERMS = [Fraction(i + 1, 2 * i + 3) for i in range(16)]


def probe() -> Fraction:
    """Fixed Fraction work of a few milliseconds."""
    total = Fraction(0)
    for _ in range(5):
        for a in _TERMS:
            for b in _TERMS[:6]:
                total += a * b
    return total


class Sampler:
    """Runs `probe` on a wall-clock timer while the `with` block runs.

    `durations` holds every probe's time; `paused` their running total,
    which callers subtract from the intervals they time.
    """

    def __init__(self):
        self.durations: list[float] = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        spent = time.perf_counter() - start
        self.durations.append(spent)
        self.paused += spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, first: int = 0) -> float:
        """Reference seconds per net wall second, from probes[first:]."""
        samples = self.durations[first:]
        if not samples:
            raise ValueError("no probe ran in the interval; time more work")
        return PROBE_REF_S / statistics.fmean(samples)
