"""The host's momentary speed, from a fixed piece of work timed next to each
measurement.

The benchmark's cores are shared with other tenants of the host.  Their load
makes the same pure-Python work take up to 1.5x as long from one minute to
the next, far more than the changes the benchmark must detect.  The loop in
`work` does the kind of work morirays does (Fraction arithmetic, trial
division of integers, building lists) and nothing else, so it slows down with
the program.  A time `t` measured where the loop took `c` seconds is reported
as `t * REFERENCE_S / c`: the time the program would have taken at the speed
at which the loop takes `REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the loop's time on a 2-core x86-64 Xeon VM, Python 3.11, at its usual speed
REFERENCE_S = 0.002


def work() -> int:
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i * i + 1)
    n, d, remainders = 10**12 + 39, 3, 0
    while d < 4000:
        remainders += n % d
        d += 2
    squares = [i * i for i in range(5000)]
    return total.numerator % 7 + remainders + len(squares)


def sample() -> float:
    """Seconds one run of `work` takes now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scale(times: list[float], cals: list[float]) -> list[float]:
    """`times[i]` at the reference speed.  `cals` holds one calibration sample
    before each time and one after the last; time i is scaled by the median of
    the two samples before it and the two after it, which damps a sample that
    an interrupt happened to hit."""
    assert len(cals) == len(times) + 1
    out = []
    for i, t in enumerate(times):
        near = cals[max(0, i - 1):i + 3]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
