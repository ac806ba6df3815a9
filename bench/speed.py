"""Host-speed calibration.

On a shared virtual machine the speed of the CPU a process gets drifts by
half again over minutes (a fixed integro-diff row took 23 ms in one ten
second window and 37 ms in the next), and CPU time drifts with wall time,
so neither can compare two commits measured at different moments.  A fixed
kernel of exact rational and big-integer arithmetic, timed between the ops of a pass, slows
down and speeds up with the workloads: the ratio of an op's time to the
kernel's time stays within a few per cent while both move by 50 %.

Every time the benchmark reports is therefore scaled to a reference speed:
time x REFERENCE_S / (median kernel time measured next to it).  An op is
scaled by the kernel runs just before it and its neighbours.  A change in
umbra moves the numerator only; the kernel calls nothing of umbra.
"""
from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

#: median kernel time on the machine the baseline was recorded on
#: (2 vCPU shared VM, Intel Xeon at 2.1 GHz, CPython 3.11.7)
REFERENCE_S = 0.0030

_MODULUS = 10 ** 30
_BIG_A, _BIG_B = 3 ** 1500 + 7, 5 ** 1300 + 11  # about 2400 and 3000 bits
HALFWIDTH = 8  # samples each side of an op that set its multiplier


def kernel() -> int:
    """Fixed exact arithmetic of the kinds seqcore and the oracles are made
    of: Fraction sums and products of bounded height, then products, remainders
    and gcds of integers of a few thousand bits."""
    a = Fraction(1, 3)
    for i in range(1, 150):
        a = a * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        a = Fraction(a.numerator % _MODULUS + 1, a.denominator % _MODULUS + 1)
    x, acc = _BIG_A, a.denominator
    for i in range(16):
        x = (x * _BIG_B + i) % (_BIG_A * _BIG_B)
        acc += math.gcd(x, _BIG_B + i)
    return acc


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor(samples: list) -> float:
    """Multiplier that scales times measured next to `samples` to the
    reference speed."""
    return REFERENCE_S / statistics.median(samples)


def local_factors(samples: list) -> list:
    """One multiplier per sample, from the median of the samples within
    HALFWIDTH places of it: the speed also moves within a pass, from one
    second to the next, and one sample alone is too noisy to follow it."""
    return [factor(samples[max(0, n - HALFWIDTH):n + HALFWIDTH + 1])
            for n in range(len(samples))]
