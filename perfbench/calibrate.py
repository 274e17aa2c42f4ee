"""Machine-speed calibration, so timings from a shared host can be compared.

On the shared 2-core virtual machine this benchmark was tuned on, the speed
of one core drifts by up to +-30% over tens of seconds while the measured
process keeps its core (steal time stays near 4%), because other tenants
share the physical cores and caches. Most work slows together: in a 150-second
interleaved test, 6-second block means of a Fig2 item, a Fig3 item and a
kernel like the one below varied by 16%, while the items' times divided by
the kernel's varied by 4%. The Monte Carlo items follow the kernel less
closely: between the host's slow and fast spells the kernel's time changed
by a factor of about 1.5 and theirs by about 1.17, a power of about 0.4.
Their times are therefore scaled by that power of the kernel's
(workloads.CALIBRATION_EXPONENT).

So the benchmark times this fixed kernel between the pieces of work it
measures and reports times in reference seconds: measured seconds x
REFERENCE_S / kernel seconds nearby. REFERENCE_S is a constant (the
kernel's time on the tuning machine), so two runs, two commits or two
machines compare on one scale.
The kernel mixes the three kinds of work the program does: a pure-Python
loop, numpy calls on small arrays, and a 65536-member block stepped through
collapse epochs the way the Monte Carlo oracle steps its ensemble.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.021
SHARE = 0.10  # calibration time per second of measured work

_GRID = np.linspace(0.0, 1.0, 2000)
_MEMBERS = 65536


def kernel() -> float:
    acc = 0.0
    for i in range(12000):
        acc += math.sin(i * 1e-3) * i
    v = np.zeros(_GRID.size)
    for j in range(120):
        v[j:] = 0.9 * v[j:] + 0.1 * np.cos(_GRID[j:]) ** 2
    # one block of ensemble members through a few collapse epochs
    rng = np.random.default_rng(1)
    in_ground = np.zeros(_MEMBERS, dtype=bool)
    t_reset = np.zeros(_MEMBERS)
    for epoch in range(1, 4):
        phase = 0.08 * epoch - t_reset
        p_ground = np.where(in_ground, np.cos(phase) ** 2, np.sin(phase) ** 2)
        hit = rng.random(_MEMBERS) < 0.5
        outcome = rng.random(_MEMBERS) < p_ground
        in_ground[hit] = outcome[hit]
        t_reset[hit] = 0.08 * epoch
    return acc + float(v.sum()) + float(np.count_nonzero(in_ground))


_warm = False


def sample(share_of: float = 0.0) -> float:
    """Median seconds of one kernel run, timed now.

    Runs the kernel at least once, and until the calibration has taken
    `share_of` x SHARE (the time of the work it sits next to), so a long item
    gets a proportionally steadier reading. The first call in a process runs
    it once untimed before: that first run pays for page faults and numpy's
    first-call costs, and read up to twice the time of later ones.
    """
    global _warm
    if not _warm:
        kernel()
        _warm = True
    times: list[float] = []
    while not times or sum(times) < SHARE * share_of:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def to_reference(durations: list[float], readings: list[float],
                 exponent: float = 1.0) -> list[float]:
    """Durations in reference seconds; readings[j] and readings[j + 1] were
    taken just before and just after durations[j].

    Each duration is scaled by (REFERENCE_S / r) ** exponent, where r is the
    median of the six readings nearest to it, three on each side. That
    follows the host's drift over seconds while damping the noise of single
    readings. `exponent` is how strongly the work slows with the kernel:
    1 for work like the kernel's, less for work that drifts less
    (workloads.CALIBRATION_EXPONENT).
    """
    return [d * (REFERENCE_S / statistics.median(readings[max(0, j - 2):j + 4])) ** exponent
            for j, d in enumerate(durations)]
