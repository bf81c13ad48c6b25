"""Host speed probe and the speed correction of measured times.

The host runs either at full speed or about 1.7x slower, in phases of
seconds to minutes, and the slow phases show in neither CPU steal nor
process CPU time.  A fixed, tiny numpy kernel, timed before every
parameter update and after each set-up, tracks that speed: it slows by the
same factor as training does.  A measured time is divided by the probe's
slow-down at that moment, relative to its fastest level in the run, which
gives the time the work takes at the host's full speed.  In a busy minute
the full speed may last only a few short windows, so the fastest level is
the fastest smoothed probe, not a quantile.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_X = _RNG.random((20, 24))     # a desk-sized activation block and weight matrix
_W = _RNG.random((24, 24))
SMOOTH = 2                     # running median over 2 * SMOOTH + 1 probes
SETTLE = 7                     # probes timed for one moment, after two warm-up calls


def probe() -> float:
    """Seconds taken by the fixed kernel: small matmuls and elementwise ops."""
    started = time.perf_counter()
    for _ in range(12):
        h = np.tanh(_X @ _W)
        (h * (1.0 - h)).sum()
    return time.perf_counter() - started


def settled_probe() -> float:
    """Median probe after two warm-up calls, for a single moment."""
    probe()
    probe()
    return statistics.median(probe() for _ in range(SETTLE))


def smoothed(probes):
    """Running median, so a single interrupted probe does not count."""
    return [statistics.median(probes[max(0, i - SMOOTH):i + SMOOTH + 1])
            for i in range(len(probes))]


def floor(smoothed_runs):
    """The probe's full-speed time: the fastest smoothed probe of a run.

    None when no unit reached a parameter update, e.g. when every unit failed.
    """
    return min((v for run in smoothed_runs for v in run), default=None)


def slow_down(probe_s, full_speed) -> float:
    """How many times slower than full speed the host ran; 1 without a floor."""
    return max(probe_s, full_speed) / full_speed if full_speed else 1.0


def corrected(segments, probes_smoothed, full_speed) -> float:
    """Sum of segments, each divided by the host's slow-down around it.

    ``segments[i]`` ends where probe ``i`` starts, so a segment sits between
    probes ``i - 1`` and ``i``; the first and last segments have one probe.
    """
    if not probes_smoothed:
        return sum(segments)
    p = probes_smoothed
    around = [p[0]] + [(a + b) / 2 for a, b in zip(p, p[1:])] + [p[-1]]
    return sum(s / slow_down(q, full_speed) for s, q in zip(segments, around))
