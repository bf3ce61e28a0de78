"""Speed probe: a fixed burst of work that tracks how fast the CPU runs now.

On a shared VM the single-thread throughput of the same code swings by up
to 2x in phases of seconds to minutes, so raw wall times of one run cannot
be compared with another's. The measured process runs this probe at every
frame boundary (and around set-up and localize) and scales each interval by
REFERENCE_S / (probe time nearby). The reported times are therefore seconds
on a machine where one probe takes REFERENCE_S; the raw wall times are kept
in the run record beside them.

The probe mixes the kinds of work localize does: interpreter-bound Python,
small dense linear algebra, vectorized numpy and k-d tree queries. It uses
numpy and scipy only, never maploc, so a change to the program cannot
change the probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.spatial import cKDTree

REFERENCE_S = 0.003   # one probe, at the median speed of a 2-vCPU VM
WINDOW = 3            # probes taken on each side of an interval

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((6, 6))
_X = _rng.standard_normal(4096)
_Y = _rng.standard_normal(4096)
_TREE = cKDTree(_rng.standard_normal((2000, 3)))
_QUERY = _rng.standard_normal((300, 3))


def _work():
    acc = 0
    for i in range(10000):
        acc += i * i
    for _ in range(100):
        _SMALL @ _SMALL
    for _ in range(40):
        np.sqrt(_X * _X + _Y * _Y).sum()
    for _ in range(3):
        _TREE.query(_QUERY, k=1)
    return acc


def probe() -> float:
    """Seconds one probe takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Clock:
    """Wall-clock intervals, each scaled by the probes taken around it.

    ``mark()`` runs one probe and starts a new interval; the probe's own
    time lies outside every interval. ``intervals()`` returns, per interval
    between consecutive marks, its raw seconds and its scaled seconds, using
    the median of the WINDOW probes on each side.
    """

    def __init__(self):
        self._marks = []  # (time before the probe, probe seconds, time after)
        _work()  # the first call pays one-off set-up; never time it

    def mark(self, probes: int = 1):
        before = time.perf_counter()
        seconds = [probe() for _ in range(probes)]
        after = time.perf_counter()
        for s in seconds:
            self._marks.append((before, s, after))

    def intervals(self):
        marks = self._marks
        out = []
        for k in range(len(marks) - 1):
            if marks[k + 1][0] == marks[k][0]:
                continue  # probes of the same mark
            raw = marks[k + 1][0] - marks[k][2]
            near = [m[1] for m in marks[max(0, k + 1 - WINDOW):k + 1 + WINDOW]]
            out.append((raw, raw * REFERENCE_S / statistics.median(near)))
        return out

    def probe_ms(self):
        return [1000.0 * m[1] for m in self._marks]
