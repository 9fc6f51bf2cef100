"""A fixed reference computation that tracks the machine's current speed.

On a shared host the speed available to one thread drifts by a quarter
within seconds, and the drift is common to different kinds of code: small
linear solves, dict updates and wide numpy comparisons slow down and speed
up together. run.py runs ``reference()`` between timed units and divides
each unit's time by the reference time around it, times ``NOMINAL_S``. The
quotient is the unit's time on a machine where the reference takes
``NOMINAL_S``; it moves when the library's code changes, and much less
when the machine's speed does.

The reference mixes the operations the library's hot loops are made of. It
calls no library code, so no change to the library can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one reference() on an Intel Xeon (2 vCPU, 2.1 GHz), Python 3.11, numpy 2.4.
NOMINAL_S = 0.018
# Run the reference whenever this much time has passed since the last one.
EVERY_S = 0.3

_GEN = np.random.default_rng(20190524)
_SOLVE = _GEN.random((4, 4)) + 4.0 * np.eye(4)
_CUM = np.cumsum(_GEN.random((200, 200)), axis=1)
_CUM /= _CUM[:, -1:]
_U = _GEN.random(200)


def reference() -> float:
    """One fixed unit of mixed interpreter and small-array work; returns a checksum."""
    acc = 0.0
    for i in range(900):
        x = np.linalg.solve(_SOLVE, _SOLVE[i % 4])
        acc += float(x[int(np.argmax(x))])
    counts: dict[int, int] = {}
    for i in range(24000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(45):
        acc += float((_U[:, None] >= _CUM).sum())
    return acc + counts[0]


class SpeedProbe:
    """Reference timings along a stretch of timed work."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (midpoint, seconds) per reference run

    def run(self) -> None:
        start = perf_counter()
        reference()
        end = perf_counter()
        self.marks.append((0.5 * (start + end), end - start))

    def due(self) -> None:
        """Run the reference if none ran in the last ``EVERY_S`` seconds."""
        if not self.marks or perf_counter() - self.marks[-1][0] >= EVERY_S:
            self.run()

    def around(self, t: float) -> float:
        """Mean reference time of the last run before ``t`` and the first after it."""
        before = [s for m, s in self.marks if m <= t]
        after = [s for m, s in self.marks if m > t]
        near = before[-1:] + after[:1]
        return sum(near) / len(near)
