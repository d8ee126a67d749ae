"""Machine-speed probe for the untraced run.

On a shared host the same code runs up to about twice as slowly, from
outside the process: CPU time equals wall time and steal time stays near
zero.  The speed flips between two levels every fraction of a second, and
the share of time at the slow level drifts over tens of seconds to
minutes, so a whole run can land in a slow stretch and no repetition
inside the run averages that out.

The probe times a fixed kernel that uses no glomkit code -- exact Fraction
elimination and a dict-keyed polynomial product, the kinds of work
glomkit's ops do -- every PROBE_EVERY_S seconds of op time.  The run's op
times are scaled by REFERENCE_S over the kernel's mean time in that run:
they become the times on a machine whose kernel takes REFERENCE_S.  That
cancels the run's share of slow time, while a change to glomkit moves the
scaled times in full.  A single reading lands on one level or the other,
so only the mean over the whole run is used.  The garbage collector is off
during the kernel, so the size of glomkit's heap does not change it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# seconds of op time between readings
PROBE_EVERY_S = 0.25
# kernel timings per reading
PROBE_REPEATS = 2
# the kernel's mean time over runs of every workload on a shared 2-vCPU
# Intel Xeon VM
REFERENCE_S = 0.0045


def kernel() -> int:
    n = 8
    rows = [[Fraction((7 * i + 13 * j) % 29 + 1, (3 * i + 5 * j) % 11 + 1) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        if pivot == 0:
            continue
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    poly = {(i, j): i * 31 + j + 1 for i in range(10) for j in range(10)}
    product: dict[tuple[int, int], int] = {}
    for (a, b), x in poly.items():
        for (c, d), y in poly.items():
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + x * y
    return rows[-1][-1].denominator + len(product)


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.busy_at_last: float | None = None

    def due(self, busy: float) -> bool:
        """Whether a reading is due after `busy` seconds of op time."""
        return self.busy_at_last is None or busy - self.busy_at_last >= PROBE_EVERY_S

    def read(self, busy: float) -> None:
        clock = time.perf_counter
        gc.disable()
        try:
            for _ in range(PROBE_REPEATS):
                start = clock()
                kernel()
                self.times.append(clock() - start)
        finally:
            gc.enable()
        self.busy_at_last = busy

    def scale(self) -> float:
        """Factor from this run's op times to the reference machine's."""
        return REFERENCE_S * len(self.times) / sum(self.times)
