"""Machine speed probe: a fixed pure-Python loop, timed between the steps
of a run.

On a shared VM the CPU flips between a fast and a slow state about 1.5x
apart, when other tenants are busy: every second or so at some times, and
at other times the state holds for a minute or more, longer than a run.
Then every time of a run moves together, in the benchmark's own process
and in its subprocesses alike, and no run design that fits the time budget
averages that out. The probe measures the state: the loop does the same
kinds of work as the program (string splitting and parsing, dict lookups,
float arithmetic, small allocations) and none of its code, so a change to
the program does not move it. It runs only between the benchmark's steps:
probed while a subprocess runs, it would also time the subprocess's own
load on the cores.

``Speed.factor()`` is ``REFERENCE_S`` over the run's mean probe time, the
top and bottom tenth of the probes left out. A run's time metrics are
multiplied by it, i.e. reported at the speed at which one probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import statistics
import time

REFERENCE_S = 0.004  # about one probe on a 2-core Xeon VM
REPS = 4             # probes per call of ``Speed.probe``
_LINES = [f"t{i},u{i % 97},2015-03-{1 + i % 28:02d},e{i % 31}:{i % 5},"
          f"{1 + i % 5},-{1 + i % 3}" for i in range(400)]


def _work() -> float:
    counts: dict[str, int] = {}
    sums: dict[str, float] = {}
    rows = []
    for _ in range(5):
        for line in _LINES:
            text_id, user, day, mention, pos, neg = line.split(",")
            entity, _, weight = mention.partition(":")
            p, n = int(pos), int(neg)
            counts[entity] = counts.get(entity, 0) + 1
            sums[entity] = sums.get(entity, 0.0) + (p + n) * 0.5 / (
                1 + int(weight))
            rows.append((user, day[:7], p - n))
    return sum(sums.values()) + len(rows)


class Speed:
    """Probe times of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        # The probe allocates; a full collection of a loaded index inside
        # it would time the heap, not the CPU.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPS):
                start = time.perf_counter()
                _work()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self) -> float:
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])
