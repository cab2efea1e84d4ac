"""Correction for a shared host whose speed changes while the benchmark runs.

On a shared machine the same op can take up to about twice as long, for
seconds at a time, while neighbours load the host, and the share of a run
spent slowed differs from run to run; raw run-level timings then spread by
10% or more. So the benchmark times a fixed standard-library snippet
(object, dict, float-formatting, generator and JSON work, like the
toolchain's) between ops, at most every `INTERVAL` seconds, and divides each
reported time by the host's pace around it: the median of the snippet
samples just before and just after it and their neighbours, relative to
`NOMINAL`. Reported times are therefore in milliseconds (or seconds) of a
host on which one snippet pass takes `NOMINAL`; the snippet never touches
the toolchain, so a change to the toolchain cannot move it. Raw figures
stay in the detail line.
"""

from __future__ import annotations

import gc
import io
import json
import statistics
import time

INTERVAL = 0.05
#: Seconds one snippet pass defines as the reference pace.
NOMINAL = 0.001


def calibrate() -> float:
    """Seconds for one pass of the fixed snippet.

    The garbage collector is off during the pass, so collecting the cyclic
    garbage the toolchain's ops leave behind never lands in the sample.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = []
        for i in range(400):
            d = {"a": i, "b": (i, i + 1.5)}
            acc.append(format(d["b"][1] * 1.1, ".17g"))
            acc.append(sum(x * 0.5 for x in range(10)))
        rows = [(i, i * 0.5, str(i)) for i in range(600)]
        index = {r[2]: r for r in rows}
        buf = io.StringIO()
        for r in rows[:300]:
            buf.write(format(index[r[2]][1], ".17g"))
            buf.write("\n")
        json.dumps(rows[:100])
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Snippet samples taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the snippet now; returns the sample's index."""
        self.samples.append(calibrate())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Sample if `INTERVAL` has passed since the last one; returns the latest index."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.sample()
        return len(self.samples) - 1

    def slowdown(self, before: int, after: int | None = None) -> float:
        """Host pace relative to `NOMINAL` around the interval between samples
        `before` and `after` (by default the sample following `before`): the
        median of those samples and the two on each side, which damps the
        jitter of a single pass without blurring the host's slow spells,
        which last seconds."""
        if after is None:
            after = before + 1
        return statistics.median(self.samples[max(0, before - 2):after + 3]) / NOMINAL
