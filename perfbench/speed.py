"""The machine's speed, sampled between queries, and times scaled by it.

A shared VM's CPU speed drifts by up to 2x over seconds to minutes (see
README.md), so a wall time says as much about the neighbours as about the
program. ``sample()`` times a fixed pure-Python reference computation; the
benchmark takes one sample before every query and after every pass. A time
scaled by ``NOMINAL_S`` over the mean of the samples taken around it reads
as seconds on a machine where the reference takes ``NOMINAL_S``. The
reference is part of the benchmark, not of the program, so a change to the
program moves the scaled times and a change of machine speed does not.

On the 2-vCPU VM where this was tuned, passes over the same corpus-check
queries took 2.1-3.9 s while their ratio to the reference samples taken
between the queries stayed within 11.1-12.3.
"""

from __future__ import annotations

import time

# the reference's time when the VM above runs at its usual fast speed
NOMINAL_S = 0.0015
# a query is scaled by the samples up to this many queries away
WINDOW = 5


def _reference() -> int:
    # dict, set and integer work in small loops, like the program's own code
    counts: dict[int, int] = {}
    acc = 0
    for i in range(4000):
        k = (i * 2654435761) & 0x3FF
        counts[k] = counts.get(k, 0) + 1
        acc ^= (k << 3) | (i & 7)
    return acc + len({frozenset(item) for item in counts.items()})


def sample() -> float:
    """Seconds of one run of the reference computation."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


def sample_median() -> float:
    """Median of five samples: one speed reading around a single timed
    operation, robust to a sample hit by a short stall."""
    return sorted(sample() for _ in range(5))[2]


def scale(seconds: float, samples) -> float:
    """``seconds`` at nominal speed, given the samples taken around it."""
    samples = list(samples)
    return seconds * NOMINAL_S * len(samples) / sum(samples)


def scale_pass(latencies: list[float], samples: list[float]) -> list[float]:
    """Each query's latency at nominal speed. ``samples`` has one sample
    before each query and one after the last; query ``i`` is scaled by the
    samples from ``i - WINDOW`` to ``i + 1 + WINDOW``."""
    assert len(samples) == len(latencies) + 1
    return [scale(lat, samples[max(0, i - WINDOW): i + 2 + WINDOW])
            for i, lat in enumerate(latencies)]
