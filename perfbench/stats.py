"""Small, dependency-free statistics used by the benchmark.

Kept apart from the measuring code so the benchmark's own tests can
check the arithmetic without running the program.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: A tail percentile is only stated when at least this many samples lie
#: strictly beyond it; otherwise the "tail" is just the slowest sample.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_index(n: int) -> int:
    """0-based index, in ascending order, of the reported tail sample.

    The tail is the highest percentile that still has at least
    :data:`TAIL_BEYOND` samples beyond it: the sample with exactly ten
    slower ones, i.e. index ``n - 11``. With fewer than 11 samples no
    percentile qualifies, and the lowest one that can be stated is the
    fastest sample, index 0.
    """
    if n < 1:
        raise ValueError("tail of no samples")
    return max(n - TAIL_BEYOND - 1, 0)


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, beyond)`` of the tail sample of ``values``.

    ``percentile`` is the share of samples at or below the reported
    one, in percent; ``beyond`` is how many samples are slower. A
    ``beyond`` under :data:`TAIL_BEYOND` means the sample count was too
    small for a real tail and the value is the minimum.
    """
    ordered = sorted(values)
    index = tail_index(len(ordered))
    return (float(ordered[index]), 100.0 * (index + 1) / len(ordered),
            len(ordered) - 1 - index)

