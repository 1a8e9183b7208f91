"""Shapiro–Wilk normality tests over the time-related measures (§3.4.1).

The paper reports that every involved measure fails normality (highest
p-value on the order of 1e-9), justifying the use of rank correlation
and quantile-based statistics. We run the same tests with a pure-Python
port of Royston's *Remark AS R94* (the algorithm behind scipy's
``swilk``) and also build the 10-bucket histograms the paper quantized
with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.records import MEASURE_NAMES, StudyRecord, measures_of
from repro.errors import AnalysisError


@dataclass(frozen=True)
class NormalityRow:
    """Shapiro–Wilk result for one measure.

    Attributes:
        measure: measure name.
        statistic: the W statistic.
        p_value: the test's p-value.
        histogram: 10-bucket counts over the measure's [min, max] range.
    """

    measure: str
    statistic: float
    p_value: float
    histogram: tuple[int, ...]

    @property
    def is_normal_at_5pct(self) -> bool:
        """True when normality is NOT rejected at the 5 % level."""
        return self.p_value > 0.05


@dataclass(frozen=True)
class NormalityResult:
    """Normality tests over all time-related measures.

    Attributes:
        rows: one per measure, in the canonical order.
    """

    rows: tuple[NormalityRow, ...]

    @property
    def max_p_value(self) -> float:
        """The largest p-value across measures (paper: ~1e-9)."""
        return max(row.p_value for row in self.rows)

    @property
    def all_non_normal(self) -> bool:
        """True when every measure rejects normality at 5 %."""
        return all(not row.is_normal_at_5pct for row in self.rows)


def _histogram(values: Sequence[float], buckets: int = 10) -> tuple[int, ...]:
    lo, hi = min(values), max(values)
    counts = [0] * buckets
    if hi == lo:
        counts[0] = len(values)
        return tuple(counts)
    width = (hi - lo) / buckets
    for value in values:
        index = min(int((value - lo) / width), buckets - 1)
        counts[index] += 1
    return tuple(counts)


# AS R94 polynomial coefficients (Royston 1995), lowest order first.
_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -2.0322e-3)
_C5 = (-1.5861, -0.31082, -0.083751, 3.8915e-3)
_C6 = (-0.4803, -0.082676, 3.0302e-3)
_G = (-2.273, 0.459)

#: Ranges below this are treated as a constant sample (AS R94's SMALL).
_SMALL_RANGE = 1e-19


def _poly(coefficients: Sequence[float], x: float) -> float:
    """AS 181's ``poly``: Horner's rule, constant term added last."""
    p = x * coefficients[-1]
    for c in reversed(coefficients[1:-1]):
        p = (p + c) * x
    return coefficients[0] + p


def _ppnd(p: float) -> float:
    """Normal quantile by AS 111 (Beasley & Springer 1977).

    AS R94 derives its coefficients from this approximation rather than
    an exact inverse CDF; matching scipy's W to ~1e-15 needs the same.
    """
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return q * (((-25.44106049637 * r + 41.39119773534) * r
                     - 18.61500062529) * r + 2.50662823884) \
            / ((((3.13082909833 * r - 21.06224101826) * r
                 + 23.08336743743) * r - 8.47351093090) * r + 1.0)
    r = math.sqrt(-math.log(1.0 - p if q > 0 else p))
    value = (((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r
             - 2.78718931138) / ((1.63706781897 * r + 3.54388924762) * r
                                 + 1.0)
    return -value if q < 0 else value


def _coefficients(n: int) -> list[float]:
    """The ``n // 2`` Shapiro–Wilk weights of AS R94, largest first."""
    if n == 3:
        return [math.sqrt(2) / 2.0]
    an25 = n + 0.25
    m = [_ppnd((i - 0.375) / an25) for i in range(1, n // 2 + 1)]
    # A plain loop, not sum(): from Python 3.12 sum() compensates the
    # rounding, and matching scipy needs its naive accumulation.
    summ2 = 0.0
    for mi in m:
        summ2 += mi ** 2
    summ2 *= 2.0
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    a1 = _poly(_C1, rsn) - m[0] / ssumm2
    if n > 5:
        a2 = -m[1] / ssumm2 + _poly(_C2, rsn)
        fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                        / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2))
        head = [a1, a2]
    else:
        fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
        head = [a1]
    return head + [-mi / fac for mi in m[len(head):]]


def shapiro_wilk(values: Sequence[float]) -> tuple[float, float]:
    """The Shapiro–Wilk ``(W, p)`` of ``values`` (Royston 1995, AS R94).

    A port of scipy's double-precision ``swilk`` for complete samples,
    with its pre-processing (sort, then subtract the element at index
    ``n // 2`` of the *unsorted* input) and its edge cases: the exact
    ``n = 3`` p-value and the ``1e-99`` floor for small samples far in
    the tail. The p-value is the exact upper normal tail of Royston's
    normalizing transform. A sample whose range is below 1e-19 has no
    defined W; it returns ``(0.0, 0.0)``, i.e. normality rejected, as
    the study reports a constant measure.

    Raises:
        ValueError: for fewer than 3 values.
    """
    n = len(values)
    if n < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 observations")
    if n > 5000:
        warnings.warn(f"Shapiro-Wilk: for n > 5000 the p-value may not be "
                      f"accurate (n = {n})", stacklevel=2)
    pivot = float(values[n // 2])
    x = [float(v) - pivot for v in sorted(values)]
    span = x[-1] - x[0]
    if span < _SMALL_RANGE:
        return 0.0, 0.0
    a = _coefficients(n)

    # W as the squared correlation between the data and the
    # antisymmetric weight vector (-a[0], ..., a[0]).
    sx = x[0] / span
    sa = -a[0]
    j = n - 2
    for i in range(1, n):
        sx += x[i] / span
        if i < j:
            sa -= a[i]
        elif i > j:
            sa += a[j]
        j -= 1
    sa /= n
    sx /= n
    ssa = ssx = sax = 0.0
    j = n - 1
    for i in range(n):
        if i < j:
            asa = -a[i] - sa
        elif i > j:
            asa = a[j] - sa
        else:
            asa = -sa
        xsx = x[i] / span - sx
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
        j -= 1
    # w1 is 1 - W, computed so that W near 1 keeps its precision.
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1

    if n == 3:
        # Exact: 6/pi * (asin(sqrt(W)) - pi/3), in scipy's acos form.
        p = 1.0 - 6.0 / math.pi * math.acos(math.sqrt(w))
        return w, max(p, 0.0)
    y = math.log(w1) if w1 > 0.0 else -math.inf
    if n <= 11:
        gamma = _poly(_G, n)
        if y >= gamma:
            # scipy's floor; it needs W <= 0.354 (n = 4) or W < 0.
            return w, 1e-99
        y = -math.log(gamma - y)
        mean = _poly(_C3, n)
        sd = math.exp(_poly(_C4, n))
    else:
        log_n = math.log(n)
        mean = _poly(_C5, log_n)
        sd = math.exp(_poly(_C6, log_n))
    return w, 0.5 * math.erfc((y - mean) / sd / math.sqrt(2.0))


def compute_normality(records: Sequence[StudyRecord]) -> NormalityResult:
    """Run Shapiro–Wilk on every time-related measure.

    Raises:
        AnalysisError: when fewer than 3 projects are given (the test's
            minimum sample size).
    """
    return normality_of(measures_of(records), len(records))


def normality_of(measures: Mapping[str, Sequence[float]],
                 total: int) -> NormalityResult:
    """Shapiro–Wilk over already-extracted measure vectors.

    The measure-vector form of :func:`compute_normality`, shared with
    the columnar analysis backend (which holds the vectors as table
    columns and never rebuilds the per-record view).
    """
    if total < 3:
        raise AnalysisError("Shapiro-Wilk needs at least 3 observations")
    rows: list[NormalityRow] = []
    for name in MEASURE_NAMES:
        values = measures[name]
        statistic, p_value = shapiro_wilk(values)
        rows.append(NormalityRow(measure=name, statistic=statistic,
                                 p_value=p_value,
                                 histogram=_histogram(values)))
    return NormalityResult(rows=tuple(rows))
