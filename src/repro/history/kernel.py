"""Columnar timeline kernels for the heartbeat/metrics stack.

The paper's measurement device — the monthly heartbeat and its
cumulative-fraction curve — is consumed many times per project: the
landmark finder, the activity totals, the 20-point progress vector and
the chart renderers all walk the same cumulative arrays. This module
computes those arrays **once** per series, in a single fused pass over
the flat monthly counts, and exposes process-wide counters so the
execution engine can report kernel activity next to its cache and
parse-memo statistics (mirroring :mod:`repro.sqlddl.memo`).

The naive per-call implementations the kernels replaced live on in
``tests/history/naive_kernels.py`` as the *oracles*: the hypothesis
suite in ``tests/history/test_kernel_oracle.py`` asserts the kernels
are exactly equal to them on arbitrary inputs, which is the argument
that the golden-pinned study outputs cannot drift.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.diff.changes import N_KINDS

__all__ = [
    "PrefixView",
    "accumulate_month_counts",
    "activity_prefix",
    "count_reuse",
    "kernel_counters",
    "reset_kernel_counters",
]

#: Process-global kernel counters: prefix tables built (one per
#: distinct ActivitySeries that was ever inspected) and memo-served
#: reuse hits (lookups answered from an already-built table — each one
#: a full cumulative-array recomputation before this layer existed).
_SERIES_BUILT = 0
_REUSE_HITS = 0


def kernel_counters() -> tuple[int, int]:
    """Process-wide (series_built, reuse_hits) of the prefix kernels."""
    return _SERIES_BUILT, _REUSE_HITS


def reset_kernel_counters() -> None:
    """Zero the process-wide kernel counters (tests, worker deltas)."""
    global _SERIES_BUILT, _REUSE_HITS
    _SERIES_BUILT = 0
    _REUSE_HITS = 0


def count_reuse() -> None:
    """Record one memo-served prefix lookup."""
    global _REUSE_HITS
    _REUSE_HITS += 1


#: The fused prefix state of one activity series:
#: ``(cumulative, total, fractions)``.
PrefixView = tuple[tuple[int, ...], int, tuple[float, ...]]


def activity_prefix(monthly: Sequence[int]) -> PrefixView:
    """Cumulative array, total and cumulative-fraction vector, fused.

    One pass over ``monthly``; the total falls out of the prefix sum,
    and the fraction vector divides it back in (all zeros for a series
    with no activity — the convention the golden outputs pin).
    """
    global _SERIES_BUILT
    _SERIES_BUILT += 1
    cumulative: list[int] = []
    running = 0
    for value in monthly:
        running += value
        cumulative.append(running)
    if running == 0:
        fractions = (0.0,) * len(cumulative)
    else:
        fractions = tuple(c / running for c in cumulative)
    return tuple(cumulative), running, fractions


def accumulate_month_counts(
    months: int,
    events: Iterable[tuple[int, tuple[int, ...]]],
) -> tuple[list[int], list[list[int] | None]]:
    """Accumulate per-transition flat kind counts into monthly rows.

    Args:
        months: length of the project update period.
        events: ``(month, flat_counts)`` per transition, flat counts in
            :data:`~repro.diff.changes.KIND_ORDER` order.

    Returns:
        ``(monthly, rows)`` — total affected attributes per month, and
        one flat per-kind count row per month (``None`` for months no
        event touched, so callers can share an empty singleton).
    """
    monthly = [0] * months
    rows: list[list[int] | None] = [None] * months
    for month, flat in events:
        monthly[month] += sum(flat)
        row = rows[month]
        if row is None:
            rows[month] = list(flat)
        else:
            for index in range(N_KINDS):
                row[index] += flat[index]
    return monthly, rows
