"""Naive reference implementations of the columnar timeline kernels.

These are the per-call loops and enum-keyed dict churn that
:mod:`repro.history.kernel` replaced. They are the oracles of
``test_kernel_oracle.py``, which asserts the kernels equal them
exactly on arbitrary inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.diff.changes import KIND_ORDER


def naive_cumulative(monthly: Sequence[int]) -> tuple[int, ...]:
    """Reference cumulative array (the pre-kernel per-call loop)."""
    out: list[int] = []
    running = 0
    for value in monthly:
        running += value
        out.append(running)
    return tuple(out)


def naive_cumulative_fraction(monthly: Sequence[int]) -> tuple[float, ...]:
    """Reference cumulative-fraction vector (recomputes everything)."""
    total = sum(monthly)
    if total == 0:
        return tuple(0.0 for _ in monthly)
    return tuple(c / total for c in naive_cumulative(monthly))


def naive_combine_flat(flats: Iterable[tuple[int, ...]]) -> tuple[int, ...]:
    """Reference breakdown sum via the old enum-keyed dict churn."""
    totals = {kind: 0 for kind in KIND_ORDER}
    for flat in flats:
        for kind, count in zip(KIND_ORDER, flat):
            totals[kind] += count
    return tuple(totals[kind] for kind in KIND_ORDER)


def naive_accumulate_month_counts(
    months: int,
    events: Iterable[tuple[int, tuple[int, ...]]],
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Reference per-month accumulation via intermediate lists.

    Mirrors the pre-kernel ``schema_heartbeat`` shape: collect every
    transition's counts per month, then dict-combine each month.
    """
    monthly = [0] * months
    per_month: list[list[tuple[int, ...]]] = [[] for _ in range(months)]
    for month, flat in events:
        monthly[month] += sum(flat)
        per_month[month].append(flat)
    combined = [naive_combine_flat(items) for items in per_month]
    return monthly, combined
