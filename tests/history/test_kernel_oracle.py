"""Oracle tests: columnar kernels == retained naive references.

The kernel layer (`repro.history.kernel`) replaced per-call loops and
enum-keyed dict churn with fused prefix passes and flat integer rows.
Every kernel's pre-kernel implementation is kept in ``naive_kernels``
as a ``naive_*`` function; this suite asserts exact equality between
the two on arbitrary inputs, which is the argument that the
golden-pinned study outputs cannot drift.
"""

from hypothesis import given, settings, strategies as st

from repro.diff.changes import KIND_ORDER, N_KINDS
from repro.diff.stats import ChangeBreakdown, combine_breakdowns
from repro.history.kernel import accumulate_month_counts, activity_prefix
from tests.history.naive_kernels import (
    naive_accumulate_month_counts,
    naive_combine_flat,
    naive_cumulative,
    naive_cumulative_fraction,
)

monthly_lists = st.lists(st.integers(0, 200), min_size=1, max_size=80)

flat_rows = st.tuples(*([st.integers(0, 30)] * N_KINDS))


@st.composite
def month_events(draw):
    months = draw(st.integers(1, 40))
    events = draw(st.lists(
        st.tuples(st.integers(0, months - 1), flat_rows), max_size=60))
    return months, events


@settings(max_examples=200, deadline=None)
@given(monthly=monthly_lists)
def test_activity_prefix_matches_naive(monthly):
    cumulative, total, fractions = activity_prefix(monthly)
    assert cumulative == naive_cumulative(monthly)
    assert total == sum(monthly)
    assert fractions == naive_cumulative_fraction(monthly)


def test_activity_prefix_all_zero():
    cumulative, total, fractions = activity_prefix([0, 0, 0])
    assert cumulative == (0, 0, 0)
    assert total == 0
    assert fractions == (0.0, 0.0, 0.0)


def test_activity_prefix_single_month():
    cumulative, total, fractions = activity_prefix([5])
    assert cumulative == (5,)
    assert total == 5
    assert fractions == (1.0,)


@settings(max_examples=200, deadline=None)
@given(flats=st.lists(flat_rows, max_size=30))
def test_combine_breakdowns_matches_naive(flats):
    combined = combine_breakdowns(
        [ChangeBreakdown(flat=flat) for flat in flats])
    assert combined.flat == naive_combine_flat(flats)


@settings(max_examples=200, deadline=None)
@given(data=month_events())
def test_accumulate_month_counts_matches_naive(data):
    months, events = data
    monthly, rows = accumulate_month_counts(months, iter(events))
    naive_monthly, naive_rows = naive_accumulate_month_counts(
        months, iter(events))
    assert monthly == naive_monthly
    zero_row = (0,) * N_KINDS
    for row, naive_row in zip(rows, naive_rows):
        # A None row means "no event touched this month" — the caller
        # shares the empty-breakdown singleton, which must equal the
        # naive all-zero combination.
        assert (zero_row if row is None else tuple(row)) == naive_row


def test_accumulate_month_counts_no_events():
    monthly, rows = accumulate_month_counts(3, iter(()))
    assert monthly == [0, 0, 0]
    assert rows == [None, None, None]


def test_accumulate_month_counts_single_month_project():
    flat = tuple(range(1, N_KINDS + 1))
    monthly, rows = accumulate_month_counts(1, iter([(0, flat), (0, flat)]))
    assert monthly == [2 * sum(flat)]
    assert tuple(rows[0]) == tuple(2 * value for value in flat)


@settings(max_examples=200, deadline=None)
@given(flat=flat_rows)
def test_breakdown_count_matches_by_kind_view(flat):
    breakdown = ChangeBreakdown(flat=flat)
    for kind, expected in zip(KIND_ORDER, flat):
        assert breakdown.count(kind) == expected
    assert dict(breakdown.by_kind) == breakdown.counts
    assert breakdown.total == sum(flat)
