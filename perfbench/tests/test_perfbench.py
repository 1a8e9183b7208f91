"""The benchmark's own tests: its arithmetic and its accounting.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root. The corpus and growth tests realize the synthetic corpus (a few
seconds each); the rest run without the program.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import closedloop  # noqa: E402
from inputs import (  # noqa: E402
    GROWN_COMMITS,
    GROWN_PROJECTS,
    TARGET,
    _size,
    balance,
    check_table2,
    generate_projects,
    grow_projects,
    planned_table2,
    table2_rows,
)
from stats import tail, tail_index  # noqa: E402
from tracing import Span, inclusive_times, self_times  # noqa: E402


class TestTailPercentile:
    def test_sample_with_exactly_ten_beyond(self):
        assert tail_index(100) == 89
        assert tail_index(21) == 10
        assert tail_index(11) == 0

    def test_hundred_samples_give_p90(self):
        value, percentile, beyond = tail([float(v) for v in
                                          range(100, 0, -1)])
        assert (value, percentile, beyond) == (90.0, 90.0, 10)

    def test_too_few_samples_fall_back_to_the_fastest(self):
        value, percentile, beyond = tail([3.0, 1.0, 2.0])
        assert value == 1.0
        assert beyond == 2
        assert percentile == pytest.approx(100 / 3)

    def test_no_samples_is_an_error(self):
        with pytest.raises(ValueError):
            tail_index(0)


class TestFailureAccounting:
    REFERENCE = b"Table 1\nrow | 1\n"

    def test_judge_reasons(self):
        ref = self.REFERENCE
        assert closedloop.judge(0, ref, b"", ref) is None
        assert closedloop.judge(1, ref, b"", ref) == "exit 1"
        changed = ref[:-2] + b"2\n"
        assert closedloop.judge(0, changed, b"", ref) \
            == "stdout differs from the reference"

    def test_refresh_must_take_the_delta_path(self):
        ref = self.REFERENCE
        good = b"delta: 143 unchanged / 8 appended / 0 rewritten; ..."
        fallback = b"delta: 143 unchanged / 0 appended / 8 rewritten; ..."
        assert closedloop.judge(0, ref, good, ref, grown=8) is None
        assert "delta path not taken" in closedloop.judge(
            0, ref, fallback, ref, grown=8)
        assert closedloop.judge(0, ref, b"", ref, grown=8) \
            == "no delta summary on stderr"

    def test_each_bad_invocation_counts_once(self, tmp_path, monkeypatch):
        """First run exits non-zero, second changes one byte, the rest
        are right: exactly two failures, whatever the run count."""
        counter = tmp_path / "count"
        counter.write_text("0")
        script = textwrap.dedent(f"""
            import sys
            from pathlib import Path
            counter = Path({str(counter)!r})
            n = int(counter.read_text())
            counter.write_text(str(n + 1))
            out = {self.REFERENCE!r}
            if n == 0:
                sys.exit(1)
            if n == 1:
                out = out[:-2] + b"2\\n"
            sys.stdout.buffer.write(out)
        """)
        monkeypatch.setattr(closedloop, "command",
                            lambda *_: [sys.executable, "-c", script])
        inputs = type("Inputs", (), {"corpus": tmp_path, "primed": None,
                                     "reference": self.REFERENCE,
                                     "grown": 0})()
        work = tmp_path / "work"
        work.mkdir()
        runs = closedloop.closed_loop("cold_study", inputs, tmp_path, work,
                                      seconds=1.0)
        failures = [r.failure for r in runs if r.failure]
        assert len(runs) >= 3
        assert failures == ["exit 1", "stdout differs from the reference"]
        assert all(r.wall_s > 0 and r.cpu_s > 0 for r in runs)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [Span("a", 0, 10, None, "r"),
                 Span("b", 1, 3, 0, "r"),
                 Span("b", 2, 5, 0, "r"),     # overlaps its sibling
                 Span("c", 8, 12, 0, "r")]    # overhangs the parent
        assert self_times(spans) == [10 - 4 - 2, 2, 3, 4]

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [Span("a", 0, 100, None, "r"),
                 Span("b", 10, 60, 0, "r"),
                 Span("c", 20, 30, 1, "r")]
        assert self_times(spans) == [50, 40, 10]

    def test_inclusive_time_skips_nested_same_name(self):
        spans = [Span("p", 0, 10, None, "r"),
                 Span("p", 2, 4, 0, "r"),
                 Span("q", 5, 9, 0, "r"),
                 Span("p", 6, 7, 2, "r"),
                 Span("p", 20, 25, None, "r")]
        assert inclusive_times(spans) == {"p": 15, "q": 4}


class TestSteeredCorpus:
    def test_balance_reaches_the_target(self):
        options = [[(10, 1), (30, 3)], [(20, 2), (5, 1)], [(7, 1), (9, 2)]]
        assert balance(options, (39, 5)) == [0, 0, 1]
        assert balance(options, (59, 7)) == [1, 0, 1]

    def test_balance_keeps_option_zero_when_nothing_helps(self):
        assert balance([[(5,), (50,)], [(5,), (1,)]], (10,)) == [0, 0]

    def test_same_seed_same_corpus_at_the_target_size(self):
        first, again = generate_projects(5), generate_projects(5)
        assert [(p.name, [c.ddl_text for c in p.history.commits])
                for p in first] \
            == [(p.name, [c.ddl_text for c in p.history.commits])
                for p in again]
        totals = [sum(_size(p)[k] for p in first) for k in range(3)]
        for total, target in zip(totals, TARGET):
            assert abs(total - target) <= 0.02 * target


class TestSeededGrowth:
    @pytest.fixture(scope="class")
    def projects(self):
        return generate_projects(3)

    def test_same_seed_same_growth(self, projects):
        first, names = grow_projects(projects, 7)
        again, names_again = grow_projects(projects, 7)
        assert names == names_again
        assert len(names) == GROWN_PROJECTS
        for a, b in zip(first, again):
            assert [(c.sha, c.timestamp, c.ddl_text)
                    for c in a.history.commits] \
                == [(c.sha, c.timestamp, c.ddl_text)
                    for c in b.history.commits]
        _, other = grow_projects(projects, 8)
        assert other != names

    def test_growth_is_a_pure_append_inside_the_window(self, projects):
        grown, names = grow_projects(projects, 7)
        for before, after in zip(projects, grown):
            old, new = before.history, after.history
            if before.name not in names:
                assert after is before
                continue
            assert new.commits[:len(old.commits)] == old.commits
            appended = new.commits[len(old.commits):]
            assert len(appended) == GROWN_COMMITS
            assert old.commits[-1].timestamp < appended[0].timestamp \
                < appended[-1].timestamp <= old.project_end
            assert (new.project_start, new.project_end) \
                == (old.project_start, old.project_end)
            assert "CREATE TABLE bench_growth_" in appended[0].ddl_text

    def test_plan_matches_the_paper(self, projects):
        counts, exceptions = planned_table2(projects)
        report = "Table 2 — exceptions\nPattern | #prjs | Exceptions | " \
                 "Overlaps\n" + "\n".join(
                     f"{name} | {counts[name]} | {exceptions[name]} | 0"
                     for name in counts) + "\n\nnext"
        assert table2_rows(report)["Sigmoid"] == (counts["Sigmoid"],
                                                  exceptions["Sigmoid"])
        assert check_table2(report, counts, exceptions) == []
        wrong = report.replace(f"Siesta | {counts['Siesta']}",
                               f"Siesta | {counts['Siesta'] + 1}")
        assert check_table2(wrong, counts, None)
