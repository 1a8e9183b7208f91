"""Workload inputs: the seeded corpus, its growth, the reference output.

Everything the timed command reads is built here from ``--seed``: the
synthetic 151-project corpus exported as a corpus directory, for
``grow_refresh`` a cache primed on that corpus and a grown copy of it,
and the reference stdout the timed invocations must reproduce byte for
byte. The reference comes from the classic path — ``study
--no-incremental``, serial, no cache — and its Table 2 is checked
against the generator's planned population.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
import re
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path

#: The paper's Table 2 population (projects per pattern) and its
#: injected exceptions; the synthetic generator plans exactly this.
PAPER_TABLE2 = {
    "Flatliner": 23, "Radical Sign": 41, "Sigmoid": 19, "Late Riser": 14,
    "Quantum Steps": 23, "Regularly Curated": 14, "Smoking Funnel": 7,
    "Siesta": 10,
}
PAPER_EXCEPTIONS = 8

#: ``grow_refresh`` appends ``GROWN_COMMITS`` snapshot commits to each of
#: ``GROWN_PROJECTS`` seeded projects: the first adds a table, the next
#: adds a column to it.
GROWN_PROJECTS = 8
GROWN_COMMITS = 2
_COLUMN_TYPES = ("INTEGER", "BIGINT", "VARCHAR(64)", "TEXT", "DATE",
                 "BOOLEAN")

#: Environment switch the CLI's ``--no-incremental`` flips process-wide;
#: restored after each in-process reference run.
_NO_INCREMENTAL_ENV = "REPRO_NO_INCREMENTAL"


class SetupError(RuntimeError):
    """The program failed while the inputs were being built."""


@dataclass
class Inputs:
    """What one workload's timed invocations run against.

    Attributes:
        corpus: the corpus directory passed as ``--source dir:``.
        reference: the expected stdout, as bytes.
        primed: cache dir primed on the un-grown corpus (grow_refresh).
        grown: number of grown projects (grow_refresh), else 0.
        truth: ground-truth problems found in Table 2 (empty when ok).
    """

    corpus: Path
    reference: bytes
    primed: Path | None = None
    grown: int = 0
    truth: tuple[str, ...] = ()


def generate_projects(seed: int) -> list:
    """The seeded synthetic corpus, with its total size held steady.

    The generator's plan for ``seed`` fixes each project's pattern,
    birth bucket and exception; every planned project is then realized
    from two seeded child RNGs, and one of the two is kept per project
    so the corpus totals land on :data:`TARGET`. Different seeds thus
    give different projects but about the same amount of work, so the
    spread between runs on different seeds measures the program, not
    the corpus size.
    """
    from repro.corpus.generator import plan_corpus, realize_spec
    rng = random.Random(f"perfbench-corpus-{seed}")
    pairs = []
    for spec in plan_corpus(seed):
        twin = dataclasses.replace(spec, seed=rng.getrandbits(64))
        pairs.append((realize_spec(spec), realize_spec(twin)))
    return [pair[pick] for pair, pick in
            zip(pairs, balance([[_size(p) for p in pair] for pair in pairs],
                               TARGET))]


#: Corpus totals every seed's corpus is steered to — DDL bytes, commits
#: (versions to build and diff) and distinct statements (what the
#: statement memo must parse) — about the mean of unsteered corpora.
TARGET = (3_000_000, 640, 4_500)


def _size(project) -> tuple[int, int, int]:
    commits = project.history.commits
    statements = {part.strip() for c in commits
                  for part in c.ddl_text.split(";")}
    return (sum(len(c.ddl_text) for c in commits), len(commits),
            len(statements))


def balance(options: list[list[tuple[int, ...]]],
            target: tuple[int, ...]) -> list[int]:
    """Pick one option per slot so the summed sizes approach ``target``.

    Greedy local search: start from option 0 everywhere, then keep
    switching the single slot that most reduces the relative distance
    to the target until no switch helps. Deterministic.
    """
    picks = [0] * len(options)
    dims = range(len(target))
    totals = [sum(opt[0][k] for opt in options) for k in dims]

    def distance(values) -> float:
        return sum(abs(v - t) / t for v, t in zip(values, target))

    while True:
        best, best_move = distance(totals), None
        for slot, opt in enumerate(options):
            for choice in range(len(opt)):
                if choice == picks[slot]:
                    continue
                moved = [totals[k] - opt[picks[slot]][k] + opt[choice][k]
                         for k in dims]
                if distance(moved) < best:
                    best, best_move = distance(moved), (slot, choice)
        if best_move is None:
            return picks
        slot, choice = best_move
        totals = [totals[k] - options[slot][picks[slot]][k]
                  + options[slot][choice][k] for k in dims]
        picks[slot] = choice


def planned_table2(projects) -> tuple[dict[str, int], dict[str, int]]:
    """Projects and planned exceptions per pattern, from the generator."""
    counts: dict[str, int] = {}
    exceptions: dict[str, int] = {}
    for project in projects:
        name = project.intended_pattern.value
        counts[name] = counts.get(name, 0) + 1
        exceptions[name] = exceptions.get(name, 0) \
            + int(project.is_exception)
    return counts, exceptions


def grow_projects(projects: list, seed: int) -> tuple[list, list[str]]:
    """A copy of ``projects`` with a seeded subset grown by appends.

    Only projects whose last DDL commit leaves room before the project
    end are eligible, so the appended commits stay inside the project
    window and the change is a pure append. Returns the new project
    list and the names of the grown projects.
    """
    from repro.history.commit import Commit
    from repro.history.repository import SchemaHistory
    rng = random.Random(f"perfbench-grow-{seed}")
    eligible = [i for i, p in enumerate(projects)
                if p.history.project_end - p.history.commits[-1].timestamp
                >= timedelta(days=GROWN_COMMITS + 1)]
    picked = sorted(rng.sample(eligible, GROWN_PROJECTS))
    grown = list(projects)
    for index in picked:
        project = projects[index]
        history = project.history
        commits = list(history.commits)
        last = commits[-1].timestamp
        room = history.project_end - last
        table = f"bench_growth_{rng.randrange(10**6):06d}"
        columns = [f"c{j} {rng.choice(_COLUMN_TYPES)}"
                   for j in range(rng.randint(2, 4))]
        base_ddl = commits[-1].ddl_text
        for step in range(1, GROWN_COMMITS + 1):
            if step > 1:
                columns.append(f"c{len(columns)} "
                               f"{rng.choice(_COLUMN_TYPES)}")
            body = ",\n  ".join(["id INTEGER NOT NULL", *columns,
                                 "PRIMARY KEY (id)"])
            commits.append(Commit(
                sha=f"perfbench-{seed}-{index}-{step}",
                timestamp=last + room * step / (GROWN_COMMITS + 1),
                ddl_text=f"{base_ddl}\nCREATE TABLE {table} (\n  "
                         f"{body}\n);\n"))
        grown[index] = dataclasses.replace(project, history=SchemaHistory(
            history.project_name, commits,
            project_start=history.project_start,
            project_end=history.project_end,
            dialect=history.dialect,
            incremental=history.incremental))
    return grown, [projects[i].name for i in picked]


def cli(argv: list[str]) -> str:
    """Run ``repro-schema ARGV`` in this process; return its stdout.

    The CLI keeps process-wide state between calls — the incremental
    parse switch in the environment and one engine session — so both
    are reset afterwards and every call starts like a fresh process.

    Raises:
        SetupError: when the command exits non-zero.
    """
    import repro.cli as repro_cli
    saved = os.environ.get(_NO_INCREMENTAL_ENV)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            status = repro_cli.main(argv)
    finally:
        if saved is None:
            os.environ.pop(_NO_INCREMENTAL_ENV, None)
        else:
            os.environ[_NO_INCREMENTAL_ENV] = saved
        session = getattr(repro_cli, "_SESSION", None)
        if session is not None:
            session.close()
    if status != 0:
        raise SetupError(f"repro-schema {' '.join(argv)} exited "
                         f"{status}: {err.getvalue().strip()[-500:]}")
    return out.getvalue()


_TABLE2_ROW = re.compile(r"^(?P<name>[A-Za-z ]+?)\s*\|\s*(?P<prjs>\d+)\s*"
                         r"\|\s*(?P<exc>\d+)\s*\|")


def table2_rows(report: str) -> dict[str, tuple[int, int]]:
    """``{pattern: (#prjs, exceptions)}`` parsed from a study report."""
    rows: dict[str, tuple[int, int]] = {}
    inside = False
    for line in report.splitlines():
        if line.startswith("Table 2"):
            inside = True
            continue
        if inside and not line.strip():
            break
        match = _TABLE2_ROW.match(line) if inside else None
        if match:
            rows[match["name"]] = (int(match["prjs"]), int(match["exc"]))
    return rows


def check_table2(report: str, counts: dict[str, int],
                 exceptions: dict[str, int] | None) -> list[str]:
    """Differences between a report's Table 2 and the planned one.

    ``exceptions=None`` checks the project counts only (a grown corpus
    may legitimately move projects in or out of their definitions).
    """
    problems = []
    if counts != PAPER_TABLE2:
        problems.append(f"generator plans {counts}, paper has "
                        f"{PAPER_TABLE2}")
    rows = table2_rows(report)
    for name, planned in counts.items():
        got = rows.get(name)
        if got is None:
            problems.append(f"Table 2 lacks a {name} row")
            continue
        if got[0] != planned:
            problems.append(f"Table 2 {name}: {got[0]} projects, "
                            f"planned {planned}")
        if exceptions is not None and got[1] != exceptions[name]:
            problems.append(f"Table 2 {name}: {got[1]} exceptions, "
                            f"planned {exceptions[name]}")
    if exceptions is not None:
        total = sum(exc for _, exc in rows.values())
        if sum(exceptions.values()) != PAPER_EXCEPTIONS \
                or total != PAPER_EXCEPTIONS:
            problems.append(f"Table 2 has {total} exceptions, planned "
                            f"{sum(exceptions.values())}, paper "
                            f"{PAPER_EXCEPTIONS}")
    return problems


def build_inputs(workload: str, seed: int, dest: Path) -> Inputs:
    """Build every input of ``workload`` under ``dest`` (fresh dir)."""
    from repro.sources import write_corpus_dir
    dest.mkdir(parents=True)
    projects = generate_projects(seed)
    counts, exceptions = planned_table2(projects)
    base = dest / "corpus"
    write_corpus_dir(projects, base, seed=seed)
    if workload != "grow_refresh":
        reference = cli(["study", "--source", f"dir:{base}",
                         "--no-incremental"])
        truth = check_table2(reference, counts, exceptions)
        return Inputs(base, reference.encode("utf-8"),
                      truth=tuple(truth))
    primed = dest / "primed"
    primed_out = cli(["study", "--source", f"dir:{base}",
                      "--cache-dir", str(primed)])
    truth = check_table2(primed_out, counts, exceptions)
    grown_projects, grown = grow_projects(projects, seed)
    corpus = dest / "grown"
    write_corpus_dir(grown_projects, corpus, seed=seed)
    reference = cli(["study", "--source", f"dir:{corpus}",
                     "--no-incremental"])
    truth += check_table2(reference, counts, None)
    return Inputs(corpus, reference.encode("utf-8"), primed=primed,
                  grown=len(grown), truth=tuple(truth))
