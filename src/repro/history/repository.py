"""Schema histories: loading, storage and version materialization."""

from __future__ import annotations

import json
import os
import re
from datetime import datetime
from pathlib import Path
from typing import Iterable, NamedTuple

from repro.errors import HistoryError
from repro.history.commit import Commit, SchemaVersion
from repro.schema.builder import SchemaBuilder
from repro.schema.model import Schema
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.memo import StatementMemo
from repro.sqlddl.parser import parse_script
from repro.sqlddl.splitter import split_statements

_FILENAME_TIMESTAMP = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})(?:[T_](\d{2}))?(?:[-:]?(\d{2}))?(?:[-:]?(\d{2}))?"
)

#: Environment flag disabling the incremental parse path process-wide.
#: An env var (rather than a config field) so per-project workers spawned
#: by the execution engine inherit the choice automatically.
NO_INCREMENTAL_ENV = "REPRO_NO_INCREMENTAL"


def incremental_parse_default() -> bool:
    """Whether histories materialize incrementally by default (on unless
    ``REPRO_NO_INCREMENTAL`` is set)."""
    return not os.environ.get(NO_INCREMENTAL_ENV)


def set_incremental_parse_default(enabled: bool) -> None:
    """Set the process-wide incremental-parse default (and that of any
    worker process spawned afterwards)."""
    if enabled:
        os.environ.pop(NO_INCREMENTAL_ENV, None)
    else:
        os.environ[NO_INCREMENTAL_ENV] = "1"


def month_index(start: datetime, when: datetime) -> int:
    """0-based calendar-month index of ``when`` relative to ``start``.

    The paper's granule of time is the month: all activity inside one
    calendar month counts together.
    """
    return (when.year - start.year) * 12 + (when.month - start.month)


class SnapshotTail(NamedTuple):
    """What one memoized version hands the next.

    Attributes:
        hashes: the version's segment-hash tuple (arms the whole-version
            shortcut for the next commit).
        pool: the version's reusable ``Table`` pool, or ``None`` after a
            classic-fallback version.
        schema: the version's schema snapshot.
        issues: the version's ``parse_issues`` count.
    """

    hashes: tuple[str, ...]
    pool: dict | None
    schema: Schema
    issues: int


def materialize_classic(commit: Commit, dialect: Dialect) -> SchemaVersion:
    """Parse one full-snapshot commit with the classic whole-file path."""
    script = parse_script(commit.ddl_text, dialect)
    builder = SchemaBuilder(strict=False)
    builder.apply_script(script)
    return SchemaVersion(
        commit=commit,
        schema=builder.snapshot(),
        parse_issues=len(script.skipped) + len(builder.issues),
    )


def materialize_snapshots(commits: Iterable[Commit], dialect: Dialect,
                          tail: SnapshotTail | None = None
                          ) -> tuple[list[SchemaVersion],
                                     SnapshotTail | None,
                                     tuple[int, int]]:
    """Materialize full-snapshot commits through the statement memo.

    The one incremental materialization loop: a cold history runs it
    from no tail, and the delta layer runs it over appended commits
    from a checkpointed tail. Three reuse layers, each provably
    output-identical to :func:`materialize_classic` per commit:

    1. *Whole-version shortcut* — a commit whose segment-hash tuple
       equals the previous version's reuses that version's schema and
       issue count outright (identical spans lex to identical token
       streams, so the classic path would reproduce them).
    2. *Statement memo* — only spans unseen in this call are tokenized
       and parsed; repeats return the cached frozen AST (or the cached
       SkippedStatement).
    3. *Table reuse* — every version still folds all statements
       through a fresh builder (cheap; parsing is the ~93% cost), but
       the snapshot hands back the previous version's frozen ``Table``
       for tables whose ``(name, statement-trace)`` is unchanged,
       which in turn arms the diff engine's identity fast path.

    Any span the memo cannot handle in isolation (lex error, or a
    raw/token split disagreement) falls the whole commit back to
    :func:`materialize_classic`, reproducing classic behaviour bit for
    bit.

    Returns:
        ``(versions, tail, (memo_hits, memo_misses))`` — one version
        per commit, the state after the last one (``tail`` unchanged
        when ``commits`` is empty), and the statement-memo totals.
    """
    memo = StatementMemo(dialect)
    versions: list[SchemaVersion] = []
    for commit in commits:
        segments = split_statements(commit.ddl_text, dialect)
        hashes = tuple(s.content_hash for s in segments)
        if tail is not None and hashes == tail.hashes:
            versions.append(SchemaVersion(
                commit=commit, schema=tail.schema,
                parse_issues=tail.issues))
            continue
        parsed = [memo.parse(segment) for segment in segments]
        if any(entry.fallback for entry in parsed):
            version = materialize_classic(commit, dialect)
            pool = None
        else:
            builder = SchemaBuilder(strict=False)
            skipped = 0
            for segment, entry in zip(segments, parsed):
                if entry.statement is not None:
                    builder.apply(entry.statement,
                                  token=segment.content_hash)
                else:
                    skipped += 1
            schema, pool = builder.snapshot_reusing(
                tail.pool if tail is not None else None)
            version = SchemaVersion(
                commit=commit, schema=schema,
                parse_issues=skipped + len(builder.issues))
        versions.append(version)
        tail = SnapshotTail(hashes, pool, version.schema,
                            version.parse_issues)
    return versions, tail, (memo.hits, memo.misses)


class SchemaHistory:
    """The ordered DDL history of one project.

    Args:
        project_name: human-readable project identifier.
        commits: the DDL commits; sorted by timestamp on construction.
        project_start: start of the *project* (source-code side) — may
            precede the first DDL commit (late schema birth). Defaults to
            the first commit's timestamp.
        project_end: end of the project's update period. Defaults to the
            last commit's timestamp.
        dialect: SQL dialect used when parsing the DDL snapshots.
        incremental: commit-format switch. False (default): every commit
            holds the *entire* DDL file (git-snapshot style, the paper's
            dataset format). True: each commit holds only the new
            statements of that change (migration-script style); versions
            are materialized cumulatively.
        incremental_parse: whether full-snapshot commits materialize
            through the statement memo (parse only statements changed
            since the previous version, reuse unchanged ``Table``
            objects). None (default) defers to the process-wide default
            (:func:`incremental_parse_default`). Output is guaranteed
            identical either way; the flag exists for A/B verification
            and as an escape hatch.

    Raises:
        HistoryError: for empty commit lists or a project window that does
            not contain every commit.
    """

    def __init__(self, project_name: str, commits: list[Commit],
                 project_start: datetime | None = None,
                 project_end: datetime | None = None,
                 dialect: Dialect = Dialect.GENERIC,
                 incremental: bool = False,
                 incremental_parse: bool | None = None):
        if not commits:
            raise HistoryError(f"project {project_name!r} has no commits")
        self.project_name = project_name
        self.commits = sorted(commits, key=lambda c: c.timestamp)
        self.project_start = project_start or self.commits[0].timestamp
        self.project_end = project_end or self.commits[-1].timestamp
        self.dialect = dialect
        self.incremental = incremental
        self.incremental_parse = incremental_parse
        #: (memo hits, memo misses) of the last materialization, or None
        #: when the classic full-parse path ran.
        self.parse_stats: tuple[int, int] | None = None
        #: :class:`SnapshotTail` of the last memoized materialization —
        #: the state the delta layer checkpoints so a grown history can
        #: resume mid-stream; None when the classic or incremental path
        #: ran.
        self._delta_state: SnapshotTail | None = None
        self._versions: list[SchemaVersion] | None = None
        if self.project_start > self.commits[0].timestamp:
            raise HistoryError(
                f"project {project_name!r}: project_start is after the "
                f"first DDL commit")
        if self.project_end < self.commits[-1].timestamp:
            raise HistoryError(
                f"project {project_name!r}: project_end is before the "
                f"last DDL commit")

    # ------------------------------------------------------------------
    # time frame

    @property
    def pup_months(self) -> int:
        """Project Update Period in months (inclusive of both endpoints)."""
        return month_index(self.project_start, self.project_end) + 1

    def commit_month(self, commit: Commit) -> int:
        """Month index of one commit within the project window."""
        return month_index(self.project_start, commit.timestamp)

    @property
    def duration_months(self) -> int:
        """Alias of :attr:`pup_months` (paper nomenclature: PUP)."""
        return self.pup_months

    # ------------------------------------------------------------------
    # versions

    def versions(self) -> list[SchemaVersion]:
        """Parse every commit into a schema version (cached)."""
        if self._versions is None:
            if self.incremental:
                self._versions = self._materialize_incremental()
            elif (self.incremental_parse
                  if self.incremental_parse is not None
                  else incremental_parse_default()):
                self._versions, self._delta_state, self.parse_stats = \
                    materialize_snapshots(self.commits, self.dialect)
            else:
                self._versions = [materialize_classic(c, self.dialect)
                                  for c in self.commits]
        return self._versions

    def _materialize_incremental(self) -> list[SchemaVersion]:
        """Apply migration-style commits cumulatively to one builder."""
        builder = SchemaBuilder(strict=False)
        versions: list[SchemaVersion] = []
        issues_seen = 0
        for commit in self.commits:
            script = parse_script(commit.ddl_text, self.dialect)
            builder.apply_script(script)
            new_issues = len(builder.issues) - issues_seen
            issues_seen = len(builder.issues)
            versions.append(SchemaVersion(
                commit=commit,
                schema=builder.snapshot(),
                parse_issues=len(script.skipped) + new_issues,
            ))
        return versions

    def __len__(self) -> int:
        return len(self.commits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SchemaHistory({self.project_name!r}, "
                f"{len(self.commits)} commits, {self.pup_months} months)")


# ----------------------------------------------------------------------
# loaders / savers


def load_history_from_directory(path: str | Path, project_name: str | None
                                = None, dialect: Dialect = Dialect.GENERIC
                                ) -> SchemaHistory:
    """Load a history from a directory of timestamp-named ``.sql`` files.

    File names must embed an ISO-like date, e.g. ``2021-03-07.sql`` or
    ``2021-03-07T142500_v12.sql``; files sort by that timestamp.

    Raises:
        HistoryError: when the directory holds no parseable-named files.
    """
    directory = Path(path)
    commits: list[Commit] = []
    for file in sorted(directory.glob("*.sql")):
        match = _FILENAME_TIMESTAMP.search(file.name)
        if match is None:
            continue
        year, month, day, hour, minute, second = (
            int(g) if g else 0 for g in match.groups())
        timestamp = datetime(year, month, day, hour, minute, second)
        commits.append(Commit(sha=file.stem, timestamp=timestamp,
                              ddl_text=file.read_text()))
    if not commits:
        raise HistoryError(f"no timestamped .sql files found in {directory}")
    return SchemaHistory(project_name or directory.name, commits,
                         dialect=dialect)


def load_history_from_jsonl(path: str | Path,
                            dialect: Dialect | None = None) -> SchemaHistory:
    """Load a history from a JSONL file.

    The first line may be a header object with keys ``project``,
    ``start``, ``end`` and ``dialect``; every other line is a commit
    object with keys ``sha``, ``timestamp`` (ISO 8601) and ``ddl``.

    Raises:
        HistoryError: on malformed lines or an empty file.
    """
    file = Path(path)
    project_name = file.stem
    start = end = None
    file_dialect = Dialect.GENERIC
    incremental = False
    commits: list[Commit] = []
    with file.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HistoryError(
                    f"{file}:{line_no}: invalid JSON: {exc}") from exc
            if "ddl" not in record:
                project_name = record.get("project", project_name)
                if record.get("start"):
                    start = datetime.fromisoformat(record["start"])
                if record.get("end"):
                    end = datetime.fromisoformat(record["end"])
                if record.get("dialect"):
                    file_dialect = Dialect.from_name(record["dialect"])
                incremental = bool(record.get("incremental", False))
                continue
            try:
                commits.append(Commit(
                    sha=str(record.get("sha", f"c{line_no}")),
                    timestamp=datetime.fromisoformat(record["timestamp"]),
                    ddl_text=record["ddl"],
                    message=record.get("message", ""),
                ))
            except (KeyError, ValueError) as exc:
                raise HistoryError(
                    f"{file}:{line_no}: bad commit record: {exc}") from exc
    if not commits:
        raise HistoryError(f"{file}: no commits found")
    return SchemaHistory(project_name, commits, project_start=start,
                         project_end=end,
                         dialect=dialect or file_dialect,
                         incremental=incremental)


def save_history_to_jsonl(history: SchemaHistory, path: str | Path) -> None:
    """Write ``history`` in the JSONL format of
    :func:`load_history_from_jsonl`."""
    file = Path(path)
    with file.open("w") as handle:
        header = {
            "project": history.project_name,
            "start": history.project_start.isoformat(),
            "end": history.project_end.isoformat(),
            "dialect": history.dialect.traits.name,
            "incremental": history.incremental,
        }
        handle.write(json.dumps(header) + "\n")
        for commit in history.commits:
            record = {
                "sha": commit.sha,
                "timestamp": commit.timestamp.isoformat(),
                "ddl": commit.ddl_text,
            }
            if commit.message:
                record["message"] = commit.message
            handle.write(json.dumps(record) + "\n")
