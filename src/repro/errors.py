"""Exception hierarchy for the repro library.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle anything that goes wrong inside the
pipeline while letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class LexError(ReproError):
    """Raised when the SQL lexer encounters an unreadable character sequence.

    Attributes:
        line: 1-based line of the offending character.
        column: 1-based column of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised when the DDL parser cannot make sense of a statement.

    Attributes:
        line: 1-based line where parsing failed.
        column: 1-based column where parsing failed.
        statement_start: offset of the statement within the script, if known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 statement_start: int | None = None):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.statement_start = statement_start


class SchemaError(ReproError):
    """Raised when a DDL statement cannot be applied to the current schema.

    Examples: creating a table that already exists (without IF NOT EXISTS),
    altering or dropping a missing table or column.
    """


class HistoryError(ReproError):
    """Raised for malformed schema histories.

    Examples: empty commit lists, commits with non-increasing timestamps
    when strict ordering was requested, unreadable history files.
    """


class MetricError(ReproError):
    """Raised when a time-related metric cannot be computed.

    Example: asking for the top-band attainment point of a history whose
    total activity is zero months long.
    """


class LabelError(ReproError):
    """Raised for invalid quantization inputs or malformed label schemes."""


class ClassificationError(ReproError):
    """Raised when pattern classification is asked for impossible input."""


class CorpusError(ReproError):
    """Raised by the synthetic corpus generator for unsatisfiable plans."""


class AnalysisError(ReproError):
    """Raised when a study-level analysis receives unusable input."""


class EngineError(ReproError):
    """Raised for malformed study plans or invalid engine configuration.

    Examples: a stage wired to an input no stage produces, a cyclic
    plan, a non-positive worker count, unhashable cache-key material.
    """


class SourceError(ReproError):
    """Raised when a history source cannot list, fingerprint or load.

    Examples: an unknown ``--source`` spec, a corpus directory with a
    missing or version-mismatched manifest, a git extraction failure,
    an unknown project id.

    The hierarchy distinguishes *permanent* from *transient* source
    failures: a plain :class:`SourceError` means retrying cannot help
    (bad spec, missing manifest, unknown id), while
    :class:`TransientSourceError` marks failures that a retry has a
    real chance of clearing. The engine's ``retry`` error policy acts
    only on the transient subclass; everything else fails on the first
    attempt regardless of the retry budget.
    """


class TransientSourceError(SourceError):
    """A source failure that may succeed if the operation is retried.

    Examples: a ``git`` subprocess exiting non-zero (index locks,
    transient I/O pressure, a concurrent fetch touching the odb), a
    network-backed source timing out. Raise this — never the plain
    :class:`SourceError` — for failure modes where the input itself is
    not known to be bad, so the ``retry`` policy can tell retryable
    failures from permanent ones.
    """


class RunInterrupted(ReproError):
    """Raised when a study run is stopped by SIGINT/SIGTERM mid-flight.

    The executor's graceful-shutdown path raises this after draining
    finished chunks into the result cache and writing the run's ledger
    row. ``cached`` says whether the run had a cache dir: then every
    finished project is cached, and re-running the same command
    recomputes only the rest. The message is the one-line hint the CLI
    prints.
    """

    def __init__(self, cached: bool = False):
        super().__init__(
            "interrupted — re-run the same command to continue "
            "(finished projects are cached)" if cached else "interrupted")
        self.cached = cached


class CliError(ReproError):
    """Raised for command-line-level failures with no deeper home.

    Examples: an output path that cannot be written. Keeping these in
    the :class:`ReproError` hierarchy gives ``main()`` one exit path
    for every failure mode.
    """
