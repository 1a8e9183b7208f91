"""The single execution configuration threaded through the pipeline.

One :class:`StudyConfig` carries everything that parameterizes a study
run — corpus seed, label scheme, worker count, cache directory and the
progress hook — so the CLI, the benchmarks and library callers all
speak the same object instead of hand-wiring keyword arguments through
every layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.corpus.generator import DEFAULT_SEED
from repro.engine.faults import ErrorPolicy, FaultPlan
from repro.engine.stage import StageEvent
from repro.errors import EngineError
from repro.labels.quantization import DEFAULT_SCHEME, LabelScheme

#: Signature of the per-stage progress callback.
ProgressHook = Callable[[StageEvent], None]


@dataclass(frozen=True)
class StudyConfig:
    """Execution parameters of one study run.

    Attributes:
        seed: master corpus seed (same seed, same corpus, any ``jobs``).
        scheme: quantization boundaries applied when labeling profiles.
        jobs: worker processes for the per-project map stages; 1 runs
            everything serially in-process.
        cache_dir: directory of the content-addressed result cache;
            ``None`` disables caching.
        chunk_size: items per pickled work chunk sent to a worker;
            ``None`` picks ``ceil(items / (jobs * 4))`` when the item
            count is cheaply known, else a fixed jobs-scaled default
            (streamed sources of unknown size).
        sample: study only this many projects of the source, drawn
            deterministically from the seed; ``None`` studies all.
            Sampling materializes the (tiny) handle list, never the
            projects.
        stratified: draw the sample round-robin across the source's
            strata (pattern groups) instead of uniformly, so small
            interactive samples still span every pattern. Requires
            ``sample``.
        source: history-source spec (``synthetic:[SEED]``, ``dir:PATH``
            or ``git:PATH``) consumed by
            :func:`repro.sources.source_from_spec`; ``synthetic:``
            resolves its seed from this config.
        error_policy: what happens when computing one project raises —
            fail fast (default; today's behaviour), skip it, or retry
            transient source failures first. See
            :class:`~repro.engine.faults.ErrorPolicy`.
        stage_timeout: wall-clock seconds the executor waits for any
            one in-flight work chunk of a parallel map stage before
            declaring its items failed (``None``: wait forever; serial
            execution cannot be preempted and ignores this).
        faults: optional deterministic fault-injection plan (testing/
            chaos runs); ``None`` injects nothing.
        delta: maintain per-project study checkpoints in the cache dir
            and serve append-only history growth through the O(K)
            suffix kernel instead of a full recompute (needs
            ``cache_dir`` and a source speaking the version-chain
            protocol; output is byte-identical either way). False
            disables both checkpoint writes and reads.
        progress: optional per-stage event callback (timing/progress
            hooks for CLIs and dashboards); excluded from equality.
    """

    seed: int = DEFAULT_SEED
    scheme: LabelScheme = DEFAULT_SCHEME
    jobs: int = 1
    cache_dir: Path | None = None
    chunk_size: int | None = None
    sample: int | None = None
    stratified: bool = False
    source: str = "synthetic:"
    error_policy: ErrorPolicy = ErrorPolicy()
    stage_timeout: float | None = None
    faults: FaultPlan | None = None
    delta: bool = True
    progress: ProgressHook | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.sample is not None and self.sample < 1:
            raise EngineError(
                f"sample must be >= 1, got {self.sample}")
        if self.stratified and self.sample is None:
            raise EngineError("stratified needs a sample size")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise EngineError(
                f"stage_timeout must be > 0, got {self.stage_timeout}")
        if self.cache_dir is not None \
                and not isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    def replace(self, **changes: Any) -> "StudyConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def emit(self, event: StageEvent) -> None:
        """Deliver ``event`` to the progress hook, if any."""
        if self.progress is not None:
            self.progress(event)
