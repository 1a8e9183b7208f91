"""Plan execution: serial and process-parallel backends, timing report.

:func:`execute_plan` walks a :class:`~repro.engine.stage.StudyPlan` in
topological order. Ordinary stages run in-process; :class:`MapStage`
input may be any iterable — including a lazily enumerated
:class:`~repro.engine.stream.HandleStream` — consumed one item at a
time: each item is served from the content-addressed cache when
possible, and misses are either computed serially or accumulated into
pickled chunks fanned out over a ``ProcessPoolExecutor``
(``config.jobs``) under a bounded in-flight window (~2×jobs chunks
outstanding; a full window stops the input iterator), so parent-side
memory stays flat at any corpus size. Per-stage wall-clock timings and
cache statistics are collected into an :class:`ExecutionReport` and
streamed to the config's progress hook.

Map stages are fault-tolerant: every item runs under the config's
:class:`~repro.engine.faults.ErrorPolicy` (fail fast / skip / retry
with backoff), each in-flight chunk is bounded by
``config.stage_timeout``, and a dead worker pool (``BrokenProcessPool``)
triggers serial re-execution of the unfinished chunks instead of
killing the run — the run is then marked *degraded*. Quarantined
projects surface as :class:`~repro.engine.faults.ProjectFailure`
records on the report; downstream stages see only the survivors,
exactly as the paper computes over the 151 survivors of its 195 mined
histories.

Execution state (pool, cache, ledger) is owned by an
:class:`~repro.engine.session.EngineSession`: pass one to
:func:`execute_plan` to keep the pool and the cache's hot layer warm
across runs; omit it and a throwaway session is opened and closed
around the call, reproducing the historical one-shot behavior exactly.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import Any, Callable, Mapping

from repro.engine.cache import MISS, fingerprint
from repro.engine.config import StudyConfig
from repro.engine.faults import (
    KILL_EXIT_STATUS,
    ErrorPolicy,
    FaultPlan,
    ProjectFailure,
    item_id,
)
from repro.engine.interrupt import InterruptGuard, interrupt_guard
from repro.engine.session import (
    EngineSession,
    HotResultCache,
    RunRecord,
    source_session_key,
)
from repro.analysis.table import pack_counters
from repro.engine.delta import delta_counters
from repro.engine.stage import MapStage, Stage, StageEvent, StudyPlan
from repro.errors import EngineError, RunInterrupted
from repro.history.kernel import kernel_counters
from repro.sqlddl.memo import parse_counters

#: Slots of the combined per-item counter vector shipped home from
#: workers: statement memo (2), heartbeat kernel (2), pack (1), delta
#: layer (4: projects appended / rewritten, versions reused / parsed).
N_COUNTER_SLOTS = 9


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock and cache accounting for one executed stage.

    Attributes:
        stage: stage name.
        seconds: wall-clock duration of the stage.
        items: mapped item count (map stages; None otherwise).
        cache_hits: items served from the result cache.
        cache_misses: items computed this run.
        parse_hits: statement-memo hits during the stage (statements the
            incremental parse path reused instead of re-parsing; summed
            over worker processes).
        parse_misses: statement-memo misses (statements actually parsed).
        kernel_series: activity-series prefix tables built during the
            stage (heartbeat kernel; summed over worker processes).
        kernel_reuse: prefix-table lookups served from the per-series
            memo instead of recomputing the cumulative arrays.
        failures: items quarantined under a skip/retry error policy.
        retries: extra attempts spent on transient per-item failures.
        chunk_size: items per pickled work chunk the executor chose
            (0 for serial execution and non-map stages).
        pack_rows: columnar table rows packed during the stage (summed
            over worker processes and the parent).
        pack_merges: partial packs merged FIFO as worker chunks came
            home (0 for serial and non-packing stages).
        delta_appended: projects served by the append-only delta path
            (checkpoint extended by a suffix instead of recomputed).
        delta_rewritten: projects whose checkpoint had to be discarded
            (history rewritten or otherwise unusable; full recompute).
        delta_reused: checkpointed versions reused without re-parsing.
        delta_parsed: suffix versions the delta kernel parsed.
    """

    stage: str
    seconds: float
    items: int | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    parse_hits: int = 0
    parse_misses: int = 0
    kernel_series: int = 0
    kernel_reuse: int = 0
    failures: int = 0
    retries: int = 0
    chunk_size: int = 0
    pack_rows: int = 0
    pack_merges: int = 0
    delta_appended: int = 0
    delta_rewritten: int = 0
    delta_reused: int = 0
    delta_parsed: int = 0


@dataclass
class ExecutionReport:
    """Per-stage timings and fault accounting of one plan execution.

    Attributes:
        timings: one :class:`StageTiming` per executed stage.
        failures: every project quarantined during the run, in stage
            then item order (empty under the default fail-fast policy,
            which raises instead).
        degraded: True when the process pool died or timed out and the
            run fell back to serial re-execution for part of the work.
        quarantined: corrupt cache entries detected, moved aside and
            recomputed during the run (cache self-healing).
        hot_hits: result-cache probes served by the session's in-memory
            hot layer this run (0 without a cache).
        hot_misses: probes that fell through to disk (or missed).
        evictions: hot-layer LRU evictions during the run.
        run_uid: cross-process id of this execution in the cache
            dir's ledger (``""`` without a cache dir).
        write_failures: cache stores the filesystem refused (ENOSPC /
            read-only) — the run continued memory-only.
        pruned: quarantine entries removed by the cap during the run.
    """

    timings: list[StageTiming] = field(default_factory=list)
    failures: list[ProjectFailure] = field(default_factory=list)
    degraded: bool = False
    quarantined: int = 0
    hot_hits: int = 0
    hot_misses: int = 0
    evictions: int = 0
    run_uid: str = ""
    write_failures: int = 0
    pruned: int = 0

    @property
    def total_seconds(self) -> float:
        """Wall-clock total over all stages."""
        return sum(t.seconds for t in self.timings)

    @property
    def cache_hits(self) -> int:
        """Items served from the result cache, over all map stages."""
        return sum(t.cache_hits for t in self.timings)

    @property
    def cache_misses(self) -> int:
        """Items computed this run, over all map stages."""
        return sum(t.cache_misses for t in self.timings)

    @property
    def parse_hits(self) -> int:
        """Statement-memo hits over all stages (incremental parsing)."""
        return sum(t.parse_hits for t in self.timings)

    @property
    def parse_misses(self) -> int:
        """Statement-memo misses (statements parsed) over all stages."""
        return sum(t.parse_misses for t in self.timings)

    @property
    def kernel_series(self) -> int:
        """Heartbeat-kernel prefix tables built, over all stages."""
        return sum(t.kernel_series for t in self.timings)

    @property
    def kernel_reuse(self) -> int:
        """Heartbeat-kernel memo-served lookups, over all stages."""
        return sum(t.kernel_reuse for t in self.timings)

    @property
    def retries(self) -> int:
        """Extra per-item attempts spent, over all stages."""
        return sum(t.retries for t in self.timings)

    @property
    def pack_rows(self) -> int:
        """Columnar table rows packed, over all stages."""
        return sum(t.pack_rows for t in self.timings)

    @property
    def pack_merges(self) -> int:
        """Partial packs merged at harvest time, over all stages."""
        return sum(t.pack_merges for t in self.timings)

    @property
    def delta_appended(self) -> int:
        """Projects served by the append-only delta path."""
        return sum(t.delta_appended for t in self.timings)

    @property
    def delta_rewritten(self) -> int:
        """Projects whose study checkpoint was rejected (rewritten)."""
        return sum(t.delta_rewritten for t in self.timings)

    @property
    def delta_reused(self) -> int:
        """Checkpointed versions reused without re-parsing."""
        return sum(t.delta_reused for t in self.timings)

    @property
    def delta_parsed(self) -> int:
        """Suffix versions parsed by the delta kernel."""
        return sum(t.delta_parsed for t in self.timings)

    def format_delta_summary(self) -> str:
        """One line of delta accounting for a refresh run.

        ``unchanged`` counts the map items the result cache served —
        projects whose fingerprint (and therefore content) did not
        move since the last run and that no code path re-examined.
        """
        return (f"delta: {self.cache_hits} unchanged / "
                f"{self.delta_appended} appended / "
                f"{self.delta_rewritten} rewritten; "
                f"versions: {self.delta_reused} reused / "
                f"{self.delta_parsed} parsed")

    def timing(self, stage: str) -> StageTiming:
        """The timing entry of one stage.

        Raises:
            EngineError: when the stage did not execute.
        """
        for entry in self.timings:
            if entry.stage == stage:
                return entry
        raise EngineError(f"no timing recorded for stage {stage!r}")

    def format_table(self) -> str:
        """The timings as an aligned text table."""
        from repro.viz.tables import format_table

        def hit_miss(hits: int, misses: int) -> str:
            if hits or misses:
                return f"{hits} hit / {misses} miss"
            return "-"

        def built_reuse(series: int, reuse: int) -> str:
            if series or reuse:
                return f"{series} built / {reuse} reuse"
            return "-"

        def fault_cell(failures: int, retries: int) -> str:
            if failures or retries:
                return f"{failures} fail / {retries} retry"
            return "-"

        def pack_cell(packed: int, merges: int) -> str:
            if packed or merges:
                return f"{packed} row / {merges} merge"
            return "-"

        def delta_cell(appended: int, rewritten: int, reused: int,
                       parsed: int) -> str:
            if appended or rewritten or reused or parsed:
                return (f"{appended} app / {rewritten} rew / "
                        f"{reused} reuse / {parsed} parse")
            return "-"

        total_cache = hit_miss(self.cache_hits, self.cache_misses)
        if self.hot_hits or self.hot_misses or self.evictions:
            total_cache += (f" [hot {self.hot_hits}/{self.hot_misses}"
                            f", evict {self.evictions}]")
        rows = []
        for entry in self.timings:
            rows.append([
                entry.stage,
                f"{entry.seconds * 1000:.1f} ms",
                "-" if entry.items is None else entry.items,
                entry.chunk_size or "-",
                hit_miss(entry.cache_hits, entry.cache_misses),
                hit_miss(entry.parse_hits, entry.parse_misses),
                built_reuse(entry.kernel_series, entry.kernel_reuse),
                pack_cell(entry.pack_rows, entry.pack_merges),
                delta_cell(entry.delta_appended, entry.delta_rewritten,
                           entry.delta_reused, entry.delta_parsed),
                fault_cell(entry.failures, entry.retries),
            ])
        rows.append(["TOTAL", f"{self.total_seconds * 1000:.1f} ms",
                     "-", "-",
                     total_cache,
                     hit_miss(self.parse_hits, self.parse_misses),
                     built_reuse(self.kernel_series, self.kernel_reuse),
                     pack_cell(self.pack_rows, self.pack_merges),
                     delta_cell(self.delta_appended, self.delta_rewritten,
                                self.delta_reused, self.delta_parsed),
                     fault_cell(len(self.failures), self.retries)])
        title = "Execution report"
        if self.degraded:
            title += " (degraded: pool lost, partial serial fallback)"
        return format_table(
            ["stage", "time", "items", "chunk", "cache", "parse memo",
             "heartbeat kernel", "pack", "delta", "faults"], rows,
            title=title)


def _invoke_map(fn: Callable, transport: Callable | None,
                pack: Callable | None,
                extras: tuple, stage_name: str, policy: ErrorPolicy,
                faults: FaultPlan | None, attempt_base: int, item: Any
                ) -> tuple[Any, tuple[int, ...], int, Any]:
    """Apply a map stage to one item (module-level: must pickle).

    Runs the item under the error policy: a capturing policy (skip /
    retry) turns exceptions into :class:`ProjectFailure` payloads —
    retrying transient source errors with backoff first — while the
    fail-fast policy lets them propagate exactly as before the fault
    layer existed. ``attempt_base`` offsets the attempt number the
    fault plan sees, so a pool-crash serial re-run counts as a later
    attempt and injected one-shot faults do not re-fire.

    With a ``pack`` function the surviving result is also flattened
    into its columnar row right here — in the worker, overlapping the
    map itself — so the parent only merges finished rows.

    Returns the (transported) result or failure record, the
    statement-memo / heartbeat-kernel / pack / delta-layer counter
    deltas the call produced (so worker processes can ship their
    counters back to the parent), the number of retries spent, and the
    packed row (``None`` for failures or non-packing stages).
    """
    before = (parse_counters() + kernel_counters() + pack_counters()
              + delta_counters())
    retries = 0
    attempt = 0
    while True:
        attempt += 1
        try:
            if faults is not None:
                faults.check(item_id(item), stage_name,
                             attempt_base + attempt)
            payload = fn(item, *extras)
            if transport is not None:
                payload = transport(payload)
            break
        except Exception as exc:
            if not policy.captures:
                raise
            if attempt < policy.attempts_for(exc):
                retries += 1
                delay = policy.backoff_seconds(item_id(item), attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            payload = ProjectFailure.from_exception(
                item_id(item), stage_name, exc, attempts=attempt)
            break
    row = None
    if pack is not None and not isinstance(payload, ProjectFailure):
        row = pack(payload)
    after = (parse_counters() + kernel_counters() + pack_counters()
             + delta_counters())
    return (payload,
            tuple(after[slot] - before[slot]
                  for slot in range(N_COUNTER_SLOTS)),
            retries, row)


def _invoke_chunk(invoke: Callable, items: list) -> list:
    """Run one pickled chunk of map items in a worker process."""
    return [invoke(item) for item in items]


#: Chunks allowed in flight per worker — the backpressure bound. The
#: parent holds at most ``WINDOW_PER_JOB * jobs + 1`` chunks of items
#: at any moment, however large the source is.
WINDOW_PER_JOB = 2


def _auto_chunk(total: int | None, jobs: int) -> int:
    """Items per pickled chunk.

    With a known item total: ~4 chunks per worker, so pickling
    overhead amortizes while the pool stays load-balanced. For
    unsized streams: a fixed jobs-scaled size — the bounded window
    keeps every worker fed regardless.
    """
    if total is None:
        return max(1, jobs * 4)
    return max(1, math.ceil(total / (jobs * 4)))


def _count_hint(items: Any) -> int | None:
    """A cheap item total for chunk sizing, or ``None`` (unsized)."""
    try:
        return len(items)
    except TypeError:
        pass
    count = getattr(items, "count", None)
    if callable(count):
        try:
            return count()
        except Exception:
            return None
    return None


@dataclass
class _MapOutcome:
    """Everything one map-stage execution produced."""

    values: list
    count: int
    hits: int
    misses: int
    worker_delta: tuple[int, ...]
    failures: list[ProjectFailure]
    retries: int
    degraded: bool
    chunk_size: int = 0
    pack: Any = None
    pack_merges: int = 0


def _run_map_stage(stage: MapStage, items: Any, extras: tuple,
                   config: StudyConfig,
                   cache: HotResultCache | None,
                   session: EngineSession,
                   guard: InterruptGuard | None = None) -> _MapOutcome:
    """Execute one map stage under the config's error policy.

    ``items`` is any iterable — a list or a lazily enumerated
    :class:`~repro.engine.stream.HandleStream` — consumed exactly
    once, one item at a time: each item is probed against the cache
    and, on a miss, accumulated into the current work chunk. At most
    ``WINDOW_PER_JOB * jobs`` chunks are in flight at once; when the
    window is full the input iterator is simply not advanced until
    the oldest chunk is harvested, so peak parent-side memory is
    bounded by the window whatever the corpus size (results of
    course still accumulate — they are the stage's output).

    ``values`` holds only the surviving results, in item order —
    quarantined items are dropped so downstream stages compute over
    the survivors. ``worker_delta`` sums the statement-memo,
    heartbeat-kernel and pack counters that ticked in worker
    processes (invisible to this process's own counters).

    A packing stage additionally flattens each surviving result into
    a columnar row — in the worker for computed items, at probe time
    for cache hits — and the partial packs come home with their
    chunks, merged FIFO as harvested; ``pack_finish_fn`` assembles
    the final table once, so the pack overlaps the map instead of
    costing a second pass over materialized records.

    The worker pool comes from (and stays with) ``session``, spawned
    lazily on the first submitted chunk — a fully warm run never
    touches it. It is only discarded — never shut down inline — when
    it breaks or a timed-out chunk forces an abandon, so healthy
    pools survive the stage and serve the next one warm. Fault
    semantics are unchanged from the eager executor: a capturing
    policy quarantines a timed-out chunk and keeps harvesting, a
    ``BrokenProcessPool`` harvests finished chunks and re-runs all
    unfinished work serially at the next attempt number, and the
    fail-fast policy propagates.

    Durability: every computed result lands in the result cache as
    its chunk is harvested, so re-running the same command recomputes
    only what is missing. ``guard`` is the graceful-shutdown flag: it
    is checked before each new item is dispatched, so an interrupt
    stops new work, drains the chunks that already finished (caching
    their results) and cancels the rest before
    :class:`~repro.errors.RunInterrupted` propagates.
    """
    policy = config.error_policy
    faults = config.faults
    probe_cache = cache is not None and stage.cache_key_fn is not None
    results: dict[int, Any] = {}
    keys: dict[int, str] = {}
    rows: dict[int, Any] = {}
    failures: list[ProjectFailure] = []
    retries = 0
    degraded = False
    worker_deltas = [0] * N_COUNTER_SLOTS
    total = 0
    hits = 0
    merges = 0

    def parent_fault(item: Any) -> None:
        """Fire run-level injected faults at this item's dispatch."""
        kind = faults.parent_kind(item_id(item), stage.name)
        if kind is None:
            return
        if kind == "kill":
            # A deterministic in-process `kill -9`: no drain, no
            # ledger row — only what already reached the cache
            # survives, which is all a re-run needs.
            os._exit(KILL_EXIT_STATUS)
        elif kind == "interrupt" and guard is not None:
            guard.trigger(f"injected interrupt at {item_id(item)}")
        elif kind == "enospc":
            if cache is not None:
                cache.deny_writes()

    def probe(index: int, item: Any) -> bool:
        """Serve ``item`` from cache; True when it still needs work."""
        nonlocal hits
        if faults is not None:
            parent_fault(item)
        if not probe_cache:
            return True
        key = stage.cache_key_fn(item, extras, stage.version)
        if faults is not None and faults.wants_cache_corruption(
                item_id(item), stage.name):
            cache.corrupt_entry(key)
        value = cache.get(key)
        if value is MISS:
            keys[index] = key
            return True
        results[index] = value
        if stage.pack_fn is not None:
            # Cache hits never reach a worker: pack them here so the
            # table covers hot, cold and mixed runs alike.
            rows[index] = stage.pack_fn(value)
        hits += 1
        return False

    def absorb(index: int, outcome: tuple, count_delta: bool,
               transported: bool) -> None:
        nonlocal retries
        payload, delta, item_retries, row = outcome
        retries += item_retries
        if count_delta:
            for slot in range(N_COUNTER_SLOTS):
                worker_deltas[slot] += delta[slot]
        results[index] = payload
        if row is not None:
            rows[index] = row
        if isinstance(payload, ProjectFailure):
            failures.append(payload)
        else:
            key = keys.pop(index, None)
            if key is not None:
                stripped = payload
                if stage.transport_fn is not None and not transported:
                    # Serial path: results stay untransported; shed
                    # the derived caches only for the on-disk copy.
                    stripped = stage.transport_fn(payload)
                cache.put(key, stripped)

    chosen_chunk = 0
    if config.jobs > 1:
        chunk = config.chunk_size \
            or _auto_chunk(_count_hint(items), config.jobs)
        chosen_chunk = chunk
        window = WINDOW_PER_JOB * config.jobs
        worker = partial(_invoke_map, stage.fn, stage.transport_fn,
                         stage.pack_fn, extras, stage.name, policy,
                         faults, 0)
        pool = None
        inflight: deque[tuple[list[int], list, Any]] = deque()
        backlog: list[tuple[int, Any]] = []
        buffer: list[tuple[int, Any]] = []
        broken = False
        abandoned = False
        harvested = False

        def submit_buffer() -> None:
            """Ship the accumulated chunk, or backlog it (dead pool)."""
            nonlocal pool, broken, degraded
            if not buffer:
                return
            positions = [index for index, _ in buffer]
            outbound = [item for _, item in buffer]
            buffer.clear()
            if broken or abandoned:
                backlog.extend(zip(positions, outbound))
                return
            try:
                if pool is None:
                    pool = session.pool(config.jobs)
                future = pool.submit(_invoke_chunk, worker, outbound)
            except BrokenProcessPool:
                # A reused pool can die while idle between stages;
                # backlog this chunk, then triage what was in flight.
                broken = True
                degraded = True
                backlog.extend(zip(positions, outbound))
                while inflight:
                    harvest_oldest()
                return
            inflight.append((positions, outbound, future))

        def harvest_oldest() -> None:
            """Absorb the oldest in-flight chunk (FIFO, as submitted)."""
            nonlocal broken, abandoned, degraded, merges
            positions, outbound, future = inflight.popleft()
            if broken:
                # The pool is dead; harvest chunks that finished
                # before the crash, re-run the rest serially.
                if future.done() and not future.cancelled() \
                        and future.exception() is None:
                    for index, triple in zip(positions,
                                             future.result()):
                        absorb(index, triple, True, True)
                    if stage.pack_fn is not None:
                        merges += 1
                else:
                    backlog.extend(zip(positions, outbound))
                return
            try:
                triples = future.result(timeout=config.stage_timeout)
            except FuturesTimeout:
                degraded = True
                abandoned = True
                if not policy.captures:
                    raise EngineError(
                        f"stage {stage.name!r}: a work chunk of "
                        f"{len(positions)} items did not finish "
                        f"within {config.stage_timeout}s") from None
                for index, item in zip(positions, outbound):
                    failure = ProjectFailure(
                        project=item_id(item),
                        stage=stage.name,
                        error_type="TimeoutError",
                        message=f"work chunk exceeded the "
                                f"{config.stage_timeout}s "
                                f"stage timeout")
                    results[index] = failure
                    failures.append(failure)
                return
            except BrokenProcessPool:
                broken = True
                degraded = True
                backlog.extend(zip(positions, outbound))
                return
            for index, triple in zip(positions, triples):
                absorb(index, triple, True, True)
            if stage.pack_fn is not None:
                # One partial pack merged FIFO into the growing table.
                merges += 1

        try:
            for item in items:
                if guard is not None:
                    guard.check()
                index = total
                total += 1
                if not probe(index, item):
                    continue
                if stage.item_transport_fn is not None:
                    item = stage.item_transport_fn(item)
                buffer.append((index, item))
                if len(buffer) >= chunk:
                    submit_buffer()
                    # Backpressure: a full window stops the iterator
                    # until the oldest chunk comes home.
                    while len(inflight) >= window:
                        harvest_oldest()
            if guard is not None:
                guard.check()
            submit_buffer()
            while inflight:
                harvest_oldest()
            harvested = True
        except RunInterrupted:
            # Graceful shutdown: stop dispatching, drain the chunks
            # that already finished — their results are real work, so
            # cache them — and cancel everything else.
            while inflight:
                positions, outbound, future = inflight.popleft()
                if future.done() and not future.cancelled() \
                        and future.exception() is None:
                    for index, triple in zip(positions,
                                             future.result()):
                        absorb(index, triple, True, True)
                    if stage.pack_fn is not None:
                        merges += 1
                else:
                    future.cancel()
            raise
        finally:
            if broken or abandoned:
                # Dead or stuck pools cannot be reused: discard so
                # the session respawns a fresh one on next use. A
                # timed-out chunk's worker cannot be interrupted —
                # abandon it rather than blocking on it.
                session.discard_pool(wait=False)
            elif not harvested:
                # A propagating exception (fail-fast item error):
                # the pool itself is healthy — cancel what has not
                # started and keep it for the next run.
                for _, _, future in inflight:
                    future.cancel()
        if backlog:
            # Pool-crash / abandon recovery: finish in-process, one
            # attempt later than the pool pass so one-shot injected
            # crashes do not re-fire.
            recover = partial(_invoke_map, stage.fn,
                              stage.transport_fn, stage.pack_fn,
                              extras, stage.name, policy, faults, 1)
            for index, item in backlog:
                if guard is not None:
                    guard.check()
                absorb(index, recover(item), False, True)
            if stage.pack_fn is not None:
                merges += 1
    else:
        invoke = partial(_invoke_map, stage.fn, None, stage.pack_fn,
                         extras, stage.name, policy, faults, 0)
        for item in items:
            if guard is not None:
                guard.check()
            index = total
            total += 1
            if probe(index, item):
                absorb(index, invoke(item), False, False)

    if failures and len(failures) == total:
        summary = "; ".join(f.summary() for f in failures[:3])
        raise EngineError(
            f"stage {stage.name!r}: all {total} items failed "
            f"({summary}{', ...' if len(failures) > 3 else ''})")
    values = [results[index] for index in range(total)
              if not isinstance(results[index], ProjectFailure)]
    pack = None
    if stage.pack_finish_fn is not None:
        # Survivors only, item order — rows parallel `values` exactly.
        pack = stage.pack_finish_fn(
            [rows[index] for index in sorted(rows)])
    return _MapOutcome(values=values, count=total, hits=hits,
                       misses=total - hits,
                       worker_delta=tuple(worker_deltas),
                       failures=failures, retries=retries,
                       degraded=degraded, chunk_size=chosen_chunk,
                       pack=pack, pack_merges=merges)


def _source_fingerprint(inputs: Mapping[str, Any]) -> str:
    """A stable content identity of what a plan execution studied.

    Prefers the source's own session key, then the handle fingerprints,
    then the analysed record names — each a cheap, already-available
    proxy for the studied content.
    """
    source = inputs.get("source")
    if source is not None:
        key = source_session_key(source)
        if key is not None:
            return key
    handles = inputs.get("handles")
    if handles is not None:
        # A consumed HandleStream cannot be re-iterated; its running
        # digest over every (pid, fingerprint) pair stands in.
        stream_digest = getattr(handles, "stream_digest", None)
        if stream_digest is not None:
            return stream_digest()
        if handles:
            return fingerprint("run-handles",
                               [(h.pid, h.fingerprint)
                                for h in handles])
    records = inputs.get("records")
    if records:
        return fingerprint("run-records",
                           [item_id(record) for record in records])
    return fingerprint("run-inputs", sorted(inputs))


def _result_digest(results: Mapping[str, Any]) -> str:
    """A stable digest of a run's study records (ledger lineage).

    Two executions over the same data and code digest identically —
    the ledger-level form of the golden-equivalence guarantee. Plans
    without a ``records`` stage digest their stage names.
    """
    records = results.get("records")
    if records:
        return fingerprint("run-records", [
            (item_id(record),
             getattr(getattr(record, "pattern", None), "value", None),
             getattr(record, "is_exception", None))
            for record in records])
    return fingerprint("run-stages", sorted(results))


def _config_summary(config: StudyConfig) -> dict:
    """The config fields worth keeping in a ledger entry."""
    return {
        "seed": config.seed,
        "jobs": config.jobs,
        "source": config.source,
        "cache_dir": str(config.cache_dir)
        if config.cache_dir is not None else None,
        "chunk_size": config.chunk_size,
        "sample": config.sample,
        "stratified": config.stratified,
        "on_error": config.error_policy.mode,
        "stage_timeout": config.stage_timeout,
        "delta": config.delta,
    }


def execute_plan(plan: StudyPlan, inputs: Mapping[str, Any],
                 config: StudyConfig | None = None,
                 session: EngineSession | None = None
                 ) -> tuple[dict[str, Any], ExecutionReport]:
    """Execute every stage of ``plan`` and return all stage results.

    Args:
        plan: the stage DAG.
        inputs: initial values available to stages (by name).
        config: execution configuration; defaults to serial/no-cache.
        session: the engine session owning pool, warm cache and run
            ledger. ``None`` opens a throwaway session around this one
            call — identical to the historical per-call behavior.

    Returns:
        ``(results, report)`` — results maps every input and stage name
        to its value; the report carries per-stage timings, quarantined
        :class:`ProjectFailure` records and the degraded-run flag.

    Raises:
        EngineError: for invalid plans (unknown inputs, cycles), or —
            under the fail-fast policy — whatever a stage raised.
        RunInterrupted: the run was stopped by SIGINT/SIGTERM (or an
            injected ``interrupt`` fault) — completed chunks were
            drained into the cache, and the ledger row is marked
            ``interrupted`` before this propagates.
    """
    config = config or StudyConfig()
    if session is None:
        with EngineSession(config) as owned:
            return execute_plan(plan, inputs, config, session=owned)
    cache = session.cache_for(config.cache_dir)
    # Session state persists across runs; ledger numbers are deltas.
    quarantined_before = cache.quarantined if cache is not None else 0
    hot_before = cache.hot_hits if cache is not None else 0
    hot_misses_before = cache.hot_misses if cache is not None else 0
    evictions_before = cache.evictions if cache is not None else 0
    write_failures_before = \
        cache.write_failures if cache is not None else 0
    pruned_before = cache.pruned if cache is not None else 0
    spawns_before = session.pool_spawns
    started_at = datetime.now(timezone.utc)
    run_started = time.perf_counter()
    results: dict[str, Any] = dict(inputs)
    report = ExecutionReport()
    # Stages are pulled from the DAG's live ready-set: a stage runs as
    # soon as every value it consumes — stage results and secondary
    # pack outputs alike — has been published into ``results``, so a
    # shared value like the record table is produced once and handed
    # to each ready consumer by reference.
    schedule = plan.schedule(tuple(inputs))

    def ready_stages():
        while not schedule.done:
            yield from schedule.take_ready()

    # Runs over a cache dir get an id that tells their ledger rows
    # apart across processes. It is operational metadata only — it
    # never feeds cache keys or study output, so randomness here
    # cannot perturb reproducibility.
    if config.cache_dir is not None:
        report.run_uid = "r" + os.urandom(6).hex()
    interrupted = False
    with interrupt_guard() as guard:
        try:
            for stage in ready_stages():
                guard.check()
                config.emit(StageEvent(stage=stage.name, phase="start"))
                started = time.perf_counter()
                local_before = (parse_counters() + kernel_counters()
                                + pack_counters() + delta_counters())
                hits = misses = stage_failures = stage_retries = 0
                worker_delta = (0,) * N_COUNTER_SLOTS
                items: int | None = None
                chunk_size = 0
                pack_merges = 0
                if isinstance(stage, MapStage):
                    # The first input may be a lazily enumerated
                    # stream — it is handed to the map stage as-is and
                    # consumed exactly once, never materialized here.
                    feed = results[stage.inputs[0]]
                    extras = tuple(results[name]
                                   for name in stage.inputs[1:])
                    outcome = _run_map_stage(stage, feed, extras,
                                             config, cache, session,
                                             guard=guard)
                    value = outcome.values
                    hits, misses = outcome.hits, outcome.misses
                    worker_delta = outcome.worker_delta
                    stage_failures = len(outcome.failures)
                    stage_retries = outcome.retries
                    report.failures.extend(outcome.failures)
                    report.degraded = report.degraded \
                        or outcome.degraded
                    items = outcome.count
                    chunk_size = outcome.chunk_size
                    pack_merges = outcome.pack_merges
                    if stage.pack_output is not None:
                        results[stage.pack_output] = outcome.pack
                else:
                    value = stage.fn(*(results[name]
                                       for name in stage.inputs))
                elapsed = time.perf_counter() - started
                local_after = (parse_counters() + kernel_counters()
                               + pack_counters() + delta_counters())
                # Counter activity of this stage: in-process delta
                # (serial maps, ordinary stages) plus whatever the
                # workers shipped back.
                parse_hits, parse_misses, kernel_series, kernel_reuse, \
                    pack_rows, delta_appended, delta_rewritten, \
                    delta_reused, delta_parsed = (
                        local_after[slot] - local_before[slot]
                        + worker_delta[slot]
                        for slot in range(N_COUNTER_SLOTS))
                results[stage.name] = value
                schedule.complete(stage.name)
                report.timings.append(StageTiming(
                    stage=stage.name, seconds=elapsed, items=items,
                    cache_hits=hits, cache_misses=misses,
                    parse_hits=parse_hits, parse_misses=parse_misses,
                    kernel_series=kernel_series,
                    kernel_reuse=kernel_reuse,
                    failures=stage_failures, retries=stage_retries,
                    chunk_size=chunk_size, pack_rows=pack_rows,
                    pack_merges=pack_merges,
                    delta_appended=delta_appended,
                    delta_rewritten=delta_rewritten,
                    delta_reused=delta_reused,
                    delta_parsed=delta_parsed))
                config.emit(StageEvent(
                    stage=stage.name, phase="finish", seconds=elapsed,
                    items=items or 0, cache_hits=hits,
                    cache_misses=misses,
                    parse_hits=parse_hits, parse_misses=parse_misses,
                    kernel_series=kernel_series,
                    kernel_reuse=kernel_reuse,
                    failures=stage_failures, retries=stage_retries,
                    chunk_size=chunk_size, pack_rows=pack_rows,
                    pack_merges=pack_merges,
                    delta_appended=delta_appended,
                    delta_rewritten=delta_rewritten,
                    delta_reused=delta_reused,
                    delta_parsed=delta_parsed))
        except RunInterrupted:
            interrupted = True
    if cache is not None:
        report.quarantined = cache.quarantined - quarantined_before
        report.hot_hits = cache.hot_hits - hot_before
        report.hot_misses = cache.hot_misses - hot_misses_before
        report.evictions = cache.evictions - evictions_before
        report.write_failures = \
            cache.write_failures - write_failures_before
        report.pruned = cache.pruned - pruned_before
    session.record_run(RunRecord(
        run_id=session.next_run_id(),
        started=started_at.isoformat(),
        seconds=time.perf_counter() - run_started,
        source_fingerprint=_source_fingerprint(inputs),
        config=_config_summary(config),
        stages=tuple(_timing_dict(t) for t in report.timings),
        items=sum(t.items or 0 for t in report.timings),
        cache_hits=report.cache_hits,
        cache_misses=report.cache_misses,
        hot_hits=report.hot_hits,
        hot_misses=report.hot_misses,
        evictions=report.evictions,
        parse_hits=report.parse_hits,
        parse_misses=report.parse_misses,
        kernel_series=report.kernel_series,
        kernel_reuse=report.kernel_reuse,
        failures=tuple(f.summary() for f in report.failures),
        degraded=report.degraded,
        quarantined=report.quarantined,
        retries=report.retries,
        pack_rows=report.pack_rows,
        delta_appended=report.delta_appended,
        delta_rewritten=report.delta_rewritten,
        delta_reused=report.delta_reused,
        delta_parsed=report.delta_parsed,
        pool_spawns=session.pool_spawns - spawns_before,
        result_digest=_result_digest(results),
        run_uid=report.run_uid,
        interrupted=interrupted,
        write_failures=report.write_failures,
        pruned=report.pruned,
    ), config.cache_dir)
    if interrupted:
        raise RunInterrupted(cached=config.cache_dir is not None)
    return results, report


def _timing_dict(timing: StageTiming) -> dict:
    """One :class:`StageTiming` as a compact ledger dict."""
    entry: dict[str, Any] = {
        "stage": timing.stage,
        "ms": round(timing.seconds * 1000, 3),
    }
    if timing.items is not None:
        entry["items"] = timing.items
        entry["cache_hits"] = timing.cache_hits
        entry["cache_misses"] = timing.cache_misses
    for name in ("parse_hits", "parse_misses", "kernel_series",
                 "kernel_reuse", "failures", "retries", "chunk_size",
                 "pack_rows", "pack_merges", "delta_appended",
                 "delta_rewritten", "delta_reused", "delta_parsed"):
        value = getattr(timing, name)
        if value:
            entry[name] = value
    return entry


def run_stage(stage: Stage, *args: Any) -> Any:
    """Run one stage standalone (convenience for tests and notebooks)."""
    return stage.fn(*args)
