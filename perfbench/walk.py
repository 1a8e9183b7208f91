"""The traced run: the study walked in-process, layer by layer.

A walk does the work of one CLI invocation of the workload, through the
program's public API in this process: resolve the ``dir:`` source, map
every project to a record with ``compute_records_from_source``, run
the corpus analyses with ``run_analyses`` and render the report the
CLI prints. On ``grow_refresh`` the map and the analyses are one
``EngineSession.refresh`` call, as in the CLI's ``refresh``. The
rendered report must equal the reference stdout, so the walk runs the
same program the timed processes run.

Walks alternate untraced and traced; the traced ones run under
:class:`~tracing.LayerProbe`, and their medians give the per-layer
metrics. The untraced ones give the tracing overhead. ``cold_study``
also walks with a two-worker pool, for the pool's spawn cost and its
parallel efficiency (serial records-map time over twice the jobs-2
one); ``grow_refresh`` runs no pool and reports 0 for those.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from closedloop import program_env, spawn
from stats import median
from tracing import LayerProbe, Span, Tracer, inclusive_times, self_times

#: Per-layer metrics: (name, unit). Every traced run reports all of them.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("cli.interp_s", "s"), ("cli.import_s", "s"),
    ("sources.load_s", "s"), ("sources.loads", "count"),
    ("history.versions_s", "s"),
    ("sqlddl.memo_hits", "count"), ("sqlddl.memo_misses", "count"),
    ("sqlddl.memo_hit_ratio", "ratio"),
    ("sqlddl.parse_error_skips", "count"),
    ("schema.versions_built", "count"),
    ("history.heartbeat_s", "s"), ("history.kernel_built", "count"),
    ("history.kernel_reuse", "count"),
    ("metrics.profile_s", "s"), ("labels.label_s", "s"),
    ("patterns.classify_s", "s"),
    ("analysis.pack_s", "s"), ("analysis.analyses_s", "s"),
    ("report.render_s", "s"),
    ("engine.records_map_s", "s"),
    ("engine.cache_hits", "count"), ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.cache_get_s", "s"), ("engine.cache_put_s", "s"),
    ("engine.cache_bytes", "bytes"),
    ("engine.refresh_s", "s"), ("engine.delta_appended", "count"),
    ("engine.delta_rewritten", "count"), ("engine.delta_parsed", "count"),
    ("engine.pool_spawn_s", "s"), ("engine.pool_spawns", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("engine.failures", "count"), ("engine.retries", "count"),
    ("trace.overhead_ratio", "ratio"),
)

#: Span names whose metric is inclusive (a boundary around the whole
#: map); every other ``_s`` metric is the layer's self time.
INCLUSIVE = {"engine.records_map", "engine.refresh"}

#: Repeats of the interpreter and import probes.
PROBE_REPEATS = 3

#: Workers of the extra pool walks in ``cold_study``'s traced run: the
#: pool path (spawn, chunk pickling, harvest) and its efficiency.
POOL_JOBS = 2
POOL_METRICS = {"engine.pool_spawn_s", "engine.pool_spawns"}


@dataclass
class Walk:
    """What one walk did and how long it took."""

    seconds: float
    map_seconds: float
    failure: str | None
    values: dict[str, float] = field(default_factory=dict)


def render(results) -> str:
    """The report exactly as ``repro-schema study`` prints it."""
    import repro.cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        repro.cli._print_study_report(results)
    return buffer.getvalue()


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def walk(workload: str, inputs, work: Path, jobs: int) -> Walk:
    """Walk ``workload`` once against a fresh (or freshly primed) cache."""
    from repro.engine import (
        EngineSession,
        StudyConfig,
        compute_records_from_source,
        run_analyses,
    )
    from repro.history.kernel import kernel_counters
    from repro.sources import source_from_spec
    from repro.sqlddl.memo import parse_counters

    cache = work / "walk-cache"
    if inputs.primed is not None:
        shutil.copytree(inputs.primed, cache)
    else:
        cache.mkdir()
    before = _dir_bytes(cache)
    config = StudyConfig(jobs=jobs, cache_dir=cache,
                         source=f"dir:{inputs.corpus}")
    hits0, misses0 = parse_counters()
    built0, reuse0 = kernel_counters()
    started = time.perf_counter()
    with EngineSession(config) as session:
        source = source_from_spec(config.source, config)
        if workload == "grow_refresh":
            results, report = session.refresh(source, config)
            map_seconds = time.perf_counter() - started
        else:
            records, report = compute_records_from_source(
                source, config, session=session)
            map_seconds = time.perf_counter() - started
            results = run_analyses(records, config, session=session)
        text = render(results)
        spawns = session.pool_spawns
    seconds = time.perf_counter() - started
    hits, misses = parse_counters()
    built, reuse = kernel_counters()
    values = {
        "sqlddl.memo_hits": hits - hits0,
        "sqlddl.memo_misses": misses - misses0,
        "history.kernel_built": built - built0,
        "history.kernel_reuse": reuse - reuse0,
        "engine.cache_hits": report.cache_hits,
        "engine.cache_misses": report.cache_misses,
        "engine.cache_bytes": _dir_bytes(cache) - before,
        "engine.delta_appended": report.delta_appended,
        "engine.delta_rewritten": report.delta_rewritten,
        "engine.delta_parsed": report.delta_parsed,
        "engine.pool_spawns": spawns,
        "engine.failures": len(report.failures),
        "engine.retries": report.retries,
    }
    shutil.rmtree(cache, ignore_errors=True)
    failure = None
    if text.encode("utf-8") != inputs.reference:
        failure = "rendered report differs from the reference"
    elif inputs.primed is not None and (
            report.delta_appended != inputs.grown
            or report.delta_rewritten != 0):
        failure = (f"delta path not taken: {report.delta_appended} "
                   f"appended, {report.delta_rewritten} rewritten")
    return Walk(seconds, map_seconds, failure, values)


def traced_walk(workload: str, inputs, work: Path, jobs: int,
                tracer: Tracer, run_id: str, missing: set[str]) -> Walk:
    """One walk under the layer probe; span metrics added to its values."""
    first = len(tracer.spans)
    tracer.run_id = run_id
    with LayerProbe(tracer) as probe:
        root = tracer.open("walk")
        try:
            result = walk(workload, inputs, work, jobs)
        finally:
            tracer.close(root)
    spans = tracer.spans[first:]
    local = [Span(s.name, s.start_ns, s.end_ns,
                  None if s.parent is None else s.parent - first, s.run_id)
             for s in spans]
    selfs: dict[str, int] = {}
    calls: dict[str, int] = {}
    for span, own in zip(local, self_times(local)):
        selfs[span.name] = selfs.get(span.name, 0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
    inclusive = inclusive_times(local)
    for metric, unit in LAYER_METRICS:
        name = metric[:-2]
        if unit == "s" and not metric.startswith("cli."):
            nanos = inclusive.get(name, 0) if name in INCLUSIVE \
                else selfs.get(name, 0)
            result.values[metric] = nanos / 1e9
    result.values["sources.loads"] = calls.get("sources.load", 0)
    result.values.update(probe.counts)
    missing.update(probe.missing)
    return result


def probe_startup(src: Path, work: Path) -> tuple[float, float]:
    """(interpreter start, ``import repro.cli`` minus start), medians."""
    env = program_env(src)
    out, err = work / "probe.out", work / "probe.err"

    def timed(code: str) -> float:
        walls = []
        for _ in range(PROBE_REPEATS):
            status, run = spawn([sys.executable, "-c", code], env, work,
                                out, err)
            if status != 0:
                raise RuntimeError(f"probe {code!r} exited {status}: "
                                   f"{err.read_text()[-300:]}")
            walls.append(run.wall_s)
        return median(walls)

    interp = timed("pass")
    return interp, timed("import repro.cli") - interp


def traced_run(workload: str, inputs, src: Path, work: Path,
               seconds: float, tracer: Tracer, tag: str
               ) -> tuple[dict[str, float], int, list[str]]:
    """Run the traced measurement; (layer metrics, walks, failures)."""
    started = time.perf_counter()
    interp, imports = probe_startup(src, work)
    serial: dict[str, list[Walk]] = {"plain": [], "traced": []}
    pool: dict[str, list[Walk]] = {"plain": [], "traced": []}
    groups = [(serial, 1)]
    if workload == "cold_study":
        groups.append((pool, POOL_JOBS))
    walks: list[Walk] = []
    missing: set[str] = set()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started < seconds:
        order = ("plain", "traced") if cycle % 2 == 0 \
            else ("traced", "plain")
        for kind in order:
            for group, jobs in groups:
                if kind == "traced":
                    result = traced_walk(workload, inputs, work, jobs,
                                         tracer, f"{tag}-j{jobs}-{cycle}",
                                         missing)
                else:
                    result = walk(workload, inputs, work, jobs)
                group[kind].append(result)
                walks.append(result)
        cycle += 1
    if missing:
        print(f"warning: layer targets not found, their metrics read 0: "
              f"{', '.join(sorted(missing))}", file=sys.stderr)

    metrics: dict[str, float] = {"cli.interp_s": interp,
                                 "cli.import_s": imports}
    for metric, _ in LAYER_METRICS:
        runs = pool["traced"] if metric in POOL_METRICS else serial["traced"]
        if metric not in metrics and runs and metric in runs[0].values:
            metrics[metric] = median([w.values[metric] for w in runs])
    metrics.setdefault("engine.pool_spawn_s", 0.0)
    metrics.setdefault("engine.pool_spawns", 0)
    metrics["engine.parallel_efficiency"] = _ratio(
        median([w.map_seconds for w in serial["plain"]]),
        POOL_JOBS * median([w.map_seconds for w in pool["plain"]])) \
        if pool["plain"] else 0.0
    metrics["sqlddl.memo_hit_ratio"] = _ratio(
        metrics["sqlddl.memo_hits"],
        metrics["sqlddl.memo_hits"] + metrics["sqlddl.memo_misses"])
    metrics["engine.cache_hit_ratio"] = _ratio(
        metrics["engine.cache_hits"],
        metrics["engine.cache_hits"] + metrics["engine.cache_misses"])
    metrics["trace.overhead_ratio"] = _ratio(
        median([w.seconds for w in serial["traced"]]),
        median([w.seconds for w in serial["plain"]]))
    return metrics, len(walks), [w.failure for w in walks if w.failure]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
