#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro-schema`` CLI.

Times the real program as a user runs it — interpreter start, imports,
source load, engine and report render — on inputs built from one
seeded synthetic corpus (151 projects exported as a corpus dir), and
checks every invocation's stdout byte for byte against a reference.

    python3 perfbench/run.py --workload all          # every metric, units
    python3 perfbench/run.py --workload cold_study --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times CLI processes in a closed loop (one client) and
reports the end-to-end metrics; ``--trace 1`` walks the same study
in-process with spans around each layer and reports the per-layer
metrics. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value, unit). Every
run is also appended, with host facts, to ``perfbench/_runs/
trajectory.jsonl``; traced runs write their spans as Chrome trace-event
JSON to ``perfbench/_runs/trace-<workload>.json``.

The program is taken from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
WORK = BENCH / "_work"

from closedloop import closed_loop  # noqa: E402
from stats import median, tail  # noqa: E402

#: The workloads; why each exists is in BENCHMARK.json and the README.
WORKLOADS = ("cold_study", "grow_refresh")

#: End-to-end metrics: (name, unit).
E2E_METRICS = (("wall_p50_s", "s"), ("wall_tail_s", "s"),
               ("cpu_p50_s", "s"), ("peak_rss_mb", "MB"),
               ("ok_ratio", "ratio"), ("setup_s", "s"))

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


def host_facts() -> dict:
    """Where and on what the run happened."""
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": None,
        "src_sha256": _tree_digest(SRC),
    }
    if (ROOT / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                "HEAD"], capture_output=True, text=True,
                               timeout=30)
        if probe.returncode == 0:
            facts["commit"] = probe.stdout.strip()
    return facts


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` (and nowhere else)."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise FileNotFoundError(f"no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def measure(workload: str, seed: int, seconds: float, work: Path
            ) -> tuple[object, list, list]:
    """Set up :data:`SETUP_REPEATS` times, timing each set-up, and run
    a share of the closed loop after each one.

    Every invocation runs against the first set-up's inputs; the later
    set-ups are timed and discarded. Spreading the invocations over the
    whole run, between set-ups, keeps one slow spell of a shared host
    from moving all of them at once.
    """
    from inputs import build_inputs
    setups, runs = [], []
    inputs = None
    for repeat in range(SETUP_REPEATS):
        dest = work / f"setup-{repeat}"
        started = time.perf_counter()
        built = build_inputs(workload, seed, dest)
        setups.append(time.perf_counter() - started)
        if inputs is None:
            inputs = built
        else:
            shutil.rmtree(dest)
        runs += closed_loop(workload, inputs, SRC, work,
                            seconds / SETUP_REPEATS)
    return inputs, setups, runs


def e2e(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The end-to-end run: set-ups and the closed loop of processes."""
    inputs, setups, runs = measure(workload, seed, seconds, work)
    walls = [r.wall_s for r in runs]
    tail_value, percentile, beyond = tail(walls)
    failed = [r.failure for r in runs if r.failure]
    metrics = {
        "wall_p50_s": median(walls),
        "wall_tail_s": tail_value,
        "cpu_p50_s": median([r.cpu_s for r in runs]),
        "peak_rss_mb": median([r.rss_mb for r in runs]),
        "ok_ratio": (len(runs) - len(failed)) / len(runs),
        "setup_s": median(setups),
    }
    units = dict(E2E_METRICS)
    lines = [f"{name:<14} {value:>12.4f} {units[name]}"
             for name, value in metrics.items()]
    lines.insert(2, f"{'':14} (tail = p{percentile:.1f} of "
                    f"{len(runs)} invocations, {beyond} beyond"
                    + ("; under 10 beyond, so it is the fastest one)"
                       if beyond < 10 else ")"))
    lines.append(f"{'failed_ratio':<14} {len(failed) / len(runs):>12.4f} "
                 f"ratio ({len(failed)} of {len(runs)} failed)")
    return {
        "correct": not failed and not inputs.truth,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "notes": sorted(set(failed)) + list(inputs.truth),
        "summary": lines,
        "samples": {"wall_s": walls,
                    "setup_s": setups,
                    "tail_percentile": percentile,
                    "tail_beyond": beyond},
    }


def traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """The traced run: in-process walks with spans per layer."""
    from inputs import build_inputs
    from tracing import Tracer
    from walk import LAYER_METRICS, traced_run
    inputs = build_inputs(workload, seed, work / "setup-0")
    tracer = Tracer()
    metrics, walks, failed = traced_run(
        workload, inputs, SRC, work, seconds, tracer,
        tag=f"{workload}-s{seed}")
    units = dict(LAYER_METRICS)
    tracer.write_chrome(RUNS / f"trace-{workload}.json",
                        {"workload": workload, "seed": seed,
                         "metrics": metrics})
    return {
        "correct": not failed and not inputs.truth,
        "attempted": walks,
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]} for name, _ in
                    LAYER_METRICS},
        "notes": sorted(set(failed)) + list(inputs.truth),
        "summary": [f"{name:<28} {metrics[name]:>14.6f} {unit}"
                    for name, unit in LAYER_METRICS],
        "samples": {"spans": len(tracer.spans)},
    }


def run_workload(workload: str, args) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        runner = traced if args.trace else e2e
        return runner(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record(workload: str, args, result: dict, host: dict) -> None:
    """Append the run to the trajectory (never overwritten)."""
    RUNS.mkdir(parents=True, exist_ok=True)
    entry = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
        "notes": result["notes"], "samples": result["samples"],
    }
    with open(RUNS / "trajectory.jsonl", "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro-schema CLI")
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced run")
    args = parser.parse_args(argv)
    try:
        load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    host = host_facts()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        try:
            result = run_workload(workload, args)
        except Exception:
            traceback.print_exc()
            print(f"perfbench: {workload} failed before it could be "
                  f"measured", file=sys.stderr)
            return 1
        record(workload, args, result, host)
        results[workload] = result
        print(f"== {workload} (seed {args.seed}, trace {args.trace})")
        for line in result["summary"]:
            print(f"   {line}")
        for note in result["notes"]:
            print(f"   ! {note}")
    print(f"   host: {host['nproc']} cpus, Python {host['python']}, "
          f"{host['platform']}, src {host['src_sha256']}, "
          f"commit {host['commit'] or 'unknown'}")
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{workload}.{name}": value
                   for workload, result in results.items()
                   for name, value in result["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
