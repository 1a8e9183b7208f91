"""The closed loop that times real ``repro-schema`` processes.

One client, one invocation at a time: the next process is spawned only
after the previous one exited. Each invocation is timed from spawn to
exit; its CPU time and peak resident memory come from ``wait4``, which
also counts the pool workers the invocation reaped. Stdout goes to a
file and is compared byte for byte with the reference; an invocation
that exits non-zero or prints anything else counts as failed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_DELTA_SUMMARY = re.compile(r"delta: (\d+) unchanged / (\d+) appended / "
                            r"(\d+) rewritten")


@dataclass
class Invocation:
    """One timed process: wall, CPU (user+sys) and peak RSS."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    failure: str | None = None


def program_env(src: Path) -> dict[str, str]:
    """Environment for a program process: the checkout's ``src`` first,
    UTF-8 stdout, and no inherited switch that changes the parse path."""
    env = dict(os.environ)
    env.pop("REPRO_NO_INCREMENTAL", None)
    env.pop("REPRO_FAULT_PLAN", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def spawn(argv: list[str], env: dict[str, str], cwd: Path, out: Path,
          err: Path) -> tuple[int, Invocation]:
    """Run ``argv`` to completion; (exit status, timings)."""
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr, env=env,
                                cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, Invocation(
        wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0)


def judge(status: int, stdout: bytes, stderr: bytes, reference: bytes,
          grown: int | None = None) -> str | None:
    """Why an invocation failed, or None when it did what it should.

    ``grown`` (refresh only) demands the delta path: the stderr summary
    must report every grown project as appended and none rewritten —
    a silent fall-back to a full recompute is a failure, not a pass.
    """
    if status != 0:
        return f"exit {status}"
    if stdout != reference:
        return "stdout differs from the reference"
    if grown is not None:
        match = _DELTA_SUMMARY.search(stderr.decode("utf-8", "replace"))
        if match is None:
            return "no delta summary on stderr"
        appended, rewritten = int(match[2]), int(match[3])
        if appended != grown or rewritten != 0:
            return (f"delta path not taken: {appended} appended, "
                    f"{rewritten} rewritten (want {grown}, 0)")
    return None


def command(workload: str, corpus: Path, cache: Path) -> list[str]:
    """The CLI arguments one timed invocation of ``workload`` runs:
    serial (``--jobs 1``), as a user runs it by default."""
    verb = "refresh" if workload == "grow_refresh" else "study"
    return [sys.executable, "-m", "repro.cli", verb,
            "--source", f"dir:{corpus}", "--cache-dir", str(cache),
            "--jobs", "1"]


def closed_loop(workload: str, inputs, src: Path, work: Path,
                seconds: float) -> list[Invocation]:
    """Invoke the program back to back for ``seconds`` (at least once).

    Each invocation gets an untimed fresh cache dir: empty for the cold
    workloads, a copy of the primed one for ``grow_refresh``.
    """
    env = program_env(src)
    results: list[Invocation] = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        cache = work / f"cache-{len(results)}"
        if inputs.primed is not None:
            shutil.copytree(inputs.primed, cache)
        else:
            cache.mkdir()
        out, err = work / "stdout", work / "stderr"
        status, run = spawn(command(workload, inputs.corpus, cache), env,
                            work, out, err)
        run.failure = judge(status, out.read_bytes(), err.read_bytes(),
                            inputs.reference,
                            inputs.grown if inputs.primed else None)
        results.append(run)
        shutil.rmtree(cache, ignore_errors=True)
    return results
