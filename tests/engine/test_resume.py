"""Crash-safe runs: kill/interrupt/enospc faults, re-runs, shared dirs.

The acceptance bar of the crash-safety layer:

* graceful interrupt — an injected SIGINT-equivalent stops dispatch,
  drains in-flight work into the result cache, writes the ledger row
  and surfaces :class:`RunInterrupted`;
* kill-then-re-run differential — after an in-process interrupt, or a
  real ``kill -9`` of a ``--jobs 2`` subprocess, a plain re-run of the
  same command on the same cache dir prints stdout byte-identical to
  an uninterrupted cold run, and serves exactly the items cached
  before the stop as cache hits;
* ENOSPC degradation — when cache writes start failing the run
  completes memory-only with identical output and the failure
  surfaced in counters, never an abort;
* shared cache dirs — two concurrent sessions pointing at one
  ``--cache-dir`` interleave safely: every ledger row lands whole.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import (
    CacheLock,
    EngineSession,
    FaultPlan,
    ResultCache,
    StudyConfig,
    append_line,
    execute_study_from_source,
    read_ledger,
    read_ledger_report,
)
from repro.engine.session import LEDGER_NAME
from repro.errors import RunInterrupted
from repro.report.markdown import markdown_report
from repro.sources import CorpusDirSource, SyntheticSource, export_corpus_dir
from tests.conftest import SMALL_POPULATION

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Dispatched mid-corpus (10th of 16, see SMALL_POPULATION): a fault
#: fired at its dispatch point leaves earlier work cached and later
#: work genuinely undone.
MID_SYNTHETIC = "quantum-steps-01"


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


def study(source, session=None, **kwargs):
    return execute_study_from_source(source, StudyConfig(**kwargs),
                                     session=session)


def cached_items(cache_dir) -> int:
    """Result-cache entries on disk under ``cache_dir``."""
    return len(ResultCache(cache_dir))


class TestGracefulInterrupt:
    def test_interrupt_then_rerun_is_byte_identical(self, tmp_path,
                                                    capsys):
        from repro.cli import EXIT_INTERRUPTED, main
        assert main(["study"]) == 0
        cold = capsys.readouterr().out

        cache = tmp_path / "cache"
        assert main(["study", "--cache-dir", str(cache),
                     "--fault-plan", "interrupt@~40"]) \
            == EXIT_INTERRUPTED
        capsys.readouterr()
        before = cached_items(cache)
        assert 0 < before < 151

        assert main(["study", "--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == cold
        interrupted, rerun = read_ledger(cache)
        assert interrupted["interrupted"] is True
        assert rerun["interrupted"] is False
        assert rerun["cache_hits"] == before
        assert rerun["cache_misses"] == 151 - before

    def test_interrupt_with_jobs_drains_in_flight(self, source,
                                                  tmp_path):
        cache_dir = tmp_path / "cache"
        config = StudyConfig(
            cache_dir=cache_dir, jobs=2,
            faults=FaultPlan.parse(f"interrupt@{MID_SYNTHETIC}"))
        with pytest.raises(RunInterrupted) as err:
            execute_study_from_source(source, config)
        assert err.value.cached
        assert 0 < cached_items(cache_dir) < len(source)
        assert read_ledger(cache_dir)[-1]["interrupted"] is True


class TestEnospcDegradation:
    def test_run_completes_memory_only_with_identical_output(
            self, source, tmp_path):
        clean, _ = study(source)
        degraded, report = study(
            source, cache_dir=tmp_path / "cache",
            faults=FaultPlan.parse("enospc@flatliner-01"))
        assert markdown_report(degraded) == markdown_report(clean)
        assert report.write_failures > 0

    def test_no_fault_run_has_no_write_failures(self, source, tmp_path):
        _, report = study(source, cache_dir=tmp_path / "cache")
        assert report.write_failures == 0


class TestKillMinusNine:
    """The full differential: SIGKILL a real subprocess mid-map."""

    def run_cli(self, tmp_path, *argv, tag="run"):
        """Run the CLI with stdout/stderr captured into files.

        A hard-killed parent (the ``kill`` fault is a real in-process
        ``kill -9``) orphans its forked pool workers, which inherit
        any stdout pipe and would keep ``communicate()``-style capture
        waiting for an EOF that never comes. Files sidestep that, and
        the subprocess runs in its own session so the orphans can be
        reaped as a group afterwards — exactly the cleanup a crashed
        real-world run needs too.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        out_path = tmp_path / f"{tag}.out"
        err_path = tmp_path / f"{tag}.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=out, stderr=err, env=env, cwd=tmp_path,
                start_new_session=True)
            try:
                returncode = process.wait(timeout=120)
            finally:
                try:  # reap orphaned pool workers of a killed parent
                    os.killpg(process.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        return subprocess.CompletedProcess(
            process.args, returncode,
            out_path.read_text(), err_path.read_text())

    def test_kill_then_resume_is_byte_identical(self, small_corpus,
                                                tmp_path):
        # The content-addressed cache is the resume mechanism: a plain
        # re-run of the killed command recomputes only what is missing.
        root = export_corpus_dir(small_corpus, tmp_path / "corpus")
        target = list(CorpusDirSource(root).project_ids())[-1]
        cache = tmp_path / "cache"
        argv = ("study", "--source", f"dir:{root}", "--jobs", "2",
                "--cache-dir", str(cache))

        killed = self.run_cli(tmp_path, *argv,
                              "--fault-plan", f"kill@{target}",
                              tag="killed")
        assert killed.returncode == 137, killed.stderr
        before = cached_items(cache)
        assert before > 0
        assert read_ledger(cache) == []  # hard death: no ledger row

        rerun = self.run_cli(tmp_path, *argv, tag="rerun")
        assert rerun.returncode == 0, rerun.stderr

        cold = self.run_cli(tmp_path, "study", "--source", f"dir:{root}",
                            tag="cold")
        assert cold.returncode == 0, cold.stderr
        assert rerun.stdout == cold.stdout

        (row,) = read_ledger(cache)
        assert row["cache_hits"] == before
        assert row["interrupted"] is False

    def test_sigterm_mid_run_exits_130_with_hint(self, small_corpus,
                                                 tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "corpus")
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "study",
             "--source", f"dir:{root}", "--jobs", "2",
             "--cache-dir", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=tmp_path)
        # Wait until at least one result is cached, then SIGTERM.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if cached_items(cache) > 0 or process.poll() is not None:
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60.0)
        if process.returncode == 0:
            pytest.skip("run finished before SIGTERM landed")
        assert process.returncode == 130, stderr
        assert "interrupted — re-run the same command to continue " \
               "(finished projects are cached)" in stderr
        assert read_ledger(cache)[-1]["interrupted"] is True


class TestSharedCacheDir:
    def test_two_concurrent_sessions_ledger_safely(self, source,
                                                   tmp_path):
        cache_dir = tmp_path / "cache"
        errors = []

        def run():
            try:
                with EngineSession() as session:
                    study(source, session, cache_dir=cache_dir)
            except BaseException as exc:  # noqa: BLE001 - test capture
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        records, torn = read_ledger_report(cache_dir)
        assert len(records) == 2
        assert torn == []
        digests = {row["result_digest"] for row in records}
        assert len(digests) == 1  # same study, same bytes

    def test_reader_never_sees_torn_rows_during_writes(self, tmp_path):
        ledger = tmp_path / LEDGER_NAME
        row = json.dumps({"run_id": 1, "payload": "x" * 256}) + "\n"
        stop = threading.Event()

        def write():
            while not stop.is_set():
                with CacheLock(tmp_path):
                    append_line(ledger, row.encode("utf-8"))

        with CacheLock(tmp_path):
            append_line(ledger, row.encode("utf-8"))
        writer = threading.Thread(target=write)
        writer.start()
        try:
            seen = 0
            for _ in range(200):
                records, torn = read_ledger_report(tmp_path)
                assert torn == []
                assert len(records) >= seen  # append-only, whole rows
                seen = len(records)
        finally:
            stop.set()
            writer.join()
        assert seen > 0
