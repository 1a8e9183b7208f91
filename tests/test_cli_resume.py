"""CLI crash-recovery surface: exit 130, the re-run hint, re-runs.

There is no separate resume command: the content-addressed result cache
is the resume mechanism, so re-running the interrupted command on the
same ``--cache-dir`` recomputes only what is missing.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.corpus.dataset import save_corpus
from repro.engine import read_ledger
from repro.sources import export_corpus_dir

#: Mid-corpus project (10th of 16 in the small corpus): interrupting at
#: its dispatch point leaves earlier work cached, later work undone.
MID_PROJECT = "quantum-steps-01"

RERUN_HINT = ("interrupted — re-run the same command to continue "
              "(finished projects are cached)")

#: One ledger row as written before run journals were removed: it
#: carries ``resumed_from`` and ``journal_*`` fields.
LEGACY_LEDGER = Path(__file__).parent / "fixtures" \
    / "legacy_journal_ledger.jsonl"


@pytest.fixture
def corpus_path(tmp_path, small_corpus):
    path = tmp_path / "corpus.json"
    save_corpus(small_corpus, path)
    return path


def run_study(corpus_path, *extra):
    return main(["study", "--corpus", str(corpus_path), *extra])


def interrupt_run(corpus_path, cache_dir, capsys):
    """Run a study that gets interrupted; return its stderr."""
    code = run_study(corpus_path, "--cache-dir", str(cache_dir),
                     "--fault-plan", f"interrupt@{MID_PROJECT}")
    assert code == EXIT_INTERRUPTED
    return capsys.readouterr().err


class TestInterruptedExit:
    def test_exit_130_with_resume_hint(self, corpus_path, tmp_path,
                                       capsys):
        err = interrupt_run(corpus_path, tmp_path / "cache", capsys)
        assert RERUN_HINT in err
        assert "--resume" not in err
        assert read_ledger(tmp_path / "cache")[-1]["interrupted"] is True

    def test_interrupt_without_cache_dir_prints_bare_hint(
            self, corpus_path, capsys):
        code = run_study(corpus_path,
                         "--fault-plan", f"interrupt@{MID_PROJECT}")
        assert code == EXIT_INTERRUPTED
        assert capsys.readouterr().err.splitlines()[-1] == "interrupted"

    def test_keyboard_interrupt_is_130(self, corpus_path, capsys,
                                       monkeypatch):
        def boom(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._run_study_like", boom)
        assert run_study(corpus_path) == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err

    def test_refresh_interrupts_too(self, corpus_path, tmp_path,
                                    capsys):
        code = main(["refresh", "--corpus", str(corpus_path),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--fault-plan", f"interrupt@{MID_PROJECT}"])
        assert code == EXIT_INTERRUPTED
        assert RERUN_HINT in capsys.readouterr().err


class TestResumeFlow:
    def test_resume_completes_byte_identically(self, corpus_path,
                                               tmp_path, capsys):
        cold = run_study(corpus_path)
        cold_out = capsys.readouterr().out
        assert cold == 0

        cache = tmp_path / "cache"
        interrupt_run(corpus_path, cache, capsys)
        code = run_study(corpus_path, "--cache-dir", str(cache))
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == cold_out
        assert read_ledger(cache)[-1]["cache_hits"] > 0

    def test_resume_flag_and_subcommand_are_gone(self, corpus_path,
                                                 tmp_path):
        with pytest.raises(SystemExit) as usage:
            run_study(corpus_path, "--cache-dir", str(tmp_path),
                      "--resume", "rdeadbeef0000")
        assert usage.value.code == 2
        with pytest.raises(SystemExit) as usage:
            main(["resume", str(tmp_path)])
        assert usage.value.code == 2


class TestLegacyCacheDir:
    """A cache dir written while run journals existed keeps working."""

    @pytest.fixture
    def legacy_cache(self, tmp_path):
        cache = tmp_path / "cache"
        journal = cache / "journal"
        journal.mkdir(parents=True)
        (journal / "r5f2c0e1d9a7b.jsonl").write_text(
            'j1 0000000000000000 {"type":"begin"}\n')
        shutil.copy(LEGACY_LEDGER, cache / "ledger.jsonl")
        return cache

    def test_study_refresh_and_ledger_run(self, small_corpus, tmp_path,
                                          legacy_cache, capsys):
        journal = legacy_cache / "journal"
        before = {p.name: p.read_bytes() for p in journal.iterdir()}
        source = f"dir:{export_corpus_dir(small_corpus, tmp_path / 'c')}"
        for command in ("study", "refresh"):
            assert main([command, "--source", source,
                         "--cache-dir", str(legacy_cache)]) == 0
        capsys.readouterr()

        assert main(["ledger", str(legacy_cache)]) == 0
        assert "run ledger" in capsys.readouterr().out
        assert main(["ledger", str(legacy_cache), "--json"]) == 0
        rows = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == 3
        assert rows[0]["resumed_from"] == "r0a1b2c3d4e5f"
        for row in rows[1:]:
            assert "resumed_from" not in row
            assert not any(key.startswith("journal_") for key in row)

        # Never read, never written: the leftover journal is inert.
        assert {p.name: p.read_bytes()
                for p in journal.iterdir()} == before


class TestDegradationWarnings:
    def test_enospc_warns_and_still_succeeds(self, corpus_path,
                                             tmp_path, capsys):
        code = run_study(corpus_path,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--fault-plan", "enospc@flatliner-01")
        captured = capsys.readouterr()
        assert code == 0
        assert "continuing memory-only" in captured.err
