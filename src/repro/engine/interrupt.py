"""Graceful SIGINT/SIGTERM handling for plan executions.

The executor installs an :class:`InterruptGuard` around the stage loop.
The first signal only sets a flag; the executor notices it at the next
safe point (between items, between harvests), stops dispatching new
work, drains chunks that already finished — caching their results —
cancels the rest, writes the run's ledger row, and raises
:class:`~repro.errors.RunInterrupted`. A second signal while that drain
is in progress raises :class:`KeyboardInterrupt` immediately: the first
Ctrl-C is polite, the second one means *now*.

Handlers are only installed in the main thread (Python forbids them
elsewhere); worker threads running plans still get a guard object that
fault injection (``interrupt@pid``) can trigger deterministically.
Previous handlers are restored on exit, so nesting and test runners are
unaffected.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import RunInterrupted

_GUARD_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class InterruptGuard:
    """Cooperative interrupt flag checked at the executor's safe points."""

    def __init__(self):
        self.reason: str | None = None
        self._requested = False

    @property
    def requested(self) -> bool:
        return self._requested

    def trigger(self, reason: str = "signal") -> None:
        """Request a graceful stop (signal handler or fault injection)."""
        if not self._requested:
            self.reason = reason
            self._requested = True

    def check(self) -> None:
        """Raise :class:`RunInterrupted` if a stop has been requested."""
        if self._requested:
            raise RunInterrupted()

    def _handle(self, signum: int, frame: object) -> None:
        if self._requested:
            # Second signal: the user wants out immediately.
            raise KeyboardInterrupt
        try:
            name = signal.Signals(signum).name
        except ValueError:  # pragma: no cover
            name = f"signal {signum}"
        self.trigger(name)


@contextmanager
def interrupt_guard() -> Iterator[InterruptGuard]:
    """Yield a guard, with SIGINT/SIGTERM routed to it when possible."""
    guard = InterruptGuard()
    installed: list[tuple[signal.Signals, object]] = []
    if threading.current_thread() is threading.main_thread():
        for sig in _GUARD_SIGNALS:
            try:
                previous = signal.signal(sig, guard._handle)
            except (ValueError, OSError):  # pragma: no cover
                continue
            installed.append((sig, previous))
    try:
        yield guard
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)
