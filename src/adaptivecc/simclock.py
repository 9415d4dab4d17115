"""Minimal discrete-event scheduler with a virtual or wall-paced clock.

Events run in (time, insertion order) order, so identical inputs replay
identically.  In paced mode the loop sleeps until each event's due time on
the monotonic wall clock but still stamps events with their logical times;
the logical outcome of a run never depends on the pacing.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Optional


class Scheduler:
    def __init__(self, paced: bool = False) -> None:
        self.now_ms = 0.0
        self.paced = paced
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def call_at(self, when_ms: float, fn: Callable[[], None]) -> None:
        if when_ms < self.now_ms:
            when_ms = self.now_ms
        heapq.heappush(self._queue, (when_ms, next(self._seq), fn))

    def call_later(self, delay_ms: float, fn: Callable[[], None]) -> None:
        self.call_at(self.now_ms + max(delay_ms, 0.0), fn)

    def run(self, until_ms: Optional[float] = None) -> None:
        """Drain the queue (optionally only up to ``until_ms``)."""
        anchor = time.monotonic() - self.now_ms / 1000.0 if self.paced else 0.0
        while self._queue:
            when, _, fn = self._queue[0]
            if until_ms is not None and when > until_ms:
                break
            heapq.heappop(self._queue)
            if self.paced:
                lag = anchor + when / 1000.0 - time.monotonic()
                if lag > 0:
                    time.sleep(lag)
            self.now_ms = when
            fn()
        if until_ms is not None and self.now_ms < until_ms:
            self.now_ms = until_ms
