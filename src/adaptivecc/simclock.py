"""Minimal discrete-event scheduler on a virtual clock.

The scheduler runs two kinds of heap entries, each ``(time, sequence,
target, value)``: plain callbacks, due at the absolute time given to
``call_at`` (a caller that repeats one every w ms asks for the k-th at
``k * w``, so float error does not build up), and session steps.  A
session is a generator that yields how many ms to wait before its next
step, or None to park until a continuation calls ``resume``; the run loop
``send``s the entry's value into it and pushes its next step itself, and a
finished session simply drops out.

Arrivals come from the time-sorted rows passed to ``run``, not from the
heap, so the heap holds only in-flight events.  An arrival runs before any
queued event due at the same time, and arrivals due at the same time run in
row order.  A run always goes on until the arrivals and the heap are both
used up.

A session step due strictly before the heap's head and the next arrival
is taken in place: the loop moves ``now_ms`` to it and sends into the same
session again, without a push and a pop.  That is the entry the heap would
hand out next, since every queued entry and the next arrival are due later
and any entry the step itself queued (a ``resume``, a ``call_at``) is in
the heap when the check runs.  A step due at the same time as a queued
entry or the next arrival ties, and goes through the heap, whose sequence
numbers order the tie as before.

Events run in (time, insertion order) order, so identical inputs replay
identically.  The clock is virtual only: ``now_ms`` jumps to each event's
due time, and a run never waits on the wall clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional, Sequence

# A session yields a delay in ms, or None to park; resume() sends it a value.
Session = Generator[Optional[float], Any, None]

_CALL = object()  # the value of a heap entry whose target is a plain callback


class Scheduler:
    def __init__(self) -> None:
        self.now_ms = 0.0
        self._queue: list[tuple[float, int, Any, Any]] = []
        self._seq = itertools.count()

    def call_at(self, when_ms: float, fn: Callable[[], None]) -> None:
        if when_ms < self.now_ms:
            when_ms = self.now_ms
        heapq.heappush(self._queue, (when_ms, next(self._seq), fn, _CALL))

    def resume(self, session: Session, value: Any = None) -> None:
        """Send ``value`` into a parked session on a fresh event at the
        current time, never synchronously."""
        heapq.heappush(self._queue, (self.now_ms, next(self._seq), session, value))

    def run(
        self,
        arrivals: Iterable[Sequence] = (),
        start: Optional[Callable[[Sequence], Session]] = None,
    ) -> None:
        """Run until the arrivals and the queue are used up: ``start(row)``
        is called at time ``row[0]`` for each row of the time-sorted, lazily
        consumed ``arrivals``, and the session it returns is stepped at once."""
        queue, seq, push, pop = self._queue, self._seq, heapq.heappush, heapq.heappop
        arrivals = iter(arrivals)
        arrival = next(arrivals, None)
        while True:
            if arrival is not None and (not queue or arrival[0] <= queue[0][0]):
                when = arrival[0]
                if when < self.now_ms:
                    when = self.now_ms
                row, arrival = arrival, next(arrivals, None)
                if arrival is not None and arrival[0] < row[0]:
                    raise ValueError(f"arrival at {arrival[0]} follows one at {row[0]}")
                target, value = None, None
            elif queue:
                when, _, target, value = pop(queue)
            else:
                break
            self.now_ms = when
            if target is None:
                target = start(row)
            elif value is _CALL:
                target()
                continue
            while True:
                try:
                    delay = target.send(value)
                except StopIteration:
                    break
                if delay is None:
                    break
                if delay > 0:
                    when += delay
                # A step due strictly before the heap head and the next
                # arrival is what the heap would hand out next: take it now.
                if (not queue or when < queue[0][0]) and (arrival is None or when < arrival[0]):
                    self.now_ms = when
                    value = None
                    continue
                push(queue, (when, next(seq), target, None))
                break
