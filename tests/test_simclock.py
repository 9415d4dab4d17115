"""The scheduler's run loop against the callback-only loop it replaced.

``OracleScheduler`` is that loop: every event is a callback on one heap,
every planned arrival is pushed up front, and a session is stepped by a
callback that sends into it and schedules its next step.  The scheduler
under test steps sessions straight off its heap and takes its arrivals as
time-sorted rows; both must run the same program in the same order.
"""

import heapq
import itertools
from functools import partial
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivecc.simclock import Scheduler


class OracleScheduler:
    """The callback-only heap loop: (time, insertion order, callback)."""

    def __init__(self):
        self.now_ms = 0.0
        self._queue = []
        self._seq = itertools.count()

    def call_at(self, when_ms, fn):
        if when_ms < self.now_ms:
            when_ms = self.now_ms
        heapq.heappush(self._queue, (when_ms, next(self._seq), fn))

    def call_later(self, delay_ms, fn):
        self.call_at(self.now_ms + max(delay_ms, 0.0), fn)

    def run(self):
        while self._queue:
            when, _, fn = heapq.heappop(self._queue)
            self.now_ms = when
            fn()


PARK = "park"


class Program:
    """One generated program, run on either loop; ``log`` collects
    ``(now_ms, label)`` for every session step and callback."""

    def __init__(self, arrivals, callbacks):
        self.arrivals = arrivals  # [(time, steps)], in plan order
        self.callbacks = callbacks  # [(time, action)]
        self.log = []
        self.parked = set()

    def session(self, clock, index, steps):
        self.log.append((clock(), f"s{index} start"))
        for k, step in enumerate(steps):
            if step == PARK:
                self.parked.add(index)
                value = yield None
                self.log.append((clock(), f"s{index}.{k} resumed by {value}"))
            else:
                yield step
                self.log.append((clock(), f"s{index}.{k} after {step}"))

    def callback(self, clock, schedule_later, wake, label, action):
        self.log.append((clock(), label))
        if action[0] == "resume" and action[1] in self.parked:
            self.parked.discard(action[1])
            wake(action[1], label)
        elif action[0] == "chain":
            schedule_later(action[1], partial(
                self.callback, clock, schedule_later, wake, label + "+", ("noop",)))

    def run_oracle(self):
        loop = OracleScheduler()
        clock = lambda: loop.now_ms  # noqa: E731
        sessions = {}

        def advance(index, value):
            try:
                delay = sessions[index].send(value)
            except StopIteration:
                return
            if delay is not None:
                loop.call_later(delay, partial(advance, index, None))

        def spawn(index, steps):
            sessions[index] = self.session(clock, index, steps)
            advance(index, None)

        def wake(index, value):
            loop.call_at(loop.now_ms, partial(advance, index, value))

        for index, (when, steps) in enumerate(self.arrivals):
            loop.call_at(when, partial(spawn, index, steps))
        for j, (when, action) in enumerate(self.callbacks):
            callback = partial(self.callback, clock, loop.call_later, wake, f"c{j}", action)
            loop.call_at(when, callback)
        loop.run()
        return self.log

    def run_scheduler(self):
        loop = Scheduler()
        clock = lambda: loop.now_ms  # noqa: E731
        later = lambda delay, fn: loop.call_at(loop.now_ms + delay, fn)  # noqa: E731
        sessions = {}

        def start(row):
            _, index, steps = row
            sessions[index] = self.session(clock, index, steps)
            return sessions[index]

        def wake(index, value):
            loop.resume(sessions[index], value)

        for j, (when, action) in enumerate(self.callbacks):
            callback = partial(self.callback, clock, later, wake, f"c{j}", action)
            loop.call_at(when, callback)
        rows = [(when, index, steps) for index, (when, steps) in enumerate(self.arrivals)]
        loop.run(sorted(rows, key=itemgetter(0)), start)
        return self.log


# Few distinct times and delays, so that arrivals, steps and callbacks collide.
times = st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 4.0])
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
steps = st.lists(st.one_of(delays, st.just(PARK)), max_size=5)
arrivals = st.lists(st.tuples(times, steps), max_size=8)
actions = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("resume"), st.integers(0, 7)),
    st.tuples(st.just("chain"), delays),
)
callbacks = st.lists(st.tuples(times, actions), max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(arrivals, callbacks)
def test_scheduler_runs_programs_in_the_callback_loops_order(arrivals, callbacks):
    expected = Program(arrivals, callbacks).run_oracle()
    assert Program(arrivals, callbacks).run_scheduler() == expected


def noted(seen, label, *delays):
    seen.append(label)
    for delay in delays:
        yield delay


def test_an_arrival_runs_before_a_queued_event_at_its_time():
    loop = Scheduler()
    seen = []
    loop.call_at(5.0, lambda: seen.append("queued"))
    loop.run([(5.0, "arrival")], lambda row: noted(seen, row[1]))
    assert seen == ["arrival", "queued"]


def test_a_finished_session_leaves_the_heap():
    loop = Scheduler()
    loop.run([(2.0,)], lambda row: noted([], "", 1.0, 0.0))
    assert loop.now_ms == 3.0 and loop._queue == []


def test_arrivals_out_of_time_order_are_refused():
    loop = Scheduler()
    with pytest.raises(ValueError, match="follows"):
        loop.run([(2.0,), (1.0,)], lambda row: noted([], ""))

