"""Experiment driver: arrival generation, transaction templates, execution.

A run spawns transactions along a Poisson arrival process held constant
per one-second epoch, executes each against the engine (read phase,
uniform random disconnect, write phase), and feeds the adaptation
controller and metrics collection.  Everything runs on a discrete-event
clock; identical (profile, config, seed) triples replay byte-identically.
The clock is virtual only: a run never waits on the wall clock.

A workload is a store plus a plan: ``WORKLOADS`` maps a profile's
``template`` to a store factory and a plan function that turns the profile
and the run's RNG into timed transactions.  ``single_item`` and
``tpcc_deck`` share the Poisson plan and differ only in their template
stream; ``fig7``, the scripted overload scenario, is a fifteen-transaction
script over its own store.

Each transaction is a session: a generator that the scheduler steps
straight off its heap, and that yields its think and service delays or
parks until its lock is granted.  The plan, stably sorted by arrival time,
is handed to the scheduler's run as its arrivals, so the heap holds only
in-flight events.  An arrival runs before any queued event due at the same
time, and arrivals due together run in plan order; that is the order the
run had when every arrival was queued up front, ahead of all other events.

Transaction templates are class-agnostic: an access declares the item and
an optional update delta, and the item's current class picks the
mechanism (escrow reservation on E, delta reconciliation on R, absolute
write under lock or validation on P/O).

With an ``out_dir``, a run streams its trace: an arrival that finds at
least ``TRACE_CHUNK_ROWS`` rows in the engine's trace list writes them in
one ``writerows`` call and clears the list, and the rows left when the
replay ends are written after it.  The engine still adds each row with one
list append, and the trace costs one chunk of memory, not one row per event
of the run.  The rows go to a part file that replaces ``trace.csv`` only
once the replay and its aggregation have succeeded; a run that fails
removes it, so the files already in ``out_dir`` stay as they were.
``write_outputs`` then writes the four CSVs derived from the termination
records, which stay in memory.  Without an ``out_dir`` the whole trace
stays in the engine's list.

A replay runs with the cyclic garbage collector paused and restores the
caller's collector state when it ends.  This is safe because a replay
makes no cyclic garbage: records are tuples, and the engine's clock
closes over the scheduler, not the runner.  A session's resume
continuation refers to the session's own generator, which holds the
continuation in its frame; that cycle lasts only while the session runs,
because a finished generator drops its frame.  The scheduler keeps no
reference to the plan or to ``start`` once its run returns.  Reference
counting frees everything a replay drops, so a collector pass would only
walk the run's live objects.  Engine and controller refer to each other
only until the run ends, so a dropped runner is freed by reference
counting too.  ``tests/test_harness.py`` pins this by finding no
unreachable objects after replays run without the collector.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterator, NamedTuple, Optional

from . import metrics, sg
from .adaptation import AdaptationConfig, AdaptEvent, Controller, Mode
from .engine import Engine, ReadOutcome, ReadStatus, TerminationRecord, Txn, WriteIntent
from .metrics import Summary, TimeWindowRow
from .simclock import Scheduler, Session
from .store import CCClass, Constraint, Store

# bound once: see the engine module docstring
_CLASS_O, _CLASS_R, _CLASS_P, _CLASS_E = CCClass.O, CCClass.R, CCClass.P, CCClass.E
_READ_WAITING, _READ_ABORTED = ReadStatus.WAITING, ReadStatus.ABORTED
_MODE_TIME_WINDOW = Mode.TIME_WINDOW

TEMPLATE_SINGLE_ITEM = "single_item"
TEMPLATE_TPCC_DECK = "tpcc_deck"

HOT_ITEM = "hot"

TRACE_CHUNK_ROWS = 4096  # trace rows a streamed run holds before it writes them

# Seven-epoch arrival-rate profiles used by the long-transaction studies.
W1 = (7, 14, 80, 87, 93, 100, 106)
W2 = (66, 132, 200, 265, 332, 400, 460)


class ConfigurationError(Exception):
    pass


@dataclass(frozen=True)
class EpochProfile:
    """Arrival plan: one lambda (transactions/second) per epoch."""

    lambdas: tuple[float, ...]
    dt_min_ms: float = 0.0
    dt_max_ms: float = 0.0
    template: str = TEMPLATE_SINGLE_ITEM
    seed: int = 0
    epoch_ms: float = 1000.0

    def __post_init__(self) -> None:
        values = (*self.lambdas, self.dt_min_ms, self.dt_max_ms, self.epoch_ms)
        if not all(map(math.isfinite, values)):
            raise ConfigurationError("arrival rates, dt_min, dt_max and epoch_ms must be finite")
        if any(lam < 0 for lam in self.lambdas):
            raise ConfigurationError("arrival rates must be non-negative")
        if not 0 <= self.dt_min_ms <= self.dt_max_ms:
            raise ConfigurationError("need 0 <= dt_min <= dt_max")
        if self.template not in WORKLOADS:
            raise ConfigurationError(f"unknown template {self.template!r}")
        if self.epoch_ms <= 0:
            raise ConfigurationError("epoch_ms must be positive")


class Access(NamedTuple):
    item: str
    delta: Optional[float] = None  # None: plain read


class TxnTemplate(NamedTuple):
    name: str
    accesses: tuple[Access, ...]
    read_only: bool = False


_new = tuple.__new__  # _new(Cls, fields): a NamedTuple without its Python-level __new__


def poisson_arrivals(lam: float, duration_ms: float, rng: random.Random) -> list[float]:
    """Arrival offsets within [0, duration_ms) at ``lam`` per second."""
    if lam < 0:
        raise ConfigurationError("lam must be non-negative")
    if lam == 0:
        return []
    out: list[float] = []
    t = rng.expovariate(lam / 1000.0)
    while t < duration_ms:
        out.append(t)
        t += rng.expovariate(lam / 1000.0)
    return out


# -- stores and templates ----------------------------------------------------


def single_item_store() -> Store:
    store = Store()
    store.create_item(HOT_ITEM, 0, _CLASS_O)
    return store


def tpcc_store(si_only: bool = False) -> Store:
    """Hot-spot rows of the reduced deck, one scalar item each."""
    def cls(c: CCClass) -> CCClass:
        return _CLASS_O if si_only else c

    store = Store()
    store.create_item("Customer", 1, cls(_CLASS_P))
    store.create_item("CustomerCredit", 1, cls(_CLASS_P))
    store.create_item("CustomerBalance", 1000, cls(_CLASS_R))
    store.create_item("WarehouseYTD", 0, cls(_CLASS_R))
    store.create_item("DistrictYTD", 0, cls(_CLASS_R))
    store.create_item(
        "StockQuantity", 100_000, cls(_CLASS_E), Constraint(lower=0, strict_lower=True)
    )
    return store


# TPC-C style transaction mix: one row per deck transaction with its count
# per 100-transaction deck and its accesses, whose deltas are drawn from the
# rng.  Accesses without a drawn delta are shared constants.
_CUSTOMER, _CREDIT, _BALANCE, _STOCK = map(
    Access, ("Customer", "CustomerCredit", "CustomerBalance", "StockQuantity")
)
_CREDIT_BUMP = Access("CustomerCredit", delta=1)
_DECK: tuple[tuple[str, int, Callable[[random.Random], tuple[Access, ...]]], ...] = (
    ("new_order", 42, lambda rng: (
        _CUSTOMER, _CREDIT, _new(Access, ("StockQuantity", -rng.randint(1, 10))))),
    ("payment", 42, lambda rng: (  # one amount leaves the balance for both YTDs
        _CUSTOMER, _new(Access, ("CustomerBalance", -(amount := rng.randint(1, 100)))),
        _new(Access, ("WarehouseYTD", amount)), _new(Access, ("DistrictYTD", amount)))),
    ("delivery", 4, lambda rng: (
        _CUSTOMER, _new(Access, ("CustomerBalance", rng.randint(1, 50))))),
    ("credit_check", 4, lambda rng: (_CUSTOMER, _CREDIT_BUMP, _BALANCE)),
    ("update_stock_level", 4, lambda rng: (_new(Access, ("StockQuantity", rng.randint(10, 100))),)),
    ("read_stock_level", 4, lambda rng: (_STOCK,)),
)
DECK_MIX = tuple((name, count) for name, count, _ in _DECK)


def tpcc_deck(rng: random.Random) -> list[TxnTemplate]:
    """A shuffled 100-transaction deck with the fixed mix of
    42/42/4/4/4/4 new-order/payment/delivery/credit-check/update-stock/
    read-stock transactions; read_stock_level, the one without an update,
    is read-only."""
    rows = [row for row in _DECK for _ in range(row[1])]
    rng.shuffle(rows)
    drawn = [(name, accesses(rng)) for name, _, accesses in rows]
    return [
        _new(TxnTemplate, (name, acc, all([delta is None for _, delta in acc])))
        for name, acc in drawn
    ]


def single_item_template() -> TxnTemplate:
    return TxnTemplate("hot_update", (Access(HOT_ITEM, delta=1),))


# -- workloads ------------------------------------------------------------------

Plan = list[tuple[float, TxnTemplate, float]]  # (arrival ms, template, dt ms)


class Workload(NamedTuple):
    """What a profile ``template`` names: a fresh store (all-O when
    ``si_only``) and the timed transactions a run replays on it."""

    store: Callable[[bool], Store]
    plan: Callable[[EpochProfile, random.Random], Plan]


def _poisson_plan(
    templates: Callable[[random.Random], Iterator[TxnTemplate]],
    profile: EpochProfile,
    rng: random.Random,
) -> Plan:
    # Draw order: every arrival, then per arrival its template's draws and dt.
    times: list[float] = []
    for index, lam in enumerate(profile.lambdas):
        start = index * profile.epoch_ms
        times.extend(start + t for t in poisson_arrivals(lam, profile.epoch_ms, rng))
    lo, hi = profile.dt_min_ms, profile.dt_max_ms
    return [
        (t, template, rng.uniform(lo, hi) if hi > 0 else 0.0)
        for t, template in zip(times, templates(rng))
    ]


def _decks(rng: random.Random) -> Iterator[TxnTemplate]:
    while True:  # the next deck is drawn only when the last one is used up
        yield from tpcc_deck(rng)


def _fig7_store(si_only: bool) -> Store:
    store = single_item_store()
    store.create_item("ledger", 5, _CLASS_R, Constraint(lower=0))  # R under si_only too
    return store


def _fig7_plan(profile: EpochProfile, rng: random.Random) -> Plan:
    # Slots 1-10 arrive at t = slot and write back at these times; slot 9
    # also debits the ledger.  Five updates without disconnect follow.
    hot = single_item_template()
    debit = TxnTemplate("hot_update", (*hot.accesses, Access("ledger", delta=-10)))
    write_ms = (20.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 115.0, 110.0)
    plan = [
        (slot, debit if slot == 9 else hot, when - slot)
        for slot, when in enumerate(write_ms, start=1)
    ]
    return plan + [(when, hot, 0.0) for when in (120.0, 140.0, 160.0, 210.0, 240.0)]


WORKLOADS = {
    TEMPLATE_SINGLE_ITEM: Workload(
        lambda si_only: single_item_store(),  # the hot item is optimistic either way
        partial(_poisson_plan, lambda rng: repeat(single_item_template())),
    ),
    TEMPLATE_TPCC_DECK: Workload(tpcc_store, partial(_poisson_plan, _decks)),
    "fig7": Workload(_fig7_store, _fig7_plan),
}


# -- experiment runner --------------------------------------------------------


@dataclass
class ExperimentResult:
    """What one replay returns.

    ``schedule`` is the run's trace: the engine's list of rows when the run
    had no ``out_dir``; with one, an ``sg.TraceFile`` over the streamed
    ``trace.csv``, whose ``len`` is the number of rows and whose iteration
    reads the file back as equal ``ScheduleEvent``s.  ``events`` holds every
    termination record in memory either way.
    """

    profile: EpochProfile
    events: list[TerminationRecord]
    schedule: list[sg.ScheduleEvent] | sg.TraceFile
    adapt_events: list[AdaptEvent]
    timeseries: list[TimeWindowRow]
    summary: Summary
    arrivals: list[float]
    spawned: int
    elapsed_ms: float
    out_dir: Optional[str] = None

    def round_trips(self, item_id: str = HOT_ITEM) -> int:
        """Completed O->P->O excursions of one item."""
        trips = 0
        in_p = False
        for ev in self.adapt_events:
            if ev.item_id != item_id:
                continue
            if ev.to_class is _CLASS_P:
                in_p = True
            elif in_p:
                trips += 1
                in_p = False
        return trips


class ExperimentRunner:
    """Executes one EpochProfile against a fresh engine on ``store``, or
    when None on a fresh store from the profile's workload.

    ``tw_ms`` (100 ms when None; finite and > 0) is the run's one window
    width: of the timeseries, of the summary's commit-rate series and, in
    TIME_WINDOW mode, of the controller.  ``op_cost_ms`` (finite and >= 0)
    is the virtual time each read, and each write at submission, costs.
    """

    def __init__(
        self,
        profile: EpochProfile,
        adapt_config: Optional[AdaptationConfig] = None,
        engine_mode: str = "orpe",
        store: Optional[Store] = None,
        op_cost_ms: float = 1.0,
        tw_ms: Optional[float] = None,
    ) -> None:
        self.tw_ms = 100.0 if tw_ms is None else tw_ms
        if not 0 < self.tw_ms < math.inf:
            raise ConfigurationError(f"tw_ms must be a finite number > 0, not {self.tw_ms!r}")
        if not 0 <= op_cost_ms < math.inf:
            raise ConfigurationError(
                f"op_cost_ms must be a finite number >= 0, not {op_cost_ms!r}"
            )
        if engine_mode not in ("orpe", "si_only"):
            raise ConfigurationError(f"unknown engine_mode {engine_mode!r}")
        self.store = store or WORKLOADS[profile.template].store(engine_mode == "si_only")
        if engine_mode == "si_only":  # whoever built the store
            mixed = sorted(i.id for i in self.store.items() if i.static_class is not _CLASS_O)
            if mixed:
                raise ConfigurationError(f"si_only needs every item in O: {', '.join(mixed)}")
        self.profile = profile
        self.op_cost_ms = op_cost_ms
        self.rng = random.Random(profile.seed)
        self.scheduler = Scheduler()
        scheduler = self.scheduler  # the clock must not hold the runner
        self.engine = Engine(self.store, clock=lambda: scheduler.now_ms)
        self.adapt_events: list[AdaptEvent] = []
        self.controller: Optional[Controller] = None
        # si_only: every item in O, whole read sets validated backward, no adaptation.
        if adapt_config is not None and engine_mode == "orpe":
            self.controller = Controller(
                self.store,
                adapt_config,
                reclassify=self.engine.reclassify_item,
                event_sink=self.adapt_events.append,
            )
            self.engine.termination_sinks.append(self.controller.on_txn_termination)
        self.events: list[TerminationRecord] = []
        self.engine.termination_sinks.append(self.events.append)
        adaptable = [item.id for item in self.store.items() if item.adaptable]
        self._watched = adaptable[0] if len(adaptable) == 1 else None
        self.arrivals: list[float] = []
        self._planned = 0
        self._escrow_items: set[str] = set()
        self._samples: list[tuple[float, float, str]] = []
        self._trace_out: Any = None  # the trace file's writer while a run streams to it
        self._trace_rows = 0  # rows written to it so far
        self._ran = False

    # -- session execution --------------------------------------------------

    def _session(
        self,
        txn: Txn,
        template: TxnTemplate,
        dt_ms: float,
        resume: Callable[[ReadOutcome], None],
    ) -> Session:
        # Yields a delay in virtual ms, or None while a lock grant is due.
        engine = self.engine
        op_cost_ms = self.op_cost_ms
        escrow = () if template.read_only else self._escrow_items
        for item_id, delta in template.accesses:
            if delta is not None and item_id in escrow:
                outcome = engine.read_escrow(txn, item_id, delta)
            else:
                outcome = engine.read(txn, item_id, resume)
                if outcome.status is _READ_WAITING:
                    outcome = yield
            if outcome.status is _READ_ABORTED:
                return
            if op_cost_ms > 0:
                txn.service_ms += op_cost_ms
                yield op_cost_ms
        writes: dict[str, WriteIntent] = {}
        if not template.read_only:
            read_set = txn.read_set
            for item_id, delta in template.accesses:
                if delta is None:
                    continue
                value, _, cls = read_set[item_id]
                if cls is _CLASS_R or cls is _CLASS_E:
                    writes[item_id] = _new(WriteIntent, ("delta", delta))
                else:
                    writes[item_id] = _new(WriteIntent, ("absolute", value + delta))
        engine.disconnect(txn)
        if dt_ms > 0:
            yield dt_ms
        if writes and op_cost_ms > 0:
            cost = op_cost_ms * len(writes)
            txn.service_ms += cost
            yield cost
        engine.submit_write_set(txn, writes)
        engine.commit_pipeline(txn)

    def _start(self, row: tuple[float, TxnTemplate, float]) -> Session:
        # An arrival: begin the txn now and hand its session to the scheduler.
        _, template, dt_ms = row
        if self._trace_out is not None and len(self.engine.trace) >= TRACE_CHUNK_ROWS:
            self._drain_trace()
        self.arrivals.append(self.scheduler.now_ms)
        txn = self.engine.begin(read_only=template.read_only)
        resume = self.scheduler.resume  # the continuation must not hold the runner
        session = self._session(txn, template, dt_ms, lambda outcome: resume(session, outcome))
        return session

    def _drain_trace(self) -> None:
        trace = self.engine.trace
        self._trace_out.writerows(trace)
        self._trace_rows += len(trace)
        trace.clear()

    # -- measurement --------------------------------------------------------

    def _boundary(self) -> None:
        now = self.scheduler.now_ms
        if self.controller is not None and self.controller.config.mode is _MODE_TIME_WINDOW:
            self.controller.close_window(now)
        if self._watched is not None:
            cls = self.store.item(self._watched).current_class._value_
            rt = self.controller.rt_est(self._watched) if self.controller else 0.0
        else:
            cls, rt = "-", 0.0
        self._samples.append((now, rt, cls))
        if len(self.events) < self._planned:  # some arrival is due or in flight
            self.scheduler.call_later(self.tw_ms, self._boundary)

    # -- top level -----------------------------------------------------------

    def run(self, out_dir: Optional[str] = None) -> ExperimentResult:
        """Replay the profile once; a runner's engine and store are used up
        by it, so a second call raises RuntimeError."""
        if self._ran:
            raise RuntimeError("an ExperimentRunner runs once; build a new one for another run")
        self._ran = True
        collecting = gc.isenabled()
        gc.disable()  # see the module docstring
        try:
            return self._run(out_dir)
        finally:
            if self.controller is not None:  # break the engine <-> controller cycle
                self.engine.termination_sinks.remove(self.controller.on_txn_termination)
            if collecting:
                gc.enable()

    def _run(self, out_dir: Optional[str]) -> ExperimentResult:
        plan = WORKLOADS[self.profile.template].plan(self.profile, self.rng)
        self._planned = len(plan)
        # E is a static class: no item moves into or out of it.
        self._escrow_items = {i.id for i in self.store.items() if i.static_class is _CLASS_E}
        self.scheduler.call_later(self.tw_ms, self._boundary)
        plan.sort(key=itemgetter(0))  # stable: arrivals due together stay in plan order
        if out_dir is None:
            self.scheduler.run(plan, self._start)
            return self._result(self.engine.trace, None)
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace.csv")
        part_path = trace_path + ".part"
        fh = open(part_path, "w", newline="", encoding="utf-8")
        try:
            with fh:
                self._trace_out = sg.trace_writer(fh)
                self.scheduler.run(plan, self._start)
                self._drain_trace()
            result = self._result(sg.TraceFile(trace_path, self._trace_rows), out_dir)
            os.replace(part_path, trace_path)
        except BaseException:
            with contextlib.suppress(OSError):  # the run's own error is the one to see
                os.remove(part_path)
            raise
        write_outputs(result, out_dir)
        return result

    def _result(
        self, schedule: list[sg.ScheduleEvent] | sg.TraceFile, out_dir: Optional[str]
    ) -> ExperimentResult:
        if len(self.events) < self._planned:
            raise RuntimeError("experiment ended with unterminated transactions")
        if not self.events:
            raise ConfigurationError("profile spawned no transactions")
        # the last termination's integer stamp, or the profile's end if later
        elapsed = max(
            max([int(e.termination_ms) for e in self.events]),
            self.profile.epoch_ms * len(self.profile.lambdas),
        )
        timeseries = metrics.aggregate(
            self.events, self.tw_ms, samples=self._samples, arrivals=self.arrivals
        )
        summary = metrics.summarize(self.events, elapsed, timeseries)
        return ExperimentResult(
            profile=self.profile,
            events=self.events,
            schedule=schedule,
            adapt_events=self.adapt_events,
            timeseries=timeseries,
            summary=summary,
            arrivals=self.arrivals,
            spawned=self._planned,
            elapsed_ms=elapsed,
            out_dir=out_dir,
        )


def run_experiment(
    profile: EpochProfile,
    adapt_config: Optional[AdaptationConfig] = None,
    out_dir: Optional[str] = None,
    **settings: Any,
) -> ExperimentResult:
    """Run ``profile`` once on an ``ExperimentRunner`` built with
    ``settings`` (its keyword arguments and defaults)."""
    return ExperimentRunner(profile, adapt_config, **settings).run(out_dir)


def write_outputs(result: ExperimentResult, out_dir: str) -> None:
    """Write the four CSVs derived from the records: ``terminations.csv``,
    ``timeseries.csv``, ``summary.csv`` and ``adaptation.csv``.  ``trace.csv``
    is written by the run itself, while it replays."""
    os.makedirs(out_dir, exist_ok=True)
    with open(
        os.path.join(out_dir, "terminations.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        metrics.write_terminations_csv(result.events, fh)
    with open(
        os.path.join(out_dir, "timeseries.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        metrics.write_timeseries_csv(result.timeseries, fh)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="", encoding="utf-8") as fh:
        metrics.write_summary_csv(result.summary, fh)
    with open(
        os.path.join(out_dir, "adaptation.csv"), "w", newline="", encoding="utf-8"
    ) as fh:
        metrics.write_adaptation_csv(result.adapt_events, fh)


# -- scripted adaptation scenario ---------------------------------------------


@dataclass
class ScenarioResult:
    window_crs: list[float]
    adapt_events: list[AdaptEvent]
    abort_reasons: dict[int, Optional[str]]
    schedule: list[sg.ScheduleEvent] | sg.TraceFile  # as ExperimentResult.schedule
    events: list[TerminationRecord]


def overload_adaptation_scenario(out_dir: Optional[str] = None) -> ScenarioResult:
    """Scripted fifteen-transaction overload on one adaptable item.

    Ten transactions read the hot item optimistically in the first window;
    one commits and seven fail validation, so the window's commit rate is
    1/8 and the item flips to locking.  The two stragglers then terminate:
    one aborts for the reclassification, the other (which also carries an
    impossible ledger delta) for its constraint.  Three locked updates lift
    the second window to 3/4 (not enough to switch back) and two more make
    the third window 2/2, which restores optimistic control.

    The script is the ``fig7`` workload replayed by ``ExperimentRunner``
    over three empty 100 ms epochs, so ``out_dir`` receives the usual five
    CSVs.
    """
    result = run_experiment(
        EpochProfile(lambdas=(0.0, 0.0, 0.0), template="fig7", epoch_ms=100.0),
        AdaptationConfig(gamma=0.8, delta=0.1),
        out_dir,
        op_cost_ms=0.0,
    )
    abort_reasons = {
        rec.txn_id: (rec.abort_reason.value if rec.abort_reason else None)
        for rec in sorted(result.events, key=lambda rec: rec.txn_id)  # id = slot
    }
    return ScenarioResult(
        [row.cr for row in result.timeseries],
        result.adapt_events,
        abort_reasons,
        result.schedule,
        result.events,
    )
