"""Experiment driver: arrival generation, transaction templates, execution.

A run spawns transactions along a Poisson arrival process held constant
per one-second epoch, executes each against the engine (read phase,
uniform random disconnect, write phase), and feeds the adaptation
controller and metrics collection.  Everything runs on a discrete-event
clock; identical (profile, config, seed) triples replay byte-identically.
Pacing the same event stream against the wall clock is available for
live-throughput demonstrations and changes nothing logically.

Transaction templates are class-agnostic: an access declares the item and
an optional update delta, and the item's current class picks the
mechanism (escrow reservation on E, delta reconciliation on R, absolute
write under lock or validation on P/O).

A replay runs with the cyclic garbage collector paused and restores the
caller's collector state when it ends.  This is safe because a replay
makes no cyclic garbage: records are tuples, each session builds one
resume continuation, and the engine's clock closes over the scheduler, not
the runner.  Reference counting frees everything a replay drops, so a
collector pass would only walk the run's live objects.  Without a
controller, a dropped runner is freed by reference counting too; with one,
engine and controller refer to each other and wait for the collector.
``tests/test_harness.py`` pins this by finding no unreachable objects after
a deck replay run without the collector.
"""

from __future__ import annotations

import gc
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Generator, Optional

from . import metrics, sg
from .adaptation import AdaptationConfig, AdaptEvent, Controller, Mode
from .engine import Engine, ReadOutcome, ReadStatus, TerminationRecord, Txn, WriteIntent
from .metrics import Summary, TimeWindowRow
from .simclock import Scheduler
from .store import CCClass, Constraint, Store

TEMPLATE_SINGLE_ITEM = "single_item"
TEMPLATE_TPCC_DECK = "tpcc_deck"

HOT_ITEM = "hot"

# Seven-epoch arrival-rate profiles used by the long-transaction studies.
W1 = (7, 14, 80, 87, 93, 100, 106)
W2 = (66, 132, 200, 265, 332, 400, 460)

# TPC-C style transaction mix: (template name, count per 100-transaction deck).
DECK_MIX = (
    ("new_order", 42),
    ("payment", 42),
    ("delivery", 4),
    ("credit_check", 4),
    ("update_stock_level", 4),
    ("read_stock_level", 4),
)


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
        if any(lam < 0 for lam in self.lambdas):
            raise ConfigurationError("arrival rates must be non-negative")
        if not 0 <= self.dt_min_ms <= self.dt_max_ms:
            raise ConfigurationError("need 0 <= dt_min <= dt_max")
        if self.template not in (TEMPLATE_SINGLE_ITEM, TEMPLATE_TPCC_DECK):
            raise ConfigurationError(f"unknown template {self.template!r}")
        if self.epoch_ms <= 0:
            raise ConfigurationError("epoch_ms must be positive")


@dataclass(frozen=True)
class Access:
    item: str
    delta: Optional[float] = None  # None: plain read


@dataclass(frozen=True)
class TxnTemplate:
    name: str
    accesses: tuple[Access, ...]
    read_only: bool = False


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
    store.create_item(HOT_ITEM, 0, CCClass.O)
    return store


def tpcc_store(si_only: bool = False) -> Store:
    """Hot-spot rows of the reduced deck, one scalar item each."""
    def cls(c: CCClass) -> CCClass:
        return CCClass.O if si_only else c

    store = Store()
    store.create_item("Customer", 1, cls(CCClass.P))
    store.create_item("CustomerCredit", 1, cls(CCClass.P))
    store.create_item("CustomerBalance", 1000, cls(CCClass.R))
    store.create_item("WarehouseYTD", 0, cls(CCClass.R))
    store.create_item("DistrictYTD", 0, cls(CCClass.R))
    store.create_item(
        "StockQuantity", 100_000, cls(CCClass.E), Constraint(lower=0, strict_lower=True)
    )
    return store


def build_store(template: str, si_only: bool = False) -> Store:
    if template == TEMPLATE_TPCC_DECK:
        return tpcc_store(si_only)
    return single_item_store()  # the hot item is optimistic either way


def _deck_template(name: str, rng: random.Random) -> TxnTemplate:
    if name == "new_order":
        return TxnTemplate(
            "new_order",
            (
                Access("Customer"),
                Access("CustomerCredit"),
                Access("StockQuantity", delta=-rng.randint(1, 10)),
            ),
        )
    if name == "payment":
        amount = rng.randint(1, 100)
        return TxnTemplate(
            "payment",
            (
                Access("Customer"),
                Access("CustomerBalance", delta=-amount),
                Access("WarehouseYTD", delta=amount),
                Access("DistrictYTD", delta=amount),
            ),
        )
    if name == "delivery":
        return TxnTemplate(
            "delivery",
            (Access("Customer"), Access("CustomerBalance", delta=rng.randint(1, 50))),
        )
    if name == "credit_check":
        return TxnTemplate(
            "credit_check",
            (
                Access("Customer"),
                Access("CustomerCredit", delta=1),
                Access("CustomerBalance"),
            ),
        )
    if name == "update_stock_level":
        return TxnTemplate(
            "update_stock_level",
            (Access("StockQuantity", delta=rng.randint(10, 100)),),
        )
    if name == "read_stock_level":
        return TxnTemplate(
            "read_stock_level", (Access("StockQuantity"),), read_only=True
        )
    raise ConfigurationError(f"unknown deck transaction {name!r}")


def tpcc_deck(rng: random.Random) -> list[TxnTemplate]:
    """A shuffled 100-transaction deck with the fixed mix of
    42/42/4/4/4/4 new-order/payment/delivery/credit-check/update-stock/
    read-stock transactions."""
    names = [name for name, count in DECK_MIX for _ in range(count)]
    rng.shuffle(names)
    return [_deck_template(name, rng) for name in names]


def single_item_template() -> TxnTemplate:
    return TxnTemplate("hot_update", (Access(HOT_ITEM, delta=1),))


# -- experiment runner --------------------------------------------------------


@dataclass
class ExperimentResult:
    profile: EpochProfile
    events: list[TerminationRecord]
    schedule: list[sg.ScheduleEvent]
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
            if ev.to_class is CCClass.P:
                in_p = True
            elif in_p:
                trips += 1
                in_p = False
        return trips


_WAIT = ("wait",)


class ExperimentRunner:
    """Executes one EpochProfile against a fresh store and engine."""

    def __init__(
        self,
        profile: EpochProfile,
        adapt_config: Optional[AdaptationConfig] = None,
        engine_mode: str = "orpe",
        store: Optional[Store] = None,
        op_cost_ms: float = 1.0,
        paced: bool = False,
        tw_ms: Optional[float] = None,
    ) -> None:
        if engine_mode not in ("orpe", "si_only"):
            raise ConfigurationError(f"unknown engine_mode {engine_mode!r}")
        self.profile = profile
        self.engine_mode = engine_mode
        self.op_cost_ms = op_cost_ms
        self.rng = random.Random(profile.seed)
        self.scheduler = Scheduler(paced=paced)
        self.store = store or build_store(profile.template, engine_mode == "si_only")
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
        if tw_ms is not None:
            self.tw_ms = tw_ms
        else:
            self.tw_ms = adapt_config.tw_ms if adapt_config is not None else 100.0
        self.events: list[TerminationRecord] = []
        self.engine.termination_sinks.append(self.events.append)
        adaptable = [item.id for item in self.store.items() if item.adaptable]
        self._watched = adaptable[0] if len(adaptable) == 1 else None
        self.arrivals: list[float] = []
        self._generators: dict[int, Generator] = {}
        self._active = 0
        self._spawn_remaining = 0
        self._samples: list[tuple[float, float, str]] = []

    # -- planning ---------------------------------------------------------

    def _plan(self) -> list[tuple[float, TxnTemplate, float]]:
        profile = self.profile
        plan: list[tuple[float, TxnTemplate, float]] = []
        times: list[float] = []
        for index, lam in enumerate(profile.lambdas):
            start = index * profile.epoch_ms
            times.extend(start + t for t in poisson_arrivals(lam, profile.epoch_ms, self.rng))
        deck: list[TxnTemplate] = []
        for t in times:
            if profile.template == TEMPLATE_TPCC_DECK:
                if not deck:
                    deck = tpcc_deck(self.rng)
                template = deck.pop(0)
            else:
                template = single_item_template()
            dt = (
                self.rng.uniform(profile.dt_min_ms, profile.dt_max_ms)
                if profile.dt_max_ms > 0
                else 0.0
            )
            plan.append((t, template, dt))
        return plan

    # -- session execution --------------------------------------------------

    def _session(
        self, txn: Txn, template: TxnTemplate, dt_ms: float
    ) -> Generator[tuple, object, None]:
        engine = self.engine
        resume = partial(self._resume, txn.txn_id)
        for access in template.accesses:
            current = self.store.item(access.item).current_class
            if (
                access.delta is not None
                and current is CCClass.E
                and not template.read_only
            ):
                outcome = engine.read_escrow(txn, access.item, access.delta)
            else:
                outcome = engine.read(txn, access.item, on_complete=resume)
                if outcome.status is ReadStatus.WAITING:
                    outcome = yield _WAIT
            if outcome.status is ReadStatus.ABORTED:
                return
            if self.op_cost_ms > 0:
                txn.service_ms += self.op_cost_ms
                yield ("sleep", self.op_cost_ms)
        writes: dict[str, WriteIntent] = {}
        if not template.read_only:
            for access in template.accesses:
                if access.delta is None:
                    continue
                record = txn.read_set[access.item]
                if record.class_at_read in (CCClass.R, CCClass.E):
                    writes[access.item] = WriteIntent.delta(access.delta)
                else:
                    writes[access.item] = WriteIntent.absolute(
                        record.value + access.delta
                    )
        engine.disconnect(txn)
        if dt_ms > 0:
            yield ("sleep", dt_ms)
        if writes and self.op_cost_ms > 0:
            cost = self.op_cost_ms * len(writes)
            txn.service_ms += cost
            yield ("sleep", cost)
        engine.submit_write_set(txn, writes)
        engine.commit_pipeline(txn)

    def _resume(self, txn_id: int, outcome: ReadOutcome) -> None:
        # Re-enter the session on a fresh event, never synchronously.
        self.scheduler.call_at(self.scheduler.now_ms, partial(self._advance, txn_id, outcome))

    def _spawn(self, template: TxnTemplate, dt_ms: float) -> None:
        self._spawn_remaining -= 1
        self._active += 1
        self.arrivals.append(self.scheduler.now_ms)
        txn = self.engine.begin(read_only=template.read_only)
        gen = self._session(txn, template, dt_ms)
        self._generators[txn.txn_id] = gen
        self._advance(txn.txn_id, None)

    def _advance(self, txn_id: int, value: object) -> None:
        gen = self._generators.get(txn_id)
        if gen is None:
            return
        try:
            command = gen.send(value)
        except StopIteration:
            del self._generators[txn_id]
            self._active -= 1
            return
        if command[0] == "sleep":
            self.scheduler.call_later(command[1], partial(self._advance, txn_id, None))
        # "wait": the engine continuation resumes the session later.

    # -- measurement --------------------------------------------------------

    def _boundary(self) -> None:
        now = self.scheduler.now_ms
        if self.controller is not None and self.controller.config.mode is Mode.TIME_WINDOW:
            self.controller.close_window(now)
        if self._watched is not None:
            cls = self.store.item(self._watched).current_class.value
            rt = self.controller.rt_est(self._watched) if self.controller else 0.0
        else:
            cls, rt = "-", 0.0
        self._samples.append((now, rt, cls))
        if self._spawn_remaining > 0 or self._active > 0:
            self.scheduler.call_later(self.tw_ms, self._boundary)

    # -- top level -----------------------------------------------------------

    def run(self, out_dir: Optional[str] = None) -> ExperimentResult:
        collecting = gc.isenabled()
        gc.disable()  # see the module docstring
        try:
            return self._run(out_dir)
        finally:
            if collecting:
                gc.enable()

    def _run(self, out_dir: Optional[str]) -> ExperimentResult:
        plan = self._plan()
        self._spawn_remaining = len(plan)
        for when, template, dt in plan:
            self.scheduler.call_at(when, partial(self._spawn, template, dt))
        self.scheduler.call_later(self.tw_ms, self._boundary)
        self.scheduler.run()
        if self._active or self._spawn_remaining:
            raise RuntimeError("experiment ended with unterminated transactions")
        if not self.events:
            raise ConfigurationError("profile spawned no transactions")
        elapsed = max(
            [e.time_ms for e in self.events] + [self.profile.epoch_ms * len(self.profile.lambdas)]
        )
        timeseries = metrics.aggregate(
            self.events, self.tw_ms, samples=self._samples, arrivals=self.arrivals
        )
        summary = metrics.summarize(self.events, elapsed, self.tw_ms)
        result = ExperimentResult(
            profile=self.profile,
            events=self.events,
            schedule=self.engine.trace,
            adapt_events=self.adapt_events,
            timeseries=timeseries,
            summary=summary,
            arrivals=self.arrivals,
            spawned=len(plan),
            elapsed_ms=elapsed,
            out_dir=out_dir,
        )
        if out_dir is not None:
            write_outputs(result, out_dir)
        return result


def run_experiment(
    profile: EpochProfile,
    adapt_config: Optional[AdaptationConfig] = None,
    engine_mode: str = "orpe",
    store: Optional[Store] = None,
    out_dir: Optional[str] = None,
    op_cost_ms: float = 1.0,
    paced: bool = False,
    tw_ms: Optional[float] = None,
) -> ExperimentResult:
    runner = ExperimentRunner(
        profile,
        adapt_config,
        engine_mode=engine_mode,
        store=store,
        op_cost_ms=op_cost_ms,
        paced=paced,
        tw_ms=tw_ms,
    )
    return runner.run(out_dir=out_dir)


def write_outputs(result: ExperimentResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace.csv"), "w", newline="", encoding="utf-8") as fh:
        sg.write_trace_csv(result.schedule, fh)
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
        fh.write("time_ms,item,from_class,to_class,cr,rt_est,rule\r\n")
        for ev in result.adapt_events:
            fh.write(
                f"{int(ev.time_ms)},{ev.item_id},{ev.from_class.value},"
                f"{ev.to_class.value},{ev.cr:.6f},{ev.rt_est:.3f},{ev.rule}\r\n"
            )


# -- scripted adaptation scenario ---------------------------------------------


@dataclass
class ScenarioResult:
    window_crs: list[float]
    adapt_events: list[AdaptEvent]
    abort_reasons: dict[int, Optional[str]]
    schedule: list[sg.ScheduleEvent]
    events: list[TerminationRecord]


def overload_adaptation_scenario(out_dir: Optional[str] = None) -> ScenarioResult:
    """Scripted ten-transaction overload on one adaptable item.

    Ten transactions read the hot item optimistically in the first window;
    one commits and seven fail validation, so the window's commit rate is
    1/8 and the item flips to locking.  The two stragglers then terminate:
    one aborts for the reclassification, the other (which also carries an
    impossible ledger delta) for its constraint.  Three locked updates lift
    the second window to 3/4 (not enough to switch back) and two more make
    the third window 2/2, which restores optimistic control.
    """
    store = Store()
    store.create_item(HOT_ITEM, 0, CCClass.O)
    store.create_item("ledger", 5, CCClass.R, Constraint(lower=0))
    scheduler = Scheduler()
    engine = Engine(store, clock=lambda: scheduler.now_ms)
    config = AdaptationConfig(gamma=0.8, delta=0.1, tw_ms=100.0)
    adapt_events: list[AdaptEvent] = []
    controller = Controller(
        store,
        config,
        reclassify=engine.reclassify_item,
        event_sink=adapt_events.append,
    )
    engine.termination_sinks.append(controller.on_txn_termination)

    events: list[TerminationRecord] = []
    engine.termination_sinks.append(events.append)

    txns: dict[int, Txn] = {}

    def arrive(slot: int, read_ledger: bool = False) -> None:
        txn = engine.begin()
        txns[slot] = txn
        engine.read(txn, HOT_ITEM)
        if read_ledger:
            engine.read(txn, "ledger")
        engine.disconnect(txn)

    def write_hot(slot: int, extra: Optional[dict[str, WriteIntent]] = None) -> None:
        txn = txns[slot]
        record = txn.read_set[HOT_ITEM]
        writes = {HOT_ITEM: WriteIntent.absolute(record.value + 1)}
        if extra:
            writes.update(extra)
        engine.submit_write_set(txn, writes)
        engine.commit_pipeline(txn)

    def locked_update(slot: int) -> None:
        txn = engine.begin()
        txns[slot] = txn
        outcome = engine.read(txn, HOT_ITEM)
        assert outcome.status is ReadStatus.DONE, "scripted reads never queue"
        engine.disconnect(txn)
        engine.submit_write_set(
            txn, {HOT_ITEM: WriteIntent.absolute(outcome.value + 1)}
        )
        engine.commit_pipeline(txn)

    window_crs: list[float] = []

    def close_window() -> None:
        controller.close_window(scheduler.now_ms)
        window_crs.append(controller.state(HOT_ITEM).cr)

    for slot in range(1, 11):
        scheduler.call_at(slot, lambda s=slot: arrive(s, read_ledger=(s == 9)))
    scheduler.call_at(20.0, lambda: write_hot(1))
    for slot in range(2, 9):
        scheduler.call_at(25.0 + 10.0 * (slot - 2), lambda s=slot: write_hot(s))
    scheduler.call_at(100.0, close_window)
    scheduler.call_at(110.0, lambda: write_hot(10))
    scheduler.call_at(
        115.0, lambda: write_hot(9, extra={"ledger": WriteIntent.delta(-10)})
    )
    for index, slot in enumerate((11, 12, 13)):
        scheduler.call_at(120.0 + 20.0 * index, lambda s=slot: locked_update(s))
    scheduler.call_at(200.0, close_window)
    for index, slot in enumerate((14, 15)):
        scheduler.call_at(210.0 + 30.0 * index, lambda s=slot: locked_update(s))
    scheduler.call_at(300.0, close_window)
    scheduler.run()

    abort_reasons = {
        slot: (txn.abort_reason.value if txn.abort_reason else None)
        for slot, txn in txns.items()
    }
    result = ScenarioResult(window_crs, adapt_events, abort_reasons, engine.trace, events)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trace.csv"), "w", newline="", encoding="utf-8") as fh:
            sg.write_trace_csv(engine.trace, fh)
    return result
