"""Run-time adaptation of adaptable items between optimistic and locking CC.

Per adaptable item the controller measures the commit rate over time
windows (terminations excluding reclassification aborts in the
denominator) and flips the item's class:

* basic rule: to P when the commit rate falls below gamma - delta, back to
  O when it exceeds gamma + delta;
* barrier rule: additionally estimate the response time as the mean
  read-to-write service time times (wait-queue length + 1); a switch to P
  happens only while the estimate is below the barrier beta, and a low
  commit rate with an estimate above beta forces the item back to O,
  trading aborts for latency.

Two trigger modes: TIME_WINDOW evaluates the rules over each window's
counters when its caller invokes ``close_window`` (the controller has no
window width of its own; an experiment closes a window at every multiple
of its runner's ``tw_ms``); PER_TERMINATION evaluates after every termination over the
running totals, so a burst of aborts keeps weighing the rate down until
enough commits outgrow it.  The controller always runs outside
transactions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .engine import AbortReason, TerminationRecord
from .store import CCClass, Store

# bound once: see the engine module docstring
_ABORT_RECLASSIFICATION = AbortReason.RECLASSIFICATION
_CLASS_O, _CLASS_P = CCClass.O, CCClass.P

RULE_LOW_CR_TO_LOCKING = "low-cr-to-locking"
RULE_HIGH_CR_TO_OPTIMISTIC = "high-cr-to-optimistic"
RULE_BARRIER_EXCEEDED = "barrier-exceeded"

EWMA_WEIGHT = 0.2  # weight of the newest service-time sample


class Mode(Enum):
    TIME_WINDOW = "timewindow"
    PER_TERMINATION = "pertermination"


_MODE_TIME_WINDOW, _MODE_PER_TERMINATION = Mode.TIME_WINDOW, Mode.PER_TERMINATION


@dataclass(frozen=True)
class AdaptationConfig:
    gamma: float  # target commit rate
    delta: float  # hysteresis half-width
    beta: Optional[float] = None  # response-time barrier in ms; None disables
    mode: Mode = Mode.TIME_WINDOW
    switch_back_queue_max: Optional[int] = None  # gate on P->O when set

    def __post_init__(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        if not 0 <= self.delta < self.gamma:
            raise ValueError("delta must be in [0, gamma)")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError("beta must be a finite number > 0")
        if self.switch_back_queue_max is not None and self.switch_back_queue_max < 0:
            raise ValueError("switch_back_queue_max must be >= 0")


@dataclass(frozen=True)
class CostModel:
    r: float  # price per lost transaction
    p: float  # penalty per SLA-violating transaction

    def __post_init__(self) -> None:
        if self.r < 0 or self.p < 0:
            raise ValueError("prices must be non-negative")


@dataclass(frozen=True)
class AdaptEvent:
    time_ms: float
    item_id: str
    from_class: CCClass
    to_class: CCClass
    cr: float
    rt_est: float
    rule: str


@dataclass
class ItemState:
    """Controller state of one adaptable item."""

    committed: int = 0
    terminated: int = 0
    reclass_aborts: int = 0
    cr: float = 1.0  # carried forward over empty windows
    mean_st: float = 0.0
    st_samples: int = 0
    last_queue_len: int = 0


def compute_cr(committed: int, terminated: int, reclass_aborts: int,
               previous: float) -> float:
    """Windowed commit rate; reclassification aborts leave the denominator.

    An empty window carries the previous value forward.
    """
    denominator = terminated - reclass_aborts
    if denominator <= 0:
        return previous
    return committed / denominator


def compute_cr_eff(committed: int, terminated: int) -> float:
    """Effective commit rate: the success ratio users see, reclassification
    aborts included."""
    if terminated <= 0:
        raise ValueError("no terminated transactions")
    return committed / terminated


def estimate_rt(mean_st: float, queue_len: int, current_class: CCClass) -> float:
    """Expected response time: mean service time times (queue length + 1).

    Only meaningful under locking; optimistic items have no wait queue and
    report 0.
    """
    if current_class is not _CLASS_P:
        return 0.0
    return mean_st * (queue_len + 1)


def cost_tradeoff(
    model: CostModel, cr: float, frac_sla_violating: float, tas: float
) -> tuple[float, float]:
    """(abort cost, SLA-penalty cost) for reporting; the controller never
    acts on costs itself."""
    if not 0 <= cr <= 1:
        raise ValueError("cr must be in [0, 1]")
    if not 0 <= frac_sla_violating <= 1:
        raise ValueError("frac_sla_violating must be in [0, 1]")
    ca = model.r * (1.0 - cr) * tas
    cp = model.p * frac_sla_violating * tas
    return ca, cp


class Controller:
    """Feedback controller over all adaptable items of a store.

    Wire ``on_txn_termination`` into the engine's termination sinks and, in
    TIME_WINDOW mode, call ``close_window`` at every boundary.  Switches go
    through ``reclassify`` (normally ``Engine.reclassify_item``) so queued
    readers are handled, and are reported to ``event_sink``.
    """

    def __init__(
        self,
        store: Store,
        config: AdaptationConfig,
        reclassify: Callable[[str, CCClass], None],
        event_sink: Optional[Callable[[AdaptEvent], None]] = None,
    ) -> None:
        self.store = store
        self.config = config
        self.reclassify = reclassify
        self.event_sink = event_sink
        self.states: dict[str, ItemState] = {
            item.id: ItemState() for item in store.items() if item.adaptable
        }

    def current_class(self, item_id: str) -> CCClass:
        return self.store.item(item_id).current_class

    def rt_est(self, item_id: str) -> float:
        state = self.states[item_id]
        return estimate_rt(state.mean_st, state.last_queue_len, self.current_class(item_id))

    # -- measurement -------------------------------------------------------

    def on_txn_termination(self, record: TerminationRecord) -> None:
        """Update the counters of every adaptable item the transaction
        touched; in PER_TERMINATION mode the rules run immediately after."""
        now = record.termination_ms
        snapshots = dict(record.queue_snapshots)
        for item_id, _cls in record.items:
            state = self.states.get(item_id)
            if state is None:
                continue  # statically pinned item
            state.terminated += 1
            if record.outcome == "commit":
                state.committed += 1
            elif record.abort_reason is _ABORT_RECLASSIFICATION:
                state.reclass_aborts += 1
            span = record.read_write_span_ms
            if span is not None and self.current_class(item_id) is _CLASS_P:
                self._observe_service_time(state, span)
            if item_id in snapshots:
                state.last_queue_len = snapshots[item_id]
            if self.config.mode is _MODE_PER_TERMINATION:
                state.cr = compute_cr(
                    state.committed, state.terminated, state.reclass_aborts, state.cr
                )
                self._step(item_id, state, now)

    def _observe_service_time(self, state: ItemState, span_ms: float) -> None:
        if state.st_samples == 0:
            state.mean_st = span_ms
        else:
            state.mean_st = (1.0 - EWMA_WEIGHT) * state.mean_st + EWMA_WEIGHT * span_ms
        state.st_samples += 1

    def close_window(self, now_ms: float) -> None:
        """TIME_WINDOW boundary: refresh every item's commit rate, run the
        rules, reset the window counters."""
        if self.config.mode is not _MODE_TIME_WINDOW:
            raise ValueError("close_window applies to TIME_WINDOW mode only")
        for item_id, state in self.states.items():
            state.cr = compute_cr(
                state.committed, state.terminated, state.reclass_aborts, state.cr
            )
            state.committed = state.terminated = state.reclass_aborts = 0
            self._step(item_id, state, now_ms)

    # -- rules -------------------------------------------------------------

    def _step(self, item_id: str, state: ItemState, now: float) -> None:
        cfg = self.config
        current = self.current_class(item_id)
        rt = estimate_rt(state.mean_st, state.last_queue_len, current)
        low, high = cfg.gamma - cfg.delta, cfg.gamma + cfg.delta
        rule: Optional[str] = None
        target: Optional[CCClass] = None
        if current is _CLASS_O and state.cr < low:
            if cfg.beta is None or rt < cfg.beta:
                rule, target = RULE_LOW_CR_TO_LOCKING, _CLASS_P
        elif current is _CLASS_P:
            if cfg.beta is not None and state.cr < low and rt > cfg.beta:
                rule, target = RULE_BARRIER_EXCEEDED, _CLASS_O
            elif state.cr > high and self._queue_allows_switch_back(state):
                rule, target = RULE_HIGH_CR_TO_OPTIMISTIC, _CLASS_O
        if target is None:
            return
        self.reclassify(item_id, target)
        if target is _CLASS_O:
            state.last_queue_len = 0  # the queue was flushed with the switch
        event = AdaptEvent(now, item_id, current, target, state.cr, rt, rule)
        if self.event_sink is not None:
            self.event_sink(event)

    def _queue_allows_switch_back(self, state: ItemState) -> bool:
        limit = self.config.switch_back_queue_max
        return limit is None or state.last_queue_len <= limit
