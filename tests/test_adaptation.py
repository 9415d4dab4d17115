import math

import pytest

from adaptivecc.adaptation import (
    RULE_BARRIER_EXCEEDED,
    RULE_HIGH_CR_TO_OPTIMISTIC,
    RULE_LOW_CR_TO_LOCKING,
    AdaptationConfig,
    Controller,
    CostModel,
    Mode,
    compute_cr,
    compute_cr_eff,
    cost_tradeoff,
    estimate_rt,
    poisson_pmf,
)
from adaptivecc.engine import AbortReason, TerminationRecord
from adaptivecc.store import CCClass, Store


def make_controller(config, items=("x",)):
    store = Store()
    for item in items:
        store.create_item(item, 0, CCClass.O)
    events = []
    controller = Controller(
        store,
        config,
        reclassify=store.set_current_class,
        event_sink=events.append,
    )
    return store, controller, events


def record(item="x", outcome="commit", reason=None, when=0.0, span=None, queue=None):
    return TerminationRecord(
        txn_id=1,
        outcome=outcome,
        abort_reason=reason,
        arrival_ms=0.0,
        first_read_ms=0.0 if span is not None else None,
        write_submit_ms=span,
        termination_ms=when,
        items=((item, CCClass.O),),
        queue_snapshots={item: queue} if queue is not None else {},
    )


# -- pure measurement functions --------------------------------------------------


def test_compute_cr_examples():
    assert compute_cr(1, 8, 0, previous=1.0) == 0.125
    assert compute_cr(3, 5, 1, previous=1.0) == 0.75
    assert compute_cr(0, 0, 0, previous=0.9) == 0.9  # empty window carries


def test_compute_cr_eff_examples():
    assert compute_cr_eff(3, 5) == 0.6
    assert compute_cr_eff(0, 4) == 0.0
    # without reclassification aborts both rates coincide
    assert compute_cr(3, 5, 0, previous=1.0) == compute_cr_eff(3, 5)
    with pytest.raises(ValueError):
        compute_cr_eff(1, 0)


def test_estimate_rt_examples():
    assert estimate_rt(100.0, 4, CCClass.P) == 500.0
    assert estimate_rt(250.0, 0, CCClass.P) == 250.0
    assert estimate_rt(250.0, 9, CCClass.O) == 0.0


def test_poisson_pmf_values():
    assert math.isclose(poisson_pmf(1.0, 0), math.exp(-1), rel_tol=1e-12)
    assert math.isclose(poisson_pmf(4.0, 2), 8 * math.exp(-4), rel_tol=1e-12)
    total = sum(poisson_pmf(100.0, k) for k in range(0, 400))
    assert abs(total - 1.0) < 1e-9
    with pytest.raises(ValueError):
        poisson_pmf(0.0, 1)
    with pytest.raises(ValueError):
        poisson_pmf(1.0, -1)


def test_cost_tradeoff_examples():
    model = CostModel(r=1.0, p=2.0)
    ca, cp = cost_tradeoff(model, cr=0.6, frac_sla_violating=0.0, tas=100)
    assert ca == 40.0 and cp == 0.0
    assert cost_tradeoff(model, 1.0, 0.5, 100)[0] == 0.0
    assert cost_tradeoff(CostModel(1.0, 0.0), 0.5, 0.9, 100)[1] == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptationConfig(gamma=0.0, delta=0.0)
    with pytest.raises(ValueError):
        AdaptationConfig(gamma=0.8, delta=0.8)
    # settings that would silently switch adaptation off
    for beta in (math.nan, math.inf, 0.0, -5.0):
        with pytest.raises(ValueError, match="beta"):
            AdaptationConfig(gamma=0.9, delta=0.05, beta=beta)
    with pytest.raises(ValueError, match="switch_back_queue_max"):
        AdaptationConfig(gamma=0.9, delta=0.05, switch_back_queue_max=-1)
    assert AdaptationConfig(gamma=0.9, delta=0.05, beta=0.5, switch_back_queue_max=0).beta == 0.5


# -- termination accounting -------------------------------------------------------


def test_termination_counting_by_reason():
    _, controller, _ = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    controller.on_txn_termination(record(outcome="commit"))
    controller.on_txn_termination(record(outcome="abort", reason=AbortReason.RECLASSIFICATION))
    controller.on_txn_termination(record(outcome="abort", reason=AbortReason.CONSTRAINT))
    state = controller.state("x")
    assert (state.committed, state.terminated, state.reclass_aborts) == (1, 3, 1)


def test_statically_pinned_items_are_ignored():
    store = Store()
    store.create_item("locked", 0, CCClass.P)
    controller = Controller(
        store,
        AdaptationConfig(gamma=0.8, delta=0.1),
        reclassify=store.set_current_class,
    )
    assert controller.states == {}
    rec = TerminationRecord(
        txn_id=1,
        outcome="abort",
        abort_reason=AbortReason.VALIDATION,
        arrival_ms=0,
        first_read_ms=None,
        write_submit_ms=None,
        termination_ms=1.0,
        items=(("locked", CCClass.P),),
        queue_snapshots={},
    )
    controller.on_txn_termination(rec)  # silently ignored
    controller.close_window(100.0)
    assert store.item("locked").current_class is CCClass.P


def test_mean_service_time_ewma():
    store, controller, _ = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    store.set_current_class("x", CCClass.P)
    controller.on_txn_termination(record(span=100.0, when=1.0))
    assert controller.state("x").mean_st == 100.0  # first sample taken as-is
    controller.on_txn_termination(record(span=200.0, when=2.0))
    assert controller.state("x").mean_st == pytest.approx(0.8 * 100 + 0.2 * 200)


# -- the switching rules ----------------------------------------------------------


def close_with_counts(controller, committed, terminated, reclass=0, when=100.0):
    state = controller.state("x")
    state.committed, state.terminated, state.reclass_aborts = committed, terminated, reclass
    controller.close_window(when)
    return controller.state("x")


def test_basic_rule_switches_to_locking_on_low_cr():
    store, controller, events = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    close_with_counts(controller, committed=1, terminated=8)
    assert store.item("x").current_class is CCClass.P
    assert events[-1].rule == RULE_LOW_CR_TO_LOCKING
    assert events[-1].cr == 0.125


def test_basic_rule_holds_inside_the_hysteresis_band():
    store, controller, events = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    store.set_current_class("x", CCClass.P)
    close_with_counts(controller, committed=3, terminated=5, reclass=1)  # cr 0.75
    assert store.item("x").current_class is CCClass.P
    assert events == []


def test_basic_rule_switches_back_on_high_cr():
    store, controller, events = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    store.set_current_class("x", CCClass.P)
    close_with_counts(controller, committed=2, terminated=2)
    assert store.item("x").current_class is CCClass.O
    assert events[-1].rule == RULE_HIGH_CR_TO_OPTIMISTIC


def test_barrier_rule_allows_locking_below_beta():
    config = AdaptationConfig(gamma=0.9, delta=0.05, beta=1000.0)
    store, controller, events = make_controller(config)
    state = controller.state("x")
    state.mean_st, state.last_queue_len = 100.0, 4  # rt_est 500 < beta
    close_with_counts(controller, committed=4, terminated=5)  # cr 0.8 < 0.85
    assert store.item("x").current_class is CCClass.P
    assert events[-1].rule == RULE_LOW_CR_TO_LOCKING


def test_barrier_gate_uses_current_rt_estimate():
    config = AdaptationConfig(gamma=0.9, delta=0.05, beta=1000.0)
    store, controller, events = make_controller(config)
    state = controller.state("x")
    state.mean_st, state.last_queue_len = 600.0, 4  # would be 3000 under locking
    close_with_counts(controller, committed=4, terminated=5)
    # the estimate of an optimistic item is 0 < beta, so the switch fires
    assert store.item("x").current_class is CCClass.P


def test_barrier_rule_switches_back_when_estimate_exceeds_beta():
    config = AdaptationConfig(gamma=0.9, delta=0.05, beta=1000.0)
    store, controller, events = make_controller(config)
    store.set_current_class("x", CCClass.P)
    state = controller.state("x")
    state.mean_st, state.last_queue_len = 300.0, 3  # rt_est 1200 > beta
    close_with_counts(controller, committed=4, terminated=5)  # cr 0.8 < 0.85
    assert store.item("x").current_class is CCClass.O
    assert events[-1].rule == RULE_BARRIER_EXCEEDED
    # the queue was flushed with the switch: the estimate drops to 0
    assert controller.rt_est("x") == 0.0


def test_barrier_rule_high_cr_still_restores_optimistic():
    config = AdaptationConfig(gamma=0.9, delta=0.05, beta=1000.0)
    store, controller, events = make_controller(config)
    store.set_current_class("x", CCClass.P)
    close_with_counts(controller, committed=24, terminated=25)  # cr 0.96 > 0.95
    assert store.item("x").current_class is CCClass.O
    assert events[-1].rule == RULE_HIGH_CR_TO_OPTIMISTIC


def test_rule_exclusivity_at_most_one_clause():
    config = AdaptationConfig(gamma=0.9, delta=0.05, beta=1000.0)
    for cls in (CCClass.O, CCClass.P):
        for cr_times_100 in range(0, 101, 5):
            for rt in (0.0, 500.0, 1000.0, 1500.0):
                store, controller, events = make_controller(config)
                if cls is CCClass.P:
                    store.set_current_class("x", CCClass.P)
                state = controller.state("x")
                state.mean_st, state.last_queue_len = rt, 0
                committed = cr_times_100
                close_with_counts(controller, committed, 100)
                assert len(events) <= 1


def test_no_thrash_inside_band():
    store, controller, events = make_controller(AdaptationConfig(gamma=0.8, delta=0.1))
    for committed in (71, 75, 80, 85, 89):  # cr strictly inside (0.7, 0.9)
        close_with_counts(controller, committed, 100)
    assert events == []
    assert store.item("x").current_class is CCClass.O


def test_switch_back_gate_on_queue_length():
    config = AdaptationConfig(gamma=0.8, delta=0.1, switch_back_queue_max=0)
    store, controller, events = make_controller(config)
    store.set_current_class("x", CCClass.P)
    state = controller.state("x")
    state.last_queue_len = 5
    close_with_counts(controller, committed=2, terminated=2)
    assert store.item("x").current_class is CCClass.P  # queue too long to leave P
    state = controller.state("x")
    state.last_queue_len = 0
    close_with_counts(controller, committed=2, terminated=2, when=200.0)
    assert store.item("x").current_class is CCClass.O


def test_per_termination_mode_switches_without_window_boundaries():
    config = AdaptationConfig(gamma=0.8, delta=0.1, mode=Mode.PER_TERMINATION)
    store, controller, events = make_controller(config)
    when = 0.0
    for _ in range(8):
        when += 1.0
        controller.on_txn_termination(
            record(outcome="abort", reason=AbortReason.VALIDATION, when=when)
        )
    assert store.item("x").current_class is CCClass.P
    assert events[-1].rule == RULE_LOW_CR_TO_LOCKING
    # the abort mass keeps weighing the running rate down: 8 commits give
    # 8/16 = 0.5, far from the upper bound
    for _ in range(8):
        when += 1.0
        controller.on_txn_termination(record(outcome="commit", when=when))
    assert store.item("x").current_class is CCClass.P
    # only once commits outgrow the history (cr > 0.9) does O come back
    for _ in range(100):
        when += 1.0
        controller.on_txn_termination(record(outcome="commit", when=when))
    assert store.item("x").current_class is CCClass.O


def test_per_termination_reclass_only_history_carries_cr():
    config = AdaptationConfig(gamma=0.8, delta=0.1, mode=Mode.PER_TERMINATION)
    _, controller, _ = make_controller(config)
    controller.on_txn_termination(
        record(outcome="abort", reason=AbortReason.RECLASSIFICATION, when=1.0)
    )
    # the only termination is excluded from the denominator: carry the start value
    assert controller.state("x").cr == 1.0


def test_commit_rate_is_tracked_per_item():
    # transactions hammering one item must not drag another item's class down
    _, controller, events = make_controller(
        AdaptationConfig(gamma=0.8, delta=0.1), items=("contested", "calm")
    )
    store = controller.store
    for i in range(8):
        outcome = "commit" if i == 0 else "abort"
        reason = None if i == 0 else AbortReason.VALIDATION
        controller.on_txn_termination(record("contested", outcome, reason, when=float(i)))
    for i in range(5):
        controller.on_txn_termination(record("calm", "commit", when=float(i)))
    controller.close_window(100.0)
    assert store.item("contested").current_class is CCClass.P
    assert store.item("calm").current_class is CCClass.O
    assert [e.item_id for e in events] == ["contested"]


def test_txn_touching_both_items_counts_for_both():
    _, controller, _ = make_controller(
        AdaptationConfig(gamma=0.8, delta=0.1), items=("a", "b")
    )
    rec = TerminationRecord(
        txn_id=1,
        outcome="abort",
        abort_reason=AbortReason.VALIDATION,
        arrival_ms=0.0,
        first_read_ms=None,
        write_submit_ms=None,
        termination_ms=1.0,
        items=(("a", CCClass.O), ("b", CCClass.O)),
        queue_snapshots={},
    )
    controller.on_txn_termination(rec)
    assert controller.state("a").terminated == 1
    assert controller.state("b").terminated == 1
