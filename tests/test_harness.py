import csv
import dataclasses
import gc
import math
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from adaptivecc import cli
from adaptivecc.adaptation import AdaptationConfig, Mode
from adaptivecc.engine import AbortReason
from adaptivecc.harness import (
    DECK_MIX,
    WORKLOADS,
    EpochProfile,
    TEMPLATE_TPCC_DECK,
    ConfigurationError,
    ExperimentRunner,
    Workload,
    overload_adaptation_scenario,
    poisson_arrivals,
    run_experiment,
    single_item_store,
    single_item_template,
    tpcc_deck,
    tpcc_store,
    write_outputs,
)
from adaptivecc.simclock import Scheduler
from adaptivecc.store import CCClass, Store, UnknownItemError


def test_poisson_zero_rate_is_empty():
    assert poisson_arrivals(0.0, 1000.0, random.Random(1)) == []


def test_poisson_mean_interarrival():
    rng = random.Random(2)
    times = poisson_arrivals(100.0, 200_000.0, rng)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.05)


def test_poisson_mean_count_statistical_oracle():
    # lam=100 over one second, repeated: the empirical mean count must sit
    # within 1% of 100 (the standard error at this volume is ~0.1)
    reps = 10_000
    total = 0
    for seed in range(reps):
        total += len(poisson_arrivals(100.0, 1000.0, random.Random(seed)))
    assert abs(total / reps - 100.0) < 1.0


def test_arrival_fidelity_within_three_sigma():
    profile = EpochProfile(lambdas=(50.0, 200.0), seed=5)
    rng = random.Random(profile.seed)
    counts = [
        len(poisson_arrivals(lam, profile.epoch_ms, rng)) for lam in profile.lambdas
    ]
    for lam, count in zip(profile.lambdas, counts):
        assert abs(count - lam) <= 3.0 * math.sqrt(lam)


def test_profile_validation():
    with pytest.raises(ConfigurationError):
        EpochProfile(lambdas=(-1.0,))
    with pytest.raises(ConfigurationError):
        EpochProfile(lambdas=(1.0,), dt_min_ms=10, dt_max_ms=5)
    with pytest.raises(ConfigurationError):
        EpochProfile(lambdas=(1.0,), template="nope")


@pytest.mark.parametrize("field", ["lambdas", "dt_min_ms", "dt_max_ms", "epoch_ms"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_profile_refuses_non_finite_values(field, value):
    # inf epochs or rates spun in poisson_arrivals, an inf dt_max re-armed
    # the window boundary without end and a nan epoch reached summarize.
    # Only the profile is built here; none of these may be replayed.
    settings = {"lambdas": (1.0,), "dt_max_ms": 10.0}
    settings[field] = (1.0, value) if field == "lambdas" else value
    with pytest.raises(ConfigurationError, match="finite"):
        EpochProfile(**settings)


@pytest.mark.parametrize("template", sorted(WORKLOADS))
def test_every_workload_plans_deterministically_on_fresh_stores(template):
    workload = WORKLOADS[template]
    profile = EpochProfile(lambdas=(80.0, 40.0), dt_max_ms=20.0, template=template, seed=5)
    times, rows = workload.plan(profile, random.Random(profile.seed))
    rows = list(rows)
    assert rows
    # one row per time, in time order: a missing row would leave a
    # TIME_WINDOW boundary re-arming for ever
    assert [row[0] for row in rows] == times == sorted(times)
    again_times, again_rows = workload.plan(profile, random.Random(profile.seed))
    assert again_times == times and list(again_rows) == rows
    stores = [workload.store(False), workload.store(False)]
    assert all(isinstance(store, Store) for store in stores)
    assert stores[0] is not stores[1]  # no run shares state with another


def test_deck_mix_and_determinism():
    deck = tpcc_deck(random.Random(3))
    assert len(deck) == 100
    counts = Counter(t.name for t in deck)
    assert counts == dict(DECK_MIX)
    again = tpcc_deck(random.Random(3))
    assert [t.name for t in again] == [t.name for t in deck]
    assert again == deck  # amounts included


def test_deck_read_stock_level_is_read_only():
    deck = tpcc_deck(random.Random(4))
    for template in deck:
        if template.name == "read_stock_level":
            assert template.read_only
            assert all(a.delta is None for a in template.accesses)
        else:
            assert not template.read_only


def test_tpcc_store_classes():
    store = tpcc_store()
    assert store.item("Customer").current_class is CCClass.P
    assert store.item("CustomerBalance").current_class is CCClass.R
    assert store.item("StockQuantity").current_class is CCClass.E
    flat = tpcc_store(si_only=True)
    assert all(item.current_class is CCClass.O for item in flat.items())


def test_missing_manifest_items_fail_the_run():
    profile = EpochProfile(lambdas=(50.0,), template=TEMPLATE_TPCC_DECK, seed=1)
    with pytest.raises(UnknownItemError):
        run_experiment(profile, store=single_item_store())


def test_conservation_every_spawn_terminates():
    profile = EpochProfile(lambdas=(120.0, 120.0), dt_min_ms=5, dt_max_ms=50, seed=9)
    result = run_experiment(profile, AdaptationConfig(gamma=0.9, delta=0.05))
    assert result.spawned == len(result.events)
    assert result.spawned > 0


def test_virtual_time_determinism():
    profile = EpochProfile(
        lambdas=(150.0, 150.0), dt_min_ms=10, dt_max_ms=200, seed=31
    )
    config = AdaptationConfig(gamma=0.9, delta=0.05)
    first = run_experiment(profile, config)
    second = run_experiment(profile, config)
    assert first.events == second.events
    assert first.schedule == second.schedule
    assert first.summary == second.summary
    assert first.adapt_events == second.adapt_events


def test_outputs_written(tmp_path):
    profile = EpochProfile(lambdas=(40.0,), seed=2)
    result = run_experiment(
        profile, AdaptationConfig(gamma=0.9, delta=0.05), out_dir=str(tmp_path)
    )
    for name in ("trace.csv", "terminations.csv", "timeseries.csv", "summary.csv", "adaptation.csv"):
        assert (tmp_path / name).exists(), name
    assert result.out_dir == str(tmp_path)


def test_si_only_mode_disables_adaptation_and_forces_o():
    profile = EpochProfile(lambdas=(300.0,), template=TEMPLATE_TPCC_DECK, seed=6)
    result = run_experiment(
        profile, AdaptationConfig(gamma=0.9, delta=0.05), engine_mode="si_only"
    )
    assert result.adapt_events == []
    reasons = {e.abort_reason for e in result.events if e.outcome == "abort"}
    assert reasons <= {AbortReason.VALIDATION}  # pure first-committer-wins conflicts


def test_scenario_shape():
    result = overload_adaptation_scenario()
    assert result.window_crs == [0.125, 0.75, 1.0]
    assert [(ev.from_class.value, ev.to_class.value) for ev in result.adapt_events] == [
        ("O", "P"),
        ("P", "O"),
    ]


def test_constraint_safety_over_full_history():
    # a small stock forces escrow refusals; every install must still satisfy
    # the item constraints at all times
    from adaptivecc.store import Store, Constraint
    from adaptivecc.harness import ExperimentRunner

    store = Store()
    store.create_item("Customer", 1, CCClass.P)
    store.create_item("CustomerCredit", 1, CCClass.P)
    store.create_item("CustomerBalance", 100, CCClass.R, Constraint(lower=-500))
    store.create_item("WarehouseYTD", 0, CCClass.R)
    store.create_item("DistrictYTD", 0, CCClass.R)
    store.create_item("StockQuantity", 60, CCClass.E, Constraint(lower=0, strict_lower=True))
    profile = EpochProfile(lambdas=(200.0,), template=TEMPLATE_TPCC_DECK, seed=13)
    runner = ExperimentRunner(profile, adapt_config=None, store=store)
    installs = []
    original = store.install_version

    def recording_install(item_id, new_value, expected_version=None):
        installs.append((item_id, new_value))
        return original(item_id, new_value, expected_version)

    store.install_version = recording_install
    result = runner.run()
    assert any(e.abort_reason is AbortReason.CONSTRAINT for e in result.events)
    constraints = {item.id: item.constraint for item in store.items()}
    assert installs
    for item_id, value in installs:
        constraint = constraints[item_id]
        if constraint is not None:
            assert constraint.satisfied(value), (item_id, value)


def test_statically_classed_items_never_switch():
    profile = EpochProfile(lambdas=(300.0,), template=TEMPLATE_TPCC_DECK, seed=6)
    result = run_experiment(profile, AdaptationConfig(gamma=0.9, delta=0.05))
    assert result.adapt_events == []  # the deck has no adaptable items
    store = tpcc_store()
    for item in store.items():
        assert item.current_class is item.static_class


def test_scheduler_clamps_past_events_and_until():
    from adaptivecc.simclock import Scheduler

    scheduler = Scheduler()
    seen = []
    scheduler.call_at(50.0, lambda: seen.append(scheduler.now_ms))
    scheduler.call_at(50.0, lambda: scheduler.call_at(10.0, lambda: seen.append(scheduler.now_ms)))
    scheduler.run()
    assert seen == [50.0, 50.0]  # the past-dated event ran at now, not before


def test_bulk_loaded_store_drives_an_experiment():
    # a store the caller built and filled, passed in as ``store=``
    store = Store()
    store.create_item("hot", 0, CCClass.O)
    profile = EpochProfile(lambdas=(50.0,), seed=4)
    result = run_experiment(profile, AdaptationConfig(gamma=0.9, delta=0.05), store=store)
    assert result.spawned == len(result.events) > 0


def test_scenario_trace_replays_the_expected_history_shape():
    result = overload_adaptation_scenario()
    ops = [(ev.txn_id, ev.op, ev.item) for ev in result.schedule]
    # ten optimistic reads of the hot item open the history
    assert [op for op in ops[:11] if op[2] == "hot"] == [
        (i, "r", "hot") for i in range(1, 11)
    ]
    # one commit, seven validation aborts, then the two stragglers in order
    tail = [(ev.txn_id, ev.op, ev.detail) for ev in result.schedule if ev.op in "ca"]
    assert tail[0] == (1, "c", "")
    assert [t[0] for t in tail[1:8]] == [2, 3, 4, 5, 6, 7, 8]
    assert all(t[2] == "validation" for t in tail[1:8])
    assert tail[8] == (10, "a", "reclassification")
    assert tail[9] == (9, "a", "constraint")
    # under locking every transaction locks, reads, writes, commits in turn
    locked = [
        (ev.txn_id, ev.op) for ev in result.schedule if ev.txn_id >= 11
    ]
    for index, txn_id in enumerate((11, 12, 13, 14, 15)):
        assert locked[4 * index : 4 * index + 4] == [
            (txn_id, "l"),
            (txn_id, "r"),
            (txn_id, "w"),
            (txn_id, "c"),
        ]


def test_termination_records_are_immutable_and_hashable():
    records = run_experiment(
        EpochProfile(lambdas=(60.0, 60.0), dt_min_ms=50, dt_max_ms=500, seed=1),
        AdaptationConfig(gamma=0.9, delta=0.05),
    ).events
    assert len({hash(r) for r in records}) == len(records)
    assert all(isinstance(r.queue_snapshots, tuple) for r in records)
    assert any(r.queue_snapshots for r in records), "no lock was released with a queue"


def _config(path="demos/experiment.conf", mode=None):
    # a repository config as (profile, adapt config, runner kwargs), ``mode`` overriding its own
    conf = (Path(__file__).resolve().parent.parent / path).read_text(encoding="utf-8")
    if mode is not None:
        conf += f"\nmode = {mode}\n"
    profile, adapt_config, kwargs = cli.build_run(cli.parse_config(conf))
    del kwargs["out_dir"]
    return profile, adapt_config, kwargs


def _demo_controller_runner():
    profile, adapt_config, kwargs = _config()
    return ExperimentRunner(profile, adapt_config, **kwargs)


def _deck_runner():
    return ExperimentRunner(
        EpochProfile(lambdas=(150.0, 150.0), template=TEMPLATE_TPCC_DECK, seed=7)
    )


@pytest.mark.parametrize(
    "make_runner, streamed",
    [(_deck_runner, False), (_demo_controller_runner, False),
     (_deck_runner, True), (_demo_controller_runner, True)],
    ids=["deck", "controller", "deck_out_dir", "controller_out_dir"],
)
def test_deck_replay_leaves_no_cyclic_garbage(make_runner, streamed, tmp_path):
    # The runner pauses the cyclic collector.  That is memory-neutral only
    # while a replay, and the runner it leaves behind, make no cycles.
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        runner = make_runner()
        result = runner.run(str(tmp_path) if streamed else None)
        assert result.events
        assert len(list(result.schedule)) == len(result.schedule) > 0
        del runner, result
        assert gc.collect() == 0
    finally:
        if collecting:
            gc.enable()


def test_run_restores_the_callers_collector_state():
    profile = EpochProfile(lambdas=(20.0,), template=TEMPLATE_TPCC_DECK, seed=1)
    collecting = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            ExperimentRunner(profile).run()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if collecting else gc.disable)()


def test_si_only_refuses_a_store_with_non_optimistic_items():
    profile = EpochProfile(lambdas=(50.0,), template=TEMPLATE_TPCC_DECK, seed=1)
    with pytest.raises(ConfigurationError, match="Customer"):
        ExperimentRunner(profile, engine_mode="si_only", store=tpcc_store())
    result = ExperimentRunner(
        profile, engine_mode="si_only", store=tpcc_store(si_only=True)
    ).run()
    assert {ev.op for ev in result.schedule} <= {"r", "w", "c", "a"}  # no locks


def test_si_only_refuses_a_workload_store_with_non_optimistic_items():
    # fig7's store factory ignores si_only; its R ledger must be refused, not run.
    profile = EpochProfile(lambdas=(0.0,), template="fig7", epoch_ms=100.0)
    with pytest.raises(ConfigurationError, match="ledger"):
        ExperimentRunner(profile, engine_mode="si_only")


def test_scenario_switch_rates_match_the_timeseries():
    result = overload_adaptation_scenario()
    first, second = result.adapt_events
    assert first.cr == result.window_crs[0]
    assert second.cr == result.window_crs[2]
    assert list(result.abort_reasons) == list(range(1, 16))  # slot order


@pytest.mark.parametrize("controlled", [False, True], ids=["no_controller", "controller"])
def test_a_runner_runs_once(controlled):
    # A second run would replay onto the used engine: without a controller
    # it returned the first run's records mixed into its own, with one it
    # failed only after replaying.  It must refuse before touching the engine.
    adapt_config = AdaptationConfig(gamma=0.9, delta=0.05) if controlled else None
    runner = ExperimentRunner(EpochProfile(lambdas=(20.0,), seed=3), adapt_config)
    first = runner.run()
    records, trace_rows = list(first.events), len(runner.engine.trace)
    with pytest.raises(RuntimeError, match="runs once"):
        runner.run()
    assert first.events == records
    assert len(runner.engine.trace) == trace_rows


@pytest.mark.parametrize("tw_ms", [0, -5, math.nan, math.inf])
@pytest.mark.parametrize("controlled", [False, True], ids=["no_controller", "controller"])
def test_the_runner_refuses_a_window_that_is_not_finite_and_positive(
    tw_ms, controlled, monkeypatch
):
    # A zero or negative window rescheduled its boundary at the same instant
    # forever; nan and inf replayed the whole run, then failed in aggregate.
    def no_replay(self, *args, **kwargs):
        raise AssertionError("the replay started")

    monkeypatch.setattr(Scheduler, "run", no_replay)
    adapt_config = AdaptationConfig(gamma=0.9, delta=0.05) if controlled else None
    with pytest.raises(ConfigurationError, match="tw_ms"):
        run_experiment(EpochProfile(lambdas=(5.0,)), adapt_config, tw_ms=tw_ms)


def test_adaptation_csv_round_trips_an_item_id_with_a_comma(tmp_path):
    result = run_experiment(
        EpochProfile(lambdas=(60.0, 60.0), dt_min_ms=50, dt_max_ms=500, seed=1),
        AdaptationConfig(gamma=0.9, delta=0.05),
    )
    result.adapt_events = [dataclasses.replace(ev, item_id="a,b") for ev in result.adapt_events]
    assert result.adapt_events
    write_outputs(result, str(tmp_path))
    with open(tmp_path / "adaptation.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) == 7 for row in rows)
    assert [(int(row[0]), row[1], row[2], row[3], row[6]) for row in rows] == [
        (int(ev.time_ms), ev.item_id, ev.from_class.value, ev.to_class.value, ev.rule)
        for ev in result.adapt_events
    ]


@pytest.mark.parametrize("op_cost_ms", [-1, -math.inf, math.nan, math.inf])
@pytest.mark.parametrize("controlled", [False, True], ids=["no_controller", "controller"])
def test_the_runner_refuses_an_op_cost_that_is_not_finite_and_non_negative(
    op_cost_ms, controlled, monkeypatch
):
    # inf parked a session at t = inf while the boundary rescheduled itself
    # forever; nan and negative costs replayed with no cost charged.
    def no_replay(self, *args, **kwargs):
        raise AssertionError("the replay started")

    monkeypatch.setattr(Scheduler, "run", no_replay)
    adapt_config = AdaptationConfig(gamma=0.9, delta=0.05) if controlled else None
    with pytest.raises(ConfigurationError, match="op_cost_ms"):
        run_experiment(EpochProfile(lambdas=(5.0,)), adapt_config, op_cost_ms=op_cost_ms)


def test_the_heap_holds_only_in_flight_events_on_a_long_plan():
    # Arrivals are merged from the plan, not pushed up front: a 10k-arrival
    # plan keeps the heap at the few events of the transactions in flight.
    runner = ExperimentRunner(EpochProfile(lambdas=(1000.0,) * 11, seed=3))
    longest = []
    runner.engine.termination_sinks.append(
        lambda record: longest.append(len(runner.scheduler._queue))
    )
    result = runner.run()
    assert result.spawned >= 10_000
    assert max(longest) < 200


class PollingRunner(ExperimentRunner):
    """The oracle of the runner's timeseries: it samples the watched item at
    exactly every multiple of ``tw_ms`` while transactions are due, closing
    the controller's window just before the sample in TIME_WINDOW mode, and
    records no change points."""

    def _note_change(self):
        pass

    def _boundary(self, k):
        pass  # the poll closes the windows

    def _run(self, out_dir):
        self.scheduler.call_at(self.tw_ms, partial(self._poll, 1))
        return super()._run(out_dir)

    def _poll(self, k):
        now = self.scheduler.now_ms
        controller = self.controller
        if controller is not None and controller.config.mode is Mode.TIME_WINDOW:
            controller.close_window(now)
        adaptable = [item.id for item in self.store.items() if item.adaptable]
        if len(adaptable) == 1:
            cls = self.store.item(adaptable[0]).current_class.value
            rt = controller.rt_est(adaptable[0]) if controller else 0.0
        else:
            cls, rt = "-", 0.0
        self._changes.append((now, rt, cls))
        if len(self.events) < len(self.arrivals):
            self.scheduler.call_at((k + 1) * self.tw_ms, partial(self._poll, k + 1))


def _assert_matches_the_poll(profile, adapt_config, tw_ms):
    result = ExperimentRunner(profile, adapt_config, tw_ms=tw_ms).run()
    expected = PollingRunner(profile, adapt_config, tw_ms=tw_ms).run()
    assert result.events == expected.events
    assert result.adapt_events == expected.adapt_events
    assert result.timeseries == expected.timeseries
    if adapt_config is not None and adapt_config.mode is Mode.TIME_WINDOW:
        # every switch happens where a window closes: at an exact multiple
        assert all(ev.time_ms == round(ev.time_ms / tw_ms) * tw_ms for ev in result.adapt_events)
    return result


@pytest.mark.parametrize("beta", [None, 1000.0], ids=["no_barrier", "barrier"])
@pytest.mark.parametrize("mode", [None, Mode.PER_TERMINATION, Mode.TIME_WINDOW],
                         ids=["off", "pertermination", "timewindow"])
@pytest.mark.parametrize("tw_ms", [100.0, 30.3, 7.0, 250.0])
def test_change_points_give_the_rows_of_the_exact_instant_poll(tw_ms, mode, beta):
    # The first four epochs of demos/experiment.conf's ramp: many switches
    # and rt_est changes per run, and window widths that are not binary
    # fractions, so a boundary that drifts off k * tw_ms shows.
    adapt_config = None if mode is None else AdaptationConfig(
        gamma=0.9, delta=0.05, beta=beta, mode=mode
    )
    for seed in range(6):
        profile = EpochProfile(
            lambdas=(13.2, 26.4, 40.0, 53.0), dt_min_ms=100, dt_max_ms=1000, seed=seed
        )
        _assert_matches_the_poll(profile, adapt_config, tw_ms)


@pytest.mark.parametrize("mode", [Mode.PER_TERMINATION, Mode.TIME_WINDOW],
                         ids=["pertermination", "timewindow"])
def test_every_window_row_reads_its_own_end_at_a_width_of_30_3_ms(mode):
    # With the boundary re-armed tw_ms after the last one, float error moved
    # most samples just past their window's end, and 150 of the 273 rows in
    # per-termination mode showed the previous window's rt_est and class.
    profile, adapt_config, _ = _config()
    adapt_config = dataclasses.replace(adapt_config, mode=mode)
    result = _assert_matches_the_poll(profile, adapt_config, 30.3)
    assert len(result.adapt_events) > 10


def _count_call_at(monkeypatch):
    calls = []
    call_at = Scheduler.call_at
    monkeypatch.setattr(
        Scheduler, "call_at", lambda self, when, fn: (calls.append(when), call_at(self, when, fn))
    )
    return calls


@pytest.mark.parametrize("mode", ["off", "pertermination"])
@pytest.mark.parametrize("path", ["bench/deck.conf", "demos/experiment.conf"])
def test_only_a_time_window_controller_schedules_events_of_its_own(path, mode, monkeypatch):
    calls = _count_call_at(monkeypatch)
    profile, adapt_config, kwargs = _config(path, mode)
    runner = ExperimentRunner(profile, adapt_config, **kwargs)
    result = runner.run()
    assert calls == []
    if profile.template == TEMPLATE_TPCC_DECK:  # no watched item: nothing recorded
        assert runner._changes == [] and {row.current_class for row in result.timeseries} == {"-"}


def test_a_time_window_controller_closes_one_window_per_tw_ms_while_txns_are_due(monkeypatch):
    calls = _count_call_at(monkeypatch)
    profile, adapt_config, kwargs = _config(mode="timewindow")
    result = ExperimentRunner(profile, adapt_config, **kwargs).run()
    last = max(record.termination_ms for record in result.events)
    # boundaries at 100, 200, ... up to the first one after the last termination
    assert calls == [100.0 * k for k in range(1, int(last // 100) + 2)]
    assert len(calls) == 83


@pytest.mark.parametrize("mode", [None, Mode.PER_TERMINATION], ids=["off", "pertermination"])
@pytest.mark.parametrize("tw_ms", [1.0, 1000.0])
def test_an_idle_tail_schedules_no_event_at_any_window_width(tw_ms, mode, monkeypatch):
    # One transaction that disconnects for 10^6 ms.  The timeseries still has
    # one row per window by design, so the aggregation is left out here.
    monkeypatch.setitem(WORKLOADS, "idle_tail", Workload(
        WORKLOADS["single_item"].store,
        lambda profile, rng: ([0.0], [(0.0, single_item_template(), 1e6)]),
    ))
    monkeypatch.setattr(ExperimentRunner, "_result", lambda self, schedule, out_dir: None)
    calls = _count_call_at(monkeypatch)
    adapt_config = None if mode is None else AdaptationConfig(gamma=0.9, delta=0.05, mode=mode)
    runner = ExperimentRunner(
        EpochProfile(lambdas=(0.0,), template="idle_tail"), adapt_config, tw_ms=tw_ms
    )
    runner.run()
    assert len(runner.events) == 1 and runner.scheduler.now_ms > 1e6
    assert calls == []


@pytest.mark.parametrize("streamed", [False, True], ids=["in_memory", "out_dir"])
def test_a_plan_that_goes_back_in_time_fails_and_leaves_the_out_dir_as_it_was(
    streamed, monkeypatch, tmp_path
):
    # The runner replays rows in the order the plan yields them and sorts
    # nothing, so disorder must fail loudly instead of replaying silently.
    hot = single_item_template()
    monkeypatch.setitem(WORKLOADS, "backwards", Workload(
        WORKLOADS["single_item"].store,
        lambda profile, rng: ([5.0, 3.0], [(5.0, hot, 0.0), (3.0, hot, 0.0)]),
    ))
    (tmp_path / "trace.csv").write_text("an earlier run's trace\n", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    runner = ExperimentRunner(EpochProfile(lambdas=(0.0,), template="backwards"))
    with pytest.raises(ValueError, match="follows"):
        runner.run(str(tmp_path) if streamed else None)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_the_hot_item_benchmark_keeps_at_most_one_change_point_per_window():
    # bench/hot_w2.conf re-estimates the hot item's rt_est at most
    # terminations, several times per window, but a window reads only the
    # last change point at or before its end.
    profile, adapt_config, kwargs = _config("bench/hot_w2.conf")
    runner = ExperimentRunner(profile, adapt_config, **kwargs)
    result = runner.run()
    assert len(runner._changes) <= len(result.timeseries) + 1
    assert result.timeseries == PollingRunner(profile, adapt_config, **kwargs).run().timeseries
