import random

import pytest

from adaptivecc.engine import (
    AbortReason,
    BlindWriteError,
    Engine,
    IntentError,
    Phase,
    PhaseError,
    ReadOutcome,
    ReadRecord,
    ReadStatus,
    TerminationRecord,
    WriteIntent,
)
from adaptivecc.locks import AcquireStatus, Grant, LockManager
from adaptivecc.sg import build_serialization_graph, find_cycle
from adaptivecc.store import CCClass, Constraint, Store


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make_engine(items):
    """items: list of (id, value, class, constraint?)"""
    store = Store()
    for spec in items:
        store.create_item(*spec)
    clock = ManualClock()
    return Engine(store, clock=clock), clock


def run_to_commit(engine, txn, writes):
    engine.disconnect(txn)
    engine.submit_write_set(txn, writes)
    return engine.commit_pipeline(txn)


# -- lifecycle basics ----------------------------------------------------------


def test_begin_assigns_distinct_ids_and_reading_phase():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    a, b = engine.begin(), engine.begin(read_only=True)
    assert a.txn_id != b.txn_id
    assert a.phase is Phase.READING
    assert b.read_only


def test_optimistic_read_records_without_locking():
    engine, _ = make_engine([("x", 10, CCClass.O)])
    txn = engine.begin()
    outcome = engine.read(txn, "x")
    assert (outcome.value, outcome.version) == (10, 1)
    assert txn.read_set["x"].class_at_read is CCClass.O
    assert engine.locks.holder("x") is None


def test_pessimistic_read_waits_for_holder():
    engine, _ = make_engine([("x", 10, CCClass.P)])
    first, second = engine.begin(), engine.begin()
    assert engine.read(first, "x").status is ReadStatus.DONE
    resumed = []
    outcome = engine.read(second, "x", on_complete=resumed.append)
    assert outcome.status is ReadStatus.WAITING
    assert resumed == []
    run_to_commit(engine, first, {"x": WriteIntent.absolute(11)})
    assert len(resumed) == 1
    assert resumed[0].status is ReadStatus.DONE
    assert resumed[0].value == 11  # the waiter reads the committed install
    assert engine.locks.holder("x") == second.txn_id


def test_wait_cycle_aborts_the_requester():
    engine, _ = make_engine([("x", 0, CCClass.P), ("y", 0, CCClass.P)])
    t1, t2 = engine.begin(), engine.begin()
    engine.read(t1, "x")
    engine.read(t2, "y")
    assert engine.read(t2, "x").status is ReadStatus.WAITING
    outcome = engine.read(t1, "y")
    assert outcome.status is ReadStatus.ABORTED
    assert outcome.abort_reason is AbortReason.DEADLOCK
    assert t1.phase is Phase.ABORTED
    # t1's termination hands x to the queued t2
    assert engine.locks.holder("x") == t2.txn_id


def test_read_only_txn_never_locks():
    engine, _ = make_engine([("x", 5, CCClass.P)])
    owner = engine.begin()
    engine.read(owner, "x")
    reader = engine.begin(read_only=True)
    outcome = engine.read(reader, "x")
    assert outcome.status is ReadStatus.DONE
    engine.disconnect(reader)
    engine.submit_write_set(reader, {})
    assert engine.commit_pipeline(reader) == (Phase.COMMITTED, None)


def test_escrow_read_grant_and_refusal():
    engine, _ = make_engine(
        [("stock", 10, CCClass.E, Constraint(lower=0, strict_lower=True))]
    )
    a = engine.begin()
    assert engine.read_escrow(a, "stock", -4).granted
    b = engine.begin()
    assert engine.read_escrow(b, "stock", -5).granted
    c = engine.begin()
    outcome = engine.read_escrow(c, "stock", -3)
    assert outcome.status is ReadStatus.ABORTED
    assert outcome.abort_reason is AbortReason.CONSTRAINT
    assert c.phase is Phase.ABORTED
    d = engine.begin()
    assert engine.read_escrow(d, "stock", 2).granted


def test_escrow_guarantee_holds_through_commit():
    engine, _ = make_engine(
        [("stock", 10, CCClass.E, Constraint(lower=0, strict_lower=True))]
    )
    a, b = engine.begin(), engine.begin()
    engine.read_escrow(a, "stock", -4)
    engine.read_escrow(b, "stock", -5)
    assert run_to_commit(engine, b, {"stock": WriteIntent.delta(-5)})[0] is Phase.COMMITTED
    assert run_to_commit(engine, a, {"stock": WriteIntent.delta(-4)})[0] is Phase.COMMITTED
    assert engine.store.read_committed("stock")[0] == 1


def test_disconnect_phase_rules():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.disconnect(txn)
    assert txn.phase is Phase.DISCONNECTED
    with pytest.raises(PhaseError):
        engine.disconnect(txn)
    with pytest.raises(PhaseError):
        engine.read(txn, "x")


def test_blind_write_rejected():
    engine, _ = make_engine([("x", 0, CCClass.O), ("y", 0, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.disconnect(txn)
    with pytest.raises(BlindWriteError):
        engine.submit_write_set(txn, {"y": WriteIntent.absolute(1)})


def test_intent_kind_must_match_class():
    engine, _ = make_engine([("x", 0, CCClass.O), ("acct", 0, CCClass.R)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.read(txn, "acct")
    engine.disconnect(txn)
    with pytest.raises(IntentError):
        engine.submit_write_set(txn, {"x": WriteIntent.delta(1)})
    with pytest.raises(IntentError):
        engine.submit_write_set(txn, {"acct": WriteIntent.absolute(1)})


def test_escrow_write_requires_matching_reservation():
    engine, _ = make_engine([("stock", 10, CCClass.E, Constraint(lower=0))])
    txn = engine.begin()
    engine.read_escrow(txn, "stock", -4)
    engine.disconnect(txn)
    with pytest.raises(IntentError):
        engine.submit_write_set(txn, {"stock": WriteIntent.delta(-6)})


def test_empty_write_set_degenerates_to_read_only_commit():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.disconnect(txn)
    engine.submit_write_set(txn, {})
    assert engine.commit_pipeline(txn) == (Phase.COMMITTED, None)


# -- the incompatible schedule -------------------------------------------------


def test_stale_optimistic_read_fails_validation():
    # Txn i reads o optimistically; txn j locks p, overwrites o, and commits;
    # i then locks p and tries to write it, but its stale read of o aborts it.
    engine, _ = make_engine([("o", 0, CCClass.O), ("p", 0, CCClass.P)])
    i, j = engine.begin(), engine.begin()
    assert engine.read(i, "o").status is ReadStatus.DONE
    assert engine.read(j, "p").status is ReadStatus.DONE
    assert engine.read(j, "o").status is ReadStatus.DONE
    assert run_to_commit(engine, j, {"o": WriteIntent.absolute(1)})[0] is Phase.COMMITTED
    assert engine.read(i, "p").status is ReadStatus.DONE  # lock free after c_j
    phase, reason = run_to_commit(engine, i, {"p": WriteIntent.absolute(1)})
    assert phase is Phase.ABORTED
    assert reason is AbortReason.VALIDATION
    graph = build_serialization_graph(engine.trace)
    assert find_cycle(graph) is None


def test_single_txn_commits():
    engine, _ = make_engine([("x", 10, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    phase, reason = run_to_commit(engine, txn, {"x": WriteIntent.absolute(30)})
    assert (phase, reason) == (Phase.COMMITTED, None)
    assert engine.store.read_committed("x") == (30, 2)


def test_concurrent_reconciled_deltas_both_commit():
    engine, _ = make_engine([("acct", 10, CCClass.R)])
    a, b = engine.begin(), engine.begin()
    engine.read(a, "acct")
    engine.read(b, "acct")
    assert run_to_commit(engine, a, {"acct": WriteIntent.delta(20)})[0] is Phase.COMMITTED
    assert run_to_commit(engine, b, {"acct": WriteIntent.delta(-10)})[0] is Phase.COMMITTED
    assert engine.store.read_committed("acct")[0] == 20


# -- aborts ---------------------------------------------------------------------


def test_abort_during_reading_leaves_store_untouched():
    engine, _ = make_engine([("x", 10, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    assert engine.abort(txn) is True
    assert engine.store.read_committed("x") == (10, 1)
    assert txn.phase is Phase.ABORTED


def test_abort_releases_escrow_reservation():
    engine, _ = make_engine([("stock", 10, CCClass.E, Constraint(lower=0, strict_lower=True))])
    a = engine.begin()
    engine.read_escrow(a, "stock", -9)
    blocked = engine.begin()
    assert engine.read_escrow(blocked, "stock", -3).status is ReadStatus.ABORTED
    engine.abort(a)
    retry = engine.begin()
    assert engine.read_escrow(retry, "stock", -3).granted


def test_abort_of_terminated_txn_is_a_noop_flag():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    run_to_commit(engine, txn, {})
    assert engine.abort(txn) is False
    assert txn.phase is Phase.COMMITTED


def test_aborted_txn_installs_nothing_anywhere():
    engine, _ = make_engine(
        [("x", 5, CCClass.O), ("acct", 5, CCClass.R, Constraint(lower=0))]
    )
    txn = engine.begin()
    engine.read(txn, "x")
    engine.read(txn, "acct")
    phase, reason = run_to_commit(
        engine,
        txn,
        {"x": WriteIntent.absolute(6), "acct": WriteIntent.delta(-10)},
    )
    assert (phase, reason) == (Phase.ABORTED, AbortReason.CONSTRAINT)
    assert engine.store.read_committed("x") == (5, 1)
    assert engine.store.read_committed("acct") == (5, 1)


# -- reclassification ----------------------------------------------------------


def test_read_under_o_write_under_p_aborts_with_reclassification():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.reclassify_item("x", CCClass.P)
    phase, reason = run_to_commit(engine, txn, {"x": WriteIntent.absolute(1)})
    assert (phase, reason) == (Phase.ABORTED, AbortReason.RECLASSIFICATION)


def test_constraint_violation_outranks_reclassification():
    # A txn holding a stale optimistic read of a reclassified item aborts
    # for its impossible ledger delta, not for the reclassification.
    engine, _ = make_engine(
        [("x", 0, CCClass.O), ("ledger", 5, CCClass.R, Constraint(lower=0))]
    )
    txn = engine.begin()
    engine.read(txn, "x")
    engine.read(txn, "ledger")
    engine.reclassify_item("x", CCClass.P)
    phase, reason = run_to_commit(
        engine,
        txn,
        {"x": WriteIntent.absolute(1), "ledger": WriteIntent.delta(-10)},
    )
    assert (phase, reason) == (Phase.ABORTED, AbortReason.CONSTRAINT)


def test_read_under_p_write_under_o_is_guaranteed():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    engine.reclassify_item("x", CCClass.P)
    holder = engine.begin()
    assert engine.read(holder, "x").status is ReadStatus.DONE
    engine.reclassify_item("x", CCClass.O)
    phase, reason = run_to_commit(engine, holder, {"x": WriteIntent.absolute(7)})
    assert (phase, reason) == (Phase.COMMITTED, None)
    assert engine.store.read_committed("x")[0] == 7


def test_residual_lock_blocks_optimistic_installs():
    # While a pre-switch lock holder is still in flight, an optimistic
    # writer must not install over the guaranteed write.
    engine, _ = make_engine([("x", 0, CCClass.O)])
    engine.reclassify_item("x", CCClass.P)
    holder = engine.begin()
    engine.read(holder, "x")
    engine.reclassify_item("x", CCClass.O)
    optimist = engine.begin()
    engine.read(optimist, "x")
    phase, reason = run_to_commit(engine, optimist, {"x": WriteIntent.absolute(99)})
    assert (phase, reason) == (Phase.ABORTED, AbortReason.VALIDATION)
    assert run_to_commit(engine, holder, {"x": WriteIntent.absolute(7)})[0] is Phase.COMMITTED
    graph = build_serialization_graph(engine.trace)
    assert find_cycle(graph) is None


def test_switch_to_optimistic_flushes_waiters():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    engine.reclassify_item("x", CCClass.P)
    holder, waiter = engine.begin(), engine.begin()
    engine.read(holder, "x")
    resumed = []
    assert engine.read(waiter, "x", on_complete=resumed.append).status is ReadStatus.WAITING
    engine.reclassify_item("x", CCClass.O)
    assert len(resumed) == 1
    assert resumed[0].status is ReadStatus.DONE
    assert waiter.read_set["x"].class_at_read is CCClass.O
    assert engine.locks.holder("x") == holder.txn_id  # holder keeps its lock


# -- blind-write freedom & linear history sanity --------------------------------


def test_every_install_has_a_prior_read_random_histories():
    rng = random.Random(123)
    for _ in range(50):
        engine, _ = make_engine(
            [("a", 0, CCClass.O), ("b", 0, CCClass.R), ("c", 0, CCClass.P)]
        )
        txns = []
        for _ in range(6):
            txn = engine.begin()
            reads = rng.sample(["a", "b", "c"], rng.randint(1, 3))
            ok = True
            for item in reads:
                if engine.read(txn, item).status is not ReadStatus.DONE:
                    ok = False
                    break
            if not ok:
                continue
            writes = {}
            for item in reads:
                if rng.random() < 0.6:
                    if item == "b":
                        writes[item] = WriteIntent.delta(rng.randint(-3, 3))
                    else:
                        writes[item] = WriteIntent.absolute(rng.randint(0, 9))
            engine.disconnect(txn)
            engine.submit_write_set(txn, writes)
            engine.commit_pipeline(txn)
            txns.append(txn)
        reads_by_txn = {}
        writes_by_txn = {}
        for ev in engine.trace:
            if ev.op == "r":
                reads_by_txn.setdefault(ev.txn_id, set()).add(ev.item)
            elif ev.op == "w":
                writes_by_txn.setdefault(ev.txn_id, set()).add(ev.item)
        for txn_id, written in writes_by_txn.items():
            assert written <= reads_by_txn.get(txn_id, set())


def test_serialization_stays_acyclic_under_reclassification():
    # the randomized workloads flip adaptable items between O and P mid-run
    from microworkload import run_micro_workload

    for seed in range(1500):
        engine = run_micro_workload(seed, allow_reclass=True)
        graph = build_serialization_graph(engine.trace)
        assert find_cycle(graph) is None, f"cycle with reclassification, seed {seed}"


def test_the_engine_never_asks_for_a_lock_while_a_txn_waits(monkeypatch):
    # The lock manager raises on any request from a txn that already waits;
    # the engine's admission check (no read while waiting_on is set) must
    # keep it from ever making one, reclassification flushes included.
    from microworkload import run_micro_workload

    txns, statuses = {}, []
    begin, acquire = Engine.begin, LockManager.acquire

    def recording_begin(self, read_only=False):
        txn = begin(self, read_only)
        txns[txn.txn_id] = txn
        return txn

    def checked_acquire(self, txn_id, item_id):
        assert txns[txn_id].waiting_on is None, f"txn {txn_id} waits, then asks for {item_id}"
        status = acquire(self, txn_id, item_id)
        statuses.append(status)
        return status

    monkeypatch.setattr(Engine, "begin", recording_begin)
    monkeypatch.setattr(LockManager, "acquire", checked_acquire)
    for seed in range(300):
        txns.clear()
        run_micro_workload(seed, allow_reclass=True)
    assert AcquireStatus.QUEUED in statuses and AcquireStatus.DEADLOCK_REFUSED in statuses


def test_read_unknown_item():
    from adaptivecc.store import UnknownItemError

    engine, _ = make_engine([("x", 0, CCClass.O)])
    txn = engine.begin()
    with pytest.raises(UnknownItemError):
        engine.read(txn, "ghost")


def test_immediate_write_from_reading_phase():
    # a transaction may skip the disconnect entirely
    engine, _ = make_engine([("x", 1, CCClass.O)])
    txn = engine.begin()
    engine.read(txn, "x")
    engine.submit_write_set(txn, {"x": WriteIntent.absolute(2)})
    assert engine.commit_pipeline(txn) == (Phase.COMMITTED, None)
    assert engine.store.read_committed("x") == (2, 2)


def test_reclassify_pinned_item_rejected():
    from adaptivecc.store import ClassPinningError

    engine, _ = make_engine([("x", 0, CCClass.P)])
    with pytest.raises(ClassPinningError):
        engine.reclassify_item("x", CCClass.O)


def test_submit_while_waiting_rejected():
    engine, _ = make_engine([("x", 0, CCClass.P)])
    holder, waiter = engine.begin(), engine.begin()
    engine.read(holder, "x")
    assert engine.read(waiter, "x").status is ReadStatus.WAITING
    with pytest.raises(PhaseError):
        engine.submit_write_set(waiter, {})
    with pytest.raises(PhaseError):
        engine.disconnect(waiter)


def test_read_while_waiting_rejected():
    # A second read would give the waiter a second wait, and an escrow read
    # would reserve for a transaction that is still blocked.
    engine, _ = make_engine(
        [("x", 0, CCClass.P), ("y", 0, CCClass.P), ("e", 10, CCClass.E, Constraint(lower=0))]
    )
    holder, waiter = engine.begin(), engine.begin()
    engine.read(holder, "x")
    assert engine.read(waiter, "x").status is ReadStatus.WAITING
    with pytest.raises(PhaseError):
        engine.read(waiter, "y")
    with pytest.raises(PhaseError):
        engine.read(waiter, "x")
    with pytest.raises(PhaseError):
        engine.read_escrow(waiter, "e", -3)
    assert engine.escrow.granted_delta("e", waiter.txn_id) is None
    assert "e" not in waiter.read_set
    assert waiter.waiting_on == "x"
    assert engine.locks.holder("y") is None
    assert engine.locks.queue("x") == (waiter.txn_id,)


def test_abort_passes_lock_through_deep_queue_of_dead_waiters():
    engine, _ = make_engine([("x", 0, CCClass.P)])
    holder = engine.begin()
    engine.read(holder, "x")
    for fake_id in range(10_000, 13_000):  # never begun, so never active
        assert engine.locks.acquire(fake_id, "x") is AcquireStatus.QUEUED
    engine.abort(holder)
    assert engine.locks.holder("x") is None
    assert engine.locks.queue_len("x") == 0


# -- termination sinks that raise ----------------------------------------------


def raising_sink(message):
    def sink(_record):
        raise RuntimeError(message)

    return sink


def test_raising_sink_does_not_stop_later_sinks_or_the_hand_over():
    engine, _ = make_engine([("x", 0, CCClass.P)])
    records = []
    engine.termination_sinks[:] = [raising_sink("first"), records.append]
    holder, waiter = engine.begin(), engine.begin()
    engine.read(holder, "x")
    resumed = []
    assert engine.read(waiter, "x", on_complete=resumed.append).status is ReadStatus.WAITING
    engine.disconnect(holder)
    engine.submit_write_set(holder, {"x": WriteIntent.absolute(1)})
    with pytest.raises(RuntimeError, match="first"):
        engine.commit_pipeline(holder)
    assert [r.txn_id for r in records] == [holder.txn_id]
    assert holder.phase is Phase.COMMITTED
    assert engine.locks.holder("x") == waiter.txn_id
    assert [o.value for o in resumed] == [1]


def test_first_of_two_sink_errors_propagates():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    engine.termination_sinks[:] = [raising_sink("first"), raising_sink("second")]
    txn = engine.begin()
    engine.read(txn, "x")
    with pytest.raises(RuntimeError, match="first"):
        run_to_commit(engine, txn, {"x": WriteIntent.absolute(1)})
    assert txn.phase is Phase.COMMITTED


# -- admission: which call each phase allows -----------------------------------


ADMISSION_STATES = ("reading", "waiting", "disconnected", "writing", "committed", "aborted")
ADMISSION_CALLS = {  # name -> (verb of its phase error, the call)
    "read": ("read", lambda engine, txn: engine.read(txn, "o")),
    "read_escrow": ("read", lambda engine, txn: engine.read_escrow(txn, "e", -1)),
    "disconnect": ("disconnect", lambda engine, txn: engine.disconnect(txn)),
    "submit_write_set": ("write", lambda engine, txn: engine.submit_write_set(txn, {})),
}


def txn_in_state(engine, state):
    holder, txn = engine.begin(), engine.begin()
    engine.read(holder, "p")
    if state == "waiting":
        assert engine.read(txn, "p").status is ReadStatus.WAITING
    if state in ("disconnected", "writing", "committed"):
        engine.disconnect(txn)
    if state in ("writing", "committed"):
        engine.submit_write_set(txn, {})
    if state == "committed":
        engine.commit_pipeline(txn)
    if state == "aborted":
        engine.abort(txn)
    return txn


@pytest.mark.parametrize("state", ADMISSION_STATES)
@pytest.mark.parametrize("call", sorted(ADMISSION_CALLS))
def test_admission_matrix(call, state):
    engine, _ = make_engine(
        [("o", 0, CCClass.O), ("p", 0, CCClass.P), ("e", 10, CCClass.E, Constraint(lower=0))]
    )
    txn = txn_in_state(engine, state)
    verb, admit = ADMISSION_CALLS[call]
    if state == "reading" or (state == "disconnected" and call == "submit_write_set"):
        admit(engine, txn)
        return
    if state == "waiting":
        message = f"txn {txn.txn_id} still waits on p"
    else:
        message = f"txn {txn.txn_id} cannot {verb} in phase Phase.{state.upper()}"
    with pytest.raises(PhaseError) as raised:
        admit(engine, txn)
    assert str(raised.value) == message


def raising_continuation(message):
    def resume(_outcome):
        raise RuntimeError(message)

    return resume


def test_raising_continuation_does_not_stop_later_grants_or_the_sinks():
    engine, _ = make_engine([("x", 0, CCClass.P), ("y", 0, CCClass.P)])
    records = []
    engine.termination_sinks[:] = [records.append]
    holder, on_x, on_y = engine.begin(), engine.begin(), engine.begin()
    engine.read(holder, "x")
    engine.read(holder, "y")
    resumed = []
    assert engine.read(on_x, "x", raising_continuation("x")).status is ReadStatus.WAITING
    assert engine.read(on_y, "y", resumed.append).status is ReadStatus.WAITING
    engine.disconnect(holder)
    engine.submit_write_set(holder, {"x": WriteIntent.absolute(1), "y": WriteIntent.absolute(2)})
    with pytest.raises(RuntimeError, match="x"):
        engine.commit_pipeline(holder)
    assert holder.phase is Phase.COMMITTED
    assert [r.txn_id for r in records] == [holder.txn_id]
    for txn, item, value in ((on_x, "x", 1), (on_y, "y", 2)):
        assert engine.locks.holder(item) == txn.txn_id
        assert txn.waiting_on is None
        assert txn.read_set[item].value == value
    assert [o.value for o in resumed] == [2]


def test_raising_continuation_does_not_stop_the_flush():
    engine, _ = make_engine([("x", 0, CCClass.O)])
    engine.reclassify_item("x", CCClass.P)
    holder, first, second = engine.begin(), engine.begin(), engine.begin()
    engine.read(holder, "x")
    resumed = []
    assert engine.read(first, "x", raising_continuation("first")).status is ReadStatus.WAITING
    assert engine.read(second, "x", resumed.append).status is ReadStatus.WAITING
    with pytest.raises(RuntimeError, match="first"):
        engine.reclassify_item("x", CCClass.O)
    assert engine.locks.holder("x") == holder.txn_id
    assert engine.locks.queue_len("x") == 0
    for txn in (first, second):
        assert txn.waiting_on is None
        assert txn.read_set["x"].class_at_read is CCClass.O
    assert [o.status for o in resumed] == [ReadStatus.DONE]


@pytest.mark.parametrize(
    "record",
    [
        ReadOutcome(ReadStatus.DONE, 1, 2),
        ReadRecord(1, 2, CCClass.O),
        WriteIntent.absolute(1),
        WriteIntent.delta(-1),
        Grant("x", 1),
        TerminationRecord(1, "commit", None, 0.0, 1.0, 2.0, 3.0, (("x", CCClass.P),), (("x", 1),)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_are_immutable_and_hashable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert hash(record) == hash(type(record)(*record))


def test_each_reconciled_write_is_constraint_checked_once(monkeypatch):
    # The commit pipeline checks an R delta in _validate; the install that
    # follows in the same call must not run reconcile_check again.  Both
    # module globals are counted: the engine's and the one reconcile_commit
    # would read.
    from adaptivecc import engine as engine_module
    from adaptivecc import semantic
    from adaptivecc.harness import TEMPLATE_TPCC_DECK, EpochProfile, run_experiment
    from adaptivecc.sg import WRITE

    original = semantic.reconcile_check
    calls = []

    def counting(store, item_id, delta):
        calls.append(item_id)
        return original(store, item_id, delta)

    monkeypatch.setattr(engine_module, "reconcile_check", counting)
    monkeypatch.setattr(semantic, "reconcile_check", counting)
    profile = EpochProfile(lambdas=(150.0,) * 5, template=TEMPLATE_TPCC_DECK, seed=7)
    result = run_experiment(profile)
    r_writes = [ev.item for ev in result.schedule if ev.op == WRITE and ev.detail.endswith("@R")]
    assert len(r_writes) > 500
    assert sorted(calls) == sorted(r_writes)
