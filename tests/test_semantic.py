import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivecc.semantic import EscrowLedger, reconcile_commit
from adaptivecc.store import CCClass, Constraint, ConstraintViolationError, Store


def make_store(value=10, lower=0, strict=True, upper=None):
    store = Store()
    constraint = Constraint(lower=lower, upper=upper, strict_lower=strict)
    store.create_item("x", value, CCClass.E, constraint)
    return store


# -- independent escrow oracle ------------------------------------------------


def oracle_subset_safe(value, constraint, deltas):
    """A grant set is safe iff committing any subset in any order keeps the
    constraint satisfied at every intermediate committed state."""
    for k in range(len(deltas) + 1):
        for subset in itertools.combinations(deltas, k):
            # worst prefix for the lower bound: all decrements first;
            # for the upper bound: all increments first
            low_point = value + sum(d for d in subset if d < 0)
            high_point = value + sum(d for d in subset if d > 0)
            if constraint is not None and not (
                constraint.satisfied(low_point) and constraint.satisfied(high_point)
            ):
                return False
    return True


def oracle_subset_safe_bruteforce(value, constraint, deltas):
    """Full enumeration of subsets x orderings x prefixes (small sets only)."""
    for k in range(len(deltas) + 1):
        for subset in itertools.combinations(deltas, k):
            for order in itertools.permutations(subset):
                running = value
                for delta in order:
                    running += delta
                    if constraint is not None and not constraint.satisfied(running):
                        return False
    return True


def test_oracle_shortcut_matches_bruteforce():
    rng = random.Random(3)
    constraint = Constraint(lower=0, upper=25)
    for _ in range(300):
        deltas = [rng.choice([-6, -4, -2, 2, 5, 7]) for _ in range(rng.randint(0, 4))]
        value = rng.randint(0, 25)
        assert oracle_subset_safe(value, constraint, deltas) == (
            oracle_subset_safe_bruteforce(value, constraint, deltas)
        )


# -- reconciliation -----------------------------------------------------------


def test_reconcile_replays_deltas_on_latest_state():
    store = Store()
    store.create_item("acct", 10, CCClass.R)
    assert reconcile_commit(store, "acct", 20) == 30
    # the second committer read the same base but its staleness is irrelevant
    assert reconcile_commit(store, "acct", -10) == 20
    assert store.read_committed("acct") == (20, 3)


def test_reconcile_constraint_abort():
    store = Store()
    store.create_item("acct", 5, CCClass.R, Constraint(lower=0))
    with pytest.raises(ConstraintViolationError):
        reconcile_commit(store, "acct", -10)
    assert store.read_committed("acct") == (5, 1)


def test_reconcile_zero_delta_bumps_version():
    store = Store()
    store.create_item("acct", 7, CCClass.R)
    assert reconcile_commit(store, "acct", 0) == 7
    assert store.read_committed("acct") == (7, 2)


def test_reconcile_permutation_invariance():
    rng = random.Random(9)
    for _ in range(200):
        deltas = [rng.randint(-5, 9) for _ in range(rng.randint(1, 6))]
        finals = set()
        for order in (deltas, list(reversed(deltas)), rng.sample(deltas, len(deltas))):
            store = Store()
            store.create_item("acct", 100, CCClass.R)
            for delta in order:
                reconcile_commit(store, "acct", delta)
            finals.add(store.read_committed("acct")[0])
        assert len(finals) == 1
        assert finals.pop() == 100 + sum(deltas)


# -- escrow -------------------------------------------------------------------


def test_escrow_grants_until_interval_exhausted():
    store = make_store(10)
    ledger = EscrowLedger(store)
    assert ledger.request("x", 1, -4)
    assert ledger.request("x", 2, -5)
    assert not ledger.request("x", 3, -3)  # worst case 10-4-5-3 <= 0
    assert ledger.request("x", 4, 2)  # increments cannot breach a lower bound


def test_escrow_unconstrained_grants_everything():
    store = Store()
    store.create_item("x", 10, CCClass.E)
    ledger = EscrowLedger(store)
    for txn, delta in enumerate([-1000, 1000, -999999]):
        assert ledger.request("x", txn, delta)


def test_escrow_commit_applies_reserved_delta():
    store = make_store(10)
    ledger = EscrowLedger(store)
    ledger.request("x", 1, -4)
    assert ledger.commit("x", 1) == 6
    assert store.read_committed("x") == (6, 2)


def test_escrow_commits_in_any_order():
    for order in ((1, 2), (2, 1)):
        store = make_store(10)
        ledger = EscrowLedger(store)
        assert ledger.request("x", 1, -4)
        assert ledger.request("x", 2, -5)
        for txn in order:
            ledger.commit("x", txn)
        assert store.read_committed("x")[0] == 1


def test_escrow_commit_without_grant():
    ledger = EscrowLedger(make_store())
    with pytest.raises(LookupError):
        ledger.commit("x", 99)


def test_escrow_release_restores_interval():
    store = make_store(10)
    ledger = EscrowLedger(store)
    ledger.request("x", 1, -4)
    ledger.request("x", 2, -5)
    assert not ledger.request("x", 3, -3)
    ledger.release("x", 2)
    assert ledger.request("x", 3, -3)
    ledger.release("x", 42)  # no grant held: no-op
    ledger.commit("x", 1)
    ledger.release("x", 1)  # after commit: no-op
    assert store.read_committed("x")[0] == 6


def test_escrow_upper_bound_blocks_increments():
    store = Store()
    store.create_item("x", 10, CCClass.E, Constraint(lower=0, upper=20))
    ledger = EscrowLedger(store)
    assert ledger.request("x", 1, 8)
    assert not ledger.request("x", 2, 5)  # 10+8+5 > 20
    assert ledger.request("x", 2, 2)


def test_escrow_replacement_keeps_or_refuses():
    store = make_store(10)
    ledger = EscrowLedger(store)
    assert ledger.request("x", 1, -4)
    assert ledger.request("x", 2, -5)
    # replacing -4 by -1 widens the interval: fine
    assert ledger.request("x", 1, -1)
    assert ledger.granted_delta("x", 1) == -1
    # replacing -1 by -6 would overdraw (10-6-5 <= 0): refused, old grant kept
    assert not ledger.request("x", 1, -6)
    assert ledger.granted_delta("x", 1) == -1


def test_escrow_request_release_request_roundtrip():
    rng = random.Random(21)
    store = make_store(30)
    ledger = EscrowLedger(store)
    for txn in range(100):
        delta = rng.choice([-9, -5, -2, 1, 4])
        if ledger.request("x", txn, delta):
            ledger.release("x", txn)
            assert ledger.request("x", txn, delta), "compensation must restore the interval"
            ledger.release("x", txn)


def test_escrow_decisions_match_oracle_randomized():
    rng = random.Random(17)
    for case in range(300):
        constraint = Constraint(
            lower=rng.choice([None, 0, -5, 3]),
            upper=rng.choice([None, 20, 30]),
            strict_lower=rng.random() < 0.5,
            strict_upper=rng.random() < 0.5,
        )
        value = rng.randint(0, 15)
        while not constraint.satisfied(value):
            value = rng.randint(0, 15)
        store = Store()
        store.create_item("x", value, CCClass.E, constraint)
        ledger = EscrowLedger(store)
        pending = []
        for txn in range(rng.randint(1, 7)):
            delta = rng.choice([-7, -4, -3, -1, 0, 2, 5, 8])
            expected = oracle_subset_safe(value, constraint, pending + [delta])
            granted = ledger.request("x", txn, delta)
            assert granted == expected, (case, value, pending, delta)
            if granted:
                pending.append(delta)
        # every granted reservation commits without violating the constraint
        order = list(range(len(pending)))
        rng.shuffle(order)
        committed = dict(
            (t, d)
            for t, d in zip(
                [t for t, _ in enumerate(pending)], pending
            )
        )
        for txn in order:
            if txn in committed and ledger.granted_delta("x", txn) is not None:
                ledger.commit("x", txn)
                assert constraint.satisfied(store.read_committed("x")[0])


# -- differential against the copying ledger -----------------------------------


class OracleEscrowLedger:
    """The ledger before its request stopped copying the item's reservations:
    it rebuilds the dict from a copy of the others, requester last."""

    def __init__(self, store):
        self._store = store
        self._pending = {}

    def granted_delta(self, item_id, txn_id):
        return self._pending.get(item_id, {}).get(txn_id)

    def grants_of(self, txn_id):
        return tuple(sorted(i for i, g in self._pending.items() if txn_id in g))

    def _feasible(self, item_id, pending, delta):
        item = self._store.item(item_id)
        constraint = item.constraint
        if constraint is None:
            return True
        values = list(pending.values())
        worst_low = item.committed_value + sum(d for d in values if d < 0) + min(delta, 0.0)
        worst_high = item.committed_value + sum(d for d in values if d > 0) + max(delta, 0.0)
        return constraint.satisfied(worst_low) and constraint.satisfied(worst_high)

    def request(self, item_id, txn_id, delta):
        pending = self._pending.setdefault(item_id, {})
        others = {t: d for t, d in pending.items() if t != txn_id}
        if not self._feasible(item_id, others, delta):
            if not pending:
                self._pending.pop(item_id, None)
            return False
        pending.clear()
        pending.update(others)
        pending[txn_id] = delta
        return True

    def commit(self, item_id, txn_id):
        pending = self._pending.get(item_id, {})
        if txn_id not in pending:
            raise LookupError(f"txn {txn_id} holds no escrow grant on {item_id}")
        delta = pending.pop(txn_id)
        if not pending:
            self._pending.pop(item_id, None)
        item = self._store.item(item_id)
        new_value = item.committed_value + delta
        self._store.install_version(item_id, new_value)
        return new_value

    def release(self, item_id, txn_id):
        pending = self._pending.get(item_id)
        if pending is not None:
            pending.pop(txn_id, None)
            if not pending:
                self._pending.pop(item_id, None)

    def release_all(self, txn_id):
        for item_id in self.grants_of(txn_id):
            self.release(item_id, txn_id)


ESCROW_ITEMS = ("x", "y")
ESCROW_TXNS = range(4)
# the randomized oracle test's deltas plus non-integers whose float sums
# depend on the order in which the reservations are added up
ESCROW_DELTAS = (-7, -4, -3, -1, 0, 2, 5, 8, -2.5, -0.3, 0.1, 0.7, 1.5)


@st.composite
def escrow_items(draw):
    constraint = Constraint(
        lower=draw(st.sampled_from([None, 0, -5, 3])),
        upper=draw(st.sampled_from([None, 20, 30])),
        strict_lower=draw(st.booleans()),
        strict_upper=draw(st.booleans()),
    )
    value = draw(st.integers(0, 15).filter(constraint.satisfied))
    return value, constraint


txn_ids = st.sampled_from(ESCROW_TXNS)
item_ids = st.sampled_from(ESCROW_ITEMS)
escrow_ops = st.one_of(
    st.tuples(st.just("request"), item_ids, txn_ids, st.sampled_from(ESCROW_DELTAS)),
    st.tuples(st.just("release"), item_ids, txn_ids),
    st.tuples(st.just("commit"), item_ids, txn_ids),
    st.tuples(st.just("release_all"), txn_ids),
)


def apply_escrow_op(ledger, op):
    name, *args = op
    try:
        return getattr(ledger, name)(*args)
    except LookupError:
        return LookupError


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(escrow_items(), min_size=2, max_size=2), st.lists(escrow_ops, max_size=40))
def test_escrow_ledger_matches_copying_oracle(items, ops):
    stores = []
    for _ in range(2):
        store = Store()
        for item_id, (value, constraint) in zip(ESCROW_ITEMS, items):
            store.create_item(item_id, value, CCClass.E, constraint)
        stores.append(store)
    ledger, oracle = EscrowLedger(stores[0]), OracleEscrowLedger(stores[1])
    for step, op in enumerate(ops):
        assert apply_escrow_op(ledger, op) == apply_escrow_op(oracle, op), (step, op)
        for item_id in ESCROW_ITEMS:
            for txn_id in ESCROW_TXNS:
                assert ledger.granted_delta(item_id, txn_id) == oracle.granted_delta(
                    item_id, txn_id
                ), (step, op, item_id, txn_id)
            assert stores[0].read_committed(item_id) == stores[1].read_committed(item_id)
        for txn_id in ESCROW_TXNS:  # the per-txn index agrees with a full scan
            assert ledger.grants_of(txn_id) == oracle.grants_of(txn_id), (step, op, txn_id)
        # same reservations in the same order, so the same float sums
        assert {i: list(g.items()) for i, g in ledger._pending.items()} == {
            i: list(g.items()) for i, g in oracle._pending.items()
        }, (step, op)
