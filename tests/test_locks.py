import random
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from adaptivecc.locks import AcquireStatus, Grant, LockError, LockManager


def wfg_edges(lm):
    """Waits-for edges: each waiter waits for the holder and everyone
    queued ahead of it (FIFO order makes those effective predecessors)."""
    edges = set()
    for item_id, queue in lm._queues.items():
        holder = lm._holders.get(item_id)
        ahead = [holder] if holder is not None else []
        for waiter in queue:
            for blocker in ahead:
                edges.add((waiter, blocker))
            ahead.append(waiter)
    return edges


def wfg_has_cycle(edges):
    """Independent cycle oracle: plain DFS over an edge set."""
    adjacency = {}
    for src, dst in edges:
        adjacency.setdefault(src, set()).add(dst)
    visited, stack = set(), set()

    def dfs(node):
        visited.add(node)
        stack.add(node)
        for succ in adjacency.get(node, ()):
            if succ in stack:
                return True
            if succ not in visited and dfs(succ):
                return True
        stack.discard(node)
        return False

    return any(dfs(n) for n in list(adjacency) if n not in visited)


def test_acquire_free_item():
    lm = LockManager()
    assert lm.acquire(1, "x") is AcquireStatus.GRANTED
    assert lm.holder("x") == 1


def test_acquire_held_item_queues_fifo():
    lm = LockManager()
    lm.acquire(1, "x")
    assert lm.acquire(2, "x") is AcquireStatus.QUEUED
    assert lm.acquire(3, "x") is AcquireStatus.QUEUED
    assert lm.queue("x") == (2, 3)
    assert (2, 1) in wfg_edges(lm)


def test_reentrant_acquire_granted():
    lm = LockManager()
    lm.acquire(1, "x")
    assert lm.acquire(1, "x") is AcquireStatus.GRANTED


def test_two_txn_cycle_refused():
    # t1 holds x and waits for y; t2 holds y and requests x.
    lm = LockManager()
    lm.acquire(1, "x")
    lm.acquire(2, "y")
    assert lm.acquire(1, "y") is AcquireStatus.QUEUED
    assert lm.acquire(2, "x") is AcquireStatus.DEADLOCK_REFUSED
    assert lm.queue("x") == ()
    assert not wfg_has_cycle(wfg_edges(lm))


def test_three_txn_cycle_refused():
    lm = LockManager()
    lm.acquire(1, "a")
    lm.acquire(2, "b")
    lm.acquire(3, "c")
    assert lm.acquire(1, "b") is AcquireStatus.QUEUED
    assert lm.acquire(2, "c") is AcquireStatus.QUEUED
    assert lm.acquire(3, "a") is AcquireStatus.DEADLOCK_REFUSED


def test_a_waiting_txn_asking_for_a_second_lock_raises():
    # t2 is queued behind the holder t1 on x; t3 holds y and queues on x,
    # so it implicitly waits for t2.  t2 asking for y would close a cycle,
    # but a waiting txn is suspended: any request from it is an error, raised
    # before the deadlock check, and even for a free item.
    lm = LockManager()
    lm.acquire(1, "x")
    assert lm.acquire(2, "x") is AcquireStatus.QUEUED
    lm.acquire(3, "y")
    assert lm.acquire(3, "x") is AcquireStatus.QUEUED
    for item in ("y", "x", "free"):
        with pytest.raises(LockError, match="already waits on x"):
            lm.acquire(2, item)
    assert lm.queue("x") == (2, 3) and lm.queue("y") == () and lm.holder("free") is None


def test_release_grants_queue_head():
    lm = LockManager()
    lm.acquire(1, "x")
    lm.acquire(2, "x")
    lm.acquire(3, "x")
    grant = lm.release(1, "x")
    assert grant == Grant("x", 2)
    assert lm.holder("x") == 2
    assert lm.queue("x") == (3,)


def test_release_empty_queue_frees():
    lm = LockManager()
    lm.acquire(1, "x")
    assert lm.release(1, "x") is None
    assert lm.holder("x") is None


def test_release_by_non_holder():
    lm = LockManager()
    lm.acquire(1, "x")
    with pytest.raises(LockError):
        lm.release(9, "x")


def test_release_all_counts_and_withdraws():
    lm = LockManager()
    for item in ("a", "b", "c"):
        lm.acquire(1, item)
    assert lm.release_all(1) == []
    assert lm.held_by(1) == () and lm.holder("a") is None
    assert lm.release_all(1) == []

    lm.acquire(2, "z")
    lm.acquire(3, "z")
    assert lm.release_all(3) == []  # queued only, nothing held
    assert lm.queue("z") == () and lm.holder("z") == 2


def test_fifo_fairness():
    lm = LockManager()
    lm.acquire(0, "x")
    expected = list(range(1, 30))
    for txn in expected:
        lm.acquire(txn, "x")
    holder, order = 0, []
    while True:
        grant = lm.release(holder, "x")
        if grant is None:
            break
        holder = grant.txn_id
        order.append(holder)
    assert order == expected


def test_wfg_acyclic_after_random_ops():
    rng = random.Random(5)
    lm = LockManager()
    held = {}
    waiting = {}
    for step in range(500):
        txn = rng.randrange(8)
        if txn in waiting:
            continue  # a waiting txn is suspended
        item = f"i{rng.randrange(4)}"
        if rng.random() < 0.6:
            status = lm.acquire(txn, item)
            if status is AcquireStatus.GRANTED:
                held.setdefault(txn, set()).add(item)
            elif status is AcquireStatus.QUEUED:
                waiting[txn] = item
        else:
            snap_holders = dict((i, lm.holder(i)) for i in (f"i{k}" for k in range(4)))
            grants = lm.release_all(txn)
            held.pop(txn, None)
            for grant in grants:
                held.setdefault(grant.txn_id, set()).add(grant.item_id)
                waiting.pop(grant.txn_id, None)
            del snap_holders
        assert not wfg_has_cycle(wfg_edges(lm)), f"cycle after step {step}"
    # liveness: terminate everyone, every lock must clear
    for txn in range(8):
        lm.release_all(txn)
    assert lm._holders == {} and lm._queues == {}


# -- holder-chain walk against the full-graph oracle --------------------------


def oracle_would_deadlock(lm, txn_id, item_id):
    """Full-graph check: queueing txn_id on item_id adds edges from txn_id to
    the holder and every queued txn; a cycle appears iff one of those can
    already reach txn_id in the waits-for graph."""
    adjacency = {}
    for waiter, blocker in wfg_edges(lm):
        adjacency.setdefault(waiter, set()).add(blocker)
    stack = [lm.holder(item_id), *lm.queue(item_id)]
    seen = set()
    while stack:
        node = stack.pop()
        if node == txn_id:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adjacency.get(node, ()))
    return False


WALK_ITEMS = ("a", "b", "c", "d")


def oracle_acquire(lm, txn_id, item_id):
    """Expected acquire verdict, from the raw lock table only.  A txn that
    already waits anywhere may not ask for any lock."""
    if any(txn_id in lm.queue(i) for i in WALK_ITEMS):
        return LockError
    holder = lm.holder(item_id)
    if holder is None or holder == txn_id:
        return AcquireStatus.GRANTED
    if oracle_would_deadlock(lm, txn_id, item_id):
        return AcquireStatus.DEADLOCK_REFUSED
    return AcquireStatus.QUEUED


class LockWalkMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lm = LockManager()

    @rule(txn=st.integers(0, 7), item=st.sampled_from(WALK_ITEMS))
    def acquire(self, txn, item):
        expected = oracle_acquire(self.lm, txn, item)
        try:
            actual = self.lm.acquire(txn, item)
        except LockError:
            actual = LockError
        assert actual == expected

    @rule(item=st.sampled_from(WALK_ITEMS))
    def release(self, item):
        holder, queue = self.lm.holder(item), self.lm.queue(item)
        if holder is None:
            with pytest.raises(LockError):
                self.lm.release(0, item)
            return
        grant = self.lm.release(holder, item)
        if queue:
            assert grant == Grant(item, queue[0])
        else:
            assert grant is None

    @rule(txn=st.integers(0, 7), item=st.sampled_from(WALK_ITEMS))
    def withdraw(self, txn, item):
        queued = txn in self.lm.queue(item)
        assert self.lm.withdraw(txn, item) is queued

    @rule(txn=st.integers(0, 7))
    def release_all(self, txn):
        queues = {i: self.lm.queue(i) for i in WALK_ITEMS}
        held = [i for i in WALK_ITEMS if self.lm.holder(i) == txn]
        grants = self.lm.release_all(txn)
        assert grants == [Grant(i, queues[i][0]) for i in held if queues[i]]
        assert all(self.lm.holder(i) != txn for i in WALK_ITEMS)
        assert all(txn not in self.lm.queue(i) for i in WALK_ITEMS)

    @rule(item=st.sampled_from(WALK_ITEMS))
    def drain_queue(self, item):
        queue = self.lm.queue(item)
        assert self.lm.drain_queue(item) == list(queue)

    @invariant()
    def index_matches_table(self):
        queues = {i: self.lm.queue(i) for i in WALK_ITEMS}
        waiting = {t: i for i, q in queues.items() for t in q}
        assert sum(map(len, queues.values())) == len(waiting)
        assert all(self.lm.holder(i) is not None for i, q in queues.items() if q)
        assert self.lm._waiting == waiting
        held = {}
        for item, holder in self.lm._holders.items():
            held.setdefault(holder, set()).add(item)
        assert self.lm._held == held
        assert all(self.lm.held_by(t) == tuple(sorted(held.get(t, ()))) for t in range(8))

    @invariant()
    def wfg_acyclic(self):
        assert not wfg_has_cycle(wfg_edges(self.lm))


TestLockWalkMachine = LockWalkMachine.TestCase
TestLockWalkMachine.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None, derandomize=True,
    database=None,
)


def test_twenty_thousand_waiters_drain_in_fifo_order():
    # Every acquire and release here is O(1); the full-graph check made
    # building this queue cubic.
    lm = LockManager()
    lm.acquire(0, "x")
    waiters = list(range(1, 20_001))
    for txn in waiters:
        assert lm.acquire(txn, "x") is AcquireStatus.QUEUED
    holder, order = 0, []
    while (grant := lm.release(holder, "x")) is not None:
        holder = grant.txn_id
        order.append(holder)
    assert order == waiters
    assert lm._holders == {} and lm._queues == {}
    assert lm._waiting == {}


def test_release_all_cost_is_flat_in_locks_held_by_others():
    # A terminating txn releases its own lock; the other holders must not
    # be scanned, so 5000 of them cost what 100 do.
    def per_call_ns(others):
        lm = LockManager()
        for txn in range(others):
            lm.acquire(txn, f"held{txn}")
        best = float("inf")
        for _ in range(7):
            start = time.perf_counter_ns()
            for txn in range(others, others + 500):
                lm.acquire(txn, "own")
                lm.release_all(txn)
            best = min(best, time.perf_counter_ns() - start)
        return best / 500

    assert per_call_ns(5000) < 3 * per_call_ns(100)
