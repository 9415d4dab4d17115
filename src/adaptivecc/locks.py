"""Exclusive locks for class-P items with FIFO queues and deadlock prevention.

Locks are acquired at read time and held until the owning transaction
terminates.  A request that cannot be granted joins a FIFO wait queue
unless queueing would close a cycle in the waits-for relation, in which
case the request is refused and the caller is expected to abort the
requester.  The manager is single-threaded, like the engine that owns it,
and takes no locks of its own.

A transaction waits on at most one item: a queued transaction is
suspended until it is granted, withdrawn or drained, and any request from
a transaction that waits raises LockError.  Each waiter's
waits-for edges therefore stay inside its item's holder and queue, and
the only edge that leaves that set is the holder's own wait.  A new wait
``T -> i`` closes a cycle iff ``T`` lies on the holder chain ``holder(i)
-> holder(item that holder waits on) -> ...``, so the cycle test walks
that chain, at O(chain) cost, instead of searching the whole graph.  A
per-transaction wait index (txn -> the item it waits on) serves the walk
and lets ``release_all`` withdraw from the one queue the transaction is
in, instead of probing every queue; ``withdraw`` still removes from the
middle of that queue in O(queue).  A per-transaction held-lock index
(txn -> the items it holds) makes ``held_by`` and ``release_all`` cost
O(own locks), however many locks other transactions hold.  ``wfg_edges``
builds the full waits-for graph for diagnostics and tests only.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import NamedTuple, Optional

_new = tuple.__new__  # _new(Cls, fields): a NamedTuple without its Python-level __new__


class AcquireStatus(Enum):
    GRANTED = "granted"
    QUEUED = "queued"
    DEADLOCK_REFUSED = "deadlock_refused"


class LockError(Exception):
    pass


class Grant(NamedTuple):
    """Emitted by release when a queued waiter becomes the holder."""

    item_id: str
    txn_id: int


class LockManager:
    """Per-item exclusive lock table plus per-transaction held and wait
    indexes."""

    def __init__(self) -> None:
        self._holders: dict[str, int] = {}
        self._queues: dict[str, deque[int]] = {}
        self._held: dict[int, set[str]] = {}  # txn -> the items it holds
        self._waiting: dict[int, str] = {}  # txn -> the one item it waits on

    # -- queries ---------------------------------------------------------

    def holder(self, item_id: str) -> Optional[int]:
        return self._holders.get(item_id)

    def queue(self, item_id: str) -> tuple[int, ...]:
        return tuple(self._queues.get(item_id, ()))

    def queue_len(self, item_id: str) -> int:
        return len(self._queues.get(item_id, ()))

    def held_by(self, txn_id: int) -> tuple[str, ...]:
        """The items ``txn_id`` holds, in canonical (sorted) order."""
        return tuple(sorted(self._held.get(txn_id, ())))

    def wfg_edges(self) -> set[tuple[int, int]]:
        """Waits-for edges: each waiter waits for the holder and everyone
        queued ahead of it (FIFO order makes those effective predecessors)."""
        edges: set[tuple[int, int]] = set()
        for item_id, queue in self._queues.items():
            holder = self._holders.get(item_id)
            ahead: list[int] = [holder] if holder is not None else []
            for waiter in queue:
                for blocker in ahead:
                    edges.add((waiter, blocker))
                ahead.append(waiter)
        return edges

    def _would_deadlock(self, txn_id: int, item_id: str) -> bool:
        # Walk holder -> the item it waits on -> that item's holder ...
        # The chain is finite because the waits-for graph stays acyclic.
        node = self._holders.get(item_id)
        while node is not None:
            if node == txn_id:
                return True
            waits_on = self._waiting.get(node)
            if waits_on is None:
                return False
            node = self._holders.get(waits_on)
        return False

    # -- mutations -------------------------------------------------------

    def acquire(self, txn_id: int, item_id: str) -> AcquireStatus:
        """Grant the lock, queue the request, or refuse a cycle-closing wait.

        A transaction that waits is suspended: any request from it raises
        LockError, so it waits on at most one item."""
        own_wait = self._waiting.get(txn_id)
        if own_wait is not None:
            raise LockError(f"txn {txn_id} already waits on {own_wait}")
        holder = self._holders.get(item_id)
        if holder is None:
            self._holders[item_id] = txn_id
            self._held.setdefault(txn_id, set()).add(item_id)
            return AcquireStatus.GRANTED
        if holder == txn_id:
            return AcquireStatus.GRANTED  # re-entrant
        if self._would_deadlock(txn_id, item_id):
            return AcquireStatus.DEADLOCK_REFUSED
        self._queues.setdefault(item_id, deque()).append(txn_id)
        self._waiting[txn_id] = item_id
        return AcquireStatus.QUEUED

    def release(self, txn_id: int, item_id: str) -> Optional[Grant]:
        """Hand the lock to the queue head, if any. Returns the grant made."""
        if self._holders.get(item_id) != txn_id:
            raise LockError(f"txn {txn_id} does not hold {item_id}")
        held = self._held[txn_id]
        held.remove(item_id)
        if not held:
            del self._held[txn_id]
        queue = self._queues.get(item_id)
        if not queue:  # an empty queue is never kept
            del self._holders[item_id]
            return None
        next_holder = queue.popleft()
        if not queue:
            self._queues.pop(item_id, None)
        del self._waiting[next_holder]
        self._holders[item_id] = next_holder
        self._held.setdefault(next_holder, set()).add(item_id)
        return _new(Grant, (item_id, next_holder))

    def withdraw(self, txn_id: int, item_id: str) -> bool:
        """Remove a queued (not granted) request; its WFG edges vanish."""
        if self._waiting.get(txn_id) != item_id:
            return False
        del self._waiting[txn_id]
        queue = self._queues[item_id]
        queue.remove(txn_id)
        if not queue:
            del self._queues[item_id]
        return True

    def release_all(
        self, txn_id: int, held: Optional[tuple[str, ...]] = None
    ) -> list[Grant]:
        """Termination path: drop every hold (canonical order) and the queued
        request of the transaction. Returns the grants made.

        ``held`` is ``held_by(txn_id)`` when the caller has already read it.
        """
        if held is None:
            held = self.held_by(txn_id)
        grants: list[Grant] = []
        for item_id in held:
            grant = self.release(txn_id, item_id)
            if grant is not None:
                grants.append(grant)
        waits_on = self._waiting.get(txn_id)
        if waits_on is not None:
            self.withdraw(txn_id, waits_on)
        return grants

    def drain_queue(self, item_id: str) -> list[int]:
        """Empty an item's wait queue without granting (used when the item
        leaves class P); the current holder keeps its lock."""
        queue = self._queues.pop(item_id, None)
        if not queue:
            return []
        for waiter in queue:
            del self._waiting[waiter]
        return list(queue)
