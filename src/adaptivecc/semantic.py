"""Semantic concurrency control: delta reconciliation and escrow reservations.

Class R applies commutative deltas against the latest committed state at
commit time; a stale read version is irrelevant and only a constraint
violation aborts.  Class E validates constraints at read time instead: a
transaction asks for a reservation of its intended delta, and a grant
guarantees the later commit cannot fail.  Reservations are tracked as a
two-sided worst-case interval: pending decrements are tested against the
lower bound, pending increments against the upper bound.  The ledger is
single-threaded, like the engine that owns it, and takes no locks.
"""

from __future__ import annotations

from typing import Optional

from .store import ConstraintViolationError, Store


def reconcile_check(store: Store, item_id: str, delta: float) -> float:
    """Candidate value of applying ``delta`` to the latest committed state.

    Raises ConstraintViolationError when the candidate breaks the item's
    constraint; callers run this inside the commit critical section so the
    verdict still holds at apply time.
    """
    item = store.item(item_id)
    candidate = item.committed_value + delta
    if item.constraint is not None and not item.constraint.satisfied(candidate):
        raise ConstraintViolationError(
            f"{item_id}: reconciled value {candidate!r} violates constraint"
        )
    return candidate


def reconcile_commit(store: Store, item_id: str, delta: float) -> float:
    """Replay a delta against the latest committed value and install it.

    The read version the transaction saw plays no role: whoever arrives at
    the apply step is ordered by arrival, and every interleaving that
    commits the same deltas produces the same final value.  A zero delta is
    an ordinary commit and still bumps the version.  The install checks the
    item's constraint itself: a violating delta raises
    ConstraintViolationError and leaves the item unchanged, so a caller
    that ran ``reconcile_check`` in the same critical section need not
    repeat it here.
    """
    candidate = store.item(item_id).committed_value + delta
    store.install_version(item_id, candidate)
    return candidate


class EscrowLedger:
    """Per-item reservation bookkeeping for class-E items.

    At most one reservation per (item, transaction); a repeated request
    replaces the old delta only if the books still balance without it.  A
    per-transaction index of the items it holds grants on makes
    ``grants_of`` and ``release_all`` cost O(own grants).
    """

    def __init__(self, store: Store) -> None:
        self._store = store
        self._pending: dict[str, dict[int, float]] = {}
        self._items_of: dict[int, set[str]] = {}  # txn -> items it holds grants on

    def granted_delta(self, item_id: str, txn_id: int) -> Optional[float]:
        return self._pending.get(item_id, {}).get(txn_id)

    def grants_of(self, txn_id: int) -> tuple[str, ...]:
        return tuple(sorted(self._items_of.get(txn_id, ())))

    def _feasible(self, item_id: str, txn_id: int, delta: float) -> bool:
        item = self._store.item(item_id)
        constraint = item.constraint
        if constraint is None:
            return True
        # txn_id's own reservation is the one being replaced by delta
        value, pending = item.committed_value, self._pending.get(item_id, {}).items()
        worst_low = value + sum(d for t, d in pending if d < 0 and t != txn_id) + min(delta, 0.0)
        worst_high = value + sum(d for t, d in pending if d > 0 and t != txn_id) + max(delta, 0.0)
        # worst_low <= committed value <= worst_high and the bounds form an
        # interval, so both ends inside it is the whole worst-case check.
        return constraint.satisfied(worst_low) and constraint.satisfied(worst_high)

    def request(self, item_id: str, txn_id: int, delta: float) -> bool:
        """Reserve ``delta`` if the worst-case interval stays within bounds.

        Returns True (granted) or False (refused, no state change).  A
        replaced reservation moves to the end of the item's order.
        """
        if not self._feasible(item_id, txn_id, delta):
            return False
        pending = self._pending.setdefault(item_id, {})
        pending.pop(txn_id, None)
        pending[txn_id] = delta
        self._items_of.setdefault(txn_id, set()).add(item_id)
        return True

    def _drop(self, item_id: str, txn_id: int) -> float:
        # Remove the grant from both indexes; it must exist.
        pending = self._pending[item_id]
        delta = pending.pop(txn_id)
        if not pending:
            del self._pending[item_id]
        items = self._items_of[txn_id]
        items.remove(item_id)
        if not items:
            del self._items_of[txn_id]
        return delta

    def commit(self, item_id: str, txn_id: int) -> float:
        """Apply the granted delta; cannot violate the constraint by
        construction of the grant. Returns the new committed value."""
        if txn_id not in self._pending.get(item_id, {}):
            raise LookupError(f"txn {txn_id} holds no escrow grant on {item_id}")
        delta = self._drop(item_id, txn_id)
        item = self._store.item(item_id)
        new_value = item.committed_value + delta
        self._store.install_version(item_id, new_value)
        return new_value

    def release(self, item_id: str, txn_id: int) -> None:
        """Drop a reservation if present (abort path); widens the interval."""
        if txn_id in self._pending.get(item_id, {}):
            self._drop(item_id, txn_id)

    def release_all(self, txn_id: int) -> None:
        for item_id in tuple(self._items_of.get(txn_id, ())):
            self._drop(item_id, txn_id)
