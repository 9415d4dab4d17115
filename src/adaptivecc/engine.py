"""Lifecycle of disconnected transactions and the class-dispatching commit.

A transaction reads (each read also returns the item's version; blind
writes are impossible), optionally disconnects, then submits its complete
write set and runs the commit pipeline, which dispatches every written
item to the mechanism of the class it was read under:

* O: snapshot read now, backward validation of the read version at commit.
* P: exclusive lock at read time; the write is guaranteed, deadlocks are
  prevented by refusing cycle-closing waits during the read phase.
* R: delta intents replayed on the latest committed state; only constraint
  violations abort.
* E: the intended delta is reserved at read time; the commit cannot fail.

The engine is callback-oriented where an operation can suspend: a read of
a locked P item returns a WAITING outcome and the supplied continuation
fires when the lock is granted (or the item is flushed back to optimistic
control).  Continuations must not re-enter the engine synchronously;
schedule follow-up work instead.  Submissions and commits complete within
the calling event.  Termination fans out to registered sinks, which is
where the adaptation controller and metrics collection hook in.  A
termination passes every released lock on and wakes every new holder that
is still active, then runs every sink, even when a continuation or an
earlier sink raises; the first error is re-raised once all have run.

The engine is single-threaded: the engine, its store, its lock manager and
its escrow ledger take no locks, and all calls into one engine must come
from one thread (the harness drives it from one discrete-event loop on a
virtual clock).  The engine has no clock of its own: every stamp it makes
is read from the clock its caller passes in.

The records the engine hands out (read outcomes, read records, write
intents, termination records, trace rows) are immutable ``NamedTuple``s:
their constructors, attribute access and equality with plain tuples are
the public interface.  On the per-operation path they are built as
``tuple.__new__(Cls, (every field))``, which skips the class's
Python-level ``__new__`` and its arity check and defaults; the read
outcomes that carry no value (waiting, and the deadlock and constraint
aborts) are shared module constants.  ``tests/test_records.py`` replays
whole runs and checks every record handed out against the public
constructor.

Function bodies name enum members through module-level bindings made once
(``_CLASS_P`` for ``CCClass.P``, ``_PHASE_ABORTED`` for ``Phase.ABORTED``,
``_READ_ABORTED`` for ``ReadStatus.ABORTED``: an underscore, the enum's
word, the member's name).  On CPython 3.11 ``EnumType`` defines
``__getattr__``, so ``CCClass.P`` runs a Python-level hook on every load,
about ten times the cost of a global load, even though the member exists.
The modules a replay runs (this one, ``locks``, ``store``, ``harness``,
``adaptation`` and ``metrics``) follow the same rule, and read a member's
value as ``_value_`` rather than through the ``value`` property.
``tests/test_packaging.py`` finds any ``Enum.MEMBER`` load left in a
function body of those modules.

Trace rows and termination records share their immutable cells, so what
a replay keeps holds one object per distinct value (per item, for tags)
rather than one per row (the flyweight pattern).  Each read or write row's
``v<version>@<class>`` tag is formatted once per item version and class: a
write makes a new version and formats its tag, and the engine keeps each
item's last tag for the reads that follow, checking its version and class
on every read.  A termination record's ``items`` tuple is shared by every
record with the same read set (item ids in read order and the classes read
under), and its ``queue_snapshots`` tuple by every record with the same
value.  The tag cache holds one entry per item; the record caches one entry
per distinct read set and per distinct snapshot, which the store's items
and their lock queues bound, not the number of transactions.  The lookups
key on item ids, class letters and queue lengths, never on a ``CCClass``
(its ``__hash__`` is Python-level).  A run that streams its trace to a file
drops each row once it is written, so there the tag cache saves
formatting, not memory.  Tags are not interned across items: on a streamed
run the interpreter's table of interned strings grows to the tags alive at
once and keeps that size, which costs more than sharing equal tags of two
items saves.

Read-only transactions never lock or reserve and always commit; each of
their reads is served from the latest committed state, so a multi-item
read-only transaction is not conflict-ordered against updaters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, NamedTuple, Optional

from . import sg
from .locks import AcquireStatus, Grant, LockManager
from .semantic import EscrowLedger, reconcile_check, reconcile_commit
from .store import CCClass, ConstraintViolationError, Store, VersionedItem

_new = tuple.__new__  # _new(Cls, fields): a NamedTuple without its Python-level __new__
# enum members, bound once (see the module docstring)
_CLASS_O, _CLASS_R, _CLASS_P, _CLASS_E = CCClass.O, CCClass.R, CCClass.P, CCClass.E
_ACQUIRE_QUEUED, _ACQUIRE_DEADLOCK_REFUSED = AcquireStatus.QUEUED, AcquireStatus.DEADLOCK_REFUSED


class Phase(Enum):
    READING = "reading"
    DISCONNECTED = "disconnected"
    WRITING = "writing"
    COMMITTED = "committed"
    ABORTED = "aborted"


_PHASE_READING, _PHASE_DISCONNECTED, _PHASE_WRITING = (
    Phase.READING, Phase.DISCONNECTED, Phase.WRITING
)
_PHASE_COMMITTED, _PHASE_ABORTED = Phase.COMMITTED, Phase.ABORTED


class AbortReason(Enum):
    VALIDATION = "validation"
    CONSTRAINT = "constraint"
    DEADLOCK = "deadlock"
    RECLASSIFICATION = "reclassification"


_ABORT_VALIDATION, _ABORT_CONSTRAINT = AbortReason.VALIDATION, AbortReason.CONSTRAINT
_ABORT_DEADLOCK, _ABORT_RECLASSIFICATION = AbortReason.DEADLOCK, AbortReason.RECLASSIFICATION


class ReadStatus(Enum):
    DONE = "done"
    WAITING = "waiting"
    ABORTED = "aborted"


_READ_DONE = ReadStatus.DONE


class EngineError(Exception):
    pass


class PhaseError(EngineError):
    pass


class BlindWriteError(EngineError):
    pass


class IntentError(EngineError):
    pass


class ReadOutcome(NamedTuple):
    status: ReadStatus
    value: object = None
    version: int = 0
    granted: bool = False  # escrow reads: reservation granted
    abort_reason: Optional[AbortReason] = None


_WAITING = ReadOutcome(ReadStatus.WAITING)
_DEADLOCKED = ReadOutcome(ReadStatus.ABORTED, abort_reason=AbortReason.DEADLOCK)
_REFUSED = ReadOutcome(ReadStatus.ABORTED, abort_reason=AbortReason.CONSTRAINT)


class ReadRecord(NamedTuple):
    value: object
    version: int
    class_at_read: CCClass


class WriteIntent(NamedTuple):
    """Absolute replacement for O/P items, delta for R/E items."""

    kind: str  # "absolute" | "delta"
    amount: object

    @staticmethod
    def absolute(value: object) -> "WriteIntent":
        return WriteIntent("absolute", value)

    @staticmethod
    def delta(amount: float) -> "WriteIntent":
        return WriteIntent("delta", amount)


@dataclass(slots=True)
class Txn:
    txn_id: int
    read_only: bool
    arrival_ms: float
    phase: Phase = Phase.READING
    read_set: dict[str, ReadRecord] = field(default_factory=dict)
    write_set: dict[str, WriteIntent] = field(default_factory=dict)
    first_read_ms: Optional[float] = None
    write_submit_ms: Optional[float] = None
    waiting_on: Optional[str] = None
    service_ms: float = 0.0  # modeled busy time, charged by the caller
    _pending_cb: Optional[Callable[[ReadOutcome], None]] = None

    @property
    def terminated(self) -> bool:
        return self.phase in (_PHASE_COMMITTED, _PHASE_ABORTED)


class TerminationRecord(NamedTuple):
    """One terminated transaction: the payload of the termination lane.

    The controller, the metrics and ``terminations.csv`` all read this one
    record; the CSV keeps the integer-millisecond views.
    """

    txn_id: int
    outcome: str  # "commit" | "abort"
    abort_reason: Optional[AbortReason]
    arrival_ms: float
    first_read_ms: Optional[float]
    write_submit_ms: Optional[float]
    termination_ms: float
    items: tuple[tuple[str, CCClass], ...]  # (item id, class at read)
    # (item id, wait-queue length) per P lock released, sorted by item id
    queue_snapshots: tuple[tuple[str, int], ...]
    service_ms: float = 0.0  # modeled busy time (waits and disconnect excluded)

    @property
    def read_write_span_ms(self) -> Optional[float]:
        if self.first_read_ms is None or self.write_submit_ms is None:
            return None
        return self.write_submit_ms - self.first_read_ms

    @property
    def time_ms(self) -> int:
        return int(self.termination_ms)

    @property
    def response_time_ms(self) -> int:
        return int(self.termination_ms - self.arrival_ms)

    @property
    def service_time_ms(self) -> int:
        # the harness charges busy time for the same sleeps the clock
        # advanced through, so it can only exceed the response by float error
        return min(int(self.service_ms), self.response_time_ms)


def _first_error(call: Callable[[Any], object], args: Iterable[Any]) -> Optional[Exception]:
    """Call ``call(arg)`` for each of ``args`` in order, also past one that
    raises; return the first error raised, if any."""
    error = None
    for arg in args:
        try:
            call(arg)
        except Exception as exc:
            if error is None:
                error = exc
    return error


class Engine:
    """Transaction engine over a Store; one instance per store.

    ``clock`` returns the current time in milliseconds.
    """

    def __init__(self, store: Store, clock: Callable[[], float]) -> None:
        self.store = store
        self.locks = LockManager()
        self.escrow = EscrowLedger(store)
        self.clock = clock
        self.trace: list[sg.ScheduleEvent] = []
        self.termination_sinks: list[Callable[[TerminationRecord], None]] = []
        self._next_txn_id = 1
        self._active: dict[int, Txn] = {}
        # shared cells (see the module docstring); item id -> (version, class, tag)
        self._tags: dict[str, tuple[int, CCClass, str]] = {}
        # (item ids..., class letters...) of a read set -> its items tuple
        self._items_tuples: dict[tuple[str, ...], tuple[tuple[str, CCClass], ...]] = {}
        self._snapshots: dict[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]] = {}

    # -- admission -----------------------------------------------------------

    @staticmethod
    def _admit(txn: Txn, action: str, phases: tuple[Phase, ...] = (Phase.READING,)) -> None:
        if txn.phase not in phases:
            raise PhaseError(f"txn {txn.txn_id} cannot {action} in phase {txn.phase}")
        if txn.waiting_on is not None:
            raise PhaseError(f"txn {txn.txn_id} still waits on {txn.waiting_on}")

    # -- lifecycle ---------------------------------------------------------

    def begin(self, read_only: bool = False) -> Txn:
        txn = Txn(self._next_txn_id, read_only, arrival_ms=self.clock())
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def read(
        self,
        txn: Txn,
        item_id: str,
        on_complete: Optional[Callable[[ReadOutcome], None]] = None,
    ) -> ReadOutcome:
        """Read an item in the read phase.

        O/R and plain E reads return the latest committed value at once.
        P reads acquire the exclusive lock and may return WAITING; the
        continuation then fires at grant time with the value read there.
        A wait that would deadlock aborts this transaction instead.
        """
        self._admit(txn, "read")
        rec = txn.read_set.get(item_id)
        if rec is not None:
            return _new(ReadOutcome, (_READ_DONE, rec.value, rec.version, False, None))
        item = self.store.item(item_id)
        if item.current_class is _CLASS_P and not txn.read_only:
            status = self.locks.acquire(txn.txn_id, item_id)
            if status is _ACQUIRE_QUEUED:
                txn.waiting_on = item_id
                txn._pending_cb = on_complete
                return _WAITING
            if status is _ACQUIRE_DEADLOCK_REFUSED:
                self._terminate(txn, _PHASE_ABORTED, _ABORT_DEADLOCK)
                return _DEADLOCKED
            lock = (int(self.clock()), txn.txn_id, sg.LOCK, item_id, "P")
            self.trace.append(_new(sg.ScheduleEvent, lock))
        return self._record_read(txn, item)

    def read_escrow(
        self, txn: Txn, item_id: str, intended_delta: float
    ) -> ReadOutcome:
        """Read an E item announcing the intended delta.

        A granted reservation guarantees the later commit of that delta; a
        refusal aborts the transaction with reason CONSTRAINT.  A NaN or
        infinite delta raises IntentError and reserves nothing.
        """
        self._admit(txn, "read")
        if txn.read_only:
            raise IntentError("read-only transactions reserve nothing")
        item = self.store.item(item_id)
        if item.current_class is not _CLASS_E:
            raise IntentError(f"{item_id} is not escrow-controlled")
        if not math.isfinite(intended_delta):
            raise IntentError(f"{item_id}: intended delta {intended_delta} is not finite")
        if not self.escrow.request(item_id, txn.txn_id, intended_delta):
            self._terminate(txn, _PHASE_ABORTED, _ABORT_CONSTRAINT)
            return _REFUSED
        return self._record_read(txn, item, granted=True)

    def _record_read(self, txn: Txn, item: VersionedItem, granted: bool = False) -> ReadOutcome:
        now = self.clock()
        value, version, cls = item.committed_value, item.version, item.current_class
        txn.read_set[item.id] = _new(ReadRecord, (value, version, cls))
        if txn.first_read_ms is None:
            txn.first_read_ms = now
        entry = self._tags.get(item.id)
        if entry is not None and entry[0] == version and entry[1] is cls:
            tag = entry[2]
        else:
            tag = self._new_tag(item.id, version, cls)
        self.trace.append(_new(sg.ScheduleEvent, (int(now), txn.txn_id, sg.READ, item.id, tag)))
        return _new(ReadOutcome, (_READ_DONE, value, version, granted, None))

    def disconnect(self, txn: Txn) -> None:
        """End the read phase; locks and reservations persist."""
        self._admit(txn, "disconnect")
        txn.phase = _PHASE_DISCONNECTED

    def submit_write_set(self, txn: Txn, writes: dict[str, WriteIntent]) -> None:
        """Hand in the complete write set; every target must have been read,
        and every R/E delta must be a finite number."""
        self._admit(txn, "write", (_PHASE_READING, _PHASE_DISCONNECTED))
        if txn.read_only and writes:
            raise IntentError("read-only transaction submitted writes")
        for item_id, intent in writes.items():
            rec = txn.read_set.get(item_id)
            if rec is None:
                raise BlindWriteError(f"{item_id} was not read by txn {txn.txn_id}")
            if rec.class_at_read in (_CLASS_R, _CLASS_E):
                if intent.kind != "delta":
                    raise IntentError(f"{item_id} ({rec.class_at_read}) needs a delta")
                if not math.isfinite(intent.amount):
                    raise IntentError(f"{item_id}: delta {intent.amount} is not finite")
                if rec.class_at_read is _CLASS_E:
                    granted = self.escrow.granted_delta(item_id, txn.txn_id)
                    if granted is None or granted != intent.amount:
                        raise IntentError(
                            f"{item_id}: delta {intent.amount} has no matching reservation"
                        )
            elif intent.kind != "absolute":
                raise IntentError(f"{item_id} ({rec.class_at_read}) needs an absolute value")
        txn.write_set = dict(writes)
        txn.write_submit_ms = self.clock()
        txn.phase = _PHASE_WRITING

    def commit_pipeline(self, txn: Txn) -> tuple[Phase, Optional[AbortReason]]:
        """Run the atomic commit sequence; all items install or none do.

        Check order inside the critical section: semantic constraints
        first (a reconciliation that can never succeed outranks everything
        else), then backward validation of optimistic reads, then the
        reclassification rule for items that changed class mid-flight, and
        only then the per-item installs in canonical id order.
        """
        if txn.phase is not _PHASE_WRITING:
            raise PhaseError(f"txn {txn.txn_id} cannot commit in phase {txn.phase}")
        if not txn.read_only:
            order = sorted(txn.write_set)  # canonical id order, for checks and installs
            reason = self._validate(txn, order)
            if reason is not None:
                self._terminate(txn, _PHASE_ABORTED, reason)
                return _PHASE_ABORTED, reason
            self._apply(txn, order)
        self._terminate(txn, _PHASE_COMMITTED, None)
        return _PHASE_COMMITTED, None

    def _validate(self, txn: Txn, order: list[str]) -> Optional[AbortReason]:
        # Semantic constraints: R deltas against the latest committed state,
        # absolute intents against their item constraint.  E deltas hold a
        # read-time guarantee and cannot fail here.
        item_of = self.store.item
        write_set = txn.write_set
        for item_id in order:
            intent = write_set[item_id]
            rec = txn.read_set[item_id]
            try:
                if rec.class_at_read is _CLASS_R:
                    reconcile_check(self.store, item_id, intent.amount)
                elif intent.kind == "absolute":
                    item = item_of(item_id)
                    if item.constraint is not None and not item.constraint.satisfied(
                        intent.amount
                    ):
                        raise ConstraintViolationError(item_id)
            except ConstraintViolationError:
                return _ABORT_CONSTRAINT

        # One pass over the read set checks, for each entry:
        # * backward validation, over the whole optimistic read set, even
        #   for entries the transaction never writes;
        # * a residual lock on a written item now under optimistic control,
        #   which marks a holder whose write is still guaranteed; installing
        #   over it would bypass that guarantee, so it fails validation too;
        # * an optimistic read of an item that meanwhile moved under locking,
        #   which makes the transaction an unavoidable crash (the opposite
        #   direction is safe because the lock is held since read time).
        # Both validation failures outrank the reclassification.  R and E
        # never change class, and an unwritten P read has nothing to check.
        reclassified = False
        for item_id, rec in txn.read_set.items():
            read_optimistic = rec.class_at_read is _CLASS_O
            written = item_id in write_set
            if not read_optimistic and (rec.class_at_read is not _CLASS_P or not written):
                continue
            item = item_of(item_id)
            if item.current_class is _CLASS_O:
                if read_optimistic and item.version != rec.version:
                    return _ABORT_VALIDATION
                if written:
                    holder = self.locks.holder(item_id)
                    if holder is not None and holder != txn.txn_id:
                        return _ABORT_VALIDATION
            elif read_optimistic and item.current_class is _CLASS_P:
                reclassified = True
        return _ABORT_RECLASSIFICATION if reclassified else None

    def _apply(self, txn: Txn, order: list[str]) -> None:
        # _validate checked each R delta against the state it installs over,
        # in this same call; reconcile_commit does not check it again.
        now = int(self.clock())
        write_set, read_set = txn.write_set, txn.read_set
        for item_id in order:
            intent = write_set[item_id]
            rec = read_set[item_id]
            item = self.store.item(item_id)
            cls = rec.class_at_read
            if cls is _CLASS_E:
                self.escrow.commit(item_id, txn.txn_id)
            elif cls is _CLASS_R:
                reconcile_commit(self.store, item_id, intent.amount)
            elif cls is _CLASS_O:
                self.store.install_version(item_id, intent.amount, rec.version)
            else:  # P: the lock held since read time is the commit right
                self.store.install_version(item_id, intent.amount)
            # every install makes a new version, so a write's tag is always new;
            # it names the class at read: a flushed P holder's write says @P
            tag = self._new_tag(item_id, item.version, cls)
            self.trace.append(_new(sg.ScheduleEvent, (now, txn.txn_id, sg.WRITE, item_id, tag)))

    def _new_tag(self, item_id: str, version: int, cls: CCClass) -> str:
        """Format ``v<version>@<class>`` and keep it as the item's tag: reads
        reuse it while the item's version and class stay."""
        # _value_ is the member's value, read without the .value property
        tag = f"v{version}@{cls._value_}"
        self._tags[item_id] = (version, cls, tag)
        return tag

    def abort(self, txn: Txn) -> bool:
        """Abort from any non-terminal phase; a no-op on terminated txns."""
        if txn.terminated:
            return False
        self._terminate(txn, _PHASE_ABORTED, None)
        return True

    def _terminate(self, txn: Txn, phase: Phase, reason: Optional[AbortReason]) -> None:
        txn.phase = phase
        now = self.clock()
        committed = phase is _PHASE_COMMITTED
        if committed:
            row = (int(now), txn.txn_id, sg.COMMIT, "", "")
        else:
            row = (int(now), txn.txn_id, sg.ABORT, "", reason._value_ if reason else "")
        self.trace.append(_new(sg.ScheduleEvent, row))
        txn.waiting_on = None  # release_all withdraws the queued request
        txn._pending_cb = None
        held = self.locks.held_by(txn.txn_id)
        snapshots = tuple([(i, self.locks.queue_len(i)) for i in held])
        snapshots = self._snapshots.setdefault(snapshots, snapshots)
        grants = self.locks.release_all(txn.txn_id, held)
        self.escrow.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        # keyed on class letters: an Enum member hashes through a Python-level __hash__
        read_set = txn.read_set
        key = (*read_set, *[r.class_at_read._value_ for r in read_set.values()])
        items = self._items_tuples.get(key)
        if items is None:
            items = tuple([(i, r.class_at_read) for i, r in read_set.items()])
            self._items_tuples[key] = items
        # every field, in TerminationRecord's order
        record = _new(TerminationRecord, (
            txn.txn_id,
            "commit" if committed else "abort",
            reason,
            txn.arrival_ms,
            txn.first_read_ms,
            txn.write_submit_ms,
            now,
            items,
            snapshots,
            txn.service_ms,
        ))
        # A raising continuation or sink stops neither the other grants nor
        # the other sinks; the first error surfaces once all have run.
        error = _first_error(self._complete_grant, grants)
        for sink in self.termination_sinks:
            try:
                sink(record)
            except Exception as exc:
                if error is None:
                    error = exc
        if error is not None:
            raise error

    def _complete_grant(self, grant: Grant) -> None:
        txn = self._active.get(grant.txn_id)
        if txn is None:
            # An earlier continuation of this hand-over aborted the grantee
            # after release_all made it the holder; its own termination has
            # already passed the lock on.
            return
        lock = (int(self.clock()), txn.txn_id, sg.LOCK, grant.item_id, "P")
        self.trace.append(_new(sg.ScheduleEvent, lock))
        self._wake(txn, grant.item_id)

    def _wake(self, txn: Txn, item_id: str) -> None:
        """Complete the read a queued transaction waits on and resume it."""
        txn.waiting_on = None
        cb = txn._pending_cb
        txn._pending_cb = None
        outcome = self._record_read(txn, self.store.item(item_id))
        if cb is not None:
            cb(outcome)

    # -- run-time reclassification ------------------------------------------

    def reclassify_item(self, item_id: str, to_class: CCClass) -> None:
        """Switch an adaptable item between O and P.

        Moving to O flushes the lock wait queue: every waiter completes its
        read optimistically at the switch instant (the current holder keeps
        its lock, and with it the guarantee for its pending write).  Every
        waiter is woken even when a continuation raises; the first error is
        re-raised after the flush.
        """
        item = self.store.item(item_id)
        was = item.current_class
        self.store.set_current_class(item_id, to_class)
        if was is _CLASS_P and to_class is _CLASS_O:
            def wake(txn_id: int) -> None:
                txn = self._active.get(txn_id)
                if txn is not None and txn.waiting_on == item_id:
                    self._wake(txn, item_id)

            error = _first_error(wake, self.locks.drain_queue(item_id))
            if error is not None:
                raise error
