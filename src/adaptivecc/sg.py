"""Serialization-graph oracle over schedule traces.

The graph has one node per committed transaction.  Its edges come from
the committed reads and writes of each O- or P-classed item, in trace order.
Two operations conflict when they belong to different transactions and at
least one is a write; two reads never conflict.  R- and E-classed items
contribute no edges: their conflicts are reconciled, so their per-class
graphs are acyclic by construction and the global order is decided by O and
P alone.  An engine-produced history must always yield an acyclic graph here.

Only the edges between consecutive conflicting operations are built: each
read gets an edge from the item's last writer, and each write gets one from
the last writer and one from every reader since that write.  Any other
conflicting pair p -> q is a path of these edges through the writes between
p and q, and each built edge is itself a conflicting pair.  So the graph has
the same transitive closure over committed transactions as the conflict
graph of every conflicting pair (Bernstein, Hadzilacos & Goodman, 1987),
and the same cycles, with at most two edges per operation instead of one
per pair.

The graph is built in one pass over any iterable of five-field rows: the
``ScheduleEvent``s of an engine trace, or the string rows of a trace CSV as
``trace_rows`` yields them, so a trace file is checked without a
``ScheduleEvent`` per row or a list of its rows.  The pass keeps one entry
per transaction and one per O/P read or write; lock rows and R/E operations
cost time but no memory.  ``find_cycle`` decides acyclicity with a Kahn pass
over the transactions that have out-edges and searches for the cycle to
report only when there is one.  ``ScheduleEvent`` and ``Edge`` are named
tuples and compare equal to the plain tuples of their fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO

from .store import CCClass

TRACE_COLUMNS = ["time_ms", "txn_id", "op", "item", "detail"]

READ = "r"
LOCK = "l"
WRITE = "w"
COMMIT = "c"
ABORT = "a"

_CLASS_BY_LETTER = {cls.value: cls for cls in CCClass}
_RECONCILED = (CCClass.R, CCClass.E)


class MalformedHistoryError(Exception):
    pass


class ScheduleEvent(NamedTuple):
    """One line of the schedule trace.

    ``detail`` carries ``v<version>@<class>`` for reads and writes and the
    abort reason for aborts.  List position is the authoritative order;
    ``time_ms`` may repeat.
    """

    time_ms: int
    txn_id: int
    op: str
    item: str = ""
    detail: str = ""


class Edge(NamedTuple):
    src: int
    dst: int
    item: str
    kind: str  # rw | wr | ww


@dataclass
class SerializationGraph:
    nodes: set[int] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)


def build_serialization_graph(events: Iterable[Sequence]) -> SerializationGraph:
    """Build the serialization graph of a complete history.

    ``events`` is any iterable, consumed once, of ``(time_ms, txn_id, op,
    item, detail)`` rows: ``ScheduleEvent``s, or the string rows of
    ``trace_rows``.  Each row's ``txn_id`` is converted with ``int`` and its
    ``time_ms`` checked with ``int``, so a CSV row parses as it would into a
    ``ScheduleEvent``: a non-integer cell raises ValueError, a row of fewer
    than five cells IndexError, and cells past the fifth are ignored.

    One pass records each transaction's termination and, per item, the
    ``(txn, op)`` of every O/P read and write; R/E operations and lock rows
    leave nothing behind.  Afterwards each item's operations of committed
    transactions are walked in trace order, keeping the last writer and the
    readers since that write, and only the edges between consecutive
    conflicting operations are built (see the module docstring).  Memory is
    proportional to the transactions plus the O/P reads and writes, not to
    the trace rows.

    Item classes come from the ``@<class>`` annotation of each read and
    write detail.  Errors, checked in this order: a row that does not parse
    raises as above, where it stands; then an unknown op raises
    MalformedHistoryError, then so does any transaction without a terminal
    commit/abort event; then the first committed read or write in trace
    order whose class is unknown raises ValueError (a bad letter) or
    MalformedHistoryError (no annotation).  Operations of aborted
    transactions are never classified, so a bad or missing class there is
    not an error.
    """
    terminal: dict[int, Optional[str]] = {}  # txn -> last commit/abort op, None while open
    per_item: dict[str, list[tuple[int, str]]] = {}
    # txn -> (item, class letter or None) of its first unclassifiable op.  A
    # class is an error only once the txn is known to commit; insertion order
    # is trace order, so the first committed entry is the one to report.
    unclassified: dict[int, tuple[str, Optional[str]]] = {}
    unknown_op: Optional[str] = None
    for row in events:
        try:
            time, txn, op, item, detail = row
        except ValueError:  # a CSV row of other than five cells: as in read_trace_csv
            time, txn, op, item, detail = int(row[0]), int(row[1]), row[2], row[3], row[4]
        int(time)
        txn = int(txn)
        if op == READ or op == WRITE:
            terminal.setdefault(txn, None)
            _, at, letter = detail.rpartition("@")
            cls = _CLASS_BY_LETTER.get(letter) if at else None
            if cls is None:
                unclassified.setdefault(txn, (item, letter if at else None))
                continue
            if cls not in _RECONCILED:
                per_item.setdefault(item, []).append((txn, op))
        elif op == COMMIT or op == ABORT:
            terminal[txn] = op
        elif op == LOCK:
            terminal.setdefault(txn, None)
        elif unknown_op is None:
            unknown_op = op

    if unknown_op is not None:
        raise MalformedHistoryError(f"unknown op {unknown_op!r}")
    dangling = [t for t, op in terminal.items() if op is None]
    if dangling:
        raise MalformedHistoryError(f"unterminated transactions: {sorted(dangling)}")
    committed = {t for t, op in terminal.items() if op == COMMIT}
    for txn, (item, letter) in unclassified.items():
        if txn not in committed:
            continue
        if letter is not None:
            CCClass(letter)  # raises ValueError, as for any unknown class letter
        raise MalformedHistoryError(f"no class known for item {item!r}; annotate the trace")

    graph = SerializationGraph(nodes=committed)
    add = graph.edges.add
    for item, ops in per_item.items():
        writer: Optional[int] = None
        readers: set[int] = set()  # readers since the last write
        for txn, op in ops:
            if txn not in committed:
                continue
            if op == READ:
                if writer is not None and writer != txn:
                    add(Edge(writer, txn, item, "wr"))
                readers.add(txn)
                continue
            if writer is not None and writer != txn:
                add(Edge(writer, txn, item, "ww"))
            for reader in readers:
                if reader != txn:
                    add(Edge(reader, txn, item, "rw"))
            readers.clear()
            writer = txn
    return graph


def find_cycle(graph: SerializationGraph) -> Optional[list[int]]:
    """Return one cycle ``[t1, ..., t1]`` of the graph, or None if it is acyclic.

    A sink lies on no cycle, so acyclicity is decided by a Kahn pass over
    the nodes with out-edges alone: the graph is acyclic when repeatedly
    removing such a node with no remaining in-edges removes them all.  No
    set or sorted list is built per node.  Only a cyclic graph pays for the
    search that names a cycle (``_first_cycle``).
    """
    succs: dict[int, list[int]] = {}  # node with out-edges -> its successors, one per edge
    indegree: dict[int, int] = {}  # node with in-edges -> their number
    for src, dst, _, _ in graph.edges:
        if src in succs:
            succs[src].append(dst)
        else:
            succs[src] = [dst]
        indegree[dst] = indegree.get(dst, 0) + 1
    ready = [node for node in succs if node not in indegree]
    left = len(succs)
    while ready:
        left -= 1
        for succ in succs[ready.pop()]:
            remaining = indegree[succ] - 1
            indegree[succ] = remaining
            if not remaining and succ in succs:
                ready.append(succ)
    return _first_cycle(succs) if left else None


def _first_cycle(succs: dict[int, list[int]]) -> list[int]:
    """The cycle an iterative depth-first search closes first, taking roots
    and successors in ascending order.

    Roots are the nodes with out-edges: a sink root closes nothing, and the
    search from it only marks it done, which no later step depends on.  So
    the result is the one a search rooted at every node would give.
    """
    adj = {node: sorted(set(dsts)) for node, dsts in succs.items()}
    color: dict[int, int] = {}  # 0 unseen implicit, 1 on stack, 2 done
    for root in sorted(adj):
        if color.get(root, 0) != 0:
            continue
        path: list[int] = []
        stack: list[tuple[int, int]] = [(root, 0)]  # (node, next successor index)
        while stack:
            node, index = stack[-1]
            if index == 0:
                color[node] = 1
                path.append(node)
            dsts = adj.get(node, [])
            if index < len(dsts):
                stack[-1] = (node, index + 1)
                succ = dsts[index]
                state = color.get(succ, 0)
                if state == 1:
                    return path[path.index(succ):] + [succ]
                if state == 0:
                    stack.append((succ, 0))
            else:
                stack.pop()
                path.pop()
                color[node] = 2
    raise AssertionError("a graph the Kahn pass left nodes of has a cycle")


def write_trace_csv(events: Iterable[ScheduleEvent], outfile: TextIO) -> None:
    """Write events as given; ``time_ms`` is already an integer stamp."""
    writer = csv.writer(outfile)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(events)


def trace_rows(infile: TextIO) -> Iterator[list[str]]:
    """The rows of a trace CSV as lists of strings, blank rows skipped.

    The header is read and checked at once; a wrong or missing header
    raises ValueError.  Open the file with ``newline=""``, as the csv
    module requires: otherwise a newline inside a quoted item is translated
    and two distinct items can read back as one.
    """
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TRACE_COLUMNS:
        raise ValueError(f"trace header must be {','.join(TRACE_COLUMNS)}")
    return filter(None, reader)


def read_trace_csv(infile: TextIO) -> list[ScheduleEvent]:
    """The events of a trace CSV, parsed from ``trace_rows``: integer
    ``time_ms`` and ``txn_id``, cells past the fifth ignored.

    A wrong or missing header raises ValueError, as ``trace_rows`` does; so
    does a ``time_ms`` or ``txn_id`` cell that is not an integer, and a row
    of fewer than five cells raises IndexError.  Within one call, equal
    item and detail cells are one string object and equal ``txn_id`` cells
    one int, so those cells cost memory per distinct value, not per row: a
    deck trace names a handful of items, and has about one distinct detail
    per five reads and writes.
    """
    make = ScheduleEvent._make
    cells: dict[str, str] = {}
    share = cells.setdefault
    txn_ids: dict[str, int] = {}
    events = []
    append = events.append
    for r in trace_rows(infile):
        time = int(r[0])
        txn = txn_ids.get(r[1])
        if txn is None:
            txn = txn_ids[r[1]] = int(r[1])
        append(make((time, txn, r[2], share(r[3], r[3]), share(r[4], r[4]))))
    return events
