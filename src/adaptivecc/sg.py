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

The graph is built in one pass over any iterable of events, so a trace file
can be checked straight from ``iter_trace_csv`` without a list of its rows.
The pass keeps one entry per transaction and one per O/P read or write;
lock rows and R/E operations cost time but no memory.  A ``ScheduleEvent``
is a named tuple and compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

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

    def item_class(self) -> Optional[CCClass]:
        if "@" in self.detail:
            return CCClass(self.detail.rsplit("@", 1)[1])
        return None


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    item: str
    kind: str  # rw | wr | ww


@dataclass
class SerializationGraph:
    nodes: set[int] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {n: set() for n in self.nodes}
        for edge in self.edges:
            adj[edge.src].add(edge.dst)
        return adj


def build_serialization_graph(
    events: Iterable[ScheduleEvent],
    classes: Optional[dict[str, CCClass]] = None,
) -> SerializationGraph:
    """Build the serialization graph of a complete history.

    One pass over ``events`` (any iterable, consumed once) records each
    transaction's termination and, per item, the ``(txn, op)`` of every
    O/P read and write; R/E operations and lock rows leave nothing behind.
    Afterwards each item's operations of committed transactions are walked
    in trace order, keeping the last writer and the readers since that
    write, and only the edges between consecutive conflicting operations
    are built (see the module docstring).  Memory is proportional to the
    transactions plus the O/P reads and writes, not to the trace rows.

    Item classes come from the event details; ``classes`` supplies them for
    traces that omit the annotation.  Errors, checked in this order: an
    unknown op raises MalformedHistoryError, then so does any transaction
    without a terminal commit/abort event; then the first committed read or
    write in trace order whose class is unknown raises ValueError (a bad
    letter) or MalformedHistoryError (no annotation and no ``classes``
    entry).  Operations of aborted transactions are never classified, so a
    bad class there is not an error.
    """
    terminal: dict[int, Optional[str]] = {}  # txn -> last commit/abort op, None while open
    per_item: dict[str, list[tuple[int, str]]] = {}
    # txn -> (item, class letter or None) of its first unclassifiable op.  A
    # class is an error only once the txn is known to commit; insertion order
    # is trace order, so the first committed entry is the one to report.
    unclassified: dict[int, tuple[str, Optional[str]]] = {}
    unknown_op: Optional[str] = None
    for _, txn, op, item, detail in events:
        if op == READ or op == WRITE:
            terminal.setdefault(txn, None)
            _, at, letter = detail.rpartition("@")
            if at:
                cls = _CLASS_BY_LETTER.get(letter)
                if cls is None:
                    unclassified.setdefault(txn, (item, letter))
                    continue
            else:
                cls = classes.get(item) if classes is not None else None
                if cls is None:
                    unclassified.setdefault(txn, (item, None))
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
        raise MalformedHistoryError(
            f"no class known for item {item!r}; annotate the trace or pass classes"
        )

    graph = SerializationGraph(nodes=committed)
    for item, ops in per_item.items():
        writer: Optional[int] = None
        readers: set[int] = set()  # readers since the last write
        for txn, op in ops:
            if txn not in committed:
                continue
            if op == READ:
                if writer is not None and writer != txn:
                    graph.edges.add(Edge(writer, txn, item, "wr"))
                readers.add(txn)
                continue
            if writer is not None and writer != txn:
                graph.edges.add(Edge(writer, txn, item, "ww"))
            for reader in readers:
                if reader != txn:
                    graph.edges.add(Edge(reader, txn, item, "rw"))
            readers.clear()
            writer = txn
    return graph


def find_cycle(graph: SerializationGraph) -> Optional[list[int]]:
    """Iterative depth-first cycle search; returns one cycle or None."""
    adj = {node: sorted(succs) for node, succs in graph.adjacency().items()}
    color: dict[int, int] = {}  # 0 unseen implicit, 1 on stack, 2 done
    for root in sorted(graph.nodes):
        if color.get(root, 0) != 0:
            continue
        path: list[int] = []
        stack: list[tuple[int, int]] = [(root, 0)]  # (node, next successor index)
        while stack:
            node, index = stack[-1]
            if index == 0:
                color[node] = 1
                path.append(node)
            succs = adj.get(node, [])
            if index < len(succs):
                stack[-1] = (node, index + 1)
                succ = succs[index]
                state = color.get(succ, 0)
                if state == 1:
                    return path[path.index(succ):] + [succ]
                if state == 0:
                    stack.append((succ, 0))
            else:
                stack.pop()
                path.pop()
                color[node] = 2
    return None


def write_trace_csv(events: Iterable[ScheduleEvent], outfile: TextIO) -> None:
    """Write events as given; ``time_ms`` is already an integer stamp."""
    writer = csv.writer(outfile)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(events)


def iter_trace_csv(infile: TextIO) -> Iterator[ScheduleEvent]:
    """Yield the events of a trace CSV one row at a time.

    The header is checked when the first event is requested; a wrong or
    missing header raises ValueError.  Blank rows are skipped.
    """
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TRACE_COLUMNS:
        raise ValueError(f"trace header must be {','.join(TRACE_COLUMNS)}")
    make = ScheduleEvent._make
    for row in reader:
        if row:
            yield make((int(row[0]), int(row[1]), row[2], row[3], row[4]))


def read_trace_csv(infile: TextIO) -> list[ScheduleEvent]:
    return list(iter_trace_csv(infile))
