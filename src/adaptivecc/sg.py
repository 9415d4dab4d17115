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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from .store import CCClass

TRACE_COLUMNS = ["time_ms", "txn_id", "op", "item", "detail"]

READ = "r"
LOCK = "l"
WRITE = "w"
COMMIT = "c"
ABORT = "a"
OPS = (READ, LOCK, WRITE, COMMIT, ABORT)


class MalformedHistoryError(Exception):
    pass


@dataclass(frozen=True)
class ScheduleEvent:
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

    One pass over each item's committed O/P operations keeps the last
    writer and the readers since that write and builds only the edges
    between consecutive conflicting operations (see the module docstring).
    Item classes come from the event details; ``classes`` supplies them for
    traces that omit the annotation.  Raises MalformedHistoryError if any
    transaction lacks a terminal commit/abort event.
    """
    events = list(events)
    seen: set[int] = set()
    terminated: dict[int, str] = {}
    for ev in events:
        if ev.op not in OPS:
            raise MalformedHistoryError(f"unknown op {ev.op!r}")
        seen.add(ev.txn_id)
        if ev.op in (COMMIT, ABORT):
            terminated[ev.txn_id] = ev.op
    dangling = seen - set(terminated)
    if dangling:
        raise MalformedHistoryError(f"unterminated transactions: {sorted(dangling)}")

    committed = {t for t, op in terminated.items() if op == COMMIT}
    graph = SerializationGraph(nodes=set(committed))

    per_item: dict[str, list[tuple[int, str]]] = {}
    for ev in events:
        if ev.op not in (READ, WRITE) or ev.txn_id not in committed:
            continue
        cls = ev.item_class()
        if cls is None and classes is not None:
            cls = classes.get(ev.item)
        if cls is None:
            raise MalformedHistoryError(
                f"no class known for item {ev.item!r}; annotate the trace or pass classes"
            )
        if cls in (CCClass.R, CCClass.E):
            continue
        per_item.setdefault(ev.item, []).append((ev.txn_id, ev.op))

    for item, ops in per_item.items():
        writer: Optional[int] = None
        readers: set[int] = set()  # readers since the last write
        for txn, op in ops:
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
    writer = csv.writer(outfile)
    writer.writerow(TRACE_COLUMNS)
    for ev in events:
        writer.writerow([int(ev.time_ms), ev.txn_id, ev.op, ev.item, ev.detail])


def read_trace_csv(infile: TextIO) -> list[ScheduleEvent]:
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TRACE_COLUMNS:
        raise ValueError(f"trace header must be {','.join(TRACE_COLUMNS)}")
    return [
        ScheduleEvent(int(row[0]), int(row[1]), row[2], row[3], row[4])
        for row in reader
        if row
    ]
