import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivecc.sg import (
    COMMIT,
    READ,
    WRITE,
    Edge,
    MalformedHistoryError,
    ScheduleEvent,
    SerializationGraph,
    build_serialization_graph,
    find_cycle,
    read_trace_csv,
    trace_rows,
    write_trace_csv,
)
from adaptivecc.store import CCClass
from microworkload import run_micro_workload


def ev(time, txn, op, item="", detail=""):
    return ScheduleEvent(time, txn, op, item, detail)


def incompatible_two_txn_history(commit_both):
    """Txn 1 reads o then p; txn 2 reads p and o, overwrites o and commits
    first; txn 1 then writes p.  Committing txn 1 as well would put opposite
    orders into the optimistic and the locking class."""
    events = [
        ev(0, 1, "r", "o", "v1@O"),
        ev(1, 2, "r", "p", "v1@P"),
        ev(2, 2, "r", "o", "v1@O"),
        ev(3, 2, "w", "o", "v2@O"),
        ev(3, 2, "c"),
        ev(4, 1, "r", "p", "v1@P"),
        ev(5, 1, "w", "p", "v2@P"),
    ]
    if commit_both:
        events.append(ev(5, 1, "c"))
    else:
        events.append(ev(5, 1, "a", "", "validation"))
    return events


def test_forced_double_commit_is_cyclic():
    graph = build_serialization_graph(incompatible_two_txn_history(commit_both=True))
    assert graph.nodes == {1, 2}
    kinds = {(e.src, e.dst, e.item) for e in graph.edges}
    assert (1, 2, "o") in kinds
    assert (2, 1, "p") in kinds
    cycle = find_cycle(graph)
    assert cycle is not None
    assert set(cycle) == {1, 2}


def test_validation_abort_breaks_the_cycle():
    graph = build_serialization_graph(incompatible_two_txn_history(commit_both=False))
    assert graph.nodes == {2}
    assert find_cycle(graph) is None


def test_empty_history():
    graph = build_serialization_graph([])
    assert graph.nodes == set()
    assert find_cycle(graph) is None


def test_unterminated_txn_rejected():
    with pytest.raises(MalformedHistoryError):
        build_serialization_graph([ev(0, 1, "r", "x", "v1@O")])


def test_reconciled_classes_contribute_no_edges():
    events = [
        ev(0, 1, "r", "acct", "v1@R"),
        ev(1, 2, "r", "acct", "v1@R"),
        ev(2, 1, "w", "acct", "v2@R"),
        ev(2, 1, "c"),
        ev(3, 2, "w", "acct", "v3@R"),
        ev(3, 2, "c"),
    ]
    graph = build_serialization_graph(events)
    assert graph.edges == set()


def test_two_reads_never_conflict():
    events = [
        ev(0, 1, "r", "x", "v1@O"),
        ev(1, 2, "r", "x", "v1@O"),
        ev(2, 1, "c"),
        ev(3, 2, "c"),
    ]
    assert build_serialization_graph(events).edges == set()


def test_unannotated_op_raises_only_for_a_committed_txn():
    # An item's class comes from the trace alone: a read with no ``@class``
    # is an error once its txn commits, and is never looked at if it aborts.
    events = [ev(0, 1, "r", "x", "v1"), ev(1, 2, "w", "x", "v2@O"), ev(1, 2, "c")]
    with pytest.raises(MalformedHistoryError, match="no class known for item 'x'"):
        build_serialization_graph(events + [ev(2, 1, "c")])
    graph = build_serialization_graph(events + [ev(2, 1, "a", "", "validation")])
    assert graph.nodes == {2} and graph.edges == set()


def test_trace_csv_roundtrip():
    events = incompatible_two_txn_history(commit_both=False)
    buffer = io.StringIO()
    write_trace_csv(events, buffer)
    buffer.seek(0)
    assert read_trace_csv(buffer) == events


# -- the all-pairs conflict graph as a differential oracle -------------------


def item_class(event):
    """The class of a read or write row's ``v<version>@<class>`` detail."""
    if "@" in event.detail:
        return CCClass(event.detail.rsplit("@", 1)[1])
    return None


def adjacency(graph):
    """node -> the set of its successors, for every node of the graph."""
    adj = {node: set() for node in graph.nodes}
    for edge in graph.edges:
        adj[edge.src].add(edge.dst)
    return adj


def oracle_build_serialization_graph(events):
    """The conflict graph with an edge for every pair of conflicting
    operations on an O/P item between committed transactions: O(ops^2)
    edges, but obviously correct."""
    events = list(events)
    committed = {ev.txn_id for ev in events if ev.op == COMMIT}
    graph = SerializationGraph(nodes=set(committed))
    per_item = {}
    for ev in events:
        if ev.op not in (READ, WRITE) or ev.txn_id not in committed:
            continue
        cls = item_class(ev)
        if cls in (CCClass.O, CCClass.P):
            per_item.setdefault(ev.item, []).append((ev.txn_id, ev.op))
    for item, ops in per_item.items():
        for i, (txn_a, op_a) in enumerate(ops):
            for txn_b, op_b in ops[i + 1 :]:
                if txn_a != txn_b and WRITE in (op_a, op_b):
                    graph.edges.add(Edge(txn_a, txn_b, item, op_a + op_b))
    return graph


def oracle_find_cycle(graph):
    """The cycle search ``find_cycle`` used before its Kahn pass: an
    iterative depth-first search over every node, roots and successors in
    ascending order, returning the first cycle it closes."""
    adj = {node: sorted(succs) for node, succs in adjacency(graph).items()}
    color = {}  # 0 unseen implicit, 1 on stack, 2 done
    for root in sorted(graph.nodes):
        if color.get(root, 0) != 0:
            continue
        path = []
        stack = [(root, 0)]  # (node, next successor index)
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


@st.composite
def digraphs(draw):
    """Graphs of up to 12 nodes with sparse ids, so some are isolated and
    the rest fall into one or more components, and parallel edges on two
    items.  Half are acyclic: every edge runs forward in the drawn order of
    the ids.  The others take any edge, self-loops included."""
    ids = draw(st.lists(st.integers(0, 40), unique=True, max_size=12))
    graph = SerializationGraph(nodes=set(ids))
    if not ids:
        return graph
    acyclic = draw(st.booleans())
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=30))
    for src, dst in pairs:
        if acyclic and ids.index(src) >= ids.index(dst):
            continue
        item, kind = draw(st.sampled_from("xy")), draw(st.sampled_from(["rw", "wr", "ww"]))
        graph.edges.add(Edge(src, dst, item, kind))
    return graph


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(digraphs())
def test_find_cycle_matches_the_depth_first_oracle(graph):
    assert find_cycle(graph) == oracle_find_cycle(graph)


def reachability(graph):
    """node -> every node reachable from it over one or more edges."""
    adj = adjacency(graph)
    reach = {}
    for root in graph.nodes:
        seen, stack = set(), list(adj[root])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adj[node])
        reach[root] = seen
    return reach


def assert_same_verdicts(events):
    fast = build_serialization_graph(events)
    slow = oracle_build_serialization_graph(events)
    assert fast.nodes == slow.nodes
    assert fast.edges <= slow.edges
    assert reachability(fast) == reachability(slow)
    cycle = find_cycle(fast)
    assert cycle == oracle_find_cycle(fast)
    assert (cycle is None) == (find_cycle(slow) is None)
    if cycle is not None:
        slow_pairs = {(e.src, e.dst) for e in slow.edges}
        assert cycle[0] == cycle[-1]
        assert all(pair in slow_pairs for pair in zip(cycle, cycle[1:]))
    return fast


@st.composite
def histories(draw):
    """Complete histories of up to 8 txns over up to 3 items.  Item ``x``
    flips between O and P from event to event, as around a reclassification;
    the others keep one drawn class.  Every read and write carries its
    class annotation, as in an engine trace.  Each txn commits or aborts
    after its last read or write; where the terminal event falls does not
    change the graph."""
    items = ["x", "y", "z"][: draw(st.integers(1, 3))]
    fixed = {item: draw(st.sampled_from(list(CCClass))) for item in items[1:]}
    n_txns = draw(st.integers(1, 8))
    steps = draw(st.lists(
        st.tuples(st.integers(1, n_txns), st.sampled_from("rw"), st.sampled_from(items)),
        max_size=40,
    ))
    events = []
    for time, (txn_id, op, item) in enumerate(steps):
        if item == "x":
            cls = draw(st.sampled_from((CCClass.O, CCClass.P)))
        else:
            cls = fixed[item]
        events.append(ScheduleEvent(time, txn_id, op, item, f"v{time}@{cls.value}"))
    for txn_id in draw(st.permutations(range(1, n_txns + 1))):
        if draw(st.integers(0, 3)):
            events.append(ScheduleEvent(len(steps), txn_id, "c"))
        else:
            events.append(ScheduleEvent(len(steps), txn_id, "a", "", "validation"))
    return events


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(histories())
def test_reduced_graph_keeps_the_conflict_closure(history):
    assert_same_verdicts(history)


@pytest.mark.parametrize("allow_reclass", [False, True])
def test_reduced_graph_matches_oracle_on_micro_workloads(allow_reclass):
    for seed in range(200):
        engine = run_micro_workload(seed, allow_reclass=allow_reclass)
        assert find_cycle(assert_same_verdicts(engine.trace)) is None, f"seed {seed}"


def test_edges_stay_linear_in_operations_on_one_hot_item():
    # 20 000 committed txns: updaters read then write ``hot``, and a
    # read-only txn reads it between each two writes.  The all-pairs graph
    # of this history has ~2.5e8 edges.
    events = []
    for version in range(10_000):
        updater, reader = 2 * version + 1, 2 * version + 2
        events += [
            ev(updater, updater, "r", "hot", f"v{version}@O"),
            ev(updater, updater, "w", "hot", f"v{version + 1}@O"),
            ev(updater, updater, "c"),
            ev(reader, reader, "r", "hot", f"v{version + 1}@O"),
            ev(reader, reader, "c"),
        ]
    graph = build_serialization_graph(events)
    assert len(graph.nodes) == 20_000
    assert find_cycle(graph) is None
    ops = sum(1 for e in events if e.op in (READ, WRITE))
    assert len(graph.edges) <= 2 * ops


def test_read_only_anomaly_still_flagged():
    # T1 reads x v1; T2 reads and overwrites x and y and commits; T1 then
    # reads y v2.  No serial order explains T1, and the reduced graph must
    # still say so until read-only txns read a snapshot.
    events = [
        ev(0, 1, "r", "x", "v1@O"),
        ev(1, 2, "r", "x", "v1@O"),
        ev(2, 2, "r", "y", "v1@O"),
        ev(3, 2, "w", "x", "v2@O"),
        ev(3, 2, "w", "y", "v2@O"),
        ev(3, 2, "c"),
        ev(4, 1, "r", "y", "v2@O"),
        ev(5, 1, "c"),
    ]
    cycle = find_cycle(assert_same_verdicts(events))
    assert cycle is not None and set(cycle) == {1, 2}


# -- the streaming CSV path against the in-memory build and the oracle -------


def as_csv(events):
    buffer = io.StringIO()
    write_trace_csv(events, buffer)
    buffer.seek(0)
    return buffer


def assert_csv_path_agrees(events):
    """sg-check's path, the CSV rows streamed into the builder, gives the
    in-memory build's graph, the oracle search's cycle and the all-pairs
    oracle's verdict; so do the events ``read_trace_csv`` parses."""
    streamed = build_serialization_graph(trace_rows(as_csv(events)))
    parsed = build_serialization_graph(read_trace_csv(as_csv(events)))
    in_memory = build_serialization_graph(events)
    slow = oracle_build_serialization_graph(events)
    assert streamed.nodes == parsed.nodes == in_memory.nodes == slow.nodes
    assert streamed.edges == parsed.edges == in_memory.edges
    cycle = find_cycle(streamed)
    assert cycle == oracle_find_cycle(in_memory)
    assert (cycle is None) == (find_cycle(slow) is None)
    assert read_trace_csv(as_csv(events)) == events
    return streamed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(histories())
def test_csv_stream_matches_in_memory_build(history):
    assert_csv_path_agrees(history)


@pytest.mark.parametrize("allow_reclass", [False, True])
def test_csv_stream_matches_on_micro_workloads(allow_reclass):
    for seed in range(200):
        engine = run_micro_workload(seed, allow_reclass=allow_reclass)
        assert find_cycle(assert_csv_path_agrees(engine.trace)) is None, f"seed {seed}"


def test_schedule_event_is_a_plain_tuple():
    event = ev(3, 1, "r", "x", "v2@O")
    assert event == (3, 1, "r", "x", "v2@O")
    assert ev(3, 1, "c") == (3, 1, "c", "", "")


def test_read_trace_csv_checks_the_header_and_skips_blank_rows():
    with pytest.raises(ValueError, match="trace header"):
        read_trace_csv(io.StringIO("time,txn\n0,1\n"))
    with pytest.raises(ValueError, match="trace header"):
        read_trace_csv(io.StringIO(""))
    with pytest.raises(ValueError, match="trace header"):
        trace_rows(io.StringIO("time,txn\n0,1\n"))
    rows = "time_ms,txn_id,op,item,detail\n0,1,r,x,v1@O\n\n1,1,c,,\n"
    assert read_trace_csv(io.StringIO(rows)) == [ev(0, 1, "r", "x", "v1@O"), ev(1, 1, "c")]
    assert list(trace_rows(io.StringIO(rows))) == [
        ["0", "1", "r", "x", "v1@O"],
        ["1", "1", "c", "", ""],
    ]


# Which error a malformed history raises, if any.  A row that does not parse
# raises where it stands, as ``read_trace_csv`` raises on it; then comes the
# unknown op, then unterminated txns, then the first committed read or
# write, in trace order, whose class is unknown; an aborted txn's class is
# never looked at.
MALFORMED = {
    "non-integer time cell": (
        [ev(0, 1, "r", "x", "v1@O"), ev("1.5", 1, "c")],
        (ValueError, "invalid literal for int"),
    ),
    "non-integer txn cell": (
        [ev(0, "t1", "r", "x", "v1@O"), ev(1, "t1", "c")],
        (ValueError, "invalid literal for int"),
    ),
    "short row after an unknown op": (
        [ev(0, 1, "z"), ev(1, 1, "r", "x", "v1@O"), (2, 1, "c")],
        (IndexError, "index out of range"),
    ),
    "unannotated op of an aborted txn": (
        [ev(0, 1, "r", "x", "v1"), ev(1, 1, "a", "", "validation"), ev(2, 2, "c")],
        None,
    ),
    "v1@X on an aborted txn": (
        [ev(0, 1, "r", "x", "v1@X"), ev(1, 1, "a", "", "validation"), ev(2, 2, "c")],
        None,
    ),
    "v1@X on a committed txn": (
        [ev(0, 1, "r", "x", "v1@X"), ev(1, 1, "c")],
        (ValueError, "not a valid CCClass"),
    ),
    "unknown op plus a dangling txn": (
        [ev(0, 1, "r", "x", "v1@O"), ev(1, 2, "z", "x")],
        (MalformedHistoryError, "unknown op"),
    ),
    "dangling txn plus a missing class": (
        [ev(0, 1, "r", "x", "v1"), ev(1, 1, "c"), ev(2, 2, "r", "x", "v1@O")],
        (MalformedHistoryError, "unterminated"),
    ),
    "lock-only dangling txn": (
        [ev(0, 1, "r", "x", "v1@P"), ev(1, 1, "c"), ev(2, 2, "l", "x", "P")],
        (MalformedHistoryError, "unterminated"),
    ),
    "missing class before a bad letter, both committed": (
        [ev(0, 2, "r", "y", "v1"), ev(1, 1, "r", "x", "v1@X"), ev(2, 1, "c"), ev(3, 2, "c")],
        (MalformedHistoryError, "no class known for item 'y'"),
    ),
    "missing class then a bad letter in one committed txn": (
        [ev(0, 1, "r", "x", "v1"), ev(1, 1, "r", "y", "v1@X"), ev(2, 1, "c")],
        (MalformedHistoryError, "no class known for item 'x'"),
    ),
    "bad letter of an aborted txn before a missing class": (
        [
            ev(0, 1, "r", "x", "v1@X"),
            ev(1, 2, "r", "y", "v1"),
            ev(2, 1, "a", "", "validation"),
            ev(3, 2, "c"),
        ],
        (MalformedHistoryError, "no class known for item 'y'"),
    ),
}


@pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
@pytest.mark.parametrize("via_csv", [False, True], ids=["events", "csv"])
def test_malformed_history_outcomes(case, via_csv):
    events, expected = MALFORMED[case]
    source = trace_rows(as_csv(events)) if via_csv else events
    if expected is None:
        build_serialization_graph(source)
        return
    error, message = expected
    with pytest.raises(error, match=message):
        build_serialization_graph(source)


def peak_build_bytes(events, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_trace_csv(events, fh)
    with open(path, newline="", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            build_serialization_graph(trace_rows(fh))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_build_memory_does_not_grow_with_lock_and_reconciled_rows(tmp_path):
    # 5 000 committed txns on O items; the padded trace adds 10 lock rows and
    # 10 reads of R items to every txn, which the graph never uses.
    plain, padded = [], []
    for txn in range(1, 5001):
        item = f"o{txn % 10}"
        ops = [ev(txn, txn, "r", item, f"v{txn}@O"), ev(txn, txn, "w", item, f"v{txn + 1}@O")]
        noise = [ev(txn, txn, "l", f"p{k}", "P") for k in range(10)]
        noise += [ev(txn, txn, "r", f"acct{k}", f"v{txn}@R") for k in range(10)]
        plain += ops + [ev(txn, txn, "c")]
        padded += noise + ops + [ev(txn, txn, "c")]
    trace = tmp_path / "trace.csv"
    assert peak_build_bytes(padded, trace) < 1.5 * peak_build_bytes(plain, trace)


# -- read_trace_csv against its one-object-per-cell oracle -------------------


def oracle_read_trace_csv(infile):
    """``read_trace_csv`` with a new object for every cell of every row,
    kept as the oracle of the version that shares repeated cells."""
    make = ScheduleEvent._make
    return [make((int(r[0]), int(r[1]), r[2], r[3], r[4])) for r in trace_rows(infile)]


# item ids holding the csv module's quote, separator and line breaks, and '@'
_item_ids = st.text(st.sampled_from('xy,"\r\n@'), min_size=1, max_size=4)


@st.composite
def trace_files(draw):
    """A trace CSV as ``write_trace_csv`` writes it, rows over a few item ids
    and versions so that cells repeat.  Now and then a row is one the reader
    refuses (a non-integer time or txn cell, fewer than five cells), skips
    (blank) or reads past (a sixth cell), or the header is wrong."""
    items = draw(st.lists(_item_ids, min_size=1, max_size=3))
    rows = []
    for time in range(draw(st.integers(0, 30))):
        txn, op = draw(st.integers(1, 5)), draw(st.sampled_from("rwlca"))
        if op in "rw":
            version, letter = draw(st.integers(1, 3)), draw(st.sampled_from("ORPEX"))
            row = [time, txn, op, draw(st.sampled_from(items)), f"v{version}@{letter}"]
        elif op == "l":
            row = [time, txn, op, draw(st.sampled_from(items)), "P"]
        else:
            row = [time, txn, op, "", draw(st.sampled_from(["", "validation"]))]
        flaw = draw(st.integers(0, 24))
        if flaw == 1:
            row[0] = "1.5"
        elif flaw == 2:
            row[1] = "t1"
        elif flaw == 3:
            row = row[: draw(st.integers(1, 4))]
        elif flaw == 4:
            row = []
        elif flaw == 5:
            row.append("extra")
        rows.append(row)
    buffer = io.StringIO(newline="")
    write_trace_csv(rows, buffer)
    text = buffer.getvalue()
    if draw(st.integers(0, 24)) == 0:
        text = "time_ms,txn_id,op,item\r\n" + text.split("\r\n", 1)[1]
    return text


def read_or_error(reader, text):
    try:
        return reader(io.StringIO(text, newline=""))
    except Exception as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(trace_files())
def test_read_trace_csv_matches_its_oracle_and_shares_cells(text):
    got = read_or_error(read_trace_csv, text)
    assert got == read_or_error(oracle_read_trace_csv, text)
    if isinstance(got, list):
        assert all(type(event) is ScheduleEvent for event in got)
        cells = [cell for event in got for cell in (event.item, event.detail)]
        assert len({id(cell) for cell in cells}) == len(set(cells))
