import io

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


def test_classes_argument_for_unannotated_traces():
    from adaptivecc.store import CCClass

    events = [ev(0, 1, "r", "x", "v1"), ev(1, 2, "w", "x", "v2"), ev(1, 2, "c"), ev(2, 1, "c")]
    graph = build_serialization_graph(events, classes={"x": CCClass.O})
    assert {(e.src, e.dst) for e in graph.edges} == {(1, 2)}
    with pytest.raises(MalformedHistoryError):
        build_serialization_graph(events)


def test_trace_csv_roundtrip():
    events = incompatible_two_txn_history(commit_both=False)
    buffer = io.StringIO()
    write_trace_csv(events, buffer)
    buffer.seek(0)
    assert read_trace_csv(buffer) == events


# -- the all-pairs conflict graph as a differential oracle -------------------


def oracle_build_serialization_graph(events, classes=None):
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
        cls = ev.item_class() or classes[ev.item]
        if cls in (CCClass.O, CCClass.P):
            per_item.setdefault(ev.item, []).append((ev.txn_id, ev.op))
    for item, ops in per_item.items():
        for i, (txn_a, op_a) in enumerate(ops):
            for txn_b, op_b in ops[i + 1 :]:
                if txn_a != txn_b and WRITE in (op_a, op_b):
                    graph.edges.add(Edge(txn_a, txn_b, item, op_a + op_b))
    return graph


def reachability(graph):
    """node -> every node reachable from it over one or more edges."""
    adj = graph.adjacency()
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


def assert_same_verdicts(events, classes=None):
    fast = build_serialization_graph(events, classes)
    slow = oracle_build_serialization_graph(events, classes)
    assert fast.nodes == slow.nodes
    assert fast.edges <= slow.edges
    assert reachability(fast) == reachability(slow)
    cycle = find_cycle(fast)
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
    the others keep one drawn class.  Some reads and writes carry no class
    annotation and take it from the returned ``classes`` map.  Each txn
    commits or aborts after its last read or write; where the terminal
    event falls does not change the graph."""
    items = ["x", "y", "z"][: draw(st.integers(1, 3))]
    classes = {item: draw(st.sampled_from(list(CCClass))) for item in items}
    classes["x"] = draw(st.sampled_from((CCClass.O, CCClass.P)))
    n_txns = draw(st.integers(1, 8))
    steps = draw(st.lists(
        st.tuples(st.integers(1, n_txns), st.sampled_from("rw"), st.sampled_from(items)),
        max_size=40,
    ))
    events = []
    for time, (txn_id, op, item) in enumerate(steps):
        cls = classes[item]
        if item == "x":
            cls = draw(st.sampled_from((CCClass.O, CCClass.P)))
        detail = f"v{time}@{cls.value}" if draw(st.booleans()) else f"v{time}"
        events.append(ScheduleEvent(time, txn_id, op, item, detail))
    for txn_id in draw(st.permutations(range(1, n_txns + 1))):
        if draw(st.integers(0, 3)):
            events.append(ScheduleEvent(len(steps), txn_id, "c"))
        else:
            events.append(ScheduleEvent(len(steps), txn_id, "a", "", "validation"))
    return events, classes


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(histories())
def test_reduced_graph_keeps_the_conflict_closure(history):
    events, classes = history
    assert_same_verdicts(events, classes)


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
