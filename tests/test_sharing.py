"""One object per repeated immutable cell.

A replay's trace rows share an item's ``v<version>@<class>`` detail until
its version or class changes, its termination records their ``items`` and
``queue_snapshots`` tuples, and ``read_trace_csv`` its item and detail
cells: every distinct value is held once, however many rows or records
repeat it.  The engine's caches behind
that are bounded by the store's items and their read sets, not by the
length of the run, and the memory a replay keeps per transaction is bounded.
A replay with an ``out_dir`` writes its trace rows to ``trace.csv`` as it
goes, so it keeps and peaks at far fewer bytes per transaction.
"""

import gc
import io
import tracemalloc
from pathlib import Path

import pytest

from adaptivecc import cli
from adaptivecc.engine import Engine, WriteIntent
from adaptivecc.harness import ExperimentRunner
from adaptivecc.sg import read_trace_csv, write_trace_csv
from adaptivecc.store import CCClass, Store
from microworkload import ManualClock, run_micro_workload

ROOT = Path(__file__).resolve().parent.parent

# Retained bytes per transaction after the seed-7 deck replay of
# bench/deck.conf (10 545 txns), measured with tracemalloc on CPython 3.11:
# 1844 when every row and record held its own copy of each cell, 1296 with
# the cells shared.
RETAINED_BYTES_PER_TXN = 1500
# The same replay with an out_dir, its trace streamed to trace.csv: 288
# bytes retained and a 690-byte peak per txn, against 1296 and 1698 without
# an out_dir.  What it keeps is the termination records and the arrival
# stamps; its peak adds the plan, which lives for the whole replay.
STREAMED_RETAINED_BYTES_PER_TXN = 500
STREAMED_PEAK_BYTES_PER_TXN = 1000


def one_object_per_value(cells):
    cells = list(cells)
    return len({id(cell) for cell in cells}) == len(set(cells))


def rw_details(trace):
    return [ev.detail for ev in trace if ev.op in ("r", "w")]


def details_shared_until_they_change(trace):
    """Each item's read and write rows hold one detail object for as long as
    the detail's value stays the same from one of its rows to the next."""
    last = {}
    for ev in trace:
        if ev.op in ("r", "w"):
            prev = last.get(ev.item)
            if prev == ev.detail and prev is not ev.detail:
                return False
            last[ev.item] = ev.detail
    return True


def snapshots(records):
    return [r.queue_snapshots for r in records if r.queue_snapshots]


def traced_deck(out_dir=None):
    """The seed-7 replay of bench/deck.conf, traced by tracemalloc from
    before the runner is built until the run has returned: the runner, the
    result, and the bytes retained at the end and at the peak."""
    values = cli.parse_config((ROOT / "bench" / "deck.conf").read_text(encoding="utf-8"))
    values["seed"] = "7"
    profile, adapt_config, kwargs = cli.build_run(values)
    del kwargs["out_dir"]
    gc.collect()
    tracemalloc.start()
    try:
        runner = ExperimentRunner(profile, adapt_config, **kwargs)
        result = runner.run(out_dir)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return runner, result, retained, peak


@pytest.fixture(scope="module")
def deck():
    return traced_deck()[:3]


def test_deck_replay_keeps_one_object_per_distinct_cell(deck):
    runner, result, _ = deck
    details = rw_details(result.schedule)
    assert len(set(details)) < len(details) // 4  # the run repeats its tags
    assert details_shared_until_they_change(result.schedule)
    assert one_object_per_value(r.items for r in result.events)
    assert one_object_per_value(snapshots(result.events))
    engine = runner.engine
    assert len(engine._tags) <= len(list(runner.store.items()))
    assert len(engine._items_tuples) == len({r.items for r in result.events}) == 5
    assert len(engine._snapshots) == len({r.queue_snapshots for r in result.events})


def test_deck_replay_retains_a_bounded_number_of_bytes_per_txn(deck):
    _, result, retained = deck
    assert len(result.events) == 10_545
    assert retained / len(result.events) < RETAINED_BYTES_PER_TXN


def test_a_streamed_deck_replay_retains_and_peaks_at_few_bytes_per_txn(tmp_path):
    _, result, retained, peak = traced_deck(str(tmp_path))
    assert len(result.events) == 10_545
    assert retained / len(result.events) < STREAMED_RETAINED_BYTES_PER_TXN
    assert peak / len(result.events) < STREAMED_PEAK_BYTES_PER_TXN


def test_read_trace_csv_shares_the_item_and_detail_cells_of_a_deck_trace(deck):
    _, result, _ = deck
    buffer = io.StringIO(newline="")
    write_trace_csv(result.schedule, buffer)
    buffer.seek(0)
    events = read_trace_csv(buffer)
    assert events == result.schedule
    assert one_object_per_value(ev.item for ev in events)
    assert one_object_per_value(rw_details(events))
    assert one_object_per_value(ev.txn_id for ev in events)


def test_micro_workloads_share_cells_and_keep_the_caches_bounded():
    # One engine runs 300 reclassifying micro workloads over its four items
    # (two adaptable, two pinned in P), about 1500 transactions in all.
    store = Store()
    for k in range(4):
        store.create_item(f"i{k}", 0, CCClass.O if k % 2 else CCClass.P)
    engine = Engine(store, clock=ManualClock())
    records = []
    engine.termination_sinks.append(records.append)
    for seed in range(300):
        run_micro_workload(seed, engine=engine, allow_reclass=True)
    assert len(records) > 1000
    assert {cls for r in records for _, cls in r.items} == {CCClass.O, CCClass.P}
    assert details_shared_until_they_change(engine.trace)
    assert one_object_per_value(r.items for r in records)
    assert one_object_per_value(snapshots(records))
    # one tag per item; one entry per distinct read set and per distinct
    # snapshot, none per txn
    assert len(engine._tags) <= 4
    assert len(engine._items_tuples) == len({r.items for r in records}) < len(records) // 2
    assert len(engine._snapshots) == len({r.queue_snapshots for r in records})
    buffer = io.StringIO(newline="")
    write_trace_csv(engine.trace, buffer)
    buffer.seek(0)
    events = read_trace_csv(buffer)
    assert events == engine.trace
    assert one_object_per_value(rw_details(events))
    assert one_object_per_value(ev.item for ev in events)


def test_a_new_version_or_class_between_two_reads_retags_the_second():
    store = Store()
    store.create_item("x", 0, CCClass.O)
    engine = Engine(store, clock=ManualClock())
    engine.reclassify_item("x", CCClass.P)
    holder, first, second, late = (engine.begin() for _ in range(4))
    engine.read(holder, "x")
    engine.reclassify_item("x", CCClass.O)  # the holder keeps its lock
    engine.read(first, "x")
    engine.read(second, "x")
    engine.disconnect(holder)
    engine.submit_write_set(holder, {"x": WriteIntent.absolute(7)})
    engine.commit_pipeline(holder)
    engine.read(late, "x")
    store.install_version("x", 8)  # a version the engine did not write
    engine.read(engine.begin(), "x")
    rows = [(ev.txn_id, ev.op, ev.detail) for ev in engine.trace if ev.op in ("r", "w")]
    assert rows == [
        (1, "r", "v1@P"),
        (2, "r", "v1@O"),
        (3, "r", "v1@O"),
        (1, "w", "v2@P"),  # the flushed holder writes under the class it read
        (4, "r", "v2@O"),
        (5, "r", "v3@O"),
    ]
    assert one_object_per_value(detail for _, _, detail in rows)
