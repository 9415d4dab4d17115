"""The run's line-formatting CSV writers against the ``csv.writer`` bodies
they replaced.

``TraceWriter``, ``write_terminations_csv`` and ``write_timeseries_csv``
format each row as one line, quote only the cells that may need it, once
per distinct value, and write joined batches of lines.  The oracles below
are the ``csv.writer`` versions; every writer must give their bytes, for
cells that hold the ``csv`` module's separator, quote and line breaks, for
cells repeated across rows (the quote caches), and for row counts at the
batch boundaries.  What the writers write reads back through the readers.
"""

import csv
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from adaptivecc.engine import AbortReason, TerminationRecord
from adaptivecc.metrics import (
    TERMINATION_COLUMNS,
    TIMESERIES_COLUMNS,
    TimeWindowRow,
    read_terminations_csv,
    write_terminations_csv,
    write_timeseries_csv,
)
from adaptivecc.sg import (
    BATCH_LINES,
    TRACE_COLUMNS,
    ScheduleEvent,
    TraceWriter,
    read_trace_csv,
    write_trace_csv,
)
from adaptivecc.store import CCClass


def oracle_trace_csv(events):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows(events)
    return buffer.getvalue()


def oracle_terminations_csv(events):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(TERMINATION_COLUMNS)
    writer.writerows(
        (
            txn_id,
            int(termination),
            outcome,
            reason._value_ if reason else "",
            response := int(termination - arrival),
            min(int(service), response),
            ";".join([f"{item}@{cls._value_}" for item, cls in items]),
        )
        for txn_id, outcome, reason, arrival, _, _, termination, items, _, service in events
    )
    return buffer.getvalue()


def oracle_timeseries_csv(rows):
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(TIMESERIES_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.time_ms,
                row.arrivals_cum,
                row.commits_cum,
                row.aborts_cum,
                f"{row.cr:.6f}",
                f"{row.cr_eff:.6f}",
                f"{row.rt_est:.3f}",
                row.current_class,
            ]
        )
    return buffer.getvalue()


def written(write, rows):
    """The lines ``write`` writes for ``rows``, each with its line break: a
    failed comparison names the first line that differs, and pytest does not
    diff the whole text on every example Hypothesis shrinks."""
    buffer = io.StringIO(newline="")
    write(rows, buffer)
    return lines(buffer.getvalue())


def lines(text):
    return text.splitlines(keepends=True)


# Cells built from the csv module's separator, quote and line breaks, a
# space, non-ASCII letters, and the '@' and ';' the items cell is built of;
# the empty cell included.
_FRAGMENTS = [",", '"', "\r", "\n", "\r\n", " ", "é", "€", "x", "@", ";"]
cells = st.lists(st.sampled_from(_FRAGMENTS), max_size=4).map("".join)
# Row counts at the batch boundaries, and a few in between.
row_counts = st.sampled_from(
    [0, 1, 2, 17, BATCH_LINES - 1, BATCH_LINES, BATCH_LINES + 1, 2 * BATCH_LINES]
)


def cycled(pool, count):
    """``count`` rows taken from ``pool`` in turn, so rows repeat."""
    return [pool[k % len(pool)] for k in range(count)] if pool else []


@st.composite
def engine_traces(draw):
    """An engine trace: integer stamps and txn ids, the five ops, a few item
    ids reused across rows, and the engine's detail cells."""
    items = draw(st.lists(cells, min_size=1, max_size=3))
    pool = []
    for _ in range(draw(st.integers(1, 12))):
        time, txn = draw(st.integers(0, 10**6)), draw(st.integers(1, 10**5))
        op = draw(st.sampled_from("rwlca"))
        if op in "rw":
            tag = f"v{draw(st.integers(0, 99))}@{draw(st.sampled_from('ORPE'))}"
            row = (time, txn, op, draw(st.sampled_from(items)), tag)
        elif op == "l":
            row = (time, txn, op, draw(st.sampled_from(items)), "P")
        else:
            reasons = [""] + ([r.value for r in AbortReason] if op == "a" else [])
            row = (time, txn, op, "", draw(st.sampled_from(reasons)))
        pool.append(ScheduleEvent(*row))
    return cycled(pool, draw(row_counts))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(engine_traces(), st.lists(st.integers(0, 2 * BATCH_LINES), max_size=3))
def test_trace_writer_writes_the_csv_writer_bytes_in_any_chunks(events, cuts):
    expected = oracle_trace_csv(events)
    buffer = io.StringIO(newline="")
    writer = TraceWriter(buffer)
    bounds = [0, *sorted(cuts), len(events)]
    for start, end in zip(bounds, bounds[1:]):
        writer.writerows(events[start:end])
    assert lines(buffer.getvalue()) == lines(expected)
    assert written(write_trace_csv, events) == lines(expected)
    assert read_trace_csv(io.StringIO(expected, newline="")) == events


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.one_of(cells, st.integers(), st.floats(), st.none())), max_size=6))
def test_write_trace_csv_writes_any_row_as_the_csv_writer(rows):
    # short, long, empty and non-integer rows: the general path
    assert written(write_trace_csv, rows) == lines(oracle_trace_csv(rows))


@st.composite
def termination_logs(draw, separators=True):
    """Records over a few shared items tuples, and now and then a fresh tuple
    equal to one of them; item ids hold ';' only when ``separators``."""
    ids = cells if separators else cells.filter(lambda cell: ";" not in cell)
    read_sets = draw(st.lists(
        st.lists(st.tuples(ids, st.sampled_from(list(CCClass))), max_size=3).map(tuple),
        min_size=1, max_size=3,
    ))
    pool = []
    for txn_id in range(1, draw(st.integers(1, 10)) + 1):
        outcome = draw(st.sampled_from(["commit", "abort"]))
        reason = draw(st.none() | st.sampled_from(AbortReason)) if outcome == "abort" else None
        arrival = draw(st.floats(0, 1e6))
        termination = arrival + draw(st.floats(0, 1e4))
        service = draw(st.floats(0, termination - arrival))
        items = draw(st.sampled_from(read_sets))
        if draw(st.integers(0, 4)) == 0:
            items = tuple(list(items))  # equal, but not the same object
        pool.append(TerminationRecord(
            txn_id, outcome, reason, arrival, None, None, termination, items, (), service
        ))
    return cycled(pool, draw(row_counts))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(termination_logs())
def test_write_terminations_csv_writes_the_csv_writer_bytes(records):
    assert written(write_terminations_csv, records) == lines(oracle_terminations_csv(records))


def integer_views(record):
    return (record.txn_id, record.time_ms, record.outcome, record.abort_reason,
            record.response_time_ms, record.service_time_ms, record.items)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(termination_logs(separators=False))
def test_a_termination_log_reads_back_its_integer_views(records):
    text = "".join(written(write_terminations_csv, records))
    back = read_terminations_csv(io.StringIO(text, newline=""))
    assert [integer_views(r) for r in back] == [integer_views(r) for r in records]


floats = st.floats(allow_nan=True, allow_infinity=True)
window_rows = st.builds(
    TimeWindowRow,
    time_ms=st.integers(0, 10**7),
    arrivals_cum=st.integers(0, 10**6),
    commits_cum=st.integers(0, 10**6),
    aborts_cum=st.integers(0, 10**6),
    cr=floats,
    cr_eff=floats,
    rt_est=floats,
    current_class=st.one_of(st.sampled_from(["O", "R", "P", "E", "-"]), cells),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(window_rows, min_size=1, max_size=5), row_counts)
def test_write_timeseries_csv_writes_the_csv_writer_bytes(pool, count):
    rows = cycled(pool, count)
    assert written(write_timeseries_csv, rows) == lines(oracle_timeseries_csv(rows))

