import csv
import io
import random
from statistics import fmean, pstdev
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptivecc.engine import AbortReason, TerminationRecord
from adaptivecc.harness import TEMPLATE_TPCC_DECK, EpochProfile, run_experiment
from adaptivecc.metrics import (
    TERMINATION_COLUMNS,
    Summary,
    aggregate,
    read_terminations_csv,
    summarize,
    write_summary_csv,
    write_terminations_csv,
    write_timeseries_csv,
)
from adaptivecc.store import CCClass


def term(txn_id, time_ms, outcome="commit", reason=None, response=10, service=5, items=()):
    """A record with integer stamps, as ``read_terminations_csv`` builds it."""
    return TerminationRecord(
        txn_id=txn_id,
        outcome=outcome,
        abort_reason=AbortReason(reason) if reason else None,
        arrival_ms=time_ms - response,
        first_read_ms=None,
        write_submit_ms=None,
        termination_ms=time_ms,
        items=tuple((item, CCClass(cls)) for item, cls in items),
        queue_snapshots={},
        service_ms=service,
    )


def test_log_rejects_service_outside_response():
    header = "txn_id,time_ms,outcome,abort_reason,response_time_ms,service_time_ms,items\n"
    for service in (6, -1):
        with pytest.raises(ValueError):
            read_terminations_csv(io.StringIO(header + f"1,0,commit,,5,{service},\n"))


def test_log_rejects_a_negative_stamp_or_an_unknown_outcome():
    header = "txn_id,time_ms,outcome,abort_reason,response_time_ms,service_time_ms,items\n"
    rows = "1,-50,commit,,10,5,\n2,250,abort,validation,10,5,\n"
    with pytest.raises(ValueError, match="-50"):
        read_terminations_csv(io.StringIO(header + rows))
    with pytest.raises(ValueError, match="'bogus'"):
        read_terminations_csv(io.StringIO(header + "1,50,bogus,,10,5,\n"))
    assert [r.outcome for r in read_terminations_csv(io.StringIO(
        header + "1,0,commit,,0,0,\n2,250,abort,validation,10,5,\n"
    ))] == ["commit", "abort"]


def test_log_reads_back_item_ids_with_its_other_separators():
    # Store refuses ';' in an id; '@' (the last one splits off the class)
    # and ',' (the csv module quotes the cell) read back as written.
    events = [term(1, 10, items=(("a@b", "O"), ("c,d", "R"), ("e", "P")))]
    buffer = io.StringIO()
    write_terminations_csv(events, buffer)
    buffer.seek(0)
    assert [r.items for r in read_terminations_csv(buffer)] == [events[0].items]


def test_aggregate_refuses_a_record_stamped_before_time_0():
    # Negative list indexing once filed the commit at -50 in the last window.
    with pytest.raises(ValueError, match="-50"):
        aggregate([term(1, -50), term(2, 250, outcome="abort", reason="validation")], 100.0)
    rows = aggregate([term(1, -0.5), term(2, 250, outcome="abort", reason="validation")], 100.0)
    assert (rows[0].commits_cum, rows[-1].aborts_cum) == (1, 1)  # -0.5 is stamped 0


def test_record_caps_service_time_at_response():
    record = term(1, 100, response=5, service=6)
    assert record.service_time_ms == record.response_time_ms == 5


def test_aggregate_single_bucket_commit_rate():
    events = [term(1, 10)] + [
        term(i, 10 + i, outcome="abort", reason="validation") for i in range(2, 9)
    ]
    rows = aggregate(events, tw_ms=100.0)
    assert len(rows) == 1
    assert rows[0].cr == 0.125
    assert rows[0].commits_cum == 1
    assert rows[0].aborts_cum == 7


def test_aggregate_reclassification_leaves_denominator():
    events = [
        term(1, 10),
        term(2, 20, outcome="abort", reason="reclassification"),
        term(3, 30, outcome="abort", reason="constraint"),
        term(4, 40),
        term(5, 50),
    ]
    rows = aggregate(events, tw_ms=100.0)
    assert rows[0].cr == 0.75  # 3 / (5 - 1)
    assert rows[0].cr_eff == 0.6  # 3 / 5


def test_aggregate_empty_bucket_carries_cr():
    events = [term(1, 10), term(2, 250, outcome="abort", reason="validation")]
    rows = aggregate(events, tw_ms=100.0)
    assert len(rows) == 3
    assert rows[0].cr == 1.0
    assert rows[1].cr == 1.0  # empty bucket: carried
    assert rows[1].commits_cum == 1
    assert rows[2].cr == 0.0


def test_aggregate_samples_and_arrivals():
    events = [term(1, 10), term(2, 110)]
    rows = aggregate(
        events,
        tw_ms=100.0,
        samples=[(100.0, 500.0, "P"), (200.0, 0.0, "O")],
        arrivals=[1.0, 2.0, 105.0],
    )
    assert rows[0].rt_est == 500.0 and rows[0].current_class == "P"
    assert rows[1].rt_est == 0.0 and rows[1].current_class == "O"
    assert rows[0].arrivals_cum == 2
    assert rows[1].arrivals_cum == 3
    # change points that share an instant: the later one in the list wins
    rows = aggregate([term(1, 50)], 100.0, samples=[(100.0, 5.0, "P"), (100.0, 0.0, "O")])
    assert rows[0].rt_est == 0.0 and rows[0].current_class == "O"


def test_a_termination_stamped_on_a_window_end_counts_in_the_next_window():
    # 10 * 30.3 rounds to 303.0, but 303 // 30.3 is 9.0: the commit at 303
    # was counted in the window that ends at 303, unlike the arrival at 303.
    rows = aggregate([term(1, 302), term(2, 303)], 30.3, arrivals=[302.0, 303.0])
    assert [(r.time_ms, r.arrivals_cum, r.commits_cum) for r in rows[-2:]] == [
        (303, 1, 1), (333, 2, 2)
    ]


def _window_of(stamp, tw_ms):
    """The first k with stamp < k * tw_ms, by counting."""
    k = 1
    while not stamp < k * tw_ms:
        k += 1
    return k


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    tw_ms=st.integers(11, 3000).filter(lambda n: n % 10).map(lambda n: n / 10),
    ends=st.lists(st.integers(1, 150), min_size=1, max_size=20),
    offsets=st.lists(st.sampled_from([-1, 0, 1]), min_size=20, max_size=20),
    stamps=st.lists(st.integers(0, 5000), max_size=10),
)
def test_aggregate_places_each_stamp_in_the_first_window_that_ends_after_it(
    tw_ms, ends, offsets, stamps
):
    # stamps on and next to the rounded window ends k * tw_ms, and anywhere
    stamps = stamps + [max(round(k * tw_ms) + d, 0) for k, d in zip(ends, offsets)]
    events = [
        term(i, stamp) if i % 2 else term(i, stamp, outcome="abort", reason="validation")
        for i, stamp in enumerate(stamps)
    ]
    windows = [_window_of(stamp, tw_ms) for stamp in stamps]
    rows = aggregate(events, tw_ms)
    assert len(rows) == max(windows)
    for k, row in enumerate(rows, start=1):
        assert row.time_ms == int(k * tw_ms)
        assert row.commits_cum == sum(1 for i, w in enumerate(windows) if w <= k and i % 2)
        assert row.aborts_cum == sum(1 for i, w in enumerate(windows) if w <= k and not i % 2)


def test_summarize_degree_of_concurrency():
    events = [
        term(1, 100, response=400, service=400),
        term(2, 200, response=400, service=400),
    ]
    summary = summarize(events, 250.0, aggregate(events, 100.0))
    assert summary.deg_conc == pytest.approx(3.2)
    assert summary.abort_rate == 0.0
    assert summary.commits_per_sec == pytest.approx(8.0)


def test_summarize_consistency_and_reason_partition():
    rng = random.Random(4)
    events = []
    reasons = ("validation", "constraint", "deadlock", "reclassification")
    for i in range(200):
        if rng.random() < 0.6:
            events.append(term(i, rng.randrange(0, 5000)))
        else:
            events.append(
                term(
                    i,
                    rng.randrange(0, 5000),
                    outcome="abort",
                    reason=rng.choice(reasons),
                )
            )
    elapsed = 5000.0
    summary = summarize(events, elapsed, aggregate(events, 100.0))
    commits = sum(1 for e in events if e.outcome == "commit")
    assert summary.commits_per_sec * (elapsed / 1000.0) == pytest.approx(commits)
    assert sum(summary.abort_rate_by_reason.values()) == pytest.approx(summary.abort_rate)
    assert summary.tas == 200


def _synthetic_events():
    rng = random.Random(9)
    events = []
    for i in range(300):
        response = rng.randrange(0, 4000)
        outcome = rng.choice(["commit", "abort"])
        reason = rng.choice(["validation", "constraint"]) if outcome == "abort" else None
        events.append(
            term(
                i,
                rng.randrange(0, 60_000),
                outcome=outcome,
                reason=reason,
                response=response,
                service=rng.randrange(0, response + 1),
                items=(("hot", "O"), ("ledger", "R"))[: rng.randrange(0, 3)],
            )
        )
    return events, 60_000.0, summarize(events, 60_000.0, aggregate(events, 100.0))


def _deck_run_events():
    profile = EpochProfile(
        lambdas=(150.0,), dt_min_ms=10, dt_max_ms=300, template=TEMPLATE_TPCC_DECK, seed=7
    )
    result = run_experiment(profile)
    # float stamps and busy time: the log is where they are truncated
    assert any(e.termination_ms != int(e.termination_ms) for e in result.events)
    assert any(e.service_time_ms > 0 for e in result.events)
    return result.events, result.elapsed_ms, result.summary


@pytest.mark.parametrize(
    "source", [_synthetic_events, _deck_run_events], ids=["synthetic", "deck_run"]
)
def test_roundtrip_summary_is_bit_exact(source):
    events, elapsed, summary = source()
    buffer = io.StringIO()
    write_terminations_csv(events, buffer)
    buffer.seek(0)
    parsed = read_terminations_csv(buffer)
    fields = (
        "txn_id",
        "time_ms",
        "outcome",
        "abort_reason",
        "response_time_ms",
        "service_time_ms",
        "items",
    )
    assert [[getattr(e, f) for f in fields] for e in parsed] == [
        [getattr(e, f) for f in fields] for e in events
    ]
    # bit-exact on every numeric field
    assert summarize(parsed, elapsed, aggregate(parsed, 100.0)) == summary


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], 100.0, [])


def test_csv_headers_are_stable():
    events = [term(1, 10)]
    rows = aggregate(events, 100.0)
    ts, sm = io.StringIO(), io.StringIO()
    write_timeseries_csv(rows, ts)
    write_summary_csv(summarize(events, 100.0, rows), sm)
    assert ts.getvalue().splitlines()[0] == (
        "time_ms,arrivals_cum,commits_cum,aborts_cum,cr,cr_eff,rt_est,current_class"
    )
    assert sm.getvalue().splitlines()[0].startswith("mean_rt_ms,mean_cr,std_cr,mean_cr_eff,tas")


def test_aggregate_empty_bucket_carries_cr_eff():
    events = [
        term(1, 10),
        term(2, 20, outcome="abort", reason="reclassification"),
        term(3, 250),
    ]
    rows = aggregate(events, tw_ms=100.0)
    # bucket 0: cr 1/1 (reclass excluded), cr_eff 1/2
    assert rows[0].cr == 1.0 and rows[0].cr_eff == 0.5
    # empty bucket 1 carries both rates
    assert rows[1].cr == 1.0 and rows[1].cr_eff == 0.5


def test_aggregate_and_summary_ignore_record_order():
    result = run_experiment(
        EpochProfile(lambdas=(150.0, 150.0), template=TEMPLATE_TPCC_DECK, seed=7)
    )
    shuffled = list(result.events)
    random.Random(3).shuffle(shuffled)
    assert shuffled != result.events
    assert aggregate(shuffled, 100.0) == aggregate(result.events, 100.0)
    assert summarize(shuffled, result.elapsed_ms, aggregate(shuffled, 100.0)) == result.summary


def oracle_summarize(events, elapsed_ms, tw_ms):
    """The multi-pass ``summarize``: one list per outcome and the record
    properties, kept as the oracle of the one-pass version."""
    events = list(events)
    if not events:
        raise ValueError("no termination events to summarize")
    if elapsed_ms <= 0:
        raise ValueError("elapsed_ms must be positive")
    commits = [e for e in events if e.outcome == "commit"]
    aborts = [e for e in events if e.outcome != "commit"]
    series = aggregate(events, tw_ms)
    cr_values = [row.cr for row in series]
    by_reason = {
        reason.value: sum(1 for e in aborts if e.abort_reason is reason) / len(events)
        for reason in AbortReason
    }
    return Summary(
        mean_rt_ms=fmean(e.response_time_ms for e in events),
        mean_cr=fmean(cr_values),
        std_cr=pstdev(cr_values),
        mean_cr_eff=len(commits) / len(events),
        tas=len(events),
        commits_per_sec=len(commits) / (elapsed_ms / 1000.0),
        deg_conc=sum(e.service_time_ms for e in commits) / elapsed_ms,
        abort_rate=len(aborts) / len(events),
        abort_rate_by_reason=by_reason,
    )


def _bits(summary):
    # every field, floats as their exact hex form
    fields = {k: getattr(summary, k) for k in Summary.__dataclass_fields__}
    fields.update(fields.pop("abort_rate_by_reason"))
    return {k: v.hex() if isinstance(v, float) else v for k, v in fields.items()}


_stamp = st.floats(min_value=0.0, max_value=50_000.0)
_row = st.one_of(
    st.tuples(st.just("commit"), st.none(), _stamp, _stamp, _stamp),
    st.tuples(st.just("abort"), st.none() | st.sampled_from(AbortReason), _stamp, _stamp, _stamp),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(_row, min_size=1, max_size=40),
    tw_ms=st.sampled_from([50.0, 100.0, 333.3, 1000.0]),
    elapsed_ms=st.floats(min_value=0.001, max_value=200_000.0),
    as_iterator=st.booleans(),
)
@example(rows=[("commit", None, 10.0, 7.5, 3.0)], tw_ms=100.0, elapsed_ms=20.0,
         as_iterator=True)
@example(rows=[("abort", None, 0.5, 90.0, 8.0)], tw_ms=100.0, elapsed_ms=95.0,
         as_iterator=False)
@example(rows=[("abort", None, 0.0, 1.0, 0.0), ("abort", AbortReason.DEADLOCK, 2.0, 3.0, 9.0)],
         tw_ms=50.0, elapsed_ms=5.0, as_iterator=True)
def test_summarize_matches_the_multi_pass_oracle(rows, tw_ms, elapsed_ms, as_iterator):
    # rows: (outcome, abort reason, arrival, response span, busy time)
    events = [
        TerminationRecord(i, outcome, reason, arrival, None, None, arrival + span, (), (), busy)
        for i, (outcome, reason, arrival, span, busy) in enumerate(rows, start=1)
    ]
    expected = oracle_summarize(events, elapsed_ms, tw_ms)
    got = summarize(iter(events) if as_iterator else events, elapsed_ms, aggregate(events, tw_ms))
    assert _bits(got) == _bits(expected)


# -- read_terminations_csv against its parse-every-cell oracle ---------------


def oracle_read_terminations_csv(infile):
    """``read_terminations_csv`` parsing every row's items cell anew, with one
    ``CCClass(letter)`` call per item, kept as the oracle of the version
    that parses each distinct cell once."""
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TERMINATION_COLUMNS:
        raise ValueError(f"termination log header must be {','.join(TERMINATION_COLUMNS)}")
    records = []
    for row in reader:
        if not row:
            continue
        time_ms, response, service = int(row[1]), int(row[4]), int(row[5])
        if time_ms < 0 or row[2] not in ("commit", "abort"):
            raise ValueError(f"need time_ms >= 0 and a commit or abort outcome: {row}")
        if not 0 <= service <= response:
            raise ValueError("need response_time >= service_time >= 0")
        if row[6]:
            parts = (part.rsplit("@", 1) for part in row[6].split(";"))
            items = tuple((item, CCClass(letter)) for item, letter in parts)
        else:
            items = ()
        records.append(
            TerminationRecord(
                txn_id=int(row[0]),
                outcome=row[2],
                abort_reason=AbortReason(row[3]) if row[3] else None,
                arrival_ms=time_ms - response,
                first_read_ms=None,
                write_submit_ms=None,
                termination_ms=time_ms,
                items=items,
                queue_snapshots=(),
                service_ms=service,
            )
        )
    return records


# Stand-ins the writer prints as an unknown class letter or abort reason.
_UNKNOWN_CLASS = SimpleNamespace(_value_="X")
_UNKNOWN_REASON = SimpleNamespace(_value_="bogus")
# item ids holding the csv module's quote, separator and line breaks, and '@'
_item_ids = st.text(st.sampled_from('xy,"\r\n@'), min_size=1, max_size=4)


@st.composite
def termination_files(draw):
    """A termination log as ``write_terminations_csv`` writes it, over a few
    read sets so that items cells repeat.  Now and then a record is one the
    reader refuses: stamped before time 0, an unknown outcome, a negative
    service time, an unknown class letter or abort reason."""
    classes = st.sampled_from(list(CCClass))
    read_sets = draw(st.lists(
        st.lists(st.tuples(_item_ids, classes), max_size=3).map(tuple), min_size=1, max_size=3
    ))
    records = []
    for txn_id in range(1, draw(st.integers(0, 20)) + 1):
        outcome = draw(st.sampled_from(["commit", "abort"]))
        reason = draw(st.none() | st.sampled_from(AbortReason)) if outcome == "abort" else None
        time_ms, response = draw(st.integers(0, 1000)), draw(st.integers(0, 50))
        service = draw(st.integers(0, response))
        items = draw(st.sampled_from(read_sets))
        flaw = draw(st.integers(0, 30))
        if flaw == 1:
            time_ms = -draw(st.integers(1, 50))
        elif flaw == 2:
            outcome = "bogus"
        elif flaw == 3:
            service = -1
        elif flaw == 4:
            items = items + (("z", _UNKNOWN_CLASS),)
        elif flaw == 5:
            reason = _UNKNOWN_REASON
        records.append(TerminationRecord(
            txn_id, outcome, reason, time_ms - response, None, None, time_ms, items, (), service
        ))
    buffer = io.StringIO(newline="")
    write_terminations_csv(records, buffer)
    return buffer.getvalue()


def read_or_error(reader, text):
    try:
        return reader(io.StringIO(text, newline=""))
    except Exception as exc:
        return type(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(termination_files())
def test_read_terminations_csv_matches_its_oracle_and_shares_items(text):
    got = read_or_error(read_terminations_csv, text)
    assert got == read_or_error(oracle_read_terminations_csv, text)
    if isinstance(got, list):
        assert len({id(r.items) for r in got}) == len({r.items for r in got})
