import io
import random
from statistics import fmean, pstdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaptivecc.engine import AbortReason, TerminationRecord
from adaptivecc.harness import TEMPLATE_TPCC_DECK, EpochProfile, run_experiment
from adaptivecc.metrics import (
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
