import io
import random

import pytest

from adaptivecc.engine import AbortReason, TerminationRecord
from adaptivecc.harness import TEMPLATE_TPCC_DECK, EpochProfile, run_experiment
from adaptivecc.metrics import (
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
    summary = summarize(events, elapsed_ms=250.0)
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
    summary = summarize(events, elapsed)
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
    return events, 60_000.0, summarize(events, elapsed_ms=60_000.0)


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
    assert summarize(parsed, elapsed) == summary  # bit-exact on every numeric field


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([], 100.0)


def test_csv_headers_are_stable():
    events = [term(1, 10)]
    rows = aggregate(events, 100.0)
    ts, sm = io.StringIO(), io.StringIO()
    write_timeseries_csv(rows, ts)
    write_summary_csv(summarize(events, 100.0), sm)
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
    assert summarize(shuffled, result.elapsed_ms) == result.summary
