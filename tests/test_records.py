"""Every record a replay hands out, checked against its public constructor.

The replay path builds its ``NamedTuple`` records with ``tuple.__new__``,
which skips the class's arity check and its defaults.  These tests replay
whole runs, collect every trace row, termination record, read outcome,
read-set record, write intent, lock grant and planned transaction, and
check each one: its type is the class itself, it has exactly the class's
fields, it equals the record the public constructor builds from its
fields, and each field has the kind of value that field holds.
"""

import random
from numbers import Real
from pathlib import Path

import pytest

from adaptivecc import cli
from adaptivecc.adaptation import AdaptationConfig
from adaptivecc.engine import (
    AbortReason,
    Engine,
    ReadOutcome,
    ReadRecord,
    ReadStatus,
    TerminationRecord,
    WriteIntent,
)
from adaptivecc.harness import (
    TEMPLATE_TPCC_DECK,
    WORKLOADS,
    Access,
    EpochProfile,
    ExperimentRunner,
    TxnTemplate,
)
from adaptivecc.locks import Grant, LockManager
from adaptivecc.sg import ScheduleEvent
from adaptivecc.store import CCClass

ROOT = Path(__file__).resolve().parent.parent


def _number(x):
    return isinstance(x, Real) and not isinstance(x, bool)


def _maybe(kind):
    return lambda x: x is None or kind(x)


def _pairs(first, second):
    return lambda x: isinstance(x, tuple) and all(
        isinstance(p, tuple) and len(p) == 2 and first(p[0]) and second(p[1]) for p in x
    )


def _is(cls):
    return lambda x: isinstance(x, cls)


def _int(x):
    return type(x) is int


_str = _is(str)
_reason = _maybe(_is(AbortReason))

# Per class, one predicate per field, in field order.
FIELDS = {
    ScheduleEvent: (_int, _int, lambda op: op in "rlwca" and len(op) == 1, _str, _str),
    TerminationRecord: (
        _int,
        lambda outcome: outcome in ("commit", "abort"),
        _reason,
        _number,
        _maybe(_number),
        _maybe(_number),
        _number,
        _pairs(_str, _is(CCClass)),
        _pairs(_str, _int),
        _number,
    ),
    ReadOutcome: (_is(ReadStatus), lambda value: True, _int, _is(bool), _reason),
    ReadRecord: (lambda value: True, _int, _is(CCClass)),
    WriteIntent: (lambda kind: kind in ("absolute", "delta"), _number),
    Grant: (_str, _int, _int),
    Access: (_str, _maybe(_number)),
    TxnTemplate: (
        _str,
        lambda accesses: isinstance(accesses, tuple) and all(type(a) is Access for a in accesses),
        _is(bool),
    ),
}


def _check(record, cls):
    assert type(record) is cls, (cls.__name__, record)
    assert len(record) == len(cls._fields), (cls.__name__, record)
    assert record == cls(*record), (cls.__name__, record)
    for name, value, holds in zip(cls._fields, record, FIELDS[cls]):
        assert holds(value), (cls.__name__, name, record)


def _deck():
    return ExperimentRunner(
        EpochProfile(
            lambdas=(150.0, 150.0, 150.0), dt_min_ms=10, dt_max_ms=300,
            template=TEMPLATE_TPCC_DECK, seed=7,
        )
    )


def _experiment():
    conf = (ROOT / "demos" / "experiment.conf").read_text(encoding="utf-8")
    profile, adapt_config, kwargs = cli.build_run(cli.parse_config(conf))
    del kwargs["out_dir"]
    return ExperimentRunner(profile, adapt_config, **kwargs)


def _fig7():
    # the runner overload_adaptation_scenario replays
    profile = EpochProfile(lambdas=(0.0, 0.0, 0.0), template="fig7", epoch_ms=100.0)
    return ExperimentRunner(profile, AdaptationConfig(gamma=0.8, delta=0.1), op_cost_ms=0.0)


@pytest.mark.parametrize(
    "make_runner", [_deck, _experiment, _fig7], ids=["deck", "experiment", "fig7"]
)
def test_every_record_a_replay_hands_out_matches_its_constructor(make_runner, monkeypatch):
    outcomes, grants, txns = [], [], []

    def keep(owner, name, into):
        # every value owner.name returns is also appended to into
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            into.append(result)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    keep(Engine, "read", outcomes)
    keep(Engine, "read_escrow", outcomes)
    keep(Engine, "_record_read", outcomes)  # also the outcomes of granted and flushed waits
    keep(Engine, "begin", txns)
    keep(LockManager, "release", grants)
    runner = make_runner()
    profile = runner.profile
    plan = list(WORKLOADS[profile.template].plan(profile, random.Random(profile.seed))[1])
    result = runner.run()

    found = {
        ScheduleEvent: result.schedule,
        TerminationRecord: result.events,
        ReadOutcome: outcomes,
        ReadRecord: [rec for txn in txns for rec in txn.read_set.values()],
        WriteIntent: [intent for txn in txns for intent in txn.write_set.values()],
        Grant: [grant for grant in grants if grant is not None],
        TxnTemplate: [template for _, template, _ in plan],
        Access: [access for _, template, _ in plan for access in template.accesses],
    }
    assert len(result.events) == len(txns) == len(plan)
    for cls, records in found.items():
        for record in records:
            _check(record, cls)
    empty = {cls.__name__ for cls, records in found.items() if not records}
    assert empty <= ({"Grant"} if make_runner is _fig7 else set())
    statuses = {outcome.status for outcome in outcomes}
    assert ReadStatus.DONE in statuses
    if make_runner is not _fig7:
        assert ReadStatus.WAITING in statuses
