"""The streamed trace against the in-memory oracle.

A run with an ``out_dir`` writes ``trace.csv`` in chunks while it replays
and returns an ``sg.TraceFile`` as its schedule.  The same run without one
keeps the engine's whole trace in a list, which is the oracle here: the
streamed file must hold exactly the bytes ``write_trace_csv`` writes for
that list, and reading it back must give the list's events.  A run that
fails, while it replays or while it writes its CSVs, leaves the files
already in its ``out_dir`` as they were, and so does a failed direct call
of ``write_outputs``.  The writers call the file object once per batch of
lines, not once per row.
"""

import errno
import io
import os
from pathlib import Path

import pytest

from adaptivecc import cli, harness, metrics
from adaptivecc.harness import (
    ExperimentRunner,
    overload_adaptation_scenario,
    run_experiment,
    write_outputs,
)
from adaptivecc.sg import TraceFile, trace_rows, write_trace_csv
from test_golden import CONFIGS, EXPERIMENT

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("trace.csv", "terminations.csv", "timeseries.csv", "summary.csv", "adaptation.csv")


def build(text, **changes):
    values = cli.parse_config(text)
    values.update(changes)
    profile, adapt_config, kwargs = cli.build_run(values)
    del kwargs["out_dir"]
    return profile, adapt_config, kwargs


def assert_streamed_like(oracle, schedule, out_dir):
    """``schedule`` and ``out_dir/trace.csv`` of a streamed run hold the
    rows of ``oracle``, the in-memory trace of the same run."""
    assert isinstance(oracle, list) and isinstance(schedule, TraceFile)
    expected = io.StringIO(newline="")
    write_trace_csv(oracle, expected)
    path = Path(out_dir) / "trace.csv"
    assert path.read_bytes() == expected.getvalue().encode("utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in trace_rows(fh))
    assert len(schedule) == rows == len(oracle)
    assert list(schedule) == oracle


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_runs_stream_the_in_memory_trace(name, tmp_path):
    profile, adapt_config, kwargs = build(CONFIGS[name])
    oracle = run_experiment(profile, adapt_config, **kwargs)
    streamed = run_experiment(profile, adapt_config, str(tmp_path), **kwargs)
    assert_streamed_like(oracle.schedule, streamed.schedule, tmp_path)
    assert streamed.events == oracle.events


def test_fig7_streams_the_in_memory_trace(tmp_path):
    oracle = overload_adaptation_scenario()
    streamed = overload_adaptation_scenario(str(tmp_path))
    assert_streamed_like(oracle.schedule, streamed.schedule, tmp_path)


@pytest.fixture(scope="module")
def deck_oracle():
    """The in-memory trace of the seed-7 replay of bench/deck.conf."""
    settings = build((ROOT / "bench" / "deck.conf").read_text(encoding="utf-8"), seed="7")
    return settings, run_experiment(*settings[:2], **settings[2]).schedule


@pytest.mark.parametrize("chunk", [1, 97])
def test_a_small_chunk_drains_mid_transaction_and_streams_the_same_trace(
    chunk, deck_oracle, tmp_path, monkeypatch
):
    (profile, adapt_config, kwargs), oracle = deck_oracle
    monkeypatch.setattr(harness, "TRACE_CHUNK_ROWS", chunk)
    drained = []  # the txn ids of each chunk written
    drain = ExperimentRunner._drain_trace

    def spy(self):
        drained.append({ev.txn_id for ev in self.engine.trace})
        drain(self)

    monkeypatch.setattr(ExperimentRunner, "_drain_trace", spy)
    streamed = ExperimentRunner(profile, adapt_config, **kwargs).run(str(tmp_path))
    assert_streamed_like(oracle, streamed.schedule, tmp_path)
    # some transaction's rows went out in two chunks
    assert any(a & b for a, b in zip(drained, drained[1:]))


def test_a_failed_run_leaves_out_dir_as_it_was(tmp_path, monkeypatch):
    profile, adapt_config, kwargs = build(CONFIGS["deck"])
    run_experiment(profile, adapt_config, str(tmp_path), **kwargs)  # a previous run
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == sorted(OUTPUTS)

    class SinkError(Exception):
        pass

    listed = []

    def failing_sink(record):
        if record.txn_id == 300:
            listed.extend(os.listdir(tmp_path))
            raise SinkError(record.txn_id)

    monkeypatch.setattr(harness, "TRACE_CHUNK_ROWS", 97)  # some chunks are out by txn 300
    profile, adapt_config, kwargs = build(CONFIGS["deck"], seed="8")
    runner = ExperimentRunner(profile, adapt_config, **kwargs)
    runner.engine.termination_sinks.append(failing_sink)
    with pytest.raises(SinkError):
        runner.run(str(tmp_path))
    assert len(listed) == len(OUTPUTS) + 1  # the trace was streaming into its own file
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "writer",
    ["write_terminations_csv", "write_timeseries_csv", "write_summary_csv",
     "write_adaptation_csv"],
)
def test_a_failed_csv_write_leaves_out_dir_as_it_was(writer, tmp_path, monkeypatch):
    out = tmp_path / "out"
    profile, adapt_config, kwargs = build(EXPERIMENT)
    run_experiment(profile, adapt_config, str(out), **kwargs)  # a previous run, seed 7
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == sorted(OUTPUTS)

    def full_disk(rows, fh):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(metrics, writer, full_disk)
    profile, adapt_config, kwargs = build(EXPERIMENT, seed="8")
    with pytest.raises(OSError, match="No space left"):
        run_experiment(profile, adapt_config, str(out), **kwargs)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before  # no part left

    config = tmp_path / "seed8.conf"
    config.write_text(EXPERIMENT + f"seed = 8\nout_dir = {out}\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize(
    "writer",
    ["write_terminations_csv", "write_timeseries_csv", "write_summary_csv",
     "write_adaptation_csv"],
)
def test_a_failed_direct_write_outputs_leaves_no_part(writer, tmp_path, monkeypatch):
    profile, adapt_config, kwargs = build(EXPERIMENT)
    result = run_experiment(profile, adapt_config, **kwargs)  # in memory: nothing streamed

    def full_disk(rows, fh):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(metrics, writer, full_disk)
    with pytest.raises(OSError, match="No space left"):
        write_outputs(result, str(tmp_path))
    assert list(tmp_path.iterdir()) == []


class CountingFile:
    """A text file that counts the ``write`` calls made on it."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_a_streamed_deck_replay_writes_its_csvs_in_batches(deck_oracle, tmp_path, monkeypatch):
    (profile, adapt_config, kwargs), _ = deck_oracle
    files = {}

    def counting_open(path, *args, **kwargs):
        files[os.path.basename(path)] = opened = CountingFile(open(path, *args, **kwargs))
        return opened

    monkeypatch.setattr(harness, "open", counting_open, raising=False)
    result = ExperimentRunner(profile, adapt_config, **kwargs).run(str(tmp_path))
    assert len(result.schedule) > 50_000 and len(result.events) > 10_000
    assert files["trace.csv.part"].writes < len(result.schedule) / 100
    assert files["terminations.csv.part"].writes < len(result.events) / 100
    assert files["timeseries.csv.part"].writes < len(result.timeseries) / 100
