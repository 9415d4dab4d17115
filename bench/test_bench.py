"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from spans import SpanRecorder, layer_metrics, traced

from adaptivecc.engine import Engine
from adaptivecc.locks import LockManager

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced_replay(workload: wl.Workload, out_dir):
    rec = SpanRecorder()
    rep = wl.replay(workload, 7, out_dir, tracing=lambda: traced(rec))
    return rec, rep


@pytest.mark.parametrize("name", ["hot_w2", "deck"])
def test_wrappers_are_transparent(name, tmp_path):
    workload = wl.WORKLOADS[name]
    originals = (Engine.read, LockManager.acquire, wl.cli.find_cycle)
    plain = wl.replay(workload, 7, tmp_path / "plain")
    rec, rep = _traced_replay(workload, tmp_path / "traced")
    assert not plain.problems and not rep.problems
    assert rep.digest == plain.digest
    assert rec.calls()["engine.begin"] == plain.spawned
    assert (Engine.read, LockManager.acquire, wl.cli.find_cycle) == originals


def test_self_times_fit_in_wall_time(tmp_path):
    rec, rep = _traced_replay(wl.WORKLOADS["hot_w2"], tmp_path)
    (root,) = [k for k, parent in enumerate(rec.parent_col) if parent == -1]
    assert rec.names[rec.name_col[root]] == "harness.runner_run"
    root_ns = rec.end_col[root] - rec.start_col[root]
    assert 0 < sum(rec.self_ns.values()) <= root_ns
    assert all(ns >= 0 for ns in rec.self_ns.values())
    layers = layer_metrics(rec, rep.wall_s, rep.records, rep.trace_events)
    shares = [v for k, v in layers.items() if k.endswith(".share")]
    assert all(0 <= s <= 1 for s in shares) and sum(shares) <= 1


CYCLIC_TRACE = """time_ms,txn_id,op,item,detail
0,1,r,x,v0@O
0,2,r,x,v0@O
1,1,w,x,v1@O
1,2,w,x,v2@O
2,1,c,,
2,2,c,,
"""


@pytest.mark.parametrize(
    "text",
    [CYCLIC_TRACE, CYCLIC_TRACE.rsplit("2,2,c", 1)[0]],
    ids=["cyclic", "truncated"],
)
def test_bad_trace_fails_every_transaction(text, tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    tally = run.Tally()
    deck = wl.Replay(seed=0, spawned=2, wall_s=0.0, terminated=2, commits=2, trace_events=6)
    check, _ = run.sg_check(deck, path, tally)  # in a child process, as the benchmark runs it
    assert check.problems
    assert tally.failed == tally.attempted == 2


def test_repeat_with_another_digest_fails():
    tally = run.Tally()
    replays = run.Pass(wl.WORKLOADS["deck"], 7, tally)
    for i in range(4):
        replays.add(wl.Replay(seed=i, spawned=10, wall_s=1.0, digest=f"d{i}"))
    replays.add(wl.Replay(seed=0, spawned=10, wall_s=1.0, digest="d0"))
    replays.add(wl.Replay(seed=1, spawned=10, wall_s=1.0, digest="other"))
    assert replays.complete()
    assert (tally.attempted, tally.failed) == (60, 10)


def test_node_count_mismatch_fails(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("time_ms,txn_id,op,item,detail\n0,1,r,x,v0@O\n1,1,c,,\n", encoding="utf-8")
    assert wl.sg_check(path, expected_nodes=1).problems == []
    assert wl.sg_check(path, expected_nodes=2).problems


def _result(argv: list[str], capsys) -> dict:
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_every_declared_metric(trace, key, capsys):
    result = _result(["--workload", "hot_w2", "--seconds", "0", "--trace", str(trace)], capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(wl.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
