import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import adaptivecc
from adaptivecc.cli import build_run, main, parse_config
from adaptivecc.sg import ScheduleEvent, build_serialization_graph, read_trace_csv, write_trace_csv


def test_parse_config_lines_and_comments():
    values = parse_config(
        """
        # an experiment
        epochs = 3
        lambda = 9,14,19
        gamma = 0.9   # target
        mode = timewindow
        """
    )
    assert values == {"epochs": "3", "lambda": "9,14,19", "gamma": "0.9", "mode": "timewindow"}


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("bogus = 1")
    with pytest.raises(ValueError):
        parse_config("just some text")


def test_build_run_full_config():
    values = parse_config(
        "epochs = 2\nlambda = 10,20\ndt_min = 100\ndt_max = 1000\n"
        "gamma = 0.9\ndelta = 0.05\nbeta = 1000\ntw_ms = 100\n"
        "mode = pertermination\ntemplate = TpccDeck\nseed = 7\n"
        "engine_mode = si_only\n"
    )
    profile, config, kwargs = build_run(values)
    assert profile.lambdas == (10.0, 20.0)
    assert profile.template == "tpcc_deck"
    assert config.beta == 1000.0
    assert config.mode.value == "pertermination"
    assert kwargs["engine_mode"] == "si_only"


def test_build_run_epoch_mismatch():
    with pytest.raises(ValueError):
        build_run(parse_config("epochs = 3\nlambda = 1,2"))


def test_build_run_mode_off_disables_controller():
    _, config, _ = build_run(parse_config("lambda = 5\nmode = off"))
    assert config is None


def test_run_command_writes_outputs(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    out_dir = tmp_path / "out"
    config.write_text(
        f"lambda = 30\ngamma = 0.9\ndelta = 0.05\nseed = 3\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    captured = capsys.readouterr().out
    assert "commits/sec=" in captured
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "timeseries.csv").exists()


def test_run_command_refuses_a_zero_window(tmp_path):
    # Without a controller nothing else checked tw_ms, and a zero window
    # rescheduled its boundary at the same instant forever.
    config = tmp_path / "exp.conf"
    config.write_text("lambda = 5\nmode = off\ntw_ms = 0\n")
    src = str(Path(adaptivecc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "adaptivecc.cli", "run", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "tw_ms must be a finite number > 0" in done.stderr


@pytest.mark.parametrize(
    "setting",
    [
        "tw_ms = 0",
        "template = fig7",
        "op_cost_ms = -1",
        "beta = nan",
        "beta = 0",
        "switch_back_queue_max = -1",
    ],
    ids=["tw_ms", "template", "op_cost_ms", "beta_nan", "beta_0", "switch_back_queue_max"],
)
def test_run_command_exits_2_on_a_bad_config(tmp_path, capsys, setting):
    # fig7 is a harness workload, but a run config may not name it.
    path = tmp_path / "exp.conf"
    path.write_text(f"lambda = 5\n{setting}\n")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_replay_scenario_prints_window_rates(capsys):
    assert main(["replay-scenario", "fig7"]) == 0
    out = capsys.readouterr().out
    assert "0.1250, 0.7500, 1.0000" in out
    assert "low-cr-to-locking" in out
    assert "reclassification" in out and "constraint" in out


def test_replay_unknown_scenario(capsys):
    assert main(["replay-scenario", "nope"]) == 2


def test_classify_command(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "id,mr,fw,un,ow,con,num,com,dep,in,gua\n"
        "Stock.quantity,0,1,0,1,1,1,1,1,0,1\n"
    )
    out = tmp_path / "classes.csv"
    assert main(["classify", "--manifest", str(manifest), "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["id,class", "Stock.quantity,E"]


def test_classify_refuses_to_write_over_its_manifest(tmp_path, capsys):
    text = "id,mr,fw,un,ow,con,num,com,dep,in,gua\nStock.quantity,0,1,0,1,1,1,1,1,0,1\n"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(text)
    link = tmp_path / "link.csv"
    os.link(manifest, link)
    for out in (manifest, link, tmp_path / "." / "manifest.csv"):
        assert main(["classify", "--manifest", str(manifest), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--out names the manifest" in err
        assert manifest.read_text() == text


def test_sg_check_detects_cycles(tmp_path, capsys):
    good = tmp_path / "good.csv"
    with open(good, "w", newline="") as fh:
        write_trace_csv(
            [
                ScheduleEvent(0, 1, "r", "x", "v1@O"),
                ScheduleEvent(1, 1, "w", "x", "v2@O"),
                ScheduleEvent(1, 1, "c"),
            ],
            fh,
        )
    assert main(["sg-check", "--trace", str(good)]) == 0
    assert "ACYCLIC" in capsys.readouterr().out

    bad = tmp_path / "bad.csv"
    with open(bad, "w", newline="") as fh:
        write_trace_csv(
            [
                ScheduleEvent(0, 1, "r", "o", "v1@O"),
                ScheduleEvent(1, 2, "r", "p", "v1@P"),
                ScheduleEvent(2, 2, "w", "o", "v2@O"),
                ScheduleEvent(2, 2, "c"),
                ScheduleEvent(3, 1, "w", "p", "v2@P"),
                ScheduleEvent(3, 1, "c"),
            ],
            fh,
        )
    assert main(["sg-check", "--trace", str(bad)]) == 1
    assert "CYCLE" in capsys.readouterr().out


def test_sg_check_keeps_items_that_differ_in_a_newline(tmp_path, capsys):
    # The csv module needs newline="" to read back "\r" and "\n" inside a
    # quoted cell; with newline translation both items read as "a\nb" and
    # their disjoint read-writes look like a cycle.
    events = [
        ScheduleEvent(0, 1, "r", "a\rb", "v1@O"),
        ScheduleEvent(1, 2, "r", "a\nb", "v1@O"),
        ScheduleEvent(2, 1, "w", "a\rb", "v2@O"),
        ScheduleEvent(3, 2, "w", "a\nb", "v2@O"),
        ScheduleEvent(4, 1, "c"),
        ScheduleEvent(5, 2, "c"),
    ]
    assert build_serialization_graph(events).edges == set()
    trace = tmp_path / "trace.csv"
    with open(trace, "w", newline="") as fh:
        write_trace_csv(events, fh)
    assert main(["sg-check", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "ACYCLIC (2 committed txns, 0 edges)\n"


def test_experiment_trace_feeds_sg_check(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    out_dir = tmp_path / "out"
    config.write_text(
        "lambda = 200\ntemplate = tpcc_deck\ngamma = 0.9\ndelta = 0.05\n"
        f"seed = 5\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    assert main(["sg-check", "--trace", str(out_dir / "trace.csv")]) == 0
    assert "ACYCLIC" in capsys.readouterr().out


def test_sg_check_prints_one_acyclic_line(tmp_path, capsys):
    # bench/workloads.py parses exactly this line.
    config = tmp_path / "exp.conf"
    out_dir = tmp_path / "out"
    config.write_text(
        "lambda = 200\ntemplate = tpcc_deck\ngamma = 0.9\ndelta = 0.05\n"
        f"seed = 5\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    trace = out_dir / "trace.csv"
    assert main(["sg-check", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    match = re.fullmatch(r"ACYCLIC \((\d+) committed txns, (\d+) edges\)\n", out)
    assert match is not None, out
    with open(trace, newline="") as fh:
        events = read_trace_csv(fh)
    commits = sum(1 for ev in events if ev.op == "c")
    assert commits > 0
    assert int(match.group(1)) == commits
    assert int(match.group(2)) == len(build_serialization_graph(events).edges)


def test_si_only_run_from_config(tmp_path, capsys):
    config = tmp_path / "exp.conf"
    out_dir = tmp_path / "out"
    config.write_text(
        "lambda = 300\ntemplate = tpcc_deck\nmode = off\nengine_mode = si_only\n"
        f"seed = 5\nout_dir = {out_dir}\n"
    )
    assert main(["run", "--config", str(config)]) == 0
    assert main(["sg-check", "--trace", str(out_dir / "trace.csv")]) == 0


def test_replay_scenario_writes_trace(tmp_path, capsys):
    out_dir = tmp_path / "replay"
    assert main(["replay-scenario", "fig7", "--out", str(out_dir)]) == 0
    assert main(["sg-check", "--trace", str(out_dir / "trace.csv")]) == 0
    written = sorted(path.name for path in out_dir.iterdir())
    assert written == sorted(
        ["trace.csv", "terminations.csv", "timeseries.csv", "summary.csv", "adaptation.csv"]
    )
    lines = (out_dir / "terminations.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 15  # header and one row per scripted transaction


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config"],
        ["sg-check", "--trace"],
        ["classify", "--manifest"],
    ],
    ids=["run", "sg-check", "classify"],
)
def test_commands_exit_2_on_a_file_they_cannot_open(tmp_path, capsys, argv):
    assert main([*argv, str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "missing" in err and "Traceback" not in err


def test_classify_exits_2_on_a_malformed_manifest(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,mr\nx,1\n")
    assert main(["classify", "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "manifest header" in err
    # too few access cells, and some but not all of the semantic cells
    for row in ("x,1,0", "x,0,1,0,1,1", "x,0,1,0,1,1,1,1,1,1"):
        manifest.write_text(f"id,mr,fw,un,ow,con,num,com,dep,in,gua\n{row}\n")
        assert main(["classify", "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "line 2 (x)" in err and "Traceback" not in err


def test_outputs_that_cannot_be_written_exit_2(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    config = tmp_path / "exp.conf"
    config.write_text(f"lambda = 5\nmode = off\nout_dir = {blocker / 'out'}\n")
    assert main(["run", "--config", str(config)]) == 2
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("id,mr,fw,un,ow,con,num,com,dep,in,gua\n")
    assert main(["classify", "--manifest", str(manifest), "--out", str(blocker / "x")]) == 2
    for out in (blocker, blocker / "out"):  # FileExistsError, NotADirectoryError
        assert main(["replay-scenario", "fig7", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 4 and "Traceback" not in err


_HEADER = "time_ms,txn_id,op,item,detail\n"


@pytest.mark.parametrize(
    "text",
    [
        "time,txn\n0,1\n",  # a wrong header: ValueError
        _HEADER + "0,1,r,x\n1,1,c,,\n",  # a short row: IndexError
        _HEADER + "0,1,r,x,v1@Q\n1,1,c,,\n",  # an unknown class letter: ValueError
        _HEADER + "0,one,r,x,v1@O\n1,1,c,,\n",  # a non-integer txn id: ValueError
        _HEADER + "0,1,z,x,\n1,1,c,,\n",  # an unknown op: MalformedHistoryError
        _HEADER + "0,1,r,x,v1@O\n",  # no commit or abort: MalformedHistoryError
        _HEADER + "0,1,r,x,v1\n1,1,c,,\n",  # no class annotation: MalformedHistoryError
    ],
    ids=["header", "short_row", "bad_class", "bad_txn_id", "unknown_op", "unterminated",
         "unannotated"],
)
def test_sg_check_exits_2_on_a_malformed_trace(tmp_path, capsys, text):
    # Exit 1 stays "cycle"; a trace the checker cannot parse is not one.
    trace = tmp_path / "trace.csv"
    trace.write_text(text)
    assert main(["sg-check", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
