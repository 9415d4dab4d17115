"""Benchmark steps that run in a fresh child process.

    python3 bench/child.py setup WORKLOAD SEED OUT_DIR
    python3 bench/child.py sgcheck TRACE EXPECTED_NODES TRACED SPANS_CSV

``setup`` times one set-up: from before the first adaptivecc import (numpy
included) until the runner for SEED is built, and for ``sgcheck`` until the
deck replay of SEED has written the trace to be checked into OUT_DIR.  It
prints one JSON line with the seconds and, for ``sgcheck``, the checked
replay.

``sgcheck`` runs one ``adaptivecc sg-check`` of TRACE and prints one JSON
line with its wall time, node and edge counts and problems.  A fresh
process gives every check the same heap to start from; in a process that
had replayed the deck first, the same check took 11.3 to 16.6 s.  With TRACED=1
the check runs under the span recorder, the JSON adds the per-layer
metrics, and the spans go to SPANS_CSV.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def setup(name: str, seed: str, out_dir: str) -> None:
    workload = workloads.WORKLOADS[name]
    if name != "sgcheck":
        workloads.make_runner(workload, int(seed))
        print(json.dumps({"setup_s": time.perf_counter() - _START, "replay": None}))
        return
    rep = workloads.replay(workload, int(seed), Path(out_dir))
    ended = rep.ended or time.perf_counter()  # 0 when the replay raised
    print(json.dumps({"setup_s": ended - _START, "replay": asdict(rep)}))


def sgcheck(trace: str, expected_nodes: str, traced: str, spans_csv: str) -> None:
    import spans  # here, so that a timed set-up imports only the workloads

    layers = None
    if traced == "1":
        rec = spans.SpanRecorder()
        with spans.traced(rec):
            check = workloads.sg_check(Path(trace), int(expected_nodes))
        layers = spans.layer_metrics(rec, check.wall_s, [], 0)
        rec.write_csv(Path(spans_csv))
    else:
        check = workloads.sg_check(Path(trace), int(expected_nodes))
    print(json.dumps({**vars(check), "layers": layers}))


if __name__ == "__main__":
    {"setup": setup, "sgcheck": sgcheck}[sys.argv[1]](*sys.argv[2:])
