"""Span recorder for the benchmark's traced runs.

``SpanRecorder.wrap`` replaces a function at the name its caller looks up
(a class attribute or a module global) with a wrapper that records one span
per call: name, start and end in ``perf_counter_ns``, parent span and txn
id.  Spans live in flat arrays in memory and are written out once, at the
end.  ``restore`` puts every original back.

The engine runs on one thread, so spans nest strictly.  A span's self time
is its duration minus the durations of its direct children, which is the
part of its interval no child span covers.
"""

from __future__ import annotations

import contextlib
import csv
import os
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

from workloads import OUTPUT_FILES, percentile

_MISSING = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.txn_col = array("q")
        self.self_ns: Counter = Counter()  # span name -> summed self time
        self.counts: Counter = Counter()  # counters kept by observers
        self.maxima: Counter = Counter()
        self._stack: list[list[int]] = []  # open spans: [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        txn_of: Optional[Callable[[tuple], int]] = None,
        observe: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``txn_of`` extracts the txn id from the call's positional arguments;
        ``observe(args, result)`` runs after a call that returned.
        """
        original = getattr(owner, attr)
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack, self_ns = self._stack, self.self_ns
        name_col, start_col, end_col = self.name_col, self.start_col, self.end_col
        parent_col, txn_col = self.parent_col, self.txn_col

        def wrapper(*args, **kwargs):
            span = len(start_col)
            name_col.append(name_id)
            parent_col.append(stack[-1][0] if stack else -1)
            txn_col.append(txn_of(args) if txn_of is not None else -1)
            end_col.append(0)
            frame = [span, 0]
            stack.append(frame)
            begin = clock()
            start_col.append(begin)
            try:
                result = original(*args, **kwargs)
            finally:
                finish = clock()
                stack.pop()
                end_col[span] = finish
                duration = finish - begin
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def calls(self) -> Counter:
        counts = Counter(self.name_col)
        return Counter({self.names[i]: n for i, n in counts.items()})

    def durations_us(self) -> defaultdict[str, list[float]]:
        """Span durations in microseconds, grouped by span name."""
        grouped: defaultdict[str, list[float]] = defaultdict(list)
        for k, name_id in enumerate(self.name_col):
            grouped[self.names[name_id]].append((self.end_col[k] - self.start_col[k]) / 1000.0)
        return grouped

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(prefix)) / 1e9

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_ns", "end_ns", "parent", "txn_id"])
            for k, name_id in enumerate(self.name_col):
                writer.writerow(
                    [
                        k,
                        self.names[name_id],
                        self.start_col[k],
                        self.end_col[k],
                        self.parent_col[k],
                        self.txn_col[k],
                    ]
                )


def _arg(index: int) -> Callable[[tuple], int]:
    return lambda args: args[index]


def _txn_arg(args: tuple) -> int:
    return args[1].txn_id


def instrument(rec: SpanRecorder) -> None:
    """Wrap the public entry points of every adaptivecc layer.

    Class attributes cover every instance; ``Controller.on_txn_termination``
    and ``Engine.reclassify_item`` are bound when the runner is built, so
    call this before building it.  Module functions are wrapped in the
    module whose global the caller reads.
    """
    from adaptivecc import cli, engine, harness, metrics
    from adaptivecc.adaptation import Controller
    from adaptivecc.engine import Engine
    from adaptivecc.locks import AcquireStatus, LockManager
    from adaptivecc.semantic import EscrowLedger
    from adaptivecc.simclock import Scheduler
    from adaptivecc.store import Store

    def observe_acquire(args: tuple, status: object) -> None:
        if status is AcquireStatus.QUEUED:
            rec.counts["locks.acquire.queued"] += 1
            queue_len = args[0].queue_len(args[2])
            rec.maxima["locks.queue_len"] = max(rec.maxima["locks.queue_len"], queue_len)
        elif status is AcquireStatus.DEADLOCK_REFUSED:
            rec.counts["locks.acquire.refused"] += 1

    def observe_request(args: tuple, granted: object) -> None:
        if not granted:
            rec.counts["semantic.escrow_request.refused"] += 1

    def observe_write(args: tuple, _result: object) -> None:
        out_dir = args[1]
        rec.counts["harness.write_outputs.bytes"] += sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in OUTPUT_FILES
        )

    def observe_graph(_args: tuple, graph) -> None:
        rec.counts["sg.nodes"] += len(graph.nodes)
        rec.counts["sg.edges"] += len(graph.edges)

    rec.wrap(LockManager, "acquire", "locks.acquire", _arg(1), observe_acquire)
    rec.wrap(LockManager, "release_all", "locks.release_all", _arg(1))
    for method in ("read", "read_escrow", "disconnect", "submit_write_set",
                   "commit_pipeline", "abort"):
        rec.wrap(Engine, method, f"engine.{method}", _txn_arg)
    rec.wrap(Engine, "begin", "engine.begin")
    rec.wrap(Engine, "reclassify_item", "engine.reclassify_item")
    rec.wrap(engine, "reconcile_check", "semantic.reconcile_check")
    rec.wrap(engine, "reconcile_commit", "semantic.reconcile_commit")
    rec.wrap(EscrowLedger, "request", "semantic.escrow_request", _arg(2), observe_request)
    rec.wrap(EscrowLedger, "commit", "semantic.escrow_commit", _arg(2))
    rec.wrap(EscrowLedger, "release_all", "semantic.escrow_release_all", _arg(1))
    rec.wrap(Store, "install_version", "store.install_version")
    rec.wrap(Controller, "on_txn_termination", "adaptation.on_txn_termination", _txn_arg)
    rec.wrap(Controller, "close_window", "adaptation.close_window")
    rec.wrap(Scheduler, "call_at", "simclock.call_at")
    rec.wrap(Scheduler, "run", "harness.scheduler_run")
    rec.wrap(harness.ExperimentRunner, "run", "harness.runner_run")
    rec.wrap(metrics, "aggregate", "metrics.aggregate")
    rec.wrap(metrics, "summarize", "metrics.summarize")
    rec.wrap(harness, "write_outputs", "io.write_outputs", observe=observe_write)
    rec.wrap(cli, "read_trace_csv", "sg.read_trace_csv")
    rec.wrap(cli, "build_serialization_graph", "sg.build_serialization_graph",
             observe=observe_graph)
    rec.wrap(cli, "find_cycle", "sg.find_cycle")


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Instrument adaptivecc into ``rec`` for the ``with`` block."""
    try:
        instrument(rec)
        yield rec
    finally:
        rec.restore()


def layer_metrics(
    rec: SpanRecorder, wall_s: float, records: list, trace_events: int
) -> dict[str, float]:
    """Per-layer metrics of one traced replay or sg-check."""
    calls, counts, durations = rec.calls(), rec.counts, rec.durations_us()

    def self_s(name: str) -> float:
        return rec.self_ns[name] / 1e9

    def total_s(name: str) -> float:
        return sum(durations[name]) / 1e6

    def share(*layers: str) -> float:
        return sum(rec.layer_self_s(layer) for layer in layers) / wall_s

    aborts = Counter(r.abort_reason for r in records if r.abort_reason is not None)
    waits = [r.first_read_ms - r.arrival_ms for r in records if r.first_read_ms is not None]
    switches = calls["engine.reclassify_item"]
    requests = calls["semantic.escrow_request"]
    refused = counts["semantic.escrow_request.refused"]
    return {
        "locks.acquire.calls": calls["locks.acquire"],
        "locks.acquire.queued": counts["locks.acquire.queued"],
        "locks.acquire.refused": counts["locks.acquire.refused"],
        "locks.acquire.self_s": self_s("locks.acquire"),
        "locks.acquire.p99_us": percentile(durations["locks.acquire"], 99),
        "locks.queue_len.max": rec.maxima["locks.queue_len"],
        "locks.release_all.self_s": self_s("locks.release_all"),
        "locks.wait_virt_ms.p99": percentile(waits, 99),
        "locks.share": share("locks"),
        "engine.read.calls": calls["engine.read"],
        "engine.read.p50_us": percentile(durations["engine.read"], 50),
        "engine.read.p99_us": percentile(durations["engine.read"], 99),
        "engine.commit_pipeline.calls": calls["engine.commit_pipeline"],
        "engine.commit_pipeline.p50_us": percentile(durations["engine.commit_pipeline"], 50),
        "engine.commit_pipeline.p99_us": percentile(durations["engine.commit_pipeline"], 99),
        "engine.aborts.validation": aborts["validation"],
        "engine.aborts.reclassification": aborts["reclassification"],
        "engine.aborts.constraint": aborts["constraint"],
        "engine.aborts.deadlock": aborts["deadlock"],
        "engine.trace_events": trace_events,
        "engine.self_s": rec.layer_self_s("engine"),
        "engine.share": share("engine"),
        "semantic.escrow_request.calls": requests,
        "semantic.escrow_request.refused": refused,
        "semantic.escrow_request.p99_us": percentile(durations["semantic.escrow_request"], 99),
        "semantic.grant_ratio": (requests - refused) / requests if requests else 0.0,
        "semantic.reconcile.calls": (
            calls["semantic.reconcile_check"] + calls["semantic.reconcile_commit"]
        ),
        "semantic.self_s": rec.layer_self_s("semantic"),
        "semantic.share": share("semantic"),
        "store.install_version.calls": calls["store.install_version"],
        "store.install_version.self_s": self_s("store.install_version"),
        "adaptation.evals": (
            calls["adaptation.on_txn_termination"] + calls["adaptation.close_window"]
        ),
        "adaptation.switches": switches,
        "adaptation.reclass_aborts_per_switch": (
            aborts["reclassification"] / switches if switches else 0.0
        ),
        "adaptation.self_s": rec.layer_self_s("adaptation"),
        "adaptation.share": share("adaptation"),
        "simclock.events": calls["simclock.call_at"],
        "simclock.events_per_s": calls["simclock.call_at"] / wall_s,
        "simclock.self_s": rec.layer_self_s("simclock"),
        "harness.run_self_s": self_s("harness.scheduler_run"),
        "harness.share": share("harness"),
        "metrics.aggregate.self_s": self_s("metrics.aggregate"),
        "metrics.summarize.self_s": self_s("metrics.summarize"),
        "harness.write_outputs.s": total_s("io.write_outputs"),
        "harness.write_outputs.bytes": counts["harness.write_outputs.bytes"],
        "sg.read_trace_csv.s": total_s("sg.read_trace_csv"),
        "sg.build_serialization_graph.s": total_s("sg.build_serialization_graph"),
        "sg.find_cycle.s": total_s("sg.find_cycle"),
        "sg.edges": counts["sg.edges"],
        "sg.nodes": counts["sg.nodes"],
        "sg.edges_per_txn": counts["sg.edges"] / counts["sg.nodes"] if counts["sg.nodes"] else 0.0,
    }
