"""Repository benchmark for adaptivecc.

    python3 bench/run.py --workload {hot_w2,deck,sgcheck} [--seed 7]
                         [--seconds 40] [--trace 0|1]

Run from the root of a checkout.  Replays run in this process, one after
another, on the virtual clock and unpaced; set-ups and sg-checks run in
fresh child processes (``child.py``), one at a time.  With ``--trace 0``
the run replays its pass seeds in turn (or repeats the sg-check) for
``--seconds``, times fresh-process set-ups spread among them, and prints
the end-to-end metrics; with ``--trace 1`` it alternates an untraced and a traced replay
(or sg-check) of the benchmark seed and prints the per-layer metrics.
Names and units of both sets come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
sample counts and the sha256 digest of the output CSVs.  Outputs and the
span file go to ``.bench_out/<workload>-s<seed>/``.

A transaction counts as failed if its replay raised, it never terminated,
or an output check of its replay broke; an sg-check that finds a cycle,
raises or miscounts the committed transactions fails every transaction of
the trace.  Aborts are engine outcomes and count only in ``commit_ratio``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

# numpy's OpenBLAS starts one thread per core on import.  The program never
# calls BLAS, but on a 2-core machine those threads burned ~0.1 s of CPU in
# each 0.2 s set-up and made it swing from run to run, so the benchmark and
# its child processes keep OpenBLAS to the calling thread.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads as wl  # noqa: E402
from spans import SpanRecorder, layer_metrics, traced  # noqa: E402

# sgcheck's median rests on at least this many sg-checks.  One check takes
# ~15 s, and two checks of one trace 20 s apart differed by up to 24%.
MIN_SG_CHECKS = 2


def repeat_for(seconds: float, step: Callable[[], object], min_calls: int = 1) -> list:
    """Call ``step`` at least ``min_calls`` times, and again while the next
    call is expected to end within ``seconds`` of the first."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if len(results) >= min_calls and now - start + (now - began) > seconds:
            return results


def child(*args: object) -> str:
    """Run one ``child.py`` step and return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(wl.BENCH / "child.py"), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
        cwd=wl.ROOT,
    )
    return proc.stdout


def time_setup(workload: wl.Workload, seed: int, out_dir: Path) -> tuple[float, wl.Replay | None]:
    """One set-up in a fresh process; for sgcheck also the replay it ran."""
    fields = json.loads(child("setup", workload.name, seed, out_dir).splitlines()[-1])
    rep = fields["replay"]
    if rep is not None:
        rep = wl.Replay(**{**rep, "records": [wl.Outcome(*r) for r in rep["records"]]})
    return fields["setup_s"], rep


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any child it waited for."""
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


class Tally:
    """Attempted and failed transactions, and the problems behind failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        if problems:
            self.failed += attempted
            self.problems += problems

    def add_replay(self, rep: wl.Replay, expected_digest: str) -> None:
        problems = list(rep.problems)
        if rep.digest != expected_digest:
            problems.append(f"seed {rep.seed}: output digest {rep.digest} != {expected_digest}")
        self.add(rep.spawned, problems)


class Pass:
    """The replays of a run, seed by seed: the first replay of each pass seed
    gives the outcomes and the digest every repeat must reproduce."""

    def __init__(self, workload: wl.Workload, seed: int, tally: Tally) -> None:
        self.seeds = wl.pass_seeds(workload, seed)
        self.first: list[wl.Replay] = []
        self.count = 0
        self.tally = tally

    def next_seed(self) -> tuple[int, int]:
        """The index and seed of the next replay."""
        i = self.count % len(self.seeds)
        return i, self.seeds[i]

    def add(self, rep: wl.Replay) -> None:
        i = self.count % len(self.seeds)
        if i == len(self.first):
            self.first.append(rep)
        self.tally.add_replay(rep, self.first[i].digest)
        self.count += 1

    def complete(self) -> bool:
        return len(self.first) == len(self.seeds)


def outcome_metrics(replays: list[wl.Replay]) -> tuple[dict[str, float], str]:
    """Virtual outcomes of one pass; deterministic for a seed."""
    terminated = sum(r.terminated for r in replays)
    response = [x for r in replays for x in r.response_ms()]
    p99 = wl.percentile(response, 99)
    metrics = {
        "commit_ratio": sum(r.commits for r in replays) / max(terminated, 1),
        "virt_rt_p50_ms": wl.percentile(response, 50),
        "virt_rt_p99_ms": p99,
    }
    detail = (
        f"samples={len(response)} beyond_p99={sum(1 for x in response if x > p99)} "
        f"digest={wl.combined_digest([r.digest for r in replays])} seed0_digest={replays[0].digest}"
    )
    return metrics, detail


def measure_replays(workload, seed, seconds, out_dir, tally) -> dict[str, float]:
    """Replays of the pass seeds in turn, with a fresh-process set-up timed
    before every ``replays_per_setup`` of them; rates are medians over
    replays, and the outcomes are those of the first pass."""
    replays = Pass(workload, seed, tally)
    setups: list[float] = []

    def step() -> tuple[float, float]:
        i, s = replays.next_seed()
        if replays.count % workload.replays_per_setup == 0:
            setups.append(time_setup(workload, s, out_dir / "setup")[0])
        rep = wl.replay(workload, s, out_dir / f"seed{i}")
        replays.add(rep)
        return rep.terminated / rep.wall_s, rep.trace_events / rep.wall_s

    rates = repeat_for(seconds, step, min_calls=len(replays.seeds))
    outcomes, detail = outcome_metrics(replays.first)
    print(
        f"{workload.name} seed={seed} replays={len(rates)} setups={len(setups)} "
        f"seeds_per_pass={workload.seeds_per_pass} {detail}"
    )
    return {
        "txn_per_s": statistics.median(txn for txn, _ in rates),
        "trace_events_per_s": statistics.median(events for _, events in rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **outcomes,
    }


def set_up_deck(workload, replays: Pass, out_dir: Path, setups: list[float]) -> None:
    """Time one sgcheck set-up: a fresh-process deck replay of the next pass
    seed, whose trace and outputs it writes into ``seed<i>``."""
    i, s = replays.next_seed()
    setup_s, rep = time_setup(workload, s, out_dir / f"seed{i}")
    setups.append(setup_s)
    replays.add(rep)


def sg_check(trace: wl.Replay, path: Path, tally: Tally, spans_csv: Path | None = None):
    """One sg-check of ``path``, the trace of the replay ``trace``, in a fresh
    process; traced when ``spans_csv`` is given.  Returns the check and its
    per-layer metrics (None when untraced)."""
    out = child("sgcheck", path, trace.commits, int(spans_csv is not None), spans_csv or "-")
    fields = json.loads(out.splitlines()[-1])
    layers = fields.pop("layers")
    check = wl.SgCheck(**fields)
    tally.add(max(trace.commits, 1), check.problems)
    return check, layers


def measure_sgcheck(workload, seed, seconds, out_dir, tally) -> dict[str, float]:
    """sg-checks of the seed's deck trace, each after one set-up; the set-ups
    go round the pass seeds, seed 0 first."""
    replays = Pass(workload, seed, tally)
    setups: list[float] = []
    path = out_dir / "seed0" / "trace.csv"

    def step() -> wl.SgCheck:
        set_up_deck(workload, replays, out_dir, setups)
        return sg_check(replays.first[0], path, tally)[0]

    checks = repeat_for(seconds, step, min_calls=MIN_SG_CHECKS)
    while not replays.complete():  # the outcomes pool every pass seed
        set_up_deck(workload, replays, out_dir, setups)
    trace = replays.first[0]
    outcomes, detail = outcome_metrics(replays.first)
    print(
        f"sgcheck seed={seed} checks={len(checks)} setups={len(setups)} nodes={checks[0].nodes} "
        f"edges={checks[0].edges} trace_events={trace.trace_events} "
        f"walls={[round(c.wall_s, 3) for c in checks]} deck_{detail}"
    )
    return {
        "txn_per_s": statistics.median(trace.commits / c.wall_s for c in checks),
        "trace_events_per_s": statistics.median(trace.trace_events / c.wall_s for c in checks),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        **outcomes,
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def overhead(traced_s: list[float], plain_s: list[float]) -> float:
    return statistics.median(traced_s) / statistics.median(plain_s) - 1.0


def trace_replays(workload, seed, seconds, out_dir, tally) -> dict[str, float]:
    """Alternate untraced and traced replays of the benchmark seed."""
    plain_dir, traced_dir = out_dir / "untraced", out_dir / "traced"
    state: dict = {"plain": [], "traced": [], "layers": []}

    def step() -> None:
        plain = wl.replay(workload, seed, plain_dir)
        rec = SpanRecorder()
        rep = wl.replay(workload, seed, traced_dir, tracing=lambda: traced(rec))
        expected = state.setdefault("digest", plain.digest)
        tally.add_replay(plain, expected)
        tally.add_replay(rep, expected)  # the wrappers must be transparent
        state["plain"].append(plain.wall_s)
        state["traced"].append(rep.wall_s)
        state["layers"].append(layer_metrics(rec, rep.wall_s, rep.records, rep.trace_events))
        state["rec"] = rec

    steps = repeat_for(seconds, step)
    state["rec"].write_csv(out_dir / "spans.csv")
    print(
        f"{workload.name} seed={seed} traced_replays={len(steps)} "
        f"digest={wl.output_digest(traced_dir)}"
    )
    metrics = median_metrics(state["layers"])
    metrics["trace.overhead_frac"] = overhead(state["traced"], state["plain"])
    return metrics


def trace_sgcheck(workload, seed, seconds, out_dir, tally) -> dict[str, float]:
    """Alternate untraced and traced sg-checks of the seed's deck trace."""
    replays = Pass(workload, seed, tally)
    set_up_deck(workload, replays, out_dir, [])
    trace, path = replays.first[0], out_dir / "seed0" / "trace.csv"

    def step() -> tuple[float, float, dict]:
        plain, _ = sg_check(trace, path, tally)
        check, layers = sg_check(trace, path, tally, out_dir / "spans.csv")
        return plain.wall_s, check.wall_s, layers

    steps = repeat_for(seconds, step)
    print(f"sgcheck seed={seed} traced_checks={len(steps)} deck_digest={trace.digest}")
    metrics = median_metrics([layers for _, _, layers in steps])
    metrics["trace.overhead_frac"] = overhead([s[1] for s in steps], [s[0] for s in steps])
    return metrics


def declared_units(key: str) -> dict[str, str]:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = wl.WORKLOADS[args.workload]
    out_dir = wl.ROOT / ".bench_out" / f"{workload.name}-s{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    sgcheck = workload.name == "sgcheck"
    if args.trace:
        units = declared_units("per_layer")
        run = trace_sgcheck if sgcheck else trace_replays
    else:
        units = declared_units("end_to_end")
        run = measure_sgcheck if sgcheck else measure_replays
    values = run(workload, args.seed, args.seconds, out_dir, tally)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    result = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
