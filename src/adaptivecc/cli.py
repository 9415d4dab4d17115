"""Command-line front end.

Subcommands:

* ``run --config FILE``: execute an experiment described by a line-oriented
  ``key = value`` file and write trace/timeseries/summary CSVs.  Its
  ``template`` is ``single_item`` or ``tpcc_deck`` (or an alias); a config
  the run refuses exits 2 with one line on stderr.
* ``replay-scenario fig7 [--out DIR]``: replay the scripted hot-item
  adaptation scenario and print the per-window commit rates and switch
  events; ``--out`` writes the same five CSVs as ``run``.
* ``classify --manifest FILE``: derive CC classes from a property-vector
  CSV.
* ``sg-check --trace FILE``: build the serialization graph of a schedule
  trace and report whether it is acyclic: ``ACYCLIC (N committed txns, M
  edges)``, where M counts the edges between consecutive conflicting
  operations that ``sg.build_serialization_graph`` builds (at most two per
  O/P read or write), or ``CYCLE: t1 -> ... -> t1``.  The graph is built in
  one streaming pass over the file's CSV rows (``sg.trace_rows``), which
  converts only the txn id of each row and keeps no row; ``sg.find_cycle``
  then decides acyclicity without sorting.

``run``, ``replay-scenario``, ``classify`` and ``sg-check`` exit 2 with one
line on stderr when an input or output file cannot be opened, ``classify``
also when its manifest does not parse, and ``sg-check`` when its trace does
not; the exit 1 of ``sg-check`` means a cycle and nothing else.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .adaptation import AdaptationConfig, Mode
from .classify import classify_manifest
from .harness import (
    ConfigurationError,
    EpochProfile,
    overload_adaptation_scenario,
    run_experiment,
)
# read_trace_csv is not called here but stays a name of this module:
# bench/spans.py wraps cli.read_trace_csv, cli.build_serialization_graph and
# cli.find_cycle by name.
from .sg import (  # noqa: F401
    MalformedHistoryError,
    build_serialization_graph,
    find_cycle,
    read_trace_csv,
    trace_rows,
)

CONFIG_KEYS = {
    "epochs",
    "lambda",
    "dt_min",
    "dt_max",
    "gamma",
    "delta",
    "beta",
    "tw_ms",
    "mode",
    "template",
    "seed",
    "out_dir",
    "engine_mode",
    # optional extensions
    "op_cost_ms",
    "epoch_ms",
    "switch_back_queue_max",
}

_TEMPLATE_ALIASES = {
    "singleitem": "single_item",
    "single_item": "single_item",
    "tpccdeck": "tpcc_deck",
    "tpcc_deck": "tpcc_deck",
}


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key not in CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def build_run(values: dict[str, str]):
    """Turn a parsed config into (profile, adapt config, run kwargs)."""
    lambdas = tuple(float(x) for x in values.get("lambda", "").split(",") if x.strip())
    if not lambdas:
        raise ValueError("config needs a lambda list")
    if "epochs" in values and int(values["epochs"]) != len(lambdas):
        raise ValueError("epochs does not match the lambda list length")
    template = _TEMPLATE_ALIASES.get(values.get("template", "single_item").lower())
    if template is None:
        raise ValueError(f"unknown template {values.get('template')!r}")
    profile = EpochProfile(
        lambdas=lambdas,
        dt_min_ms=float(values.get("dt_min", 0)),
        dt_max_ms=float(values.get("dt_max", 0)),
        template=template,
        seed=int(values.get("seed", 0)),
        epoch_ms=float(values.get("epoch_ms", 1000)),
    )
    mode_word = values.get("mode", "timewindow").lower()
    adapt_config: Optional[AdaptationConfig] = None
    if mode_word != "off":
        beta_word = values.get("beta", "off").lower()
        beta = None if beta_word in ("", "off", "none") else float(beta_word)
        limit_word = values.get("switch_back_queue_max", "").lower()
        limit = None if limit_word in ("", "off", "none") else int(limit_word)
        adapt_config = AdaptationConfig(
            gamma=float(values.get("gamma", 0.9)),
            delta=float(values.get("delta", 0.05)),
            beta=beta,
            mode=Mode(mode_word),
            switch_back_queue_max=limit,
        )
    kwargs = {
        "engine_mode": values.get("engine_mode", "orpe"),
        "out_dir": values.get("out_dir"),
        "op_cost_ms": float(values.get("op_cost_ms", 1)),
        "tw_ms": float(values["tw_ms"]) if "tw_ms" in values else None,
    }
    return profile, adapt_config, kwargs


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            profile, adapt_config, kwargs = build_run(parse_config(fh.read()))
        result = run_experiment(profile, adapt_config, **kwargs)
    except (ConfigurationError, ValueError) as exc:
        print(f"bad config {args.config}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the config unreadable, or out_dir unwritable
        print(f"run {args.config}: {exc}", file=sys.stderr)
        return 2
    s = result.summary
    print(
        f"tas={s.tas} commits/sec={s.commits_per_sec:.2f} "
        f"mean_rt={s.mean_rt_ms:.1f}ms mean_cr={s.mean_cr:.3f} "
        f"cr_eff={s.mean_cr_eff:.3f} abort_rate={s.abort_rate:.3f} "
        f"deg_conc={s.deg_conc:.3f}"
    )
    if result.out_dir:
        print(f"outputs written to {result.out_dir}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.scenario != "fig7":
        print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
        return 2
    try:
        result = overload_adaptation_scenario(out_dir=args.out)
    except OSError as exc:  # --out unwritable
        print(f"replay-scenario {args.scenario}: {exc}", file=sys.stderr)
        return 2
    print("window commit rates:", ", ".join(f"{cr:.4f}" for cr in result.window_crs))
    for ev in result.adapt_events:
        print(
            f"t={ev.time_ms:.0f}ms {ev.item_id}: {ev.from_class}->{ev.to_class} "
            f"(cr={ev.cr:.4f}, rule={ev.rule})"
        )
    for slot in sorted(result.abort_reasons):
        reason = result.abort_reasons[slot]
        if reason:
            print(f"txn slot {slot}: aborted ({reason})")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as infile:
            # opening --out for writing would empty the manifest before it is read
            if args.out and os.path.exists(args.out) and os.path.samefile(args.manifest, args.out):
                print(f"classify {args.manifest}: --out names the manifest", file=sys.stderr)
                return 2
            if args.out:
                with open(args.out, "w", newline="", encoding="utf-8") as outfile:
                    count = classify_manifest(infile, outfile)
            else:
                count = classify_manifest(infile, sys.stdout)
    except (OSError, ValueError) as exc:  # ValueError: a malformed manifest
        print(f"classify {args.manifest}: {exc}", file=sys.stderr)
        return 2
    print(f"classified {count} items", file=sys.stderr)
    return 0


def _cmd_sg_check(args: argparse.Namespace) -> int:
    # A trace that cannot be opened, or that raises one of the errors
    # build_serialization_graph documents, is not a cycle: it exits 2.
    try:
        with open(args.trace, newline="", encoding="utf-8") as fh:
            graph = build_serialization_graph(trace_rows(fh))
    except (OSError, ValueError, IndexError, MalformedHistoryError) as exc:
        print(f"bad trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    cycle = find_cycle(graph)
    if cycle:
        print("CYCLE: " + " -> ".join(str(t) for t in cycle))
        return 1
    print(f"ACYCLIC ({len(graph.nodes)} committed txns, {len(graph.edges)} edges)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adaptivecc", description="adaptive multimodel concurrency control workbench"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(fn=_cmd_run)

    p_replay = sub.add_parser("replay-scenario", help="replay a scripted scenario")
    p_replay.add_argument("scenario")
    p_replay.add_argument("--out", default=None)
    p_replay.set_defaults(fn=_cmd_replay)

    p_classify = sub.add_parser("classify", help="classify items from a manifest CSV")
    p_classify.add_argument("--manifest", required=True)
    p_classify.add_argument("--out", default=None)
    p_classify.set_defaults(fn=_cmd_classify)

    p_sg = sub.add_parser("sg-check", help="check a schedule trace for cycles")
    p_sg.add_argument("--trace", required=True)
    p_sg.set_defaults(fn=_cmd_sg_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
