"""Per-time-window aggregation, summary reporting and the run's CSVs.

Every quantity the experiment reports is recomputable from the engine's
termination records (``engine.TerminationRecord``): response times,
windowed and effective commit rates, commits per second, the degree of
concurrency (summed service time of committed transactions over elapsed
time; values above 1 mean useful parallelism), and abort rates split by
reason.  All CSV timestamps are integer milliseconds; numbers always use a
``.`` decimal separator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Iterable, Optional, Sequence, TextIO

from .adaptation import AdaptEvent, compute_cr, compute_cr_eff
from .engine import AbortReason, TerminationRecord
from .store import CCClass

# bound once: see the engine module docstring
_ABORT_RECLASSIFICATION = AbortReason.RECLASSIFICATION

TERMINATION_COLUMNS = [
    "txn_id",
    "time_ms",
    "outcome",
    "abort_reason",
    "response_time_ms",
    "service_time_ms",
    "items",
]

TIMESERIES_COLUMNS = [
    "time_ms",
    "arrivals_cum",
    "commits_cum",
    "aborts_cum",
    "cr",
    "cr_eff",
    "rt_est",
    "current_class",
]

ADAPTATION_COLUMNS = ["time_ms", "item", "from_class", "to_class", "cr", "rt_est", "rule"]

SUMMARY_COLUMNS = [
    "mean_rt_ms",
    "mean_cr",
    "std_cr",
    "mean_cr_eff",
    "tas",
    "commits_per_sec",
    "deg_conc",
    "abort_rate",
    "abort_rate_validation",
    "abort_rate_constraint",
    "abort_rate_deadlock",
    "abort_rate_reclassification",
]


@dataclass(frozen=True)
class TimeWindowRow:
    time_ms: int
    arrivals_cum: int
    commits_cum: int
    aborts_cum: int
    cr: float
    cr_eff: float
    rt_est: float
    current_class: str


@dataclass(frozen=True)
class Summary:
    mean_rt_ms: float
    mean_cr: float
    std_cr: float
    mean_cr_eff: float
    tas: int
    commits_per_sec: float
    deg_conc: float
    abort_rate: float
    abort_rate_by_reason: dict[str, float]


def aggregate(
    events: Iterable[TerminationRecord],
    tw_ms: float,
    samples: Optional[Sequence[tuple[float, float, str]]] = None,
    arrivals: Optional[Sequence[float]] = None,
) -> list[TimeWindowRow]:
    """Bucket terminations into time windows of ``tw_ms``.

    ``samples`` supplies (time, rt_est, class) probes taken at window
    boundaries; ``arrivals`` the spawn timestamps for the cumulative
    arrival counter.  Empty buckets keep counters at zero and carry the
    previous commit rate forward.  The order of ``events`` does not matter.
    A record stamped before time 0 raises ValueError.
    """
    events = list(events)
    if not events:
        return []
    # int(termination_ms) is the record's integer stamp (its time_ms view)
    stamps = [int(e.termination_ms) for e in events]
    if min(stamps) < 0:
        raise ValueError(f"termination stamped at {min(stamps)} ms, before time 0")
    n_buckets = int(max(stamps) // tw_ms) + 1
    committed = [0] * n_buckets
    aborted = [0] * n_buckets
    reclass = [0] * n_buckets
    for ev, stamp in zip(events, stamps):
        bucket = int(stamp // tw_ms)
        if ev.outcome == "commit":
            committed[bucket] += 1
        else:
            aborted[bucket] += 1
            if ev.abort_reason is _ABORT_RECLASSIFICATION:
                reclass[bucket] += 1

    sample_list = sorted(samples) if samples else []
    arrival_list = sorted(arrivals) if arrivals else []
    rows: list[TimeWindowRow] = []
    cr_prev = 1.0
    cr_eff_prev = 1.0
    commits_cum = aborts_cum = 0
    s_idx = a_idx = 0
    rt_est, cls = 0.0, "-"
    arrivals_cum = 0
    for bucket in range(n_buckets):
        end = (bucket + 1) * tw_ms
        commits_cum += committed[bucket]
        aborts_cum += aborted[bucket]
        terminated = committed[bucket] + aborted[bucket]
        cr = compute_cr(committed[bucket], terminated, reclass[bucket], cr_prev)
        cr_eff = (
            compute_cr_eff(committed[bucket], terminated) if terminated else cr_eff_prev
        )
        cr_prev, cr_eff_prev = cr, cr_eff
        while s_idx < len(sample_list) and sample_list[s_idx][0] <= end:
            _, rt_est, cls = sample_list[s_idx]
            s_idx += 1
        while a_idx < len(arrival_list) and arrival_list[a_idx] < end:
            arrivals_cum += 1
            a_idx += 1
        rows.append(
            TimeWindowRow(
                time_ms=int(end),
                arrivals_cum=arrivals_cum,
                commits_cum=commits_cum,
                aborts_cum=aborts_cum,
                cr=cr,
                cr_eff=cr_eff,
                rt_est=rt_est,
                current_class=cls,
            )
        )
    return rows


def summarize(
    events: Iterable[TerminationRecord],
    elapsed_ms: float,
    series: Sequence[TimeWindowRow],
) -> Summary:
    """Whole-run summary.

    mean/std of the commit rate are taken over the time-window series
    ``series``, which is ``aggregate(events, tw_ms)`` (its commit rates do
    not depend on the samples or arrivals), with the population standard
    deviation, for determinism on short runs; the effective commit rate is
    the overall committed/terminated ratio.  The records are read in one
    pass.
    """
    # One pass over the records, through their integer views (computed
    # inline: no property call per record).  The sums are of ints, so they
    # are exact, and the mean is the one fmean takes over the same ints.
    # Aborts are counted by the reason's _value_: an Enum member hashes
    # through a Python-level __hash__.
    total = commits = rt_sum = service_sum = 0
    aborts_by: dict[Optional[str], int] = {}
    for _, outcome, reason, arrival, _, _, termination, _, _, service in events:
        total += 1
        response = int(termination - arrival)
        rt_sum += response
        if outcome == "commit":
            commits += 1
            service_sum += min(int(service), response)
        else:
            key = reason._value_ if reason else None
            aborts_by[key] = aborts_by.get(key, 0) + 1
    if not total:
        raise ValueError("no termination events to summarize")
    if elapsed_ms <= 0:
        raise ValueError("elapsed_ms must be positive")
    cr_values = [row.cr for row in series]
    return Summary(
        mean_rt_ms=float(rt_sum) / total,
        mean_cr=fmean(cr_values),
        std_cr=pstdev(cr_values),
        mean_cr_eff=commits / total,
        tas=total,
        commits_per_sec=commits / (elapsed_ms / 1000.0),
        deg_conc=service_sum / elapsed_ms,
        abort_rate=(total - commits) / total,
        abort_rate_by_reason={
            r._value_: aborts_by.get(r._value_, 0) / total for r in AbortReason
        },
    )


# -- CSV emission -----------------------------------------------------------


def _parse_items(cell: str) -> tuple[tuple[str, CCClass], ...]:
    if not cell:
        return ()
    items = (part.rsplit("@", 1) for part in cell.split(";"))
    return tuple((item, CCClass(letter)) for item, letter in items)


def write_terminations_csv(events: Iterable[TerminationRecord], outfile: TextIO) -> None:
    # One loop unpacks each record and streams its row, with the integer
    # views (time_ms, response_time_ms and service_time_ms) computed inline:
    # no property call per row, and no list of all rows.  _value_ is an enum
    # member's value, read without the .value property.
    writer = csv.writer(outfile)
    writer.writerow(TERMINATION_COLUMNS)
    writer.writerows(
        (
            txn_id,
            int(termination),
            outcome,
            reason._value_ if reason else "",
            response := int(termination - arrival),
            min(int(service), response),
            ";".join([f"{item}@{cls._value_}" for item, cls in items]),
        )
        for txn_id, outcome, reason, arrival, _, _, termination, items, _, service in events
    )


def read_terminations_csv(infile: TextIO) -> list[TerminationRecord]:
    """Parse a termination log back into records.

    Each record gets the row's integer stamps (arrival = time - response),
    so its integer views reproduce the row; the read-phase stamps and queue
    snapshots, which the log does not keep, are absent.  A row stamped
    before time 0, or whose outcome is neither ``commit`` nor ``abort``,
    raises ValueError.
    """
    reader = csv.reader(infile)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != TERMINATION_COLUMNS:
        raise ValueError(f"termination log header must be {','.join(TERMINATION_COLUMNS)}")
    records = []
    for row in reader:
        if not row:
            continue
        time_ms, response, service = int(row[1]), int(row[4]), int(row[5])
        if time_ms < 0 or row[2] not in ("commit", "abort"):
            raise ValueError(f"need time_ms >= 0 and a commit or abort outcome: {row}")
        if not 0 <= service <= response:
            raise ValueError("need response_time >= service_time >= 0")
        records.append(
            TerminationRecord(
                txn_id=int(row[0]),
                outcome=row[2],
                abort_reason=AbortReason(row[3]) if row[3] else None,
                arrival_ms=time_ms - response,
                first_read_ms=None,
                write_submit_ms=None,
                termination_ms=time_ms,
                items=_parse_items(row[6]),
                queue_snapshots=(),
                service_ms=service,
            )
        )
    return records


def write_timeseries_csv(rows: Iterable[TimeWindowRow], outfile: TextIO) -> None:
    writer = csv.writer(outfile)
    writer.writerow(TIMESERIES_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                row.time_ms,
                row.arrivals_cum,
                row.commits_cum,
                row.aborts_cum,
                f"{row.cr:.6f}",
                f"{row.cr_eff:.6f}",
                f"{row.rt_est:.3f}",
                row.current_class,
            ]
        )


def write_summary_csv(summary: Summary, outfile: TextIO) -> None:
    writer = csv.writer(outfile)
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerow(
        [
            f"{summary.mean_rt_ms:.3f}",
            f"{summary.mean_cr:.6f}",
            f"{summary.std_cr:.6f}",
            f"{summary.mean_cr_eff:.6f}",
            summary.tas,
            f"{summary.commits_per_sec:.3f}",
            f"{summary.deg_conc:.6f}",
            f"{summary.abort_rate:.6f}",
        ]
        + [f"{summary.abort_rate_by_reason[r.value]:.6f}" for r in AbortReason]
    )


def write_adaptation_csv(events: Iterable[AdaptEvent], outfile: TextIO) -> None:
    writer = csv.writer(outfile)
    writer.writerow(ADAPTATION_COLUMNS)
    writer.writerows(
        (int(ev.time_ms), ev.item_id, ev.from_class._value_, ev.to_class._value_,
         f"{ev.cr:.6f}", f"{ev.rt_est:.3f}", ev.rule)
        for ev in events
    )
