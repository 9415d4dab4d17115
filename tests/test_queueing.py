"""Queueing-theory oracles for replay timing.

One adaptable item held in P, with no controller, is an M/G/1 queue: every
transaction locks the item at its read, holds the lock through one op cost,
its disconnect and one more op cost for its write, and releases it at
commit; the lock's FIFO queue is the waiting room, and arrivals are
Poisson.  The service time is S = dt + 2 op costs, so with dt uniform on
100-1000 ms and 1 ms op costs, E[S] = 552 ms and E[S^2] = 372 204 ms^2.

Two references check the replay:

* Lindley's recursion: given the run's own arrivals and disconnects, a
  FIFO single server's departures follow exactly,
  d_n = max(a_n, d_(n-1)) + S_n.
* Pollaczek-Khinchine: at load rho = lambda E[S] < 1 the mean response
  time is E[S] + lambda E[S^2] / (2 (1 - rho)); at rho > 1 the server never
  idles and throughput tends to 1/E[S].  The replay's estimate must lie
  within the 99% confidence interval of its own batch means.

Kleinrock, *Queueing Systems* Vol. 1, 1975 (M/G/1, P-K); Lindley, "The
theory of queues with a single server", Proc. Cambridge Phil. Soc. 1952.
"""

import math
import random
import statistics
from operator import itemgetter

import pytest

from adaptivecc.harness import TEMPLATE_SINGLE_ITEM, WORKLOADS, EpochProfile, ExperimentRunner
from adaptivecc.store import CCClass

DT_MIN_MS, DT_MAX_MS = 100.0, 1000.0
OP_COST_MS = 1.0
E_S = (DT_MIN_MS + DT_MAX_MS) / 2 + 2 * OP_COST_MS  # 552 ms
E_S2 = (DT_MAX_MS - DT_MIN_MS) ** 2 / 12 + E_S**2  # Var[dt] + E[S]^2 = 372 204 ms^2
BATCHES = 20
T_99 = 2.861  # Student's t, 19 degrees of freedom, two-sided 99%


def pollaczek_khinchine_ms(lam_per_s):
    """M/G/1 mean response time (wait plus service) at ``lam_per_s``."""
    lam = lam_per_s / 1000.0
    rho = lam * E_S
    assert rho < 1
    return E_S + lam * E_S2 / (2 * (1 - rho))


def batch_means_ci(samples):
    """The mean of ``samples``, in time order, and the half-width of its 99%
    confidence interval from BATCHES contiguous batch means."""
    size = len(samples) // BATCHES
    means = [statistics.fmean(samples[i * size : (i + 1) * size]) for i in range(BATCHES)]
    return statistics.fmean(means), T_99 * statistics.stdev(means) / math.sqrt(BATCHES)


def replay_held_in_p(lam_per_s, epochs, seed=3):
    """Replay the single-item workload with ``hot`` held in P and no
    controller; return the time-sorted plan and the records in arrival order."""
    profile = EpochProfile(
        lambdas=(lam_per_s,) * epochs, dt_min_ms=DT_MIN_MS, dt_max_ms=DT_MAX_MS, seed=seed
    )
    store = WORKLOADS[TEMPLATE_SINGLE_ITEM].store(False)
    store.set_current_class("hot", CCClass.P)
    # one window per epoch keeps the boundary events few
    runner = ExperimentRunner(profile, None, store=store, op_cost_ms=OP_COST_MS, tw_ms=1000.0)
    records = sorted(runner.run().events, key=lambda rec: rec.arrival_ms)
    # the runner draws its plan first from Random(seed): draw it again
    plan = WORKLOADS[TEMPLATE_SINGLE_ITEM].plan(profile, random.Random(seed))
    plan.sort(key=itemgetter(0))
    assert len(records) == len(plan)
    assert all(rec.outcome == "commit" for rec in records)
    return plan, records


def assert_fifo_single_server(plan, records):
    # Lindley's recursion, with the service time summed in the order the
    # replay advances its clock: read, disconnect, write.
    departure = 0.0
    for (arrival, _, dt_ms), rec in zip(plan, records):
        assert rec.arrival_ms == arrival
        departure = max(arrival, departure) + OP_COST_MS + dt_ms + OP_COST_MS
        assert rec.termination_ms == pytest.approx(departure, rel=0, abs=1e-6), rec.txn_id


@pytest.mark.parametrize("lam_per_s", [0.5, 1.0, 1.4])  # rho = 0.28, 0.55, 0.77
def test_lock_queue_meets_pollaczek_khinchine(lam_per_s):
    plan, records = replay_held_in_p(lam_per_s, epochs=20_000)
    assert_fifo_single_server(plan, records)
    mean, half_width = batch_means_ci([rec.termination_ms - rec.arrival_ms for rec in records])
    expected = pollaczek_khinchine_ms(lam_per_s)
    assert abs(mean - expected) <= half_width, (mean, half_width, expected)


def test_lock_queue_throughput_saturates_at_one_over_mean_service():
    plan, records = replay_held_in_p(3.0, epochs=4000)  # rho = 1.66
    assert_fifo_single_server(plan, records)
    departures = sorted(rec.termination_ms for rec in records)
    mean_gap, half_width = batch_means_ci([b - a for a, b in zip(departures, departures[1:])])
    # commits per second, and its interval, against 1/E[S]
    low, high = 1000.0 / (mean_gap + half_width), 1000.0 / (mean_gap - half_width)
    assert low <= 1000.0 / E_S <= high, (low, high)
