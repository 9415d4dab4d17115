"""In-memory transactional engine with per-item concurrency-control classes.

Data items are classified into four classes with distinct conflict
semantics: optimistic snapshot validation (O), reconciliation of
commutative deltas (R), exclusive read-time locking (P), and escrow
reservations (E).  A feedback controller can reclassify adaptable items
between O and P at run time based on the measured commit rate, optionally
bounded by a response-time barrier.  A workload harness replays Poisson
arrival profiles against the engine on a deterministic virtual clock.
"""

from .adaptation import (
    AdaptationConfig,
    AdaptEvent,
    Controller,
    CostModel,
    Mode,
    compute_cr,
    compute_cr_eff,
    cost_tradeoff,
    estimate_rt,
)
from .classify import (
    AccessProperties,
    ClassificationResult,
    SemanticProperties,
    Stage1,
    classify,
    classify_stage1,
    classify_stage2,
)
from .engine import (
    AbortReason,
    Engine,
    Phase,
    ReadOutcome,
    ReadStatus,
    TerminationRecord,
    Txn,
    WriteIntent,
)
from .harness import (
    EpochProfile,
    ExperimentResult,
    ExperimentRunner,
    TxnTemplate,
    W1,
    W2,
    overload_adaptation_scenario,
    poisson_arrivals,
    run_experiment,
    tpcc_deck,
)
from .locks import AcquireStatus, LockManager
from .metrics import Summary, aggregate, summarize
from .semantic import EscrowLedger, reconcile_commit
from .sg import ScheduleEvent, SerializationGraph, build_serialization_graph, find_cycle
from .store import CCClass, Constraint, Store, VersionedItem

__all__ = [
    "AbortReason",
    "AccessProperties",
    "AcquireStatus",
    "AdaptEvent",
    "AdaptationConfig",
    "CCClass",
    "ClassificationResult",
    "Constraint",
    "Controller",
    "CostModel",
    "Engine",
    "EpochProfile",
    "EscrowLedger",
    "ExperimentResult",
    "ExperimentRunner",
    "LockManager",
    "Mode",
    "Phase",
    "ReadOutcome",
    "ReadStatus",
    "ScheduleEvent",
    "SemanticProperties",
    "SerializationGraph",
    "Stage1",
    "Store",
    "Summary",
    "TerminationRecord",
    "Txn",
    "TxnTemplate",
    "VersionedItem",
    "W1",
    "W2",
    "WriteIntent",
    "aggregate",
    "build_serialization_graph",
    "classify",
    "classify_stage1",
    "classify_stage2",
    "compute_cr",
    "compute_cr_eff",
    "cost_tradeoff",
    "estimate_rt",
    "find_cycle",
    "overload_adaptation_scenario",
    "poisson_arrivals",
    "reconcile_commit",
    "run_experiment",
    "summarize",
    "tpcc_deck",
]
