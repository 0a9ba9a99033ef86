"""repro — reproduction of "Fast Reliability Search in Uncertain Graphs".

A. Khan, F. Bonchi, A. Gionis, F. Gullo, EDBT 2014.

The library answers **reliability-search queries** ``RS(S, η)`` — all
nodes reachable from a source set ``S`` with probability at least ``η``
in an uncertain (probabilistic) directed graph — through the paper's
RQ-tree index, with the two baselines (whole-graph Monte-Carlo sampling
and RHT-style recursive sampling) and the influence-maximization
application included.

Quickstart::

    from repro import UncertainGraph, RQTreeEngine

    g = UncertainGraph.from_arcs([(0, 1, 0.9), (1, 2, 0.8), (0, 3, 0.3)])
    engine = RQTreeEngine.build(g, seed=7)
    result = engine.query(0, eta=0.5)          # RQ-tree-LB
    print(sorted(result.nodes))                # -> [0, 1, 2]

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .errors import (
    ReproError,
    GraphError,
    InvalidProbabilityError,
    InvalidThresholdError,
    NodeNotFoundError,
    EmptySourceSetError,
    IndexCorruptionError,
    FlowError,
    InvalidCapacityError,
    PartitionError,
    QueryDeadlineError,
    InjectedFault,
    SamplingKernelError,
    ShardUnavailableError,
    WorkerPoolRestartError,
)
from .resilience import (
    QueryBudget,
    BudgetClock,
    FaultPlan,
    CONFIRMED,
    REJECTED,
    UNVERIFIED,
)
from .graph.uncertain import UncertainGraph, SubgraphView
from .graph.exact import exact_reliability, exact_reliability_search
from .core.rqtree import RQTree, ClusterNode
from .core.builder import build_rqtree, BuildReport
from .core.engine import RQTreeEngine, QueryResult
from .core.candidates import (
    CandidateResult,
    generate_candidates,
    single_source_candidates,
    multi_source_candidates_greedy,
    multi_source_candidates_exact,
)
from .core.outreach import (
    outreach_upper_bound,
    general_outreach_upper_bound,
    combine_upper_bounds,
    OutreachComputation,
)
from .core.verification import (
    VerificationReport,
    verify_lower_bound,
    verify_lower_bound_packing,
    verify_lower_bound_report,
    verify_sampling,
    verify_sampling_report,
)
from .core.detection import (
    DetectionResult,
    detect_reliability,
    reliability_scores,
    top_k_reliable,
)
from .core.maintenance import DynamicRQTreeEngine, MaintenanceStats
from .reliability.montecarlo import mc_sampling_search, mc_reliability
from .reliability.rht import rht_reliability, rht_reliability_search
from .influence.spread import expected_spread_mc, expected_spread_histogram
from .influence.greedy import greedy_mc, greedy_rqtree, GreedyTrace
from .shard import ShardPlan, build_shard_plan, ShardedRQTreeEngine
from .datasets.registry import load_dataset, dataset_names

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "InvalidProbabilityError",
    "InvalidThresholdError",
    "NodeNotFoundError",
    "EmptySourceSetError",
    "IndexCorruptionError",
    "FlowError",
    "InvalidCapacityError",
    "PartitionError",
    "QueryDeadlineError",
    "InjectedFault",
    "SamplingKernelError",
    "ShardUnavailableError",
    "WorkerPoolRestartError",
    # resilience
    "QueryBudget",
    "BudgetClock",
    "FaultPlan",
    "CONFIRMED",
    "REJECTED",
    "UNVERIFIED",
    # graph
    "UncertainGraph",
    "SubgraphView",
    "exact_reliability",
    "exact_reliability_search",
    # index
    "RQTree",
    "ClusterNode",
    "build_rqtree",
    "BuildReport",
    "RQTreeEngine",
    "QueryResult",
    # query processing
    "CandidateResult",
    "generate_candidates",
    "single_source_candidates",
    "multi_source_candidates_greedy",
    "multi_source_candidates_exact",
    "outreach_upper_bound",
    "general_outreach_upper_bound",
    "combine_upper_bounds",
    "OutreachComputation",
    "VerificationReport",
    "verify_lower_bound",
    "verify_lower_bound_report",
    "verify_lower_bound_packing",
    "verify_sampling",
    "verify_sampling_report",
    "DetectionResult",
    "detect_reliability",
    "reliability_scores",
    "top_k_reliable",
    "DynamicRQTreeEngine",
    "MaintenanceStats",
    # sharded serving
    "ShardPlan",
    "build_shard_plan",
    "ShardedRQTreeEngine",
    # baselines
    "mc_sampling_search",
    "mc_reliability",
    "rht_reliability",
    "rht_reliability_search",
    # influence maximization
    "expected_spread_mc",
    "expected_spread_histogram",
    "greedy_mc",
    "greedy_rqtree",
    "GreedyTrace",
    # datasets
    "load_dataset",
    "dataset_names",
]
