"""The paper's primary contribution: the RQ-tree index and query engine."""

from .rqtree import RQTree, ClusterNode
from .builder import build_rqtree, BuildReport, split_cluster
from .outreach import (
    OutreachComputation,
    outreach_upper_bound,
    general_outreach_upper_bound,
    combine_upper_bounds,
    capacity_of,
)
from .candidates import (
    CandidateResult,
    TraversalStep,
    single_source_candidates,
    multi_source_candidates_greedy,
    multi_source_candidates_exact,
    generate_candidates,
)
from .verification import (
    VerificationReport,
    verify_lower_bound,
    verify_lower_bound_packing,
    verify_lower_bound_report,
    verify_sampling,
    verify_sampling_report,
)
from .engine import RQTreeEngine, QueryResult
from .detection import (
    DetectionResult,
    detect_reliability,
    reliability_scores,
    top_k_reliable,
)
from .bounds_cache import ClusterBoundsCache

__all__ = [
    "RQTree",
    "ClusterNode",
    "build_rqtree",
    "BuildReport",
    "split_cluster",
    "OutreachComputation",
    "outreach_upper_bound",
    "general_outreach_upper_bound",
    "combine_upper_bounds",
    "capacity_of",
    "CandidateResult",
    "TraversalStep",
    "single_source_candidates",
    "multi_source_candidates_greedy",
    "multi_source_candidates_exact",
    "generate_candidates",
    "VerificationReport",
    "verify_lower_bound",
    "verify_lower_bound_report",
    "verify_lower_bound_packing",
    "verify_sampling",
    "verify_sampling_report",
    "RQTreeEngine",
    "QueryResult",
    "DetectionResult",
    "detect_reliability",
    "reliability_scores",
    "top_k_reliable",
    "ClusterBoundsCache",
]
