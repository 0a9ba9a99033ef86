"""Uncertain-graph substrate: data structure, traversal, sampling, I/O."""

from .uncertain import UncertainGraph, SubgraphView
from .traversal import (
    bfs_reachable,
    bfs_layers,
    bfs_distances,
    reachable_within,
    weakly_connected_components,
    strongly_connected_components,
    estimate_diameter,
    induced_ball,
)
from .paths import (
    most_likely_path,
    most_likely_path_probabilities,
    prob_to_distance,
    distance_to_prob,
)
from .sampling import ReachabilityFrequencyEstimator
from .exact import (
    exact_reliability,
    exact_reliability_bruteforce,
    exact_outreach,
    exact_reliability_search,
)
from .statistics import (
    GraphSummary,
    degree_histogram,
    probability_histogram,
    expected_num_arcs,
    expected_out_degree,
    summarize,
)
from .transforms import (
    map_probabilities,
    scale_probabilities,
    power_probabilities,
    threshold_backbone,
    make_undirected,
    weighted_cascade,
)
from .condense import Condensation, contract_certain_sccs
from . import generators, io

__all__ = [
    "UncertainGraph",
    "SubgraphView",
    "bfs_reachable",
    "bfs_layers",
    "bfs_distances",
    "reachable_within",
    "weakly_connected_components",
    "strongly_connected_components",
    "estimate_diameter",
    "induced_ball",
    "most_likely_path",
    "most_likely_path_probabilities",
    "prob_to_distance",
    "distance_to_prob",
    "ReachabilityFrequencyEstimator",
    "exact_reliability",
    "exact_reliability_bruteforce",
    "exact_outreach",
    "exact_reliability_search",
    "generators",
    "io",
    "GraphSummary",
    "degree_histogram",
    "probability_histogram",
    "expected_num_arcs",
    "expected_out_degree",
    "summarize",
    "map_probabilities",
    "scale_probabilities",
    "power_probabilities",
    "threshold_backbone",
    "make_undirected",
    "weighted_cascade",
    "Condensation",
    "contract_certain_sccs",
]
