"""Residual-push PageRank: synchronous, gossip, set and group update engines
with reference solvers, schedules and a reproducible experiment harness."""

from .cluster import GroupFactors, step_group
from .engines import PushState, exact_error, init_state, run, step_set
from .errors import ConfigError, NumericalFailure, ParseError
from .harness import ExperimentConfig, compare, monte_carlo, run_experiment
from .lifted import (analytic_mean_trace, lift_group_hat, lift_set,
                     lift_single, mean_matrices)
from .scheduling import (Schedule, derive_seed, indegree_plus_one_weights,
                         liveness_audit)
from .solvers import DenseOracle, neumann_partial, power_method, solve_dense
from .trace import Trace
from .webgraph import (Partition, WebGraph, load_edge_list, load_partition,
                       parse_edge_list, parse_partition, patch_dangling,
                       q_column)

__version__ = "0.1.0"

__all__ = [
    "WebGraph", "Partition", "load_edge_list", "parse_edge_list",
    "load_partition", "parse_partition", "patch_dangling", "q_column",
    "solve_dense", "DenseOracle", "power_method", "neumann_partial",
    "PushState", "init_state", "step_set", "exact_error", "run",
    "GroupFactors", "step_group",
    "Schedule", "liveness_audit", "indegree_plus_one_weights", "derive_seed",
    "lift_single", "lift_set", "lift_group_hat", "mean_matrices",
    "analytic_mean_trace",
    "Trace", "ExperimentConfig", "run_experiment", "monte_carlo", "compare",
    "ParseError", "ConfigError", "NumericalFailure",
]
