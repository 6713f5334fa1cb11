"""Residual-push PageRank: synchronous, gossip, set and group update engines,
the reference oracle and power method they are checked against, schedules
and a reproducible experiment harness.

The package holds what the ``pushrank`` command runs. The dense lifted-matrix
and mean-dynamics oracles of the randomized update model live with the
tests (``tests/oracles.py``).
"""

from .cluster import GroupFactors, step_group
from .engines import PushState, exact_error, init_state, run, step_set
from .errors import ConfigError, NumericalFailure, ParseError
from .harness import ExperimentConfig, compare, monte_carlo, run_experiment
from .scheduling import Schedule, derive_seed, indegree_plus_one_weights
from .solvers import DenseOracle, power_method
from .trace import Trace
from .webgraph import (Partition, WebGraph, load_edge_list, load_partition,
                       patch_dangling)

__version__ = "0.1.0"

__all__ = [
    "WebGraph", "Partition", "load_edge_list", "load_partition",
    "patch_dangling",
    "DenseOracle", "power_method",
    "PushState", "init_state", "step_set", "exact_error", "run",
    "GroupFactors", "step_group",
    "Schedule", "indegree_plus_one_weights", "derive_seed",
    "Trace", "ExperimentConfig", "run_experiment", "monte_carlo", "compare",
    "ParseError", "ConfigError", "NumericalFailure",
]
