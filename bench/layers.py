"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Each row is (metric, unit, end-to-end metrics it should move, workloads it
mostly shows on, workloads on which the prediction is no change). A metric
of a function that a workload never calls reads 0 there. The layers are
the modules of `src/pushrank` on a run path: cli, harness, webgraph,
solvers, engines, cluster, scheduling and trace.
"""

ALL = ("sync-200k", "gossip-20k", "cluster-50k", "mc-100")
LARGE = ("sync-200k", "gossip-20k", "cluster-50k")
SETUP = ("setup_s",)
LOAD = ("setup_s", "wall_s", "peak_rss_mb")
PER_UPDATE = ("us_per_update",)
STEP = ("us_per_update", "wall_s")

_rows = [
    # webgraph: parsing, graph build, patching, Q build, partition load
    ("webgraph.load_edge_list.s", "s", LOAD, ("sync-200k",), ("mc-100",)),
    ("webgraph.load_edge_list.edges_per_s", "1/s", LOAD, ("sync-200k",), ("mc-100",)),
    ("webgraph.load_edge_list.rss_rise_mb", "MB", LOAD, ("sync-200k",), ("mc-100",)),
    ("webgraph.patch_dangling.s", "s", SETUP, ("sync-200k", "cluster-50k"), ("mc-100",)),
    ("webgraph.patch_dangling.pages", "count", SETUP, ("mc-100",), LARGE),
    ("webgraph.WebGraph.q_matrix.s", "s", SETUP, ("sync-200k", "cluster-50k"), ("mc-100",)),
    ("webgraph.load_partition.s", "s", SETUP, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    # solvers: the dense oracle and its per-record diagnostics
    ("solvers.DenseOracle.init_s", "s", SETUP, ("mc-100",), LARGE),
    ("solvers.DenseOracle.error_l1.us", "us", STEP, ("mc-100",), LARGE),
    ("solvers.DenseOracle.error_l1.calls", "count", STEP, ("mc-100",), LARGE),
    ("solvers.DenseOracle.conservation_defect.us", "us", STEP, ("mc-100",), LARGE),
    ("solvers.DenseOracle.conservation_defect.calls", "count", STEP, ("mc-100",), LARGE),
    # engines: step kernels and the run loop
    ("engines.step_set.us", "us", PER_UPDATE, ("gossip-20k", "mc-100"), ("sync-200k", "cluster-50k")),
    ("engines.step_set.calls", "count", PER_UPDATE, ("gossip-20k", "mc-100"), ("sync-200k", "cluster-50k")),
    ("engines.step_set.pages_per_call", "count", PER_UPDATE, ("gossip-20k", "mc-100"), ("sync-200k", "cluster-50k")),
    ("engines.scatter_push.us", "us", PER_UPDATE, ("gossip-20k", "mc-100"), ("sync-200k", "cluster-50k")),
    ("engines.step_sync.us", "us", STEP, ("sync-200k",), ("gossip-20k", "cluster-50k", "mc-100")),
    ("engines.step_sync.calls", "count", STEP, ("sync-200k",), ("gossip-20k", "cluster-50k", "mc-100")),
    ("engines.step_sync.nnz_per_s", "1/s", STEP, ("sync-200k",), ("gossip-20k", "cluster-50k", "mc-100")),
    ("engines.run.self_s", "s", PER_UPDATE, ("gossip-20k", "mc-100"), ()),
    ("engines.run_sync.self_s", "s", PER_UPDATE, ("sync-200k",), ()),
    # cluster: local factorizations, local solves, group steps
    ("cluster.GroupFactors.init_s", "s", SETUP, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.GroupFactors.dense_groups", "count", SETUP, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.GroupFactors.iterative_groups", "count", SETUP, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.step_group.us", "us", PER_UPDATE, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.step_group.calls", "count", PER_UPDATE, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.GroupFactors.solve_local.us", "us", PER_UPDATE, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.GroupFactors.solve_local.calls", "count", PER_UPDATE, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    ("cluster.run_clustered.self_s", "s", PER_UPDATE, ("cluster-50k",), ("sync-200k", "gossip-20k", "mc-100")),
    # scheduling: draws
    ("scheduling.Schedule.next.us", "us", PER_UPDATE, ("gossip-20k", "mc-100", "cluster-50k"), ("sync-200k",)),
    ("scheduling.Schedule.next.calls", "count", PER_UPDATE, ("gossip-20k", "mc-100", "cluster-50k"), ("sync-200k",)),
    ("scheduling.Schedule.derive.calls", "count", PER_UPDATE, ("mc-100",), LARGE),
    # trace: records and CSV output
    ("trace.Trace.append.calls", "count", ("wall_s",), ("mc-100",), ()),
    ("trace.Trace.write_csv.s", "s", ("wall_s",), LARGE, ()),
    ("harness.MeanTrace.write_csv.s", "s", ("wall_s",), ("mc-100",), LARGE),
    ("trace.csv_bytes", "bytes", ("wall_s",), ALL, ()),
    # harness and cli: everything around the layers above
    ("harness.run_experiment.s", "s", ("wall_s",), LARGE, ()),
    ("harness.monte_carlo.s", "s", ("wall_s",), ("mc-100",), ()),
    ("harness.self_s", "s", ("wall_s",), ALL, ()),
    ("cli.main.s", "s", ("wall_s",), ALL, ()),
    # kernel probes on the loaded graph (n = 2e4 on gossip-20k, 2e5 on sync-200k)
    ("engines.probe.step_set_single.us", "us", PER_UPDATE, ("gossip-20k", "sync-200k"), ()),
    ("engines.probe.step_set_full.ms", "ms", PER_UPDATE, ("gossip-20k", "sync-200k"), ()),
    ("engines.probe.step_sync.ms", "ms", PER_UPDATE, ("gossip-20k", "sync-200k"), ()),
    # whole traced run
    ("updates", "count", PER_UPDATE, ALL, ()),
    ("tracing_overhead_frac", "ratio", (), ALL, ()),
]

METRICS = {name: unit for name, unit, *_ in _rows}
LAYER_MAP = [{"metric": name, "unit": unit, "should_move": list(moves),
              "mostly_on": list(on), "no_change_on": list(off)}
             for name, unit, moves, on, off in _rows]
