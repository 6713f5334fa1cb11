"""Experiment harness: configure graph + algorithm + schedule, run, emit CSV.

Single runs produce a `Trace` (schema ``step,updates,err_l1,cert,defect``);
Monte Carlo runs average the exact error across seeded replicas and emit
``step,updates,err_mean,err_stderr``; comparisons align runs on the
cumulative-updates axis (the fair cost measure: one update = one page
pushing once) and emit one error column per run.

Exact-error and conservation columns require the dense oracle and are NaN
when the graph exceeds the dense cap. A conservation defect above 1e-6 is
a hard numerical failure and aborts the experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import engines, scheduling, solvers
from .cluster import GroupFactors
from .errors import ConfigError, NumericalFailure
from .trace import Trace, format_float
from .webgraph import load_edge_list, load_partition, patch_dangling

__all__ = ["ExperimentConfig", "run_experiment", "monte_carlo", "compare",
           "MeanTrace", "ALGORITHMS", "DEFECT_ABORT"]

ALGORITHMS = ("exact", "power", "sync", "gossip", "multi", "cluster")
SCHEDULED = ("gossip", "multi", "cluster")
DEFECT_ABORT = 1e-6
_DEFAULT_TOL = 1e-9
_DEFAULT_STEP_CAP = 10_000_000

_DEFAULT_SCHEDULE = {"gossip": "uniform", "multi": "roundrobin",
                     "cluster": "periodic"}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run.

    `schedule` is a spec string: ``uniform`` | ``weighted`` | ``roundrobin``
    | ``subset:<q>`` | ``file:<path>`` (and ``periodic`` for cluster);
    `weights` is ``uniform`` | ``indegree_plus_one`` | ``file:<path>``.
    `cadence` of None records every step for graphs up to 1000 pages and
    roughly every n updates beyond that.
    """

    graph: str
    algorithm: str
    base: int = 0
    m: float = 0.15
    schedule: str | None = None
    weights: str = "uniform"
    partition: str | None = None
    steps: int | None = None
    tol: float | None = None
    seed: int = 0
    replicas: int = 1
    out: str | None = None
    cadence: int | None = None
    dense_cap: int = solvers.DENSE_CAP
    include_x: bool = False

    def validate(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; "
                              f"choose from {', '.join(ALGORITHMS)}")
        if not 0.0 < self.m < 1.0:
            raise ConfigError(f"m must lie in (0, 1), got {self.m}")
        if self.base not in (0, 1):
            raise ConfigError(f"index base must be 0 or 1, got {self.base}")
        if self.algorithm == "cluster" and self.partition is None:
            raise ConfigError("cluster runs need --partition")
        if self.algorithm != "cluster" and self.partition is not None:
            raise ConfigError("--partition only applies to cluster runs")
        if self.algorithm not in SCHEDULED and self.schedule is not None:
            raise ConfigError(
                f"--schedule does not apply to {self.algorithm!r} runs")
        if self.cadence is not None and self.cadence < 1:
            raise ConfigError("cadence must be a positive step count")
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        return self

    def effective_schedule(self):
        return self.schedule or _DEFAULT_SCHEDULE.get(self.algorithm)

    def effective_bounds(self):
        """(steps, tol) with a safety cap when neither was given."""
        if self.steps is None and self.tol is None:
            return _DEFAULT_STEP_CAP, _DEFAULT_TOL
        return self.steps, self.tol


class _Runtime:
    """Loaded inputs shared by the runs of one experiment."""

    def __init__(self, config):
        config.validate()
        graph = load_edge_list(config.graph, index_base=config.base)
        self.graph, self.patched_pages = patch_dangling(graph)
        self.partition = self.factors = None
        if config.partition is not None:
            self.partition = load_partition(config.partition, self.graph)
            self.factors = GroupFactors(self.graph, config.m, self.partition)
        self.oracle = None
        if self.graph.n <= config.dense_cap:
            self.oracle = solvers.DenseOracle(self.graph, config.m,
                                              dense_cap=config.dense_cap)

    def require_oracle(self, why):
        if self.oracle is None:
            raise ConfigError(f"{why} needs the dense oracle; "
                              "raise --dense-cap or shrink the graph")
        return self.oracle


def _page_weights(config, graph):
    spec = config.weights
    if spec == "uniform":
        return np.ones(graph.n)
    if spec == "indegree_plus_one":
        return scheduling.indegree_plus_one_weights(graph)
    if spec.startswith("file:"):
        w = np.loadtxt(spec[5:], dtype=float, ndmin=1)
        if w.size != graph.n:
            raise ConfigError(f"weights file has {w.size} entries for "
                              f"{graph.n} pages")
        return w
    raise ConfigError(f"unknown weights spec {spec!r}")


def _page_schedule(config, graph):
    spec = config.effective_schedule()
    if spec == "uniform":
        return scheduling.Schedule.uniform_singleton(graph.n, config.seed)
    if spec == "weighted":
        return scheduling.Schedule.weighted_singleton(
            _page_weights(config, graph), config.seed)
    if spec == "roundrobin":
        return scheduling.Schedule.round_robin(graph.n)
    if spec.startswith("subset:"):
        try:
            q = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad subset probability in {spec!r}") from None
        return scheduling.Schedule.random_subset(graph.n, q, config.seed)
    if spec.startswith("file:"):
        return scheduling.Schedule.fixed_sequence(
            scheduling.load_sequence_file(spec[5:]))
    raise ConfigError(f"unknown schedule spec {spec!r} for {config.algorithm}")


def _group_schedule(config, partition):
    spec = config.effective_schedule()
    n_groups = partition.num_groups
    if spec in ("periodic", "roundrobin"):
        return scheduling.Schedule.periodic_groups(n_groups)
    if spec == "uniform":
        return scheduling.Schedule.uniform_singleton(n_groups, config.seed)
    if spec == "weighted":
        # group draws weighted by member count unless an explicit file is given
        if config.weights.startswith("file:"):
            w = np.loadtxt(config.weights[5:], dtype=float, ndmin=1)
            if w.size != n_groups:
                raise ConfigError(f"weights file has {w.size} entries for "
                                  f"{n_groups} groups")
        else:
            w = partition.sizes.astype(float)
        return scheduling.Schedule.weighted_singleton(w, config.seed)
    if spec.startswith("file:"):
        return scheduling.Schedule.fixed_sequence(
            scheduling.load_sequence_file(spec[5:]))
    raise ConfigError(f"unknown schedule spec {spec!r} for cluster")


def _build_schedule(config, runtime):
    if config.algorithm == "cluster":
        return _group_schedule(config, runtime.partition)
    if config.algorithm in ("gossip", "multi"):
        sched = _page_schedule(config, runtime.graph)
        if config.algorithm == "gossip" and sched.kind not in (
                "uniform_singleton", "weighted_singleton"):
            raise ConfigError("gossip draws one page at a time; use "
                              "--schedule uniform or weighted (multi takes "
                              "sets)")
        return sched
    return None


def _updates_per_step(config, runtime, sched):
    n = runtime.graph.n
    if config.algorithm in ("power", "sync"):
        return float(n)
    if config.algorithm == "cluster":
        return float(n) / runtime.partition.num_groups
    if sched is not None and sched.kind == "random_subset":
        return max(1.0, sched.q * n)
    if sched is not None and sched.kind == "fixed_sequence":
        sizes = [s.size for s in sched.sequence] or [1]
        return max(1.0, sum(sizes) / len(sizes))
    return 1.0


def _auto_cadence(config, runtime, sched):
    if config.cadence is not None:
        return config.cadence
    n = runtime.graph.n
    if n <= 1000:
        return 1
    return max(1, round(n / _updates_per_step(config, runtime, sched)))


def _check_conservation(trace):
    defect = trace.column("defect")
    finite = defect[np.isfinite(defect)]
    if finite.size and finite.max() > DEFECT_ABORT:
        at = int(np.nanargmax(defect))
        raise NumericalFailure(
            f"conservation defect {finite.max():.3e} at step "
            f"{trace.steps[at]} exceeds {DEFECT_ABORT:g}")


def _execute(config, runtime, sched):
    """Run one configured algorithm and return its trace."""
    graph, m = runtime.graph, config.m
    steps, tol = config.effective_bounds()
    cadence = _auto_cadence(config, runtime, sched)
    oracle = runtime.oracle
    if config.algorithm == "exact":
        oracle = runtime.require_oracle("exact solve")
        trace = Trace()
        trace.append(0, 0, err_l1=0.0, cert=0.0, defect=0.0,
                     x=oracle.x_star if config.include_x else None)
        return trace
    if config.algorithm == "power":
        _, trace = solvers.power_method(
            graph, m, tol=tol if tol is not None else 1e-12,
            max_steps=steps if steps is not None else _DEFAULT_STEP_CAP,
            oracle=oracle, cadence=cadence, record_x=config.include_x)
        return trace
    _, trace = engines.run(graph, m, sched, factors=runtime.factors,
                           steps=steps, tol=tol, oracle=oracle,
                           cadence=cadence, record_x=config.include_x)
    _check_conservation(trace)
    return trace


def run_experiment(config):
    """Run one experiment, write its CSV if requested, print a summary line."""
    runtime = _Runtime(config)
    sched = _build_schedule(config, runtime)
    trace = _execute(config, runtime, sched)
    if config.out:
        if config.algorithm == "exact":
            _write_rank_vector(config.out, runtime.oracle.x_star)
        else:
            trace.write_csv(config.out)
    print(f"{config.algorithm}: steps={trace.final_step} "
          f"updates={trace.final_updates} "
          f"err_l1={format_float(trace.final_err)} "
          f"cert={format_float(trace.final_cert)}")
    return trace


def _write_rank_vector(path, x):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("page,x\n")
        for i, v in enumerate(x):
            fh.write(f"{i},{format_float(v)}\n")


class MeanTrace:
    """Across-replica mean and standard error of the exact error."""

    __slots__ = ("steps", "updates", "err_mean", "err_stderr", "replicas")

    HEADER = "step,updates,err_mean,err_stderr"

    def __init__(self, steps, updates, err_mean, err_stderr, replicas):
        self.steps = steps
        self.updates = updates
        self.err_mean = err_mean
        self.err_stderr = err_stderr
        self.replicas = replicas

    def lines(self):
        yield self.HEADER
        for r in range(len(self.steps)):
            yield ",".join([str(self.steps[r]), format_float(self.updates[r]),
                            format_float(self.err_mean[r]),
                            format_float(self.err_stderr[r])])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for line in self.lines():
                fh.write(line + "\n")


def monte_carlo(config, replicas=None):
    """Average the exact-error curve over seeded replicas.

    Replica r draws from the derived stream seed XOR splitmix64(r); runs
    share the step grid (fixed step count, no tolerance stop), and the
    per-step sample mean and standard error of ||x(k) - x*||_1 are
    reported. Requires a randomized schedule and the dense oracle.
    """
    runtime = _Runtime(config)
    m = replicas if replicas is not None else config.replicas
    if m < 1:
        raise ConfigError("replicas must be at least 1")
    if config.steps is None:
        raise ConfigError("Monte Carlo runs need --steps (a shared step grid)")
    sched = _build_schedule(config, runtime)
    if sched is None or not sched.is_random:
        raise ConfigError("Monte Carlo averaging needs a randomized schedule")
    runtime.require_oracle("Monte Carlo error averaging")
    base = replace(config, tol=None, out=None)
    errs = []
    upds = []
    steps_grid = None
    for r in range(m):
        trace = _execute(base, runtime, sched.derive(r))
        if steps_grid is None:
            steps_grid = trace.steps
        errs.append(trace.column("err_l1"))
        upds.append(trace.column("updates"))
    err = np.vstack(errs)
    upd = np.vstack(upds)
    mean = err.mean(axis=0)
    if m > 1:
        stderr = err.std(axis=0, ddof=1) / math.sqrt(m)
    else:
        stderr = np.zeros_like(mean)
    result = MeanTrace(steps_grid, upd.mean(axis=0), mean, stderr, m)
    if config.out:
        result.write_csv(config.out)
    print(f"mc[{config.algorithm}x{m}]: steps={steps_grid[-1]} "
          f"err_mean={format_float(mean[-1])} "
          f"stderr={format_float(stderr[-1])}")
    return result


def compare(configs, out=None):
    """Align runs on the cumulative-updates axis and tabulate their errors.

    All configs must share the graph, index base and m. Rows are the union
    of the runs' updates values; each error column carries its last value
    forward between its own records. Returns (header, rows).
    """
    if not configs:
        raise ConfigError("compare needs at least one run")
    first = configs[0]
    for cfg in configs[1:]:
        if (cfg.graph, cfg.base, cfg.m) != (first.graph, first.base, first.m):
            raise ConfigError("compared runs must share graph, base and m")
    runtime = _Runtime(first)
    labels = []
    traces = []
    for cfg in configs:
        cfg.validate()
        if cfg.algorithm == "exact":
            raise ConfigError("exact has no trajectory to compare")
        rt = runtime if cfg.partition == first.partition else _Runtime(cfg)
        traces.append(_execute(cfg, rt, _build_schedule(cfg, rt)))
        label = f"err_{cfg.algorithm}"
        while label in labels:
            label += "_"
        labels.append(label)
    grid = np.unique(np.concatenate([t.column("updates") for t in traces]))
    columns = []
    for t in traces:
        upd = t.column("updates")
        err = t.column("err_l1")
        idx = np.searchsorted(upd, grid, side="right") - 1
        col = np.where(idx >= 0, err[np.clip(idx, 0, None)], np.nan)
        columns.append(col)
    header = ["updates"] + labels
    rows = [tuple([int(u)] + [col[i] for col in columns])
            for i, u in enumerate(grid)]
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join([str(row[0])] +
                                  [format_float(v) for v in row[1:]]) + "\n")
    return header, rows
