"""Experiment harness: configure graph + algorithm + schedule, run, emit CSV.

`SCHEDULES` is the one table of which schedule specs each scheduled
algorithm accepts; the first spec listed is its default. `_build_schedule`
checks a spec against it and hands it to `Schedule.from_spec`. A
``--weights`` spec other than ``uniform`` needs the ``weighted`` schedule,
and Monte Carlo runs default to ``uniform``, which every row accepts.
Every CSV goes through `pushrank.trace.write_table`.

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

import numpy as np

from . import engines, scheduling, solvers
from .cluster import GroupFactors
from .errors import ConfigError, NumericalFailure
from .trace import Trace, format_float, write_table
from .webgraph import load_edge_list, load_partition, patch_dangling

__all__ = ["ExperimentConfig", "run_experiment", "monte_carlo", "compare",
           "MeanTrace", "ALGORITHMS", "SCHEDULES", "DEFECT_ABORT"]

ALGORITHMS = ("exact", "power", "sync", "gossip", "multi", "cluster")
SCHEDULES = {
    "gossip": ("uniform", "weighted"),
    "multi": ("roundrobin", "uniform", "weighted", "subset:<q>", "file:<path>"),
    "cluster": ("periodic", "roundrobin", "uniform", "weighted", "file:<path>"),
}
DEFECT_ABORT = 1e-6
_DEFAULT_TOL = 1e-9
_DEFAULT_STEP_CAP = 10_000_000


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run.

    `schedule` is a spec string from the algorithm's row of `SCHEDULES`;
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
        if self.algorithm not in SCHEDULES and (self.schedule is not None
                                                or self.weights != "uniform"):
            raise ConfigError(f"--schedule and --weights do not apply to "
                              f"{self.algorithm!r} runs")
        if self.tol is not None and not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"steps must not be negative, got {self.steps}")
        if self.cadence is not None and self.cadence < 1:
            raise ConfigError("cadence must be a positive step count")
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        return self

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
        self.graph, _ = patch_dangling(graph)
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


def _weights(config, runtime):
    """Selection weights of a ``weighted`` schedule, one per drawn index.

    Cluster runs draw groups: there ``uniform`` and ``indegree_plus_one``
    both weight a group by its member count.
    """
    spec = config.weights
    groups = runtime.partition
    n, what = ((groups.num_groups, "groups") if groups is not None
               else (runtime.graph.n, "pages"))
    if spec.startswith("file:"):
        w = np.loadtxt(spec[5:], dtype=float, ndmin=1)
        if w.size != n:
            raise ConfigError(f"weights file has {w.size} entries for "
                              f"{n} {what}")
        return w
    if spec not in ("uniform", "indegree_plus_one"):
        raise ConfigError(f"unknown weights spec {spec!r}")
    if groups is not None:
        return groups.sizes.astype(float)
    if spec == "uniform":
        return np.ones(n)
    return scheduling.indegree_plus_one_weights(runtime.graph)


def _build_schedule(config, runtime):
    """The run's schedule from its `SCHEDULES` row; None for unscheduled runs."""
    accepted = SCHEDULES.get(config.algorithm)
    if accepted is None:
        return None
    spec = config.schedule or accepted[0]
    kind, colon, _ = spec.partition(":")
    # "subset:<q>" accepts any "subset:..."; "uniform" accepts only itself
    if not any(a.partition(":")[:2] == (kind, colon) for a in accepted):
        raise ConfigError(f"unknown schedule spec {spec!r} for "
                          f"{config.algorithm}; choose from "
                          f"{' | '.join(accepted)}")
    if kind != "weighted" and config.weights != "uniform":
        raise ConfigError(f"--weights {config.weights} applies only to the "
                          f"weighted schedule, not {spec!r}")
    groups = runtime.partition
    n = groups.num_groups if groups is not None else runtime.graph.n
    weights = _weights(config, runtime) if kind == "weighted" else None
    sched = scheduling.Schedule.from_spec(spec, n, config.seed, weights)
    _check_tol_reachable(config, runtime, sched.never_drawn(n))
    return sched


def _check_tol_reachable(config, runtime, idle):
    """Refuse a --tol that the schedule can never certify.

    A page that never pushes keeps z_i >= m/n, so k such pages (the
    members of the `idle` groups on cluster runs, else the `idle` pages)
    hold the certificate at or above (1-m) k / n.
    """
    if config.tol is None or idle.size == 0:
        return
    groups = runtime.partition
    pages = int(groups.sizes[idle].sum()) if groups is not None else idle.size
    floor = (1.0 - config.m) * pages / runtime.graph.n
    if config.tol < floor:
        what = "group" if groups is not None else "page"
        if idle.size > 1:
            what += "s"
        shown = ", ".join(str(i) for i in idle[:10].tolist())
        if idle.size > 10:
            shown += f" and {idle.size - 10} more"
        raise ConfigError(
            f"--tol {config.tol:g} cannot be reached: the schedule never "
            f"updates {what} {shown}, so the certificate stays at or above "
            f"{floor:.6g}")


def _updates_per_step(runtime, sched):
    n = runtime.graph.n
    if sched is None:
        return float(n)
    if runtime.partition is not None:
        return float(n) / runtime.partition.num_groups
    return sched.mean_draw_size


def _auto_cadence(config, runtime, sched):
    if config.cadence is not None:
        return config.cadence
    n = runtime.graph.n
    if n <= 1000:
        return 1
    return max(1, round(n / _updates_per_step(runtime, sched)))


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
            x = runtime.oracle.x_star
            write_table(config.out, ["page", "x"], [np.arange(x.size), x])
        else:
            trace.write_csv(config.out)
    print(f"{config.algorithm}: steps={trace.final_step} "
          f"updates={trace.final_updates} "
          f"err_l1={format_float(trace.final_err)} "
          f"cert={format_float(trace.final_cert)}")
    return trace


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

    def write_csv(self, path):
        write_table(path, self.HEADER.split(","),
                    [self.steps, self.updates, self.err_mean, self.err_stderr])


def monte_carlo(config):
    """Average the exact-error curve over `config.replicas` seeded replicas.

    Replica r draws from the derived stream seed XOR splitmix64(r); runs
    share the step grid (fixed step count, no tolerance stop), and the
    per-step sample mean and standard error of ||x(k) - x*||_1 are
    reported. Requires a randomized schedule (default ``uniform``, which
    every scheduled algorithm accepts) and the dense oracle; refuses a
    `tol` and `include_x`, which it would ignore.
    """
    if config.tol is not None:
        raise ConfigError("--tol does not apply to Monte Carlo runs, which "
                          "share a fixed step grid (--steps)")
    if config.include_x:
        raise ConfigError("--include-x does not apply to Monte Carlo runs, "
                          "which write no per-page columns")
    if config.schedule is None and config.algorithm in SCHEDULES:
        config = replace(config, schedule="uniform")
    runtime = _Runtime(config)
    m = config.replicas
    if config.steps is None:
        raise ConfigError("Monte Carlo runs need --steps (a shared step grid)")
    sched = _build_schedule(config, runtime)
    if sched is None or not sched.is_random:
        raise ConfigError("Monte Carlo averaging needs a randomized schedule")
    runtime.require_oracle("Monte Carlo error averaging")
    base = replace(config, out=None)
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
    if any(cfg.include_x for cfg in configs):
        raise ConfigError("--include-x does not apply to compare, which "
                          "writes one error column per run")
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
        write_table(out, header, [grid.astype(np.int64)] + columns)
    return header, rows
