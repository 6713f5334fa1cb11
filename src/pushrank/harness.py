"""Experiment harness: configure graph + algorithm + schedule, run, emit CSV.

`SCHEDULES` is the one table of which schedule specs each scheduled
algorithm accepts, each draw named once; the first spec listed is its
default, and Monte Carlo runs default to ``uniform``, which every row
accepts. A spec names a draw and its argument, such as the weights of
``weighted:indegree_plus_one``. `_READS` is the one table of which
settings each command reads. `ExperimentConfig.validate` settles a run
before any file is opened: it applies the schedule default, refuses what
the run does not take (a spec, or a setting given, i.e. off its default;
``seed`` defaults to None) and resolves ``seed``. Later layers apply no
default of their own.
Every CSV goes through `pushrank.trace.write_table`. A command's ``out``
file is created, or emptied, once its config is settled and before any
input is read, so an output path that cannot be opened fails at once; a
run that fails after that leaves the file empty. A command loads its
inputs once, before its first run (`_Runtime`); a cluster run draws the
groups of its partition file, and every other run draws pages.

Single runs produce a `Trace` (schema ``step,updates,err_l1,cert,defect``);
Monte Carlo runs average the exact error across seeded replicas and emit
``step,updates,err_mean,err_stderr``, reducing each record across the
replicas as the run takes it (`pushrank.trace.MeanTrace`); comparisons
align runs on the cumulative-updates axis (the fair cost measure: one
update = one page pushing once) and emit one error column per run.

Exact-error and conservation columns come from the reference oracle
(`solvers.DenseOracle`). A single run or a comparison builds it on graphs
up to `solvers.REFERENCE_CAP` pages and writes NaN above; `mc` and
`exact` build it at any size, for it costs a fixed number of sparse
products. The conservation column is a bound on the defect against x*:
the push invariant's residual, from one sparse product with Q, over m
(see `pushrank.trace`).
A bound above `engines.DEFECT_ABORT` (1e-6) is a hard numerical failure:
the run loop aborts at the record where it appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import engines, scheduling, solvers
from .cluster import GroupFactors
from .errors import ConfigError
from .trace import MeanTrace, Trace, format_float, write_table
from .webgraph import (_distinct, _read_rows, load_edge_list,
                       load_partition, patch_dangling)

__all__ = ["ExperimentConfig", "run_experiment", "monte_carlo", "compare",
           "ALGORITHMS", "SCHEDULES"]

ALGORITHMS = ("exact", "power", "sync", "gossip", "multi", "cluster")
SCHEDULES = {
    "gossip": ("uniform", "weighted:indegree_plus_one", "weighted:file:<path>"),
    "multi": ("roundrobin", "uniform", "weighted:indegree_plus_one",
              "weighted:file:<path>", "subset:<q>", "file:<path>"),
    "cluster": ("roundrobin", "uniform", "weighted:size",
                "weighted:file:<path>", "file:<path>"),
}
# Every command reads these config fields and those of its `_READS` row
_READ_BY_ALL = ("graph", "algorithm", "base", "m", "out")
_READS = {
    "exact": "",
    "power": "steps tol cadence include_x",
    "sync": "steps tol cadence include_x",
    "gossip": "schedule seed steps tol cadence include_x",
    "multi": "schedule seed steps tol cadence include_x",
    "cluster": "schedule seed partition steps tol cadence include_x",
    "mc": "schedule seed partition steps cadence replicas",
    "compare": "schedule seed partition steps tol cadence",
}
_DEFAULT_TOL = 1e-9
_DEFAULT_STEP_CAP = 10_000_000


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run.

    `schedule` is a spec string from the algorithm's row of `SCHEDULES`.
    A ``weighted:<weights>`` spec draws a page by its in-degree plus one
    (``indegree_plus_one``), a group by its member count (``size``) or
    either by the numbers of a file (``file:<path>``, one per line, read
    as an edge list is: `pushrank.webgraph`).
    `cadence` of None records the first step at or after each multiple
    of n counted updates (one sweep; see `engines.run`), except in
    `monte_carlo`, whose curve has a row for every step. No field sets
    where the reference oracle is built (see the module doc).
    """

    graph: str
    algorithm: str
    base: int = 0
    m: float = 0.15
    schedule: str | None = None
    partition: str | None = None
    steps: int | None = None
    tol: float | None = None
    seed: int | None = None
    replicas: int = 1
    out: str | None = None
    cadence: int | None = None
    include_x: bool = False

    def validate(self):
        """The config resolved (see the module doc); opens no file."""
        spec, reads = _reads(self)
        if not 0.0 < self.m < 1.0:
            raise ConfigError(f"m must lie in (0, 1), got {self.m}")
        if self.base not in (0, 1):
            raise ConfigError(f"index base must be 0 or 1, got {self.base}")
        if self.algorithm == "cluster" and self.partition is None:
            raise ConfigError("cluster runs need --partition")
        _refuse_unread(self, reads,
                       f"{self.algorithm}={spec}" if spec else self.algorithm)
        if self.tol is not None and not (self.tol > 0 and math.isfinite(self.tol)):
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if self.steps is not None and self.steps < 0:
            raise ConfigError(f"steps must not be negative, got {self.steps}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"--seed must not be negative, got {self.seed}")
        if self.cadence is not None and self.cadence < 1:
            raise ConfigError("cadence must be a positive step count")
        return replace(
            self, schedule=spec,
            seed=0 if self.seed is None and "seed" in reads else self.seed)

    def effective_bounds(self):
        """(steps, tol): the given steps, else `_DEFAULT_STEP_CAP`, and the
        given tol, or `_DEFAULT_TOL` when neither was given."""
        if self.steps is not None:
            return self.steps, self.tol
        return _DEFAULT_STEP_CAP, _DEFAULT_TOL if self.tol is None else self.tol


def _reads(config):
    """(spec, fields): the run's schedule spec, its `SCHEDULES` default
    applied and checked (a subset spec's probability too), and the fields
    it reads: its `_READS` row, with ``seed`` only on a schedule that
    draws at random."""
    if config.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}; "
                          f"choose from {', '.join(ALGORITHMS)}")
    spec, accepted = config.schedule, SCHEDULES.get(config.algorithm)
    if accepted:
        spec = spec or accepted[0]
        # "subset:<q>" accepts any "subset:..."; "uniform" accepts only itself
        if not any(spec.startswith(prefix) if placeholder else spec == prefix
                   for prefix, placeholder, _ in
                   (a.partition("<") for a in accepted)):
            raise ConfigError(f"unknown schedule spec {spec!r} for "
                              f"{config.algorithm}; choose from "
                              f"{' | '.join(accepted)}")
    kind = (spec or "").partition(":")[0]
    if kind == "subset":
        scheduling.subset_probability(spec)
    return spec, {name for name in _READS[config.algorithm].split()
                  if name != "seed" or kind in scheduling.RANDOM_KINDS}


def _unread(config, reads):
    """{name: default} of the fields `config` sets that `reads` leaves out."""
    return {f.name: f.default for f in fields(config)
            if f.name not in (*reads, *_READ_BY_ALL)
            and getattr(config, f.name) != f.default}


def _refuse_unread(config, reads, what):
    for name in _unread(config, reads):
        raise ConfigError(f"--{name.replace('_', '-')} does not apply to "
                          f"{what} runs")


class _Runtime:
    """Loaded inputs shared by the runs of one command, built once: the
    graph, its reference oracle (up to `solvers.REFERENCE_CAP` pages, or
    at any size if `needs_oracle`) and the groups of `config.partition`,
    their sizes and local solvers (`factors`, None without a partition)."""

    def __init__(self, config, needs_oracle=False):
        graph = load_edge_list(config.graph, index_base=config.base)
        self.graph, _ = patch_dangling(graph)
        self.oracle = None
        if needs_oracle or self.graph.n <= solvers.REFERENCE_CAP:
            self.oracle = solvers.DenseOracle(self.graph, config.m)
        self.factors = self._group_sizes = None
        if config.partition is not None:
            partition = load_partition(config.partition, self.graph)
            self._group_sizes = partition.sizes
            self.factors = GroupFactors(self.graph, config.m, partition)

    def units(self, config):
        """(units, unit) of a scheduled run of `config`: each drawn index's
        page count and the word for one index; a cluster run draws groups,
        others pages, whose counts are made here, as only a schedule reads
        them."""
        if config.algorithm == "cluster":
            return self._group_sizes, "group"
        return np.ones(self.graph.n, dtype=np.int64), "page"


def _weights(spec, graph, units, unit):
    """Selection weights of a validated ``weighted:<weights>`` spec, one
    per unit (see `ExperimentConfig` and `_Runtime.units`)."""
    weights = spec.partition(":")[2]
    if weights == "size":
        return units
    if weights == "indegree_plus_one":
        return scheduling.indegree_plus_one_weights(graph)
    # "file:<path>"; a file of no numbers fails the size check below
    w = _read_rows(weights[5:], "weight", [
        (lambda w: not 0 < w < math.inf,
         lambda w: f"weight {w!r} is not positive and finite"),
    ], dtype=float)[:, 0]
    if w.size != units.size:
        raise ConfigError(f"weights file has {w.size} entries for "
                          f"{units.size} {unit}s")
    return w


def _build_schedule(config, runtime, replicas=None):
    """The schedule of a validated config, drawing for `replicas` runs (see
    `scheduling.Schedule`); None for unscheduled runs."""
    if config.schedule is None:
        return None
    units, unit = runtime.units(config)
    weights = (_weights(config.schedule, runtime.graph, units, unit)
               if config.schedule.startswith("weighted:") else None)
    sched = scheduling.Schedule.from_spec(config.schedule, units.size,
                                          config.seed, weights, replicas)
    _check_tol_reachable(config, runtime.graph.n, units, unit,
                         sched.never_drawn())
    return sched


def _check_tol_reachable(config, n, units, unit, idle):
    """Refuse a --tol that the schedule can never certify.

    A page that never pushes keeps z_i >= m/n, so the k of the n pages in
    the `idle` units hold the certificate at or above (1-m) k / n.
    """
    if config.tol is None or idle.size == 0:
        return
    floor = (1.0 - config.m) * units[idle].sum() / n
    if config.tol < floor:
        what = unit
        if idle.size > 1:
            what += "s"
        shown = ", ".join(str(i) for i in idle[:10].tolist())
        if idle.size > 10:
            shown += f" and {idle.size - 10} more"
        raise ConfigError(
            f"--tol {config.tol:g} cannot be reached: the schedule never "
            f"updates {what} {shown}, so the certificate stays at or above "
            f"{floor:.6g}")


def _execute(config, runtime, sched, trace=None):
    """Run one configured algorithm and return its trace; a run of the
    schedule's replicas (see `engines.run`), whose records go to `trace`
    (a fresh `Trace` by default); exact and power runs make their own."""
    if config.algorithm == "exact":
        trace = Trace()
        trace.append(0, 0, err_l1=0.0, cert=0.0, defect=0.0)
        return trace
    steps, tol = config.effective_bounds()
    shared = dict(tol=tol, oracle=runtime.oracle, cadence=config.cadence,
                  record_x=config.include_x)
    if config.algorithm == "power":
        return solvers.power_method(runtime.graph, config.m, max_steps=steps,
                                    **shared)[1]
    factors = runtime.factors if config.algorithm == "cluster" else None
    return engines.run(runtime.graph, config.m, sched, steps=steps,
                       factors=factors, trace=trace, **shared)[1]


def _create_output(path):
    """Create or empty the output file `path`, if any, before the run (see
    the module doc)."""
    if path:
        open(path, "wb").close()


def run_experiment(config):
    """Run one experiment, write its CSV if requested, print a summary line."""
    config = config.validate()
    _create_output(config.out)
    runtime = _Runtime(config, needs_oracle=config.algorithm == "exact")
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


def monte_carlo(config):
    """Average the exact-error curve over `config.replicas` seeded replicas.

    Replica r draws from numpy's PCG64 stream on the derived seed seed XOR
    splitmix64(r), which the schedules compute without numpy.random
    (`scheduling`); runs share the step grid (fixed step count, no
    tolerance stop), and the sample mean and standard error of
    ||x(k) - x*||_1 are reported at every step, or with a `cadence` at
    every cadence-th step and the last. All replicas run in one stacked
    `engines.run` call: each record makes one oracle call for all of them,
    every replica's conservation defect is checked at every record, and the
    record goes to a `MeanTrace`, which keeps only its mean and standard
    error, so the memory held does not grow with replicas times records.
    Requires a randomized schedule (default ``uniform``, which every
    scheduled algorithm accepts), and builds the reference oracle at any
    graph size. Reads the ``mc`` row of `_READS`, so it refuses a `tol`
    (there is no tolerance stop) and `include_x` (it writes no per-page
    columns); each replica is then a run of `config.algorithm` and reads
    that algorithm's row.
    """
    _refuse_unread(config, _READS["mc"].split(), "mc")
    if config.replicas < 1:
        raise ConfigError("replicas must be at least 1")
    if config.steps is None:
        raise ConfigError("Monte Carlo runs need --steps (a shared step grid)")
    replicas = config.replicas
    if config.schedule is None and config.algorithm in SCHEDULES:
        config = replace(config, schedule="uniform")
    cadence = 1 if config.cadence is None else config.cadence
    run = replace(config, replicas=1, out=None, cadence=cadence).validate()
    # validate resolves `seed` only where the schedule draws at random
    if run.seed is None:
        raise ConfigError("Monte Carlo averaging needs a randomized schedule")
    _create_output(config.out)
    runtime = _Runtime(run, needs_oracle=True)
    sched = _build_schedule(run, runtime, replicas)
    result = _execute(run, runtime, sched, MeanTrace(replicas))
    if config.out:
        result.write_csv(config.out)
    print(f"mc[{config.algorithm}x{replicas}]: steps={result.final_step} "
          f"err_mean={format_float(result.err_mean[-1])} "
          f"stderr={format_float(result.err_stderr[-1])}")
    return result


def compare(config, runs):
    """Align runs on the cumulative-updates axis and tabulate their errors.

    Each ``algo[=schedule]`` spec in `runs` becomes a run of the settings
    of `config` that it reads (`config.algorithm` is replaced); a schedule
    the spec names is the run's own and is refused where the run takes
    none. A setting no run reads is refused, and so is `include_x`, which
    the ``compare`` row of `_READS` leaves out: the table holds one error
    column per run. Rows are the union of the runs' updates values; each
    error column carries its last value forward between its own records.
    The table is written to `config.out` if set. Returns (header, rows).
    """
    _refuse_unread(config, _READS["compare"].split(), "compare")
    runs = [spec.strip() for spec in runs if spec.strip()]
    if not runs:
        raise ConfigError("compare needs at least one run")
    configs, read = [], set()
    for spec in runs:
        algo, _, sched = spec.partition("=")
        if algo == "exact":
            raise ConfigError("exact has no trajectory to compare")
        run = replace(config, algorithm=algo, schedule=sched or config.schedule)
        _, reads = _reads(run)
        read |= reads
        unread = _unread(config, reads)
        if sched:
            unread.pop("schedule", None)
        configs.append(replace(run, **unread).validate())
    _refuse_unread(config, read, ",".join(runs))
    _create_output(config.out)
    runtime = _Runtime(config)
    labels = []
    traces = []
    for cfg in configs:
        traces.append(_execute(cfg, runtime, _build_schedule(cfg, runtime)))
        label = f"err_{cfg.algorithm}"
        while label in labels:
            label += "_"
        labels.append(label)
    grid = _distinct(np.concatenate([t.updates for t in traces]))
    columns = []
    for t in traces:
        idx = np.searchsorted(t.updates, grid, side="right") - 1
        err = t.err_l1[np.clip(idx, 0, None), 0]
        columns.append(np.where(idx >= 0, err, np.nan))
    header = ["updates"] + labels
    rows = [tuple([int(u)] + [col[i] for col in columns])
            for i, u in enumerate(grid)]
    if config.out:
        write_table(config.out, header, [grid] + columns)
    return header, rows
