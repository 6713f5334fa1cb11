"""Traced runner: one `pushrank.cli.main(argv)` call with every layer's public
functions wrapped in span recorders, then kernel probes on the loaded graph.

Usage: ``python bench/traced.py SPEC.json`` where the spec holds ``argv``,
``m``, ``seed``, ``probes``, ``csv`` (the call's --out path), ``result``
and ``spans`` (output paths).

Spans (id, name, start, end, parent) are kept in memory and written when
the run ends; per-name call counts, total time and self time (duration
minus the time covered by child spans) are aggregated for every call. A
function that no longer exists, or whose leading parameters changed, is
not wrapped and its metrics are reported as absent, so later refactors of
the package still get a result. The process exits with the CLI's code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import layers

SPANS_KEPT = 100_000
PROBES = ("engines.probe.step_set_single.us", "engines.probe.step_set_full.ms",
          "engines.probe.step_sync.ms")
_HOOK_ERRORS = (TypeError, AttributeError, IndexError, KeyError, ValueError)

# (module, qualified name, leading parameter names the wrapper relies on)
TARGETS = [
    ("cli", "main", ("argv",)),
    ("harness", "run_experiment", ("config",)),
    ("harness", "monte_carlo", ("config",)),
    ("harness", "MeanTrace.write_csv", ("self", "path")),
    ("webgraph", "load_edge_list", ("source",)),
    ("webgraph", "patch_dangling", ("graph",)),
    ("webgraph", "WebGraph.q_matrix", ("self", "m")),
    ("webgraph", "load_partition", ("source", "graph")),
    ("solvers", "DenseOracle.__init__", ("self", "graph", "m")),
    ("solvers", "DenseOracle.error_l1", ("self", "x")),
    ("solvers", "DenseOracle.conservation_defect", ("self", "x", "z")),
    ("engines", "step_set", ("state", "graph", "m", "phi")),
    ("engines", "scatter_push", ("graph", "m", "z", "phi")),
    ("engines", "step_sync", ("state", "graph", "m")),
    ("engines", "run", ("graph", "m", "schedule")),
    ("engines", "run_sync", ("graph", "m")),
    ("cluster", "GroupFactors.__init__", ("self", "graph", "m", "partition")),
    ("cluster", "GroupFactors.solve_local", ("self", "h", "rhs")),
    ("cluster", "step_group", ("state", "graph", "m", "factors", "h")),
    ("cluster", "run_clustered", ("graph", "m", "partition", "schedule")),
    ("scheduling", "Schedule.next", ("self", "k")),
    ("scheduling", "Schedule.derive", ("self", "replica")),
    ("trace", "Trace.append", ("self",)),
    ("trace", "Trace.write_csv", ("self", "path")),
]


class Recorder:
    """In-memory spans plus per-name aggregates, for one single-threaded run."""

    def __init__(self):
        self.stack = []          # [span id, time covered by children]
        self.agg = {}            # name -> [calls, total s, self s]
        self.counts = {}         # derived counters filled by hooks
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.originals = {}      # "module.qualname" -> unwrapped function
        self.hook_failed = set()
        self.graph = None        # the patched graph, captured for the probes
        self.rss_before = 0.0    # peak RSS in MB when the CLI call starts

    def wrap(self, name, fn, hook=None):
        rec = self
        rec.agg[name] = [0, 0.0, 0.0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.next_id
            rec.next_id += 1
            parent = rec.stack[-1][0] if rec.stack else -1
            frame = [sid, 0.0]
            rec.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                rec.stack.pop()
                dur = t1 - t0
                if rec.stack:
                    rec.stack[-1][1] += dur
                a = rec.agg[name]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[1]
                if len(rec.spans) < SPANS_KEPT:
                    rec.spans.append((sid, name, t0, t1, parent))
                else:
                    rec.dropped += 1
            if hook is not None:
                try:
                    hook(rec, args, kwargs, result)
                except _HOOK_ERRORS:
                    rec.hook_failed.add(name + ":hook")
            return result

        return wrapper

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def calls(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name):
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def per_call_us(self, name):
        c = self.calls(name)
        return self.total(name) / c * 1e6 if c else 0.0


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _hook_load(rec, args, kwargs, graph):
    rec.count("edges", graph.num_edges)
    if "load_rss_rise_mb" not in rec.counts:
        rec.counts["load_rss_rise_mb"] = _maxrss_mb() - rec.rss_before


def _hook_patch(rec, args, kwargs, result):
    rec.graph = result[0]
    rec.count("patched", len(result[1]))


def _hook_step_set(rec, args, kwargs, result):
    rec.count("set_pages", int(np.size(_arg(args, kwargs, 3, "phi"))))


def _hook_step_sync(rec, args, kwargs, result):
    rec.count("sync_nnz", _arg(args, kwargs, 1, "graph").num_edges)


def _hook_factors(rec, args, kwargs, result):
    sizes = np.asarray(_arg(args, kwargs, 3, "partition").sizes)
    cap = args[4] if len(args) > 4 else kwargs.get(
        "dense_cap", sys.modules["pushrank.cluster"].DENSE_GROUP_CAP)
    rec.count("dense_groups", int((sizes <= cap).sum()))
    rec.count("iterative_groups", int((sizes > cap).sum()))


HOOKS = {
    "webgraph.load_edge_list": _hook_load,
    "webgraph.patch_dangling": _hook_patch,
    "engines.step_set": _hook_step_set,
    "engines.step_sync": _hook_step_sync,
    "cluster.GroupFactors.__init__": _hook_factors,
}


def _shape_ok(fn, params):
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return False
    return names[:len(params)] == list(params)


def install(rec):
    """Wrap every target that exists with the expected call shape."""
    modules = {}
    for mod_name, qualname, params in TARGETS:
        name = f"{mod_name}.{qualname}"
        if mod_name not in modules:
            try:
                modules[mod_name] = importlib.import_module(f"pushrank.{mod_name}")
            except ImportError:
                modules[mod_name] = None
        mod = modules[mod_name]
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = vars(owner).get(attr) if owner is not None else None
        if not inspect.isfunction(fn) or not _shape_ok(fn, params):
            continue
        rec.originals[name] = fn
        wrapper = rec.wrap(name, fn, HOOKS.get(name))
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        # modules import each other's functions by name: rebind every alias
        for mname, m in list(sys.modules.items()):
            if mname == "pushrank" or mname.startswith("pushrank."):
                for key, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, key, wrapper)


def _timed(fn, reps):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def probe_kernels(rec, m, seed):
    """Time the public step kernels directly on the graph the run loaded."""
    init = getattr(sys.modules.get("pushrank.engines"), "init_state", None)
    step_set = rec.originals.get("engines.step_set")
    step_sync = rec.originals.get("engines.step_sync")
    graph = rec.graph
    out = {}
    if graph is None or init is None:
        return out
    state = init(graph.n, m)
    pages = np.random.default_rng(seed).integers(0, graph.n, size=200)
    everyone = np.arange(graph.n)
    if step_set is not None:
        times = []
        for i in pages:
            t0 = time.perf_counter()
            step_set(state, graph, m, [int(i)])
            times.append(time.perf_counter() - t0)
        out["engines.probe.step_set_single.us"] = statistics.median(times) * 1e6
        out["engines.probe.step_set_full.ms"] = _timed(
            lambda: step_set(state, graph, m, everyone), 3) * 1e3
    if step_sync is not None:
        out["engines.probe.step_sync.ms"] = _timed(
            lambda: step_sync(state, graph, m), 5) * 1e3
    return out


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(rec, main_s, csv_path):
    """Every traced per-layer metric by name; None where it cannot be measured.

    Each metric names the wrapped functions it reads (``name:hook`` when it
    reads a counter that the function's hook fills). It is None when one of
    them was not wrapped, or when that hook could not read a call.
    """
    load, sync, step_set = "webgraph.load_edge_list", "engines.step_sync", "engines.step_set"
    factors, harness = "cluster.GroupFactors.__init__", ("harness.run_experiment",
                                                         "harness.monte_carlo")
    count = rec.counts.get
    table = {
        f"{load}.edges_per_s": ((load + ":hook",),
                                lambda: _ratio(count("edges", 0), rec.total(load))),
        f"{sync}.nnz_per_s": ((sync + ":hook",),
                              lambda: _ratio(count("sync_nnz", 0), rec.total(sync))),
        f"{step_set}.pages_per_call": ((step_set + ":hook",),
                                       lambda: _ratio(count("set_pages", 0),
                                                      rec.calls(step_set))),
        "harness.self_s": (harness, lambda: sum(map(rec.self_time, harness))),
        "trace.csv_bytes": ((), lambda: os.path.getsize(csv_path)
                            if os.path.exists(csv_path) else None),
        "cli.main.s": ((), lambda: main_s),
    }
    for metric, fn in {
            f"{load}.s": load,
            "webgraph.patch_dangling.s": "webgraph.patch_dangling",
            "webgraph.WebGraph.q_matrix.s": "webgraph.WebGraph.q_matrix",
            "webgraph.load_partition.s": "webgraph.load_partition",
            "solvers.DenseOracle.init_s": "solvers.DenseOracle.__init__",
            "cluster.GroupFactors.init_s": factors,
            "trace.Trace.write_csv.s": "trace.Trace.write_csv",
            "harness.MeanTrace.write_csv.s": "harness.MeanTrace.write_csv",
            "harness.run_experiment.s": harness[0],
            "harness.monte_carlo.s": harness[1]}.items():
        table[metric] = ((fn,), functools.partial(rec.total, fn))
    for metric, (fn, key) in {
            f"{load}.rss_rise_mb": (load, "load_rss_rise_mb"),
            "webgraph.patch_dangling.pages": ("webgraph.patch_dangling", "patched"),
            "cluster.GroupFactors.dense_groups": (factors, "dense_groups"),
            "cluster.GroupFactors.iterative_groups": (factors, "iterative_groups")}.items():
        table[metric] = ((fn + ":hook",), functools.partial(count, key, 0))
    oracle = "solvers.DenseOracle"
    for fn in (f"{oracle}.error_l1", f"{oracle}.conservation_defect", step_set,
               "engines.scatter_push", sync, "cluster.step_group",
               "cluster.GroupFactors.solve_local", "scheduling.Schedule.next"):
        table[f"{fn}.us"] = ((fn,), functools.partial(rec.per_call_us, fn))
    for fn in (f"{oracle}.error_l1", f"{oracle}.conservation_defect", step_set,
               sync, "cluster.step_group", "cluster.GroupFactors.solve_local",
               "scheduling.Schedule.next", "scheduling.Schedule.derive",
               "trace.Trace.append"):
        table[f"{fn}.calls"] = ((fn,), functools.partial(rec.calls, fn))
    for fn in ("engines.run", "engines.run_sync", "cluster.run_clustered"):
        table[f"{fn}.self_s"] = ((fn,), functools.partial(rec.self_time, fn))

    def available(dep):
        base, _, hook = dep.partition(":")
        return base in rec.originals and not (hook and dep in rec.hook_failed)

    return {metric: f() if all(map(available, deps)) else None
            for metric, (deps, f) in table.items()}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    rec = Recorder()
    install(rec)
    cli = sys.modules.get("pushrank.cli")
    if cli is None or not callable(getattr(cli, "main", None)):
        print("pushrank.cli.main is missing", file=sys.stderr)
        return 2
    rec.rss_before = _maxrss_mb()
    t0 = time.perf_counter()
    rc = cli.main(spec["argv"])
    main_s = time.perf_counter() - t0
    main_end = time.monotonic()
    sys.stdout.flush()
    values = layer_metrics(rec, main_s, spec["csv"])
    # probes call the unwrapped kernels, after the aggregates are read
    probes = probe_kernels(rec, spec["m"], spec["seed"]) if spec["probes"] else {}
    for name in PROBES:
        values[name] = probes.get(name) if spec["probes"] else 0.0
    absent = sorted(n for n, v in values.items() if v is None)
    metrics = {n: {"value": float(values[n] or 0.0), "unit": layers.METRICS[n]}
               for n in values}
    with open(spec["spans"], "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent\n")
        for sid, name, a, b, parent in rec.spans:
            fh.write(f"{sid},{name},{a!r},{b!r},{parent}\n")
    result = {"returncode": rc, "main_end_monotonic": main_end,
              "metrics": metrics, "absent": absent,
              "spans_kept": len(rec.spans), "spans_dropped": rec.dropped}
    Path(spec["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
