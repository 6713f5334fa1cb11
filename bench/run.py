"""Benchmark of the `pushrank` command-line program.

    python3 bench/run.py --workload sync-200k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout. Each workload is one CLI call
(``python -m pushrank.cli ...``) on inputs generated from the seed; the
load is a closed loop with one client, one CLI process at a time, and one
BLAS thread. With ``--trace 0`` the benchmark alternates the full call
with its set-up call (the same argv with ``--steps 0``) until ``--seconds``
have passed, checks every CSV, and reports end-to-end metrics read only
from the outside of the program: wall time, exit code, stdout and CSV,
and the child's own peak memory. With ``--trace 1`` it makes untraced
calls for ``--seconds``, then one traced call (see traced.py), and reports
per-layer metrics.
``--workload all`` runs every workload untraced and prints one table.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a result file with every sample and the run's
environment goes to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / "work"
BLAS_THREADS = "1"
CALL_TIMEOUT_S = 170.0

# one BLAS thread for this process and every CLI child: the load is one client
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, Prepared  # noqa: E402

# name -> unit of the end-to-end metrics in the result line (BENCHMARK.json)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# name -> unit of every end-to-end metric in the table and the result file.
# us_per_update is (wall_s - setup_s) / updates, paired per run; on sync-200k
# and cluster-50k it is a difference of two noisy times, too unsteady from
# run to run to carry a bound, so it is reported but not in the result line.
REPORTED = {"wall_s": "s", "setup_s": "s", "us_per_update": "us",
            "updates": "count", "peak_rss_mb": "MB"}


@dataclass
class Call:
    """One finished child process, seen from the outside."""

    wall: float
    rc: int
    rss_mb: float
    spawned: float                 # time.monotonic() just before the spawn
    stdout: str
    problems: list = field(default_factory=list)
    updates: int | None = None

    @property
    def ok(self):
        return not self.problems


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd, work):
    """Run `cmd` to completion: wall time, exit code, peak RSS of that child."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], CALL_TIMEOUT_S)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    return Call(wall, proc.returncode, usage.ru_maxrss / 1024.0, spawned, stdout)


def check_call(w, prep, call, csv, setup):
    """Fill `call.problems` and `call.updates` from the exit code and the CSV."""
    if call.rc != 0:
        err = (csv.parent / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        call.problems.append(f"exit code {call.rc}: {err.strip()[-300:]}")
        return call
    if not csv.is_file():
        call.problems.append("no CSV written")
        return call
    text = csv.read_text(encoding="utf-8")
    call.problems += w.check(prep, text, call.stdout, setup)
    if call.ok:
        call.updates = w.updates(prep, text)
    return call


def cli_call(w, prep, argv, work, setup):
    csv = work / "out.csv"
    csv.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "pushrank.cli", *argv, "--out", str(csv)]
    return check_call(w, prep, spawn(cmd, work), csv, setup)


def high_percentile(values):
    """(label, value): the highest percentile with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies, and the
    maximum is reported instead.
    """
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return f"p{p:g}", float(np.percentile(values, p))
    return "max", float(max(values))


def summarize(values):
    if not values:
        return {"median": 0.0, "high_label": "max", "high": 0.0, "n": 0}
    label, high = high_percentile(values)
    return {"median": float(statistics.median(values)), "high_label": label,
            "high": high, "n": len(values)}


def timed_run(w, prep, seconds, work):
    """Alternate full and set-up calls, order swapped each pair, until `seconds` pass."""
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        setup_first = len(pairs) % 2 == 0
        got = {}
        for setup in ((True, False) if setup_first else (False, True)):
            got[setup] = cli_call(w, prep, prep.setup_argv if setup else prep.argv,
                                  work, setup)
        pairs.append((got[False], got[True]))
    calls = [c for pair in pairs for c in pair]
    good = [(f, s) for f, s in pairs if f.ok and s.ok] or pairs
    samples = {
        "wall_s": [f.wall for f, _ in good],
        "setup_s": [s.wall for _, s in good],
        "us_per_update": [(f.wall - s.wall) / f.updates * 1e6
                          for f, s in good if f.updates],
        "peak_rss_mb": [f.rss_mb for f, _ in good],
        "updates": [f.updates for f, _ in good if f.updates is not None],
    }
    return calls, samples


def traced_run(w, prep, seed, seconds, work):
    """Untraced calls for `seconds`, then one call through the traced runner."""
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(cli_call(w, prep, prep.argv, work, False))
    csv = work / "out.csv"
    csv.unlink(missing_ok=True)
    spec = {"argv": [*prep.argv, "--out", str(csv)], "m": w.m, "seed": seed,
            "probes": w.probes, "csv": str(csv), "result": str(work / "traced.json"),
            "spans": str(work / "spans.csv")}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    traced = check_call(w, prep, spawn([sys.executable, str(HERE / "traced.py"),
                                        str(spec_path)], work), csv, False)
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in layers.METRICS.items()}
    absent = sorted(layers.METRICS)
    result_path = Path(spec["result"])
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        metrics.update(result["metrics"])
        absent = result["absent"]
        traced_wall = result["main_end_monotonic"] - traced.spawned
        untraced_wall = statistics.median(c.wall for c in untraced)
        metrics["tracing_overhead_frac"]["value"] = traced_wall / untraced_wall - 1.0
    else:
        traced.problems.append("traced runner wrote no result")
    metrics["updates"]["value"] = float(traced.updates or 0)
    spans = work / "spans.csv"
    if spans.is_file():
        RESULTS.mkdir(exist_ok=True)
        shutil.copyfile(spans, RESULTS / f"{w.name}-seed{seed}.spans.csv")
    return [*untraced, traced], metrics, absent


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed):
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads": BLAS_THREADS, "platform": platform.platform(),
            "seed": seed, "load": "closed loop, 1 client, 1 process"}


def prepare(w, seed, work):
    """Generate the workload's inputs in a child process (see workloads.py).

    A child's peak RSS, as wait4 reports it, is never below the peak RSS
    of the process that spawned it, so this process must stay smaller than
    any CLI call: the large graphs are built and written elsewhere.
    """
    spec = work / "workload.json"
    spec.write_text(json.dumps({"kind": type(w).__name__, "fields": asdict(w),
                                "seed": seed, "work": str(work)}), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "workloads.py"), str(spec)], check=True)
    return Prepared(**json.loads(spec.read_text(encoding="utf-8")))


def run_workload(w, seed, seconds, trace):
    """Prepare inputs, measure, write the result file; returns the result dict."""
    work = WORK / f"{w.name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        prep = prepare(w, seed, work)
        result = {"workload": w.name, "why": w.why, "seed": seed,
                  "seconds": seconds, "trace": trace, "env": environment(seed),
                  "graph": prep.stats, "argv": prep.argv,
                  "setup_argv": prep.setup_argv}
        if trace:
            calls, metrics, absent = traced_run(w, prep, seed, seconds, work)
            result.update(metrics=metrics, absent=absent)
        else:
            calls, samples = timed_run(w, prep, seconds, work)
            summary = {name: summarize(samples[name]) for name in REPORTED}
            metrics = {name: {"value": summary[name]["median"], "unit": unit}
                       for name, unit in END_TO_END.items()}
            result.update(samples=samples, summary=summary, metrics=metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(not c.ok for c in calls)
    result.update(attempted=len(calls), failed=failed,
                  fail_frac=failed / len(calls),
                  failures=[p for c in calls for p in c.problems])
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{w.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(results):
    print(f"{'workload':<12} {'metric':<14} {'unit':<6} {'median':>12} "
          f"{'high':>12} {'at':>5} {'n':>4}")
    for r in results:
        for name, unit in REPORTED.items():
            s = r["summary"][name]
            print(f"{r['workload']:<12} {name:<14} {unit:<6} {s['median']:>12.6g} "
                  f"{s['high']:>12.6g} {s['high_label']:>5} {s['n']:>4}")
        print(f"{r['workload']:<12} {'fail_frac':<14} {'ratio':<6} "
              f"{r['fail_frac']:>12.6g} {'':>12} {'':>5} {r['attempted']:>4}")
    for r in results:
        for problem in r["failures"]:
            print(f"FAILED {r['workload']}: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pushrank" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'pushrank'} "
              "is missing; run from the root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = [run_workload(w, args.seed, args.seconds, 0) for w in WORKLOADS.values()]
        print_table(results)
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        results = [result]
        metrics = result["metrics"]
        if args.trace:
            for name, m in metrics.items():
                print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
            if result["absent"]:
                print("absent: " + ", ".join(result["absent"]))
        else:
            print_table(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
