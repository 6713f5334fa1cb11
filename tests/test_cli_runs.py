"""Runs of the ``pushrank`` program that must succeed, each in its own
process: the ``pushrank`` script when one is on PATH (an installed
package), else ``python -m pushrank.cli`` on the package these tests
import (`conftest.PROGRAM`). scipy is a test dependency only, so every
command that builds the reference runs with scipy's import made to fail;
no command imports numpy.ma or numpy.random; mc reduces each record
across its replicas as it is taken, so its memory does not grow with its
steps; the outputs do not depend on the BLAS threads or on the CPUs a run
may use; and mc and ``--cadence 1`` write a row for every step.
"""

import os
import re
import subprocess
import sys
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from conftest import PROGRAM, program_env

DATA = Path(__file__).resolve().parent / "data"

# {g} is a two-page cycle; exact, power, mc and gossip build the reference
SCIPY_FREE = [
    ("exact", "exact --graph {g}"),
    ("power", "power --graph {g} --tol 1e-9"),
    ("mc", "mc --graph {g} --replicas 2 --steps 3"),
    ("gossip", "gossip --graph {g} --steps 3"),
    ("cluster", "cluster --graph {d}/community700.txt "
                "--partition {d}/community700.groups --steps 3"),
]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name)
                                  for name, argv in SCIPY_FREE])
def test_a_run_needs_no_scipy(argv, tmp_path):
    # a scipy package ahead of any installed one, whose import fails
    blocked = tmp_path / "blocked"
    (blocked / "scipy").mkdir(parents=True)
    (blocked / "scipy" / "__init__.py").write_text(
        "raise ImportError('scipy is blocked')\n")
    env = program_env(blocked)
    assert subprocess.run([sys.executable, "-c", "import scipy"], env=env,
                          capture_output=True).returncode != 0
    graph = tmp_path / "cycle.txt"
    graph.write_text("0 1\n1 0\n")
    args = [word.format(g=graph, d=DATA) for word in argv.split()]
    done = subprocess.run(PROGRAM + args, capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(sys.platform != "linux",
                    reason="reads a child's peak RSS in KiB by os.wait4")
def test_mc_peak_rss_does_not_grow_with_its_steps():
    # mc over 200 replicas at 5,000 steps peaks within 8 MB of its peak at
    # 50 steps, each child's own peak
    peaks = []
    for steps in ("50", "5000"):
        with subprocess.Popen(PROGRAM + [
                "mc", "--graph", str(DATA / "web60.txt"), "--replicas",
                "200", "--seed", "1", "--steps", steps],
                stdout=subprocess.DEVNULL, env=program_env()) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        peaks.append(usage.ru_maxrss)
    assert peaks[1] - peaks[0] <= 8 * 1024, peaks


@cache
def numpy_alone_imports(module):
    """Whether ``import numpy`` alone loads `module` (numpy 1.x loads
    numpy.ma and numpy.random)."""
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys, numpy; sys.exit({module!r} in sys.modules)"],
        env=program_env()).returncode != 0


def imported_modules(argv, files):
    """The modules a run of `argv`, its words formatted with `files`,
    imports: the names of the ``PYTHONPROFILEIMPORTTIME=1`` report."""
    args = [word.format(**files) for word in argv.split()]
    done = subprocess.run(PROGRAM + args, capture_output=True, text=True,
                          timeout=120,
                          env={**program_env(), "PYTHONPROFILEIMPORTTIME": "1"})
    assert done.returncode == 0, done.stderr
    # one "import time: self | cumulative | <module>" line per import
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", done.stderr,
                          re.MULTILINE)
    assert "numpy" in imported
    return imported


def within(imported, package):
    """The names in `imported` of `package` and its submodules."""
    return [name for name in imported
            if name == package or name.startswith(package + ".")]


# {g} is a two-page cycle, {ring} a ring above the reference cap, which
# the file schedule {seq} walks with no reference built
NO_NUMPY_MA = [
    ("sync", "sync --graph {g} --tol 1e-9"),
    ("mc", "mc --graph {g} --replicas 2 --steps 3"),
    ("compare", "compare --graph {g} --runs power,sync --steps 3"),
    ("multi-file", "multi --graph {ring} --schedule file:{seq} --steps 2"),
]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name)
                                  for name, argv in NO_NUMPY_MA])
def test_a_run_imports_no_numpy_ma(argv, tmp_path):
    # np.unique without optional outputs imports numpy.ma on numpy 2, 9-20
    # ms and 1.25 MB of RSS in a run that uses nothing else of it
    if numpy_alone_imports("numpy.ma"):
        pytest.skip("import numpy alone loads numpy.ma here")
    files = {"g": tmp_path / "cycle.txt", "ring": tmp_path / "ring.txt",
             "seq": tmp_path / "ring.seq"}
    files["g"].write_text("0 1\n1 0\n")
    files["ring"].write_text("".join(f"{i} {(i + 1) % 6000}\n"
                                     for i in range(6000)))
    files["seq"].write_text("3,1,3\n2\n")
    assert not within(imported_modules(argv, files), "numpy.ma")


# {g} is a two-page cycle and {groups} puts each page in its own group
NO_NUMPY_RANDOM = [
    ("sync", "sync --graph {g} --tol 1e-9"),
    ("gossip-uniform", "gossip --graph {g} --schedule uniform --steps 3"),
    ("gossip-weighted", "gossip --graph {g} "
                        "--schedule weighted:indegree_plus_one --steps 3"),
    ("cluster-uniform", "cluster --graph {g} --partition {groups} "
                        "--schedule uniform --seed 1 --steps 3"),
    ("mc-gossip", "mc --graph {g} --replicas 2 --steps 3"),
    ("mc-cluster", "mc --graph {g} --algorithm cluster --partition {groups} "
                   "--replicas 2 --steps 3"),
    ("multi-subset", "multi --graph {g} --schedule subset:0.5 --steps 3"),
    ("mc-subset", "mc --graph {g} --algorithm multi --schedule subset:0.5 "
                  "--replicas 2 --steps 3"),
    ("compare", "compare --graph {g} --runs gossip,sync --steps 3"),
]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name)
                                  for name, argv in NO_NUMPY_RANDOM])
def test_a_run_imports_no_numpy_random(argv, tmp_path):
    # random schedules draw numpy's PCG64 doubles with numpy arithmetic
    # (pushrank._pcg64); numpy.random's extension modules cost 5.5 MB of
    # RSS and 9 ms on numpy 2.4, and no run uses them
    if numpy_alone_imports("numpy.random"):
        pytest.skip("import numpy alone loads numpy.random here")
    files = {"g": tmp_path / "cycle.txt", "groups": tmp_path / "cycle.groups"}
    files["g"].write_text("0 1\n1 0\n")
    files["groups"].write_text("0 0\n1 1\n")
    assert not within(imported_modules(argv, files), "numpy.random")


def run_program(argv, env=None):
    """Run `PROGRAM` with `argv`, which must exit 0."""
    done = subprocess.run(PROGRAM + list(map(str, argv)), capture_output=True,
                          text=True, timeout=300, env=env or program_env())
    assert done.returncode == 0, done.stderr


def test_exact_writes_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"exact{threads}.csv")
        run_program(["exact", "--graph", DATA / "community700.txt",
                     "--out", outs[-1]],
                    {**program_env(), "OPENBLAS_NUM_THREADS": threads})
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pins a child to one CPU by os.sched_setaffinity")
def test_sync_writes_the_same_bytes_pinned_to_one_cpu(tmp_path):
    # on 70,000 pages the product pulls three blocks of rows beside a
    # helper thread, which a run pinned to one CPU does not start; the
    # 6.7 MB edge list also takes the int32 parse
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2:
        pytest.skip("one CPU: every run is pinned")
    n = 70_000
    src = np.arange(n).repeat(8)
    graph = tmp_path / "pages70k.txt"
    np.savetxt(graph, np.column_stack(
        (src, np.random.default_rng(1).integers(0, n, src.size))), fmt="%d")
    outs = [tmp_path / "sync70k.csv", tmp_path / "sync70k_pinned.csv"]
    argv = ["sync", "--graph", graph, "--tol", "1e-8", "--out"]
    run_program(argv + [outs[0]])
    # the child inherits the CPUs this process may run on
    os.sched_setaffinity(0, {min(cpus)})
    try:
        run_program(argv + [outs[1]])
    finally:
        os.sched_setaffinity(0, cpus)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_every_step_has_a_row(tmp_path):
    # mc writes a row for every step above 1,000 pages, and --cadence 1 a
    # row for every step of a single run, each after the header
    cycle = tmp_path / "cycle1001.txt"
    cycle.write_text("".join(f"{i} {(i + 1) % 1001}\n" for i in range(1001)))
    runs = [(["mc", "--graph", cycle, "--replicas", "2", "--steps", "5"], 7),
            (["gossip", "--graph", DATA / "web60.txt", "--seed", "3",
              "--steps", "400", "--cadence", "1"], 402)]
    for argv, rows in runs:
        out = tmp_path / f"{argv[0]}.csv"
        run_program(argv + ["--out", out])
        assert len(out.read_text().splitlines()) == rows
