"""Runs of the ``pushrank`` program that must succeed, each in its own
process: the ``pushrank`` script when one is on PATH (an installed
package), else ``python -m pushrank.cli`` on the package these tests
import (`conftest.PROGRAM`). scipy is a test dependency only, so every
command that builds the reference runs with scipy's import made to fail;
and mc reduces each record across its replicas as it is taken, so its
memory does not grow with its steps.
"""

import os
import subprocess
import sys
from pathlib import Path

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
