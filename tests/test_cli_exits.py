"""Exit codes of the ``pushrank`` program for inputs it must refuse.

Each case runs the program in its own process: the ``pushrank`` script
when one is on PATH (an installed package), else ``python -m
pushrank.cli`` on the package these tests import. A configuration error
exits 2, before any input is read where the settings alone are wrong; a
missing input file exits 3, also when a gzip file of its name plus
``.gz`` lies beside it.
"""

import gzip
import subprocess

import pytest

from conftest import PROGRAM, program_env

# (id, argv, exit code); {g} is a two-page cycle, {d} the case's directory
CASES = [
    ("exact-reads-no-tol", "exact --graph {g} --tol 1e-3", 2),
    ("sync-reads-no-seed", "sync --graph {g} --seed 0", 2),
    ("bad-schedule-before-graph",
     "gossip --graph {d}/missing.txt --schedule bogus", 2),
    ("unknown-flag", "gossip --graph {g} --steps 3 --weights uniform", 2),
    ("removed-dense-cap", "sync --graph {g} --dense-cap 1", 2),
    ("bad-weights-before-graph",
     "gossip --graph {d}/missing.txt --schedule weighted:bogus", 2),
    ("weights-two-per-line",
     "gossip --graph {g} --schedule weighted:file:{d}/two.w --steps 3", 2),
    ("sequence-outside-graph",
     "multi --graph {g} --schedule file:{d}/outside.seq --steps 1", 2),
    ("partition-of-page-0-only",
     "cluster --graph {g} --partition {d}/page0.groups --steps 3", 2),
    ("gossip-negative-seed", "gossip --graph {g} --seed -1 --steps 3", 2),
    ("mc-negative-seed", "mc --graph {g} --seed -1 --replicas 2 --steps 3", 2),
    ("cluster-two-groups-in-a-step",
     "cluster --graph {g} --partition {d}/groups.txt "
     "--schedule file:{d}/two_groups.seq --steps 3", 2),
    ("missing-graph-beside-gz", "sync --graph {d}/missing.txt", 3),
    ("missing-weights-beside-gz",
     "gossip --graph {g} --schedule weighted:file:{d}/missing.w --steps 3", 3),
]


def write_inputs(d):
    """The cases' files in directory `d`."""
    (d / "cycle.txt").write_text("0 1\n1 0\n")
    (d / "groups.txt").write_text("0 0\n1 1\n")
    (d / "two_groups.seq").write_text("0\n0,1\n")
    (d / "two.w").write_text("1 2\n")
    (d / "outside.seq").write_text("0\n7\n")
    (d / "page0.groups").write_text("0 0\n")
    (d / "missing.txt.gz").write_bytes(gzip.compress(b"0 1\n1 0\n"))
    (d / "missing.w.gz").write_bytes(gzip.compress(b"1\n2\n"))


@pytest.mark.parametrize("argv, code", [pytest.param(argv, code, id=name)
                                        for name, argv, code in CASES])
def test_refused_input_exits_with_its_code(argv, code, tmp_path):
    write_inputs(tmp_path)
    args = [word.format(g=tmp_path / "cycle.txt", d=tmp_path)
            for word in argv.split()]
    done = subprocess.run(PROGRAM + args, capture_output=True, text=True,
                          timeout=120, env=program_env())
    assert done.returncode == code, done.stderr
    assert "error:" in done.stderr
    assert ("i/o error:" in done.stderr) == (code == 3)
