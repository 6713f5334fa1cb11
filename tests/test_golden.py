"""Byte-for-byte regression of the CLI on committed inputs.

Each case runs one `pushrank` command on a file under ``tests/data/`` and
compares its CSV and its stdout summary line with files an earlier
version of the program wrote. Their step, updates, cert and x columns
date from before the push kernel touched only the pages a step reaches
(the power and ``--include-x`` cases from before the start vector and the
personalization parameters were removed); their err_l1 and defect columns
were first filled when the reference x* came to be taken from the power
method, and the power case's cert column and its last three rows date
from when its tol stop came to be certified. The cluster case was
written again, whole, when a group's local series came to stop at a
fraction of the residual the group holds (`pushrank.cluster`); the other
eight cases did not change then. That reference is sparse
products alone, and every group's local solve is a series of sparse
products (the cluster case's groups are one 600-page community and
singletons without self-loops, whose series returns its right-hand side
exactly): no output depends on a LAPACK or BLAS build. Regenerate an
expected file only for an intended change of output, and say so where
the change is recorded.
"""

from pathlib import Path

import pytest

from pushrank import cli

DATA = Path(__file__).resolve().parent / "data"

CASES = {
    "gossip": "gossip --graph web60.txt --schedule uniform --seed 3 --steps 400",
    "gossip_tol": ("gossip --graph web60.txt --schedule "
                   "weighted:indegree_plus_one --seed 4 --tol 1e-6 --cadence 50"),
    "multi_subset": ("multi --graph web60.txt --schedule subset:0.25 --seed 5 "
                     "--tol 1e-8 --cadence 5"),
    "multi_subset_large": ("multi --graph community700.txt --schedule subset:0.5 "
                           "--seed 9 --tol 1e-9 --cadence 10"),
    "multi_file": "multi --graph web60.txt --schedule file:web60.seq",
    "cluster": ("cluster --graph community700.txt --partition community700.groups "
                "--schedule uniform --seed 7 --tol 1e-10 --cadence 25"),
    "sync_tol": "sync --graph web60.txt --tol 1e-9",
    "sync_tol_x": "sync --graph web60.txt --tol 1e-9 --include-x",
    "power_tol": "power --graph web60.txt --tol 1e-12",
}


def argv(case, out):
    """The case's CLI arguments with data paths resolved and --out set."""
    words = []
    for word in CASES[case].split():
        if word.endswith((".txt", ".groups", ".seq")):
            prefix, colon, name = word.rpartition(":")
            word = f"{prefix}{colon}{DATA / name}"
        words.append(word)
    return words + ["--out", str(out)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    out = tmp_path / f"{case}.csv"
    assert cli.main(argv(case, out)) == 0
    assert out.read_bytes() == (DATA / f"{case}.csv").read_bytes()
    assert capsys.readouterr().out == (DATA / f"{case}.out").read_text()
