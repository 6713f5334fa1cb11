"""The four benchmark workloads: each one is a single `pushrank` CLI call.

A workload turns a seed into input files (outside any timed region) and
two argument lists: the full call, and the set-up call, which is the same
call with its step budget replaced by ``--steps 0``. It also knows how to
check the CSV the call writes. Sizes are fields, so the self-tests can run
the same code on scaled-down inputs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import checks
import graphs

DENSE_GROUP_CAP = 512    # group size above which the program solves iteratively


@dataclass
class Prepared:
    """Generated inputs of one workload and what the checks need to know."""

    argv: list
    setup_argv: list
    stats: dict
    extra: object = None


def _setup_argv(argv):
    out = list(argv)
    if "--steps" in out:
        out[out.index("--steps") + 1] = "0"
    else:
        out += ["--steps", "0"]
    return out


class Workload:
    """Shared checks; subclasses define `prepare` and `specific`."""

    name = why = ""
    header = checks.TRACE_HEADER
    m = 0.15                 # the CLI's default teleportation parameter
    tol = None
    probes = False

    def check(self, prep, csv_text, stdout, setup):
        """Problems with one call's CSV and summary line; [] when it passed."""
        cols, problems = checks.parse_csv(csv_text, self.header)
        if cols is None:
            return problems
        if setup:
            if len(cols["step"]) != 1 or cols["step"][0] != 0 or cols["updates"][0] != 0:
                problems.append("set-up call did not stop at step 0")
        else:
            problems += checks.check_common(cols, self.tol)
            problems += self.specific(prep, cols)
        return problems + checks.check_summary(stdout, int(cols["step"][-1]))

    def updates(self, prep, csv_text):
        """Cumulative updates at stop, read from the CSV's last row."""
        last = csv_text.rstrip("\n").rsplit("\n", 1)[-1]
        return int(float(last.split(",")[1]))

    def specific(self, prep, cols):
        return []


@dataclass
class Sync(Workload):
    name: str = "sync-200k"
    why: str = ("full-set push to tol 1e-8 on a uniform graph, n=200000; "
                "graph load takes ~90% of the call, so loader and CSR changes show")
    n: int = 200_000
    out_links: int = 8
    tol: float = 1e-8
    probes = True

    def prepare(self, seed, work):
        src, dst, stats = graphs.uniform_graph(seed, self.n, self.out_links)
        g = str(Path(work) / "graph.txt")
        graphs.write_edge_list(g, src, dst)
        argv = ["sync", "--graph", g, "--tol", repr(self.tol)]
        return Prepared(argv, _setup_argv(argv), stats)

    def specific(self, prep, cols):
        return checks.check_sync(cols, self.m, self.tol)


@dataclass
class Gossip(Workload):
    name: str = "gossip-20k"
    why: str = ("single-page pushes on a uniform graph, n=20000, fixed step "
                "budget; step_set and its O(n) copies dominate")
    n: int = 20_000
    out_links: int = 8
    steps: int = 100_000
    probes = True

    def prepare(self, seed, work):
        src, dst, stats = graphs.uniform_graph(seed, self.n, self.out_links)
        g = str(Path(work) / "graph.txt")
        graphs.write_edge_list(g, src, dst)
        argv = ["gossip", "--graph", g, "--schedule", "uniform",
                "--seed", str(seed), "--steps", str(self.steps)]
        return Prepared(argv, _setup_argv(argv), stats)

    def specific(self, prep, cols):
        return checks.check_gossip(cols, self.steps)


@dataclass
class Cluster(Workload):
    name: str = "cluster-50k"
    why: str = ("group updates to tol 1e-10 on a community graph, n~50000, "
                "with dense-LU and iterative groups; the only cluster-layer user")
    n: int = 50_000
    group_sizes: tuple = (400, 512)
    big_groups: tuple = (3, (1000, 1500))
    tol: float = 1e-10

    def prepare(self, seed, work):
        src, dst, group_of, stats = graphs.community_graph(
            seed, self.n, self.group_sizes, self.big_groups, 4, 1,
            DENSE_GROUP_CAP)
        g = str(Path(work) / "graph.txt")
        part = str(Path(work) / "groups.txt")
        graphs.write_edge_list(g, src, dst)
        graphs.write_partition(part, group_of)
        argv = ["cluster", "--graph", g, "--partition", part,
                "--schedule", "uniform", "--seed", str(seed),
                "--tol", repr(self.tol)]
        return Prepared(argv, _setup_argv(argv), stats,
                        np.bincount(group_of))

    def specific(self, prep, cols):
        return checks.check_cluster(cols, prep.extra)


@dataclass
class MonteCarlo(Workload):
    name: str = "mc-100"
    why: str = ("1000 gossip replicas x 200 steps, n=100, dense oracle on "
                "every step; per-step diagnostics and Python overhead dominate")
    n: int = 100
    out_links: int = 8
    dangling: int = 3
    replicas: int = 1000
    steps: int = 200
    header = checks.MC_HEADER

    def prepare(self, seed, work):
        src, dst, stats = graphs.uniform_graph(seed, self.n, self.out_links,
                                               dangling=self.dangling)
        g = str(Path(work) / "graph.txt")
        graphs.write_edge_list(g, src, dst)
        argv = ["mc", "--graph", g, "--algorithm", "gossip",
                "--seed", str(seed), "--replicas", str(self.replicas),
                "--steps", str(self.steps)]
        expected = checks.expected_mc_error(self.n, src, dst, self.m, self.steps)
        return Prepared(argv, _setup_argv(argv), stats, expected)

    def specific(self, prep, cols):
        return checks.check_mc(cols, prep.extra, self.steps)

    def updates(self, prep, csv_text):
        """Updates summed over replicas: the CSV holds the per-replica mean."""
        return self.replicas * super().updates(prep, csv_text)


WORKLOADS = {w.name: w for w in (Sync(), Gossip(), Cluster(), MonteCarlo())}


def main(spec_path):
    """Child-process entry of `run.prepare`: generate the inputs, then
    overwrite the spec file with the `Prepared` fields as JSON."""
    path = Path(spec_path)
    spec = json.loads(path.read_text(encoding="utf-8"))
    w = globals()[spec["kind"]](**spec["fields"])
    prep = w.prepare(spec["seed"], spec["work"])
    out = asdict(prep)
    if out["extra"] is not None:
        out["extra"] = np.asarray(out["extra"]).tolist()
    path.write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
