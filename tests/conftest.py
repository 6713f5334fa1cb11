"""Shared graph generators, state and file helpers for the test suite."""

import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pushrank
from pushrank import Partition, WebGraph, patch_dangling

# the ``pushrank`` program: the script when one is on PATH (an installed
# package), else ``python -m pushrank.cli`` on the package the tests import
PROGRAM = ([shutil.which("pushrank")] if shutil.which("pushrank")
           else [sys.executable, "-m", "pushrank.cli"])


def program_env(*paths):
    """The environment for a `PROGRAM` process: this one's, with `paths`,
    then the directory of the package the tests import, first on
    PYTHONPATH."""
    root = str(Path(pushrank.__file__).resolve().parent.parent)
    path = os.pathsep.join(map(str, filter(None, (
        *paths, root, os.environ.get("PYTHONPATH")))))
    return {**os.environ, "PYTHONPATH": path}


def graph_from_lists(n, out):
    """Graph whose page j links to every page in out[j]."""
    src = np.repeat(np.arange(n), [len(targets) for targets in out])
    dst = np.concatenate([np.asarray(t, dtype=np.intp) for t in out])
    return WebGraph(n, src, dst)


def random_graph(rng, n, mean_out=4.0, allow_self=False, patched=True):
    """Seeded random digraph; out-degrees are Poisson(mean_out), clipped.

    Pages that draw zero out-links stay dangling unless `patched`.
    """
    out = []
    for j in range(n):
        pool = np.arange(n) if allow_self else np.delete(np.arange(n), j)
        d = min(int(rng.poisson(mean_out)), pool.size)
        out.append(rng.choice(pool, size=d, replace=False) if d else [])
    g = graph_from_lists(n, out)
    if patched:
        g, _ = patch_dangling(g)
    return g


def community_graph(rng, num_groups=10, group_size=20, p_in=0.3, p_out=0.01):
    """Block digraph: dense inside communities, sparse across them."""
    n = num_groups * group_size
    assignments = np.repeat(np.arange(num_groups), group_size)
    out = []
    for j in range(n):
        prob = np.where(assignments == assignments[j], p_in, p_out)
        prob[j] = 0.0
        out.append(np.flatnonzero(rng.random(n) < prob))
    g, _ = patch_dangling(graph_from_lists(n, out))
    return g, Partition(assignments)


def random_partition(rng, n, num_groups):
    """Random page -> group assignment (empty groups vanish on densify)."""
    return Partition(rng.integers(0, num_groups, size=n))


def copy_state(state):
    """A PushState with the same fields and its own x and z arrays."""
    return replace(state, x=state.x.copy(), z=state.z.copy())


def write_edge_list(graph, path, index_base=0):
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(graph.n):
            for i in graph.indices[graph.indptr[j]:graph.indptr[j + 1]]:
                fh.write(f"{j + index_base} {i + index_base}\n")
    return str(path)


def write_partition_file(partition, path):
    with open(path, "w", encoding="utf-8") as fh:
        for page, group in enumerate(partition.group_of):
            fh.write(f"{page} {group}\n")
    return str(path)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
