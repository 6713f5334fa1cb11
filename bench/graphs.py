"""Seeded input generators for the benchmark's three graph families.

Every generator is a pure function of its seed: the same seed writes
byte-identical edge-list and partition files. The program under test sees
only these files, never the generator.

* `uniform_graph`   -- every page links to `k` distinct other pages chosen
  uniformly; optionally a few pages are left dangling.
* `community_graph` -- contiguous groups of pages; each page has `k_in`
  distinct links inside its group and `k_out` links to other groups.

The large graphs have no dangling pages on purpose: `patch_dangling` gives
each dangling page n out-links, which would swamp an n = 2e5 graph.
"""

from __future__ import annotations

import numpy as np


def _distinct_targets(rng, lo, size, k, owners):
    """For each owner page, `k` distinct targets in lo..lo+size-1, never itself.

    `lo`, `size` and `owners` are arrays of equal length (one row per
    owner). Rows drawing a duplicate are redrawn until none is left.
    """
    rows = owners.size
    out = np.empty((rows, k), dtype=np.int64)
    todo = np.arange(rows)
    while todo.size:
        r = rng.integers(0, size[todo, None] - 1, size=(todo.size, k))
        own = owners[todo, None] - lo[todo, None]
        r = r + (r >= own)  # skip the owner itself
        out[todo] = r + lo[todo, None]
        s = np.sort(out[todo], axis=1)
        todo = todo[np.any(s[:, 1:] == s[:, :-1], axis=1)]
    return out


def uniform_graph(seed, n, k, dangling=0):
    """Uniform random digraph: (src, dst, stats).

    Pages 0..n-1 each link to `k` distinct other pages. `dangling` pages,
    drawn from 0..n-2 so that page n-1 always appears as a source and fixes
    the page count, keep no out-links.
    """
    rng = np.random.default_rng([seed, 1])
    owners = np.arange(n, dtype=np.int64)
    targets = _distinct_targets(rng, np.zeros(n, np.int64),
                                np.full(n, n, np.int64), k, owners)
    keep = np.ones(n, dtype=bool)
    if dangling:
        keep[rng.choice(n - 1, size=dangling, replace=False)] = False
    src = np.repeat(owners[keep], k)
    dst = targets[keep].reshape(-1)
    stats = {"family": "uniform", "n": n, "out_links": k, "edges": int(src.size),
             "dangling": int(dangling), "self_loops": 0,
             "self_loops_after_patch": int(dangling)}
    return src, dst, stats


def community_graph(seed, n_target, size_range, big_sizes, k_in, k_out,
                    dense_cap):
    """Block community digraph: (src, dst, group_of, stats).

    Group sizes are drawn uniformly from `size_range` (inclusive) until
    the page count reaches `n_target`; `big_sizes` adds that many larger
    groups, drawn from its own inclusive range, first. Each page links to
    `k_in` distinct pages of its own group and `k_out` pages of other
    groups (repeats allowed), so no page is dangling.
    """
    rng = np.random.default_rng([seed, 2])
    count, (big_lo, big_hi) = big_sizes
    sizes = list(rng.integers(big_lo, big_hi + 1, size=count))
    lo, hi = size_range
    while sum(sizes) < n_target:
        sizes.append(int(rng.integers(lo, hi + 1)))
    sizes = np.asarray(sizes, dtype=np.int64)
    n = int(sizes.sum())
    group_of = np.repeat(np.arange(sizes.size), sizes)
    start = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    owners = np.arange(n, dtype=np.int64)
    g_lo, g_size = start[group_of], sizes[group_of]
    intra = _distinct_targets(rng, g_lo, g_size, k_in, owners)
    cross = rng.integers(0, n - g_size[:, None], size=(n, k_out))
    cross = cross + np.where(cross >= g_lo[:, None], g_size[:, None], 0)
    src = np.repeat(owners, k_in + k_out)
    dst = np.concatenate([intra, cross], axis=1).reshape(-1)
    stats = {"family": "community", "n": n, "edges": int(src.size),
             "dangling": 0, "self_loops": 0, "self_loops_after_patch": 0,
             "groups": int(sizes.size), "group_size_min": int(sizes.min()),
             "group_size_median": float(np.median(sizes)),
             "group_size_max": int(sizes.max()),
             "groups_above_dense_cap": int((sizes > dense_cap).sum()),
             "intra_links": k_in, "cross_links": k_out}
    return src, dst, group_of, stats


def _write_pairs(path, a, b):
    text = "\n".join(f"{i} {j}" for i, j in zip(a.tolist(), b.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def write_edge_list(path, src, dst):
    """One ``src dst`` line per edge, 0-based."""
    _write_pairs(path, src, dst)


def write_partition(path, group_of):
    """One ``page group`` line per page."""
    _write_pairs(path, np.arange(group_of.size), group_of)
