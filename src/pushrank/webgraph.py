"""Directed web graphs and page partitions.

A graph over pages 0..n-1 is two integer arrays, ``indptr`` and
``indices``: the out-links of page j are ``indices[indptr[j]:indptr[j+1]]``,
sorted and deduplicated (CSR by source page). The link matrix A is column
stochastic with A[i, j] = 1/n_j for every link j -> i, where n_j is the
out-degree of page j, so the same two arrays are the CSC structure of A and
of the scaled operator Q = (1-m) * A that drives all engines; `q_matrix`
only adds the values (1-m)/n_j. Every graph is built from two link
arrays by ``WebGraph(n, src, dst)``, the loader and `patch_dangling`
included. Pages without out-links ("dangling") must be patched before Q
can be formed.

File formats (UTF-8 text, ``#`` comment lines and blank lines ignored):

* edge list  -- one ``src dst`` pair per line, whitespace separated;
* partition  -- one ``page group`` pair per line, every page exactly once.

Numbers must fit a signed 64-bit integer; anything else is a `ParseError`
that names the line.

Both graphs and partitions are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
from array import array
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ParseError

__all__ = [
    "WebGraph",
    "Partition",
    "load_edge_list",
    "parse_edge_list",
    "patch_dangling",
    "load_partition",
    "parse_partition",
]


def _as_lines(source):
    """Yield (line_number, stripped_text) for payload lines of a text source.

    `source` may be a filesystem path or any object with a ``read`` method.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


class WebGraph:
    """Immutable hyperlink structure in compressed-column form.

    Parameters
    ----------
    n : int
        Page count, at least 2.
    src, dst : integer sequences
        One link ``src[k] -> dst[k]`` per k. Duplicates are collapsed;
        each page's targets are stored sorted.
    """

    __slots__ = ("n", "indptr", "indices", "_q_cache")

    def __init__(self, n, src, dst):
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        if n < 2:
            raise ValueError(f"need at least 2 pages, got n={n}")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            raise ValueError(f"page {src[bad][0]} links outside 0..{n - 1}")
        # one sort orders the links by source, then target, and exposes duplicates
        src, dst = np.divmod(np.unique(src.astype(np.int64) * n + dst), n)
        self.n = int(n)
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.indices = dst.astype(np.intp)
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._q_cache = {}

    @property
    def out_degree(self):
        return np.diff(self.indptr)

    def out_neighbors(self, i):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    @property
    def num_edges(self):
        return int(self.indices.size)

    def dangling_pages(self):
        """Pages with no out-links, ascending."""
        return np.flatnonzero(self.out_degree == 0)

    @property
    def is_stochastic(self):
        """True when every page has at least one out-link."""
        return bool(np.all(self.out_degree > 0))

    def q_matrix(self, m):
        """The scaled link operator Q = (1-m) A as a CSC matrix.

        The graph's own arrays with value (1-m)/n_j in column j. Values are
        computed directly as (1-m)/n_j so that column scatters performed
        with that same scalar reproduce the mat-vec bit for bit. Cached per
        value of m; the graph must be patched first.
        """
        cached = self._q_cache.get(m)
        if cached is not None:
            return cached
        if not 0.0 < m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {m}")
        if not self.is_stochastic:
            bad = self.dangling_pages()
            raise ValueError(f"graph has dangling pages {bad.tolist()}; patch first")
        degree = self.out_degree
        data = np.repeat((1.0 - m) / degree.astype(float), degree)
        q = sparse.csc_array((data, self.indices, self.indptr),
                             shape=(self.n, self.n))
        self._q_cache[m] = q
        return q


def parse_edge_list(text, index_base=0):
    """Build a graph from edge-list text. See `load_edge_list`."""
    return load_edge_list(io.StringIO(text), index_base=index_base)


def load_edge_list(source, index_base=0):
    """Load a directed graph from an edge list.

    Each payload line is ``src dst``. `index_base` selects 0- or 1-based
    page numbering in the file; pages are always 0-based in memory. The
    page count is one plus the largest (rebased) index seen. Duplicate
    edges collapse; dangling pages are allowed at this stage.
    """
    if index_base not in (0, 1):
        raise ValueError(f"index_base must be 0 or 1, got {index_base}")
    src, dst = array("q"), array("q")
    for lineno, line in _as_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            s, d = int(parts[0]) - index_base, int(parts[1]) - index_base
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        if s < 0 or d < 0:
            raise ParseError(f"line {lineno}: index below base {index_base}")
        try:
            src.append(s)
            dst.append(d)
        except OverflowError:
            raise ParseError(f"line {lineno}: index too large in {line!r}") from None
    src = np.frombuffer(src, dtype=np.int64)
    dst = np.frombuffer(dst, dtype=np.int64)
    n = int(max(src.max(), dst.max())) + 1 if src.size else 0
    if n < 2:
        raise ValueError(f"edge list describes {n} page(s); need at least 2")
    return WebGraph(n, src, dst)


def patch_dangling(graph):
    """Give every dangling page a uniform out-link to all n pages (self included).

    Returns the patched graph plus the list of pages that were patched.
    Non-dangling pages are untouched; the result is column stochastic.
    """
    patched = graph.dangling_pages()
    if patched.size == 0:
        return graph, patched
    n = graph.n
    src = np.concatenate([np.repeat(np.arange(n, dtype=np.intp), graph.out_degree),
                          np.repeat(patched, n)])
    dst = np.concatenate([graph.indices, np.tile(np.arange(n, dtype=np.intp),
                                                  patched.size)])
    return WebGraph(n, src, dst), patched


class Partition:
    """Disjoint grouping of pages 0..n-1 into groups 0..N-1.

    Built from a full page -> group assignment; group labels are densified
    to 0..N-1 in sorted label order and each group's member list is sorted.
    """

    __slots__ = ("n", "num_groups", "group_of", "members", "sizes")

    def __init__(self, assignments):
        group_of = np.asarray(assignments, dtype=np.intp)
        if group_of.ndim != 1 or group_of.size < 1:
            raise ValueError("assignments must be a 1-D page -> group array")
        labels, dense = np.unique(group_of, return_inverse=True)
        self.n = group_of.size
        self.num_groups = labels.size
        self.group_of = dense.astype(np.intp)
        self.members = tuple(np.flatnonzero(self.group_of == h)
                             for h in range(self.num_groups))
        self.sizes = np.array([mem.size for mem in self.members], dtype=np.intp)

    @classmethod
    def trivial(cls, n):
        """n singleton groups, group index equal to page index."""
        return cls(np.arange(n))

    @classmethod
    def whole(cls, n):
        """A single group containing every page."""
        return cls(np.zeros(n, dtype=np.intp))


def parse_partition(text, graph):
    return load_partition(io.StringIO(text), graph)


def load_partition(source, graph):
    """Load a page -> group assignment for `graph` from ``page group`` lines.

    Every page must be assigned exactly once; group labels need not be
    contiguous (they are densified). Unassigned or doubly-assigned pages
    raise with the full offender list.
    """
    n = graph.n
    assigned = np.full(n, -1, dtype=np.intp)
    dupes = []
    for lineno, line in _as_lines(source):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'page group', got {line!r}")
        try:
            page, group = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {line!r}") from None
        if not 0 <= page < n:
            raise ParseError(f"line {lineno}: page {page} outside 0..{n - 1}")
        if assigned[page] != -1:
            dupes.append(page)
        try:
            assigned[page] = group
        except OverflowError:
            raise ParseError(f"line {lineno}: group label too large in {line!r}") from None
    missing = np.flatnonzero(assigned == -1)
    if dupes or missing.size:
        raise ValueError(
            "invalid partition: "
            f"doubly-assigned pages {sorted(set(dupes))}, "
            f"unassigned pages {missing.tolist()}")
    return Partition(assigned)
