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

`load_edge_list` and `load_partition` take a path or an open text stream
(an `io.StringIO` for text held in memory) and read either with one
`np.loadtxt` call. Numbers are ASCII integers with an optional sign that
fit a signed 64-bit integer, and a ``#`` ends a line's payload, so
``0 1  # comment`` is a pair. Two spellings that Python's `int` accepts
are rejected: digit separators (``1_000``) and non-ASCII digits. Every
malformed line is a `ParseError` that names it (``line N``, counting every
line of the file from 1).

Both graphs and partitions are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import ParseError

__all__ = [
    "WebGraph",
    "Partition",
    "load_edge_list",
    "patch_dangling",
    "load_partition",
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


_INT64 = re.compile(r"[+-]?[0-9]+")   # the integer spelling np.loadtxt parses


def _read_pairs(source, fields, rules):
    """The ``a b`` lines of a text source as a (k, 2) int64 array.

    `source` is a filesystem path or an object with a ``read`` method.
    `fields` names the two columns in messages. `rules` holds
    ``(reject, message)`` pairs: ``reject(a, b)`` is true for a pair the
    caller refuses and is written with ``|`` and comparisons, so that it
    takes both the columns of all pairs and the two ints of one line;
    ``message(a, b)`` says what is wrong with a refused pair.

    One `np.loadtxt` call parses the whole text. Only when it fails or a
    rule refuses a pair are the lines walked one at a time (the file is read
    a second time), so that the `ParseError` names the first bad line.
    """
    if hasattr(source, "read"):
        # newline=None reads \r and \r\n line ends as a file opened below would
        reopen = partial(io.StringIO, source.read(), newline=None)
    else:
        reopen = partial(open, source, encoding="utf-8")
    try:
        with reopen() as stream, warnings.catch_warnings():
            # no pairs at all: the caller says what is missing
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            pairs = np.loadtxt(stream, dtype=np.int64, comments="#", ndmin=2)
    except ValueError as exc:
        reason = str(exc)
    else:
        if pairs.size == 0:
            return pairs.reshape(0, 2)
        if pairs.shape[1] != 2:
            reason = f"lines of {pairs.shape[1]} numbers"
        elif not any(reject(pairs[:, 0], pairs[:, 1]).any() for reject, _ in rules):
            return pairs
        else:
            reason = "a pair is out of range"
    with reopen() as stream:
        for lineno, line in _as_lines(stream):
            _check_pair(lineno, line, fields, rules)
    # the walk and loadtxt split the text differently (e.g. at a \v)
    raise ParseError(f"cannot read '{fields}' lines: {reason}")


def _check_pair(lineno, line, fields, rules):
    """Raise the `ParseError` of one bad payload line; see `_read_pairs`."""
    parts = line.split("#", 1)[0].split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected '{fields}', got {line!r}")
    a, b = _int64s(lineno, line, parts, "two integers")
    for reject, message in rules:
        if reject(a, b):
            raise ParseError(f"line {lineno}: {message(a, b)}")


def _int64s(lineno, line, tokens, expected):
    """The ints of line `lineno`'s `tokens`, ASCII integers with an optional
    sign that fit 64 bits; else a `ParseError` that names the line."""
    if not all(_INT64.fullmatch(tok) for tok in tokens):
        raise ParseError(f"line {lineno}: expected {expected}, got {line!r}")
    values = [int(tok) for tok in tokens]
    if not all(-2**63 <= v < 2**63 for v in values):
        raise ParseError(
            f"line {lineno}: integer does not fit 64 bits in {line!r}")
    return values


# the largest n whose sort key src*n + dst (at most n*n - 1) fits int64
MAX_PAGES = 3_037_000_499


class WebGraph:
    """Immutable hyperlink structure in compressed-column form.

    Parameters
    ----------
    n : int
        Page count, at least 2 and at most `MAX_PAGES`.
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
        if n > MAX_PAGES:
            raise ValueError(f"{n} pages exceed the limit of {MAX_PAGES}")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            raise ValueError(f"page {src[bad][0]} links outside 0..{n - 1}")
        # one sort orders the links by source, then target, and puts
        # duplicates next to each other
        key = np.multiply(src, n, dtype=np.int64)
        key += dst
        key.sort()
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        src, dst = np.divmod(key[first], n)
        self.n = int(n)
        self.indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        self.indices = dst.astype(np.intp, copy=False)
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._q_cache = {}

    @property
    def out_degree(self):
        return np.diff(self.indptr)

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


def load_edge_list(source, index_base=0):
    """Load a directed graph from an edge list.

    Each payload line is ``src dst``. `index_base` selects 0- or 1-based
    page numbering in the file; pages are always 0-based in memory. The
    page count is one plus the largest (rebased) index seen, at most
    `MAX_PAGES`: a line with a larger index is a `ParseError`, so that a
    mistyped index cannot size the graph. Duplicate edges collapse;
    dangling pages are allowed at this stage.
    """
    if index_base not in (0, 1):
        raise ValueError(f"index_base must be 0 or 1, got {index_base}")
    limit = MAX_PAGES + index_base
    pairs = _read_pairs(source, "src dst", [
        (lambda s, d: (s < index_base) | (d < index_base),
         lambda s, d: f"index below base {index_base}"),
        (lambda s, d: (s >= limit) | (d >= limit),
         lambda s, d: f"index {max(s, d)} exceeds the limit of {MAX_PAGES} "
                      f"pages (base {index_base})"),
    ])
    pairs -= index_base
    n = int(pairs.max()) + 1 if pairs.size else 0
    if n < 2:
        raise ValueError(f"edge list describes {n} page(s); need at least 2")
    return WebGraph(n, pairs[:, 0], pairs[:, 1])


# patched links allowed in one graph: about 2.5 GB at ~50 bytes per link
MAX_PATCHED_LINKS = 50_000_000


def patch_dangling(graph):
    """Give every dangling page a uniform out-link to all n pages (self included).

    Returns the patched graph plus the list of pages that were patched.
    Non-dangling pages are untouched; the result is column stochastic.
    Raises ValueError, before allocating them, when the n links of every
    dangling page would exceed `MAX_PATCHED_LINKS`.
    """
    patched = graph.dangling_pages()
    if patched.size == 0:
        return graph, patched
    n = graph.n
    if patched.size * n > MAX_PATCHED_LINKS:
        raise ValueError(
            f"{patched.size} dangling pages of {n} would need "
            f"{patched.size * n} patched links, more than the limit of "
            f"{MAX_PATCHED_LINKS}")
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
        self.sizes = np.bincount(self.group_of, minlength=self.num_groups)
        # a stable sort by group keeps each group's pages ascending
        order = np.argsort(self.group_of, kind="stable")
        self.members = tuple(np.split(order, np.cumsum(self.sizes)[:-1]))


def load_partition(source, graph):
    """Load a page -> group assignment for `graph` from ``page group`` lines.

    Every page must be assigned exactly once; group labels need not be
    contiguous (they are densified). Unassigned or doubly-assigned pages
    raise with the full offender list.
    """
    n = graph.n
    pairs = _read_pairs(source, "page group", [
        (lambda page, group: (page < 0) | (page >= n),
         lambda page, group: f"page {page} outside 0..{n - 1}"),
    ])
    pages = pairs[:, 0]
    counts = np.bincount(pages, minlength=n)
    dupes, missing = np.flatnonzero(counts > 1), np.flatnonzero(counts == 0)
    if dupes.size or missing.size:
        raise ValueError(
            "invalid partition: "
            f"doubly-assigned pages {dupes.tolist()}, "
            f"unassigned pages {missing.tolist()}")
    assigned = np.empty(n, dtype=np.intp)
    assigned[pages] = pairs[:, 1]
    return Partition(assigned)
