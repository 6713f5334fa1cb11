"""Directed web graphs and page partitions.

A graph over pages 0..n-1 is two integer arrays, ``indptr`` and
``indices``: the out-links of page j are ``indices[indptr[j]:indptr[j+1]]``,
sorted and deduplicated (CSR by source page). The link matrix A is column
stochastic with A[i, j] = 1/n_j for every link j -> i, where n_j is the
out-degree of page j, so the same two arrays are the CSC structure of A and
of the scaled operator Q = (1-m) * A that drives all engines; `q_scale`
gives the values (1-m)/n_j, which `q_matrix` adds. Every graph is built
from two link arrays by ``WebGraph(n, src, dst)``, the loader and
`patch_dangling` included. Pages without out-links ("dangling") must be
patched before Q can be formed.

File formats (UTF-8 text, ``#`` comment lines and blank lines ignored):

* edge list  -- one ``src dst`` pair per line, whitespace separated;
* partition  -- one ``page group`` pair per line, every page exactly once.

`load_edge_list` and `load_partition` take a path or an open text stream
(an `io.StringIO` for text held in memory) and read either with one
`np.loadtxt` call. numpy reads a file by its path in chunks in C and walks
a stream line by line in Python, so a regular file goes to it by absolute
path, once the loader has opened it itself (see `_read_pairs` for why); a
stream and a file named like a compressed one go as a stream. Numbers are
ASCII integers with an optional sign that fit a signed 64-bit integer, and
a ``#`` ends a line's payload, so ``0 1  # comment`` is a pair. Two
spellings that Python's `int` accepts are rejected: digit separators
(``1_000``) and non-ASCII digits. Every malformed line is a `ParseError`
that names it (``line N``, counting every line of the file from 1).

Both graphs and partitions are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
import os
import re
import stat
import warnings
from functools import partial
from pathlib import Path

import numpy as np

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

# suffixes that np.loadtxt, handed a path, decompresses by
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _path_or_stream(stream):
    """What `np.loadtxt` reads for the open text `stream`: the absolute path
    of the regular file that it reads, else `stream` itself, also when the
    file's name ends in `_COMPRESSED`."""
    name = getattr(stream, "name", None)
    if not isinstance(name, str) or name.endswith(_COMPRESSED):
        return stream
    if stat.S_ISREG(os.fstat(stream.fileno()).st_mode):
        return os.path.abspath(name)
    return stream


def _read_pairs(source, fields, rules):
    """The ``a b`` lines of a text source as a (k, 2) int64 array.

    `source` is a filesystem path or an object with a ``read`` method.
    `fields` names the two columns in messages. `rules` holds
    ``(reject, message)`` pairs: ``reject(a, b)`` is true for a pair the
    caller refuses and is written with ``|`` and comparisons, so that it
    takes both the columns of all pairs and the two ints of one line;
    ``message(a, b)`` says what is wrong with a refused pair.

    One `np.loadtxt` call parses the whole text, handed a file's absolute
    path, which numpy reads in chunks in C, where it walks a stream line by
    line in Python. numpy treats a path as more than a file name, though:
    it downloads a URL, opens ``<path>.gz`` (``.bz2``, ``.xz``, ``.lzma``)
    in place of a missing path, and decompresses a file by its suffix. So
    the file is opened here first, which raises the OS error of a missing
    or unreadable file, numpy gets only the path of that open regular file,
    and a name with one of those suffixes stays a stream
    (`_path_or_stream`). Only when the call fails or a rule refuses a pair
    are the lines walked one at a time (the file is read a second time), so
    that the `ParseError` names the first bad line.
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
            pairs = np.loadtxt(_path_or_stream(stream), dtype=np.int64,
                               comments="#", ndmin=2, encoding="utf-8")
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
    src, dst : 1-D integer sequences of one length
        One link ``src[k] -> dst[k]`` per k. Duplicates are collapsed;
        each page's targets are stored sorted.
    """

    __slots__ = ("n", "indptr", "indices", "_q_cache")

    def __init__(self, n, src, dst):
        src = np.asarray(src, dtype=np.intp)
        dst = np.asarray(dst, dtype=np.intp)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("src and dst must be 1-D and of one length, got "
                             f"shapes {src.shape} and {dst.shape}")
        if n < 2:
            raise ValueError(f"need at least 2 pages, got n={n}")
        if n > MAX_PAGES:
            raise ValueError(f"{n} pages exceed the limit of {MAX_PAGES}")
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
            raise ValueError(f"page {src[bad][0]} links outside 0..{n - 1}")
        # one sort orders the links by source, then target, and puts
        # duplicates next to each other; the kept keys src*n + dst give each
        # source's first link by search and, divided by n, leave the targets
        # in their place as remainders
        key = np.multiply(src, n, dtype=np.int64)
        key += dst
        key.sort()
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        key = key[first]
        self.n = int(n)
        self.indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
        self.indices = np.remainder(key, n, out=key).astype(np.intp, copy=False)
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

    def out_links(self, pages):
        """(degree, targets) of the non-empty intp array `pages`: each page's
        out-degree, and the pages' out-links one page after another, each
        page's ascending. For ascending pages that is the entry order of
        their columns of Q, the order in which a mat-vec sums each row."""
        lo = self.indptr[pages]
        degree = self.indptr[pages + 1] - lo
        ends = degree.cumsum()
        links = np.arange(ends[-1]) + (lo - ends + degree).repeat(degree)
        return degree, self.indices[links]

    def q_scale(self, m):
        """The value (1-m)/n_j of every entry of column j of Q, per page j.

        `q_matrix` and the group steps (`pushrank.cluster`) both take Q's
        values from here. Refuses m outside (0, 1) and a graph that is not
        patched.
        """
        if not 0.0 < m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {m}")
        if not self.is_stochastic:
            bad = self.dangling_pages()
            raise ValueError(f"graph has dangling pages {bad.tolist()}; patch first")
        return (1.0 - m) / self.out_degree.astype(float)

    def q_matrix(self, m):
        """The scaled link operator Q = (1-m) A as a CSC matrix.

        The graph's own arrays with value `q_scale(m)` in each column, so
        that column scatters performed with that same scalar reproduce the
        mat-vec bit for bit. Cached per value of m; the graph must be
        patched first.
        """
        cached = self._q_cache.get(m)
        if cached is not None:
            return cached
        scale = self.q_scale(m)
        from scipy import sparse          # only Q needs scipy

        q = sparse.csc_array(
            (np.repeat(scale, self.out_degree), self.indices, self.indptr),
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
    raise, naming the first 10 of each kind and counting the rest.
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
        def listed(offenders):       # the first 10, then a count
            more = (f" and {offenders.size - 10} more" if offenders.size > 10
                    else "")
            return f"{offenders[:10].tolist()}{more}"
        raise ValueError(
            "invalid partition: "
            f"doubly-assigned pages {listed(dupes)}, "
            f"unassigned pages {listed(missing)}")
    assigned = np.empty(n, dtype=np.intp)
    assigned[pages] = pairs[:, 1]
    return Partition(assigned)
