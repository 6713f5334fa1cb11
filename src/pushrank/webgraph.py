"""Directed web graphs and page partitions.

A graph over pages 0..n-1 is two integer arrays, ``indptr`` and
``indices``: the out-links of page j are ``indices[indptr[j]:indptr[j+1]]``,
sorted and deduplicated (CSR by source page). `indices` is int32 on graphs
whose page numbers fit it and that have 65,536 links or more
(`_index_dtype`), else intp; `indptr` is intp, and `out_links` hands out
intp. The link matrix A is column stochastic with A[i, j] = 1/n_j for every
link j -> i, where n_j is the out-degree of page j, so the same two arrays
are the CSC structure of A and of the scaled operator Q = (1-m) * A that
drives all engines; `q_scale` gives the values (1-m)/n_j. No code forms
Q: a set of pages pushes along its out-links (`out_links`), and the one
product ``Q @ v`` (`q_product`, for the push of every page and the
reference) pulls each page's inflow over its in-links, laid out as jagged
diagonals (`in_diagonals`); a vector's in cache-sized blocks of rows,
which a helper thread shares where the process may run on two CPUs or
more, with each row's sum unchanged. Every graph is built from sorted
int64 link keys ``src*n + dst``: ``WebGraph(n, src, dst)`` makes them from
two link arrays (`patch_dangling` included), the loader from the pairs it
parses, int32 ones from a text of `_NARROW_PARSE_BYTES` or more, which it
frees before the sort; keys without duplicates are kept where they lie,
so a large load holds 16 bytes per link at its peak. Pages without
out-links ("dangling") must be patched before Q's values exist.

File formats (UTF-8 text, ``#`` comment lines and blank lines ignored):

* edge list  -- one ``src dst`` pair per line, whitespace separated;
* partition  -- one ``page group`` pair per line, every page exactly once;
* weights    -- one float per line (`pushrank.harness`), read the same way.

`load_edge_list` and `load_partition` take a path or an open text stream
(an `io.StringIO` for text held in memory) and read either with one
`np.loadtxt` call. numpy reads a file by its path in chunks in C and walks
a stream line by line in Python, so a regular file goes to it by absolute
path, once the loader has opened it itself (see `_read_rows` for why); a
stream and a file named like a compressed one go as a stream, and the
text of a pipe or FIFO is read once and held, as a stream's is. Numbers are
ASCII integers with an optional sign that fit a signed 64-bit integer, and
a ``#`` ends a line's payload, so ``0 1  # comment`` is a pair. Two
spellings that Python's `int` accepts are rejected: digit separators
(``1_000``) and non-ASCII digits. Every malformed line, one with bytes
that are not UTF-8 included, is a `ParseError` that names it (``line N``,
counting every line of the file from 1).

Both graphs and partitions are immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import io
import os
import re
import stat
import threading
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
    A line that holds bytes that are not UTF-8, a comment line too, is a
    `ParseError` that names it: files are read with ``surrogateescape``
    (here and by `_read_rows`), which keeps such bytes as lone surrogates,
    so that the rest of the file still splits into its lines.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8",
                                      errors="surrogateescape")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            try:
                raw.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


_INT64 = re.compile(r"[+-]?[0-9]+")   # the integer spelling np.loadtxt parses

# suffixes that np.loadtxt, handed a path, decompresses by
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _path_or_stream(stream):
    """What `np.loadtxt` reads for the open text `stream` of a regular file
    or of text held in memory: the file's absolute path, else `stream`
    itself, also when the file's name ends in `_COMPRESSED`."""
    name = getattr(stream, "name", None)
    if not isinstance(name, str) or name.endswith(_COMPRESSED):
        return stream
    return os.path.abspath(name)


def _read_rows(source, fields, rules=(), dtype=np.int64):
    """The payload lines of a text source as a (k, c) int32, int64 or float
    array.

    `source` is a filesystem path or an object with a ``read`` method.
    `fields` names the c columns in messages. `rules` holds ``(reject,
    message)`` pairs of functions of a row's c numbers: ``reject`` ors
    comparisons of one column with a bound (``(a < 0) | (b >= n)``, or
    ``not 0 < w < inf``, which also refuses a NaN, then its column's
    minimum and maximum), so it refuses some row if and only if it
    refuses the columns' minima or maxima. That check makes no
    column-sized temporary, whose memory the allocator kept resident
    through the load's peak (0.2-0.5 MB measured at 1.6M links);
    ``message`` says what is wrong with a refused row.

    One `np.loadtxt` call parses the whole text, handed a file's absolute
    path, which numpy reads in chunks in C, where it walks a stream line by
    line in Python. numpy treats a path as more than a file name, though:
    it downloads a URL, opens ``<path>.gz`` (``.bz2``, ``.xz``, ``.lzma``)
    in place of a missing path, and decompresses a file by its suffix. So
    the file is opened here first, which raises the OS error of a missing
    or unreadable file, numpy gets only the path of that open regular file,
    and a name with one of those suffixes stays a stream
    (`_path_or_stream`). The text of a file that is not regular (a FIFO, a
    ``/dev/fd/N`` pipe) is read once and held in memory, as a stream's is,
    since such a file cannot be read a second time.

    An integer text of `_NARROW_PARSE_BYTES` or more, by the size of the
    open file or the length of the held text, is parsed as int32 first,
    which holds half the memory of int64, and parsed again as int64 only
    when numpy refuses a number (`ValueError`): one that int32 cannot hold,
    or a malformed one. Only when the int64 call fails or a rule refuses a
    row are the lines walked one at a time (a file is read a second time),
    so that the `ParseError` names the first bad line.
    """
    columns = len(fields.split())
    text = source.read() if hasattr(source, "read") else None
    if text is None:
        stream = open(source, encoding="utf-8", errors="surrogateescape")
        info = os.fstat(stream.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode):
            with stream:
                text = stream.read()
    if text is not None:
        # newline=None reads \r and \r\n line ends as the file opened above
        stream, size = io.StringIO(text, newline=None), len(text)
    narrow = dtype == np.int64 and size >= _NARROW_PARSE_BYTES
    try:
        with stream, warnings.catch_warnings():
            # no rows at all: the caller says what is missing
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            load = partial(np.loadtxt, _path_or_stream(stream), comments="#",
                           ndmin=2, encoding="utf-8")
            try:
                rows = load(dtype=np.int32 if narrow else dtype)
            except ValueError:
                if not narrow:
                    raise
                stream.seek(0)
                rows = load(dtype=dtype)
    except ValueError as exc:
        reason = str(exc)
    else:
        if rows.size == 0:
            return rows.reshape(0, columns)
        if rows.shape[1] != columns:
            reason = f"lines of {rows.shape[1]} numbers"
        else:
            lows, highs = [c.min() for c in rows.T], [c.max() for c in rows.T]
            if not any(reject(*lows) or reject(*highs) for reject, _ in rules):
                return rows
            reason = "a row is out of range"
    for lineno, line in _as_lines(source if text is None
                                  else io.StringIO(text, newline=None)):
        _check_row(lineno, line, fields, rules, dtype)
    # the walk and loadtxt split the text differently (e.g. at a \v)
    raise ParseError(f"cannot read '{fields}' lines: {reason}")


def _check_row(lineno, line, fields, rules, dtype):
    """Raise the `ParseError` of one bad payload line; see `_read_rows`."""
    parts = line.split("#", 1)[0].split()
    if len(parts) != len(fields.split()):
        raise ParseError(f"line {lineno}: expected '{fields}', got {line!r}")
    if dtype == np.int64:
        values = _int64s(lineno, line, parts, "two integers")
    else:
        try:
            values = [float(tok) for tok in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: expected numbers, "
                             f"got {line!r}") from None
    for reject, message in rules:
        if reject(*values):
            raise ParseError(f"line {lineno}: {message(*values)}")


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


def _distinct(values):
    """The distinct values of the integer array `values`, flattened and
    ascending, as `np.unique(values)` gives them. On numpy 2, `np.unique`
    without optional outputs calls `np.ma.is_masked`, which imports
    numpy.ma: 9-20 ms and 1.25 MB of RSS in a run that needs nothing else
    of it (measured)."""
    values = np.sort(values, axis=None)
    # values[0] - 1 differs from values[0], also where it wraps
    return values[np.diff(values, prepend=values[:1] - 1) != 0]


# the largest n whose sort key src*n + dst (at most n*n - 1) fits int64
MAX_PAGES = 3_037_000_499
# diagonals of fewer rows than this go to `in_diagonals`' tail, which a
# vector's `q_product` adds in one `np.add.at`, cheaper than loop steps
MIN_DIAGONAL = 512
# links that `in_diagonals` places at a time
_LINK_CHUNK = 1 << 16
# rows of a vector's long diagonals that `q_product` pulls at a time: a
# block's sums and its gather buffer, 256 KB each, stay in cache
_BLOCK_ROWS = 1 << 15
# int32 `indices` keep a sync run on a large graph at the peak of its load:
# with intp, the graph's arrays and the in-link diagonals, live together,
# set the peak of the sync-200k benchmark workload (1.6M links) at 71.8 MB
# where int32 leaves it at 66.4 MB (measured). Graphs with fewer links keep
# intp: int32 would save them at most 256 KB, and on the 100-page graph of
# the mc-100 workload it raised peak RSS by 0.1-0.2 MB, as did an int32
# `indptr`
_INT32_MIN_LINKS = 1 << 16
# integer texts of this many bytes or more parse as int32 first
# (`_read_rows`), so that the load peaks at 16 B per link, the int32 pairs
# and the int64 keys, where int64 pairs beside the keys held 24. On the
# sync-200k benchmark workload (1.6M links, a 20.6 MB text) the load's
# traced peak went from 36.68 to 24.54 MiB, below the run's, and with
# the other savings in `in_diagonals` and `q_product` peak RSS from 65.99
# to 61.27 MB (medians of 10 runs on a 2-CPU host). The gate selects by
# input size: an int32 parse runs numpy code that a small graph otherwise
# never runs, whose pages stay resident (about 0.06 MB, read from VmRSS
# around the load of the 100-page mc-100 workload), and with every text
# parsed as int32 mc-100's peak RSS rose by 0.10 MB. Below the gate,
# gossip-20k (a 1.74 MB text) read 37.414 -> 37.398 MB
_NARROW_PARSE_BYTES = 1 << 22


def _index_dtype(n, links):
    """The dtype of a graph's `indices`: int32 when every page number below
    `n` fits it and the graph has `_INT32_MIN_LINKS` links or more, else
    intp."""
    if links >= _INT32_MIN_LINKS and n - 1 <= np.iinfo(np.int32).max:
        return np.int32
    return np.intp


def _cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):    # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pull(u, diagonals, rows, gathered, blocks, failure=None):
    """Pull blocks of rows until `blocks`, the list of their first rows,
    is empty; a block ends `gathered.shape[0]` rows on, or at the end of
    diagonal 0. Diagonal 0 goes into the block's rows, then each later
    diagonal that reaches the block is gathered into `gathered` and added,
    so that every row sums its senders in diagonal order. Allocates no
    array. Given the list `failure`, an exception is appended to it, not
    raised."""
    try:
        while True:
            try:
                lo = blocks.pop()
            except IndexError:
                return
            hi = min(lo + gathered.shape[0], diagonals[0].size)
            np.take(u, diagonals[0][lo:hi], out=rows[lo:hi], mode="clip")
            for diagonal in diagonals[1:]:
                end = min(hi, diagonal.size)
                if end <= lo:                # later diagonals are shorter
                    break
                np.take(u, diagonal[lo:end], out=gathered[:end - lo],
                        mode="clip")
                rows[lo:end] += gathered[:end - lo]
    except BaseException as exc:
        if failure is None:
            raise
        failure.append(exc)


def _pull_in_blocks(u, diagonals, rows):
    """`_pull` the rows of the vector `u`'s `diagonals` into `rows`, in
    blocks of `_BLOCK_ROWS`; with two blocks or more and two CPUs or more,
    a helper thread pulls blocks beside the caller. Each row is summed by
    one thread in diagonal order, so the sums do not depend on which
    thread takes which block; `np.take` and `np.add` release the
    interpreter lock. An exception raised in the helper is raised here."""
    if not diagonals:
        return
    # the blocks' first rows, the last block first; each thread pops the
    # next (a list pop is atomic, with or without the interpreter lock)
    blocks = list(range(0, diagonals[0].size, _BLOCK_ROWS))[::-1]
    gathered = np.empty((2, min(diagonals[0].size, _BLOCK_ROWS)))
    helper, failure = None, []
    if len(blocks) > 1 and _cpus() > 1:
        helper = threading.Thread(target=_pull, args=(
            u, diagonals, rows, gathered[1], blocks, failure))
        helper.start()
    try:
        _pull(u, diagonals, rows, gathered[0], blocks)
    finally:
        if helper is not None:
            helper.join()
    if failure:
        raise failure[0]


class WebGraph:
    """Immutable hyperlink structure in compressed-column form, with Q's
    values and the in-link diagonals cached on first use.

    Parameters
    ----------
    n : int
        Page count, at least 2 and at most `MAX_PAGES`.
    src, dst : 1-D integer sequences of one length
        One link ``src[k] -> dst[k]`` per k. Duplicates are collapsed;
        each page's targets are stored sorted.
    """

    __slots__ = ("n", "indptr", "indices", "_cache")

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
        key = np.multiply(src, n, dtype=np.int64)
        key += dst
        self._store(n, key)

    @classmethod
    def _from_keys(cls, n, key):
        """The graph of the int64 link keys ``src*n + dst``, all in range,
        without the checks of the constructor. Overwrites `key`."""
        graph = cls.__new__(cls)
        graph._store(n, key)
        return graph

    def _store(self, n, key):
        # one sort orders the links by source, then target, and puts
        # duplicates next to each other; the kept keys src*n + dst give each
        # source's first link by search and, divided by n, leave the targets
        # in their place as remainders
        key.sort()
        first = np.empty(key.size, dtype=bool)
        first[:1] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        # the kept keys move to the front of `key`, so that no second
        # buffer of keys outlives this step while the caller holds `key`,
        # and with no duplicates stay where they are: the indices are a
        # copy, which holds no dropped link. Not `first.all()`: its bool
        # reduction is numpy code that a small graph would otherwise never
        # run, and whose pages stay resident (0.06 MB, measured)
        if np.count_nonzero(first) < key.size:
            kept = key[first]
            key = key[:kept.size]
            key[:] = kept
            del kept
        del first
        self.n = int(n)
        self.indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
        self.indices = np.remainder(key, n, out=key).astype(
            _index_dtype(n, key.size))
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self._cache = {}

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

    def require_patched(self):
        """Raise ValueError, naming the dangling pages, unless every page
        has an out-link."""
        if not self.is_stochastic:
            raise ValueError(f"graph has dangling pages "
                             f"{self.dangling_pages().tolist()}; patch first")

    def out_links(self, pages):
        """(degree, targets) of the non-empty intp array `pages`: each page's
        out-degree, and the pages' out-links one page after another, each
        page's ascending. For ascending pages that is the entry order of
        their columns of Q, the order in which a mat-vec sums each row.
        Both are intp whatever the graph stores, so that offsets added to
        them cannot wrap."""
        lo = self.indptr[pages]
        degree = self.indptr[pages + 1] - lo
        ends = degree.cumsum()
        links = np.arange(ends[-1]) + (lo - ends + degree).repeat(degree)
        return degree, self.indices[links].astype(np.intp, copy=False)

    def q_scale(self, m):
        """The value (1-m)/n_j of every entry of column j of Q, per page j.

        `q_product` and the group steps (`pushrank.cluster`) take Q's
        values from here. Cached per value of m, read-only. Refuses m
        outside (0, 1) and a graph that is not patched.
        """
        scale = self._cache.get(("scale", m))
        if scale is not None:
            return scale
        if not 0.0 < m < 1.0:
            raise ValueError(f"m must lie in (0, 1), got {m}")
        self.require_patched()
        scale = (1.0 - m) / self.out_degree.astype(float)
        scale.flags.writeable = False
        self._cache["scale", m] = scale
        return scale

    def q_product(self, m, v, out=None):
        """Q @ v for v of shape (n,) or (n, B), into `out` if given (v itself
        included): the one product with Q, for the push of every page and
        the reference (`pushrank.solvers`). A C-contiguous vector whose
        `out` is v itself, the push's call, is scaled in place, with no
        vector-sized copy; any other call leaves v as it was.

        Row i sums the rows of v scaled by `q_scale(m)` over page i's
        in-links (`in_diagonals`), diagonal by diagonal: from 0.0 in
        ascending sender order, as scipy's CSC ``Q @ v`` does, bit for bit.
        A vector pulls its long diagonals in blocks of `_BLOCK_ROWS` rows,
        on two threads where it has two blocks and two CPUs or more
        (`_pull_in_blocks`), and adds the short diagonals in one
        `np.add.at`. A block of vectors loops over every diagonal whole
        (120 us per (100, 81) block; a 2-D `np.add.at` took 1,459 us, and
        the vector's block loop 1.35 against 1.29 ms per record of 1,000
        replicas of 100 pages) or, with fewer columns than short diagonals
        (a hub makes one per in-link over the rest), takes each column
        alone.
        """
        scale = self.q_scale(m)
        position, diagonals, long, tail_rows, tail_senders = (
            self.in_diagonals())
        if v.ndim == 2 and v.shape[1] < len(diagonals) - long:
            out = np.empty(v.shape) if out is None else out
            for column in range(v.shape[1]):
                self.q_product(m, v[:, column], out[:, column])
            return out
        vector = v.ndim == 1
        if vector and out is v and v.flags.c_contiguous:
            u = np.multiply(scale, v, out=v)
        else:
            u = np.multiply(scale if vector else scale[:, None], v, order="C")
        if vector:
            diagonals = diagonals[:long]
        head = diagonals[0].size if diagonals else 0
        rows = np.empty_like(u)
        rows[head:] = 0.0
        if vector:
            _pull_in_blocks(u, diagonals, rows)
            np.add.at(rows, tail_rows, u.take(tail_senders))
        else:
            np.take(u, diagonals[0], axis=0, out=rows[:head], mode="clip")
            gathered = np.empty_like(rows[:head])
            for diagonal in diagonals[1:]:
                size = diagonal.size
                np.take(u, diagonal, axis=0, out=gathered[:size], mode="clip")
                rows[:size] += gathered[:size]
        return np.take(rows, position, axis=0, out=out, mode="clip")

    def in_diagonals(self):
        """The in-links as jagged diagonals (Saad, *Iterative Methods for
        Sparse Linear Systems*, 2003, section 3.4), for `q_product`. Cached.

        Returns ``(position, diagonals, long, tail_rows, tail_senders)``.
        The pages stand in rows ordered by falling in-degree, ties
        ascending (a stable sort); page i stands in row `position[i]`.
        Diagonal p holds, row by row, the p-th in-link, senders ascending,
        of every page with more than p in-links: those rows are a prefix,
        so no diagonal is longer than the one before. Of `diagonals`, the
        first `long` have `MIN_DIAGONAL` rows or more; the links of the
        rest, one after another, are senders `tail_senders` in rows
        `tail_rows`. The diagonals and `tail_senders` are views of one
        array that holds each link once. Summing each row's senders in
        diagonal order is the order in which a CSC mat-vec sums it. The
        arrays are intp, not the graph's index dtype, and writeable, though
        no caller may write to them: `np.take` copies an index array of
        another dtype, or a read-only one, on every product.
        """
        cached = self._cache.get("diagonals")
        if cached is not None:
            return cached
        n, indptr, indices = self.n, self.indptr, self.indices
        # not np.bincount: it copies int32 `indices` to intp, which raised
        # the peak of the sync-200k workload by 4.3 MB (measured)
        in_degree = np.zeros(n, dtype=np.intp)
        np.add.at(in_degree, indices, 1)
        position = np.empty(n, dtype=np.intp)
        position[np.argsort(-in_degree, kind="stable")] = np.arange(n)
        # lengths[p]: the pages with more than p in-links; diagonal p is
        # flat[start[p]:start[p + 1]]
        lengths = n - np.bincount(in_degree).cumsum()[:-1]
        start = np.zeros(lengths.size + 1, dtype=np.intp)
        np.cumsum(lengths, out=start[1:])
        flat = np.empty(indices.size, dtype=np.intp)
        # in-links of each page placed so far, in the spent in-degrees
        placed = in_degree
        placed[:] = 0
        # the links in chunks of whole columns, about _LINK_CHUNK links each,
        # so that no temporary is link-sized
        cuts = np.append(_distinct(indptr.searchsorted(
            np.arange(0, indices.size, _LINK_CHUNK), side="right") - 1), n)
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            # the chunk's links by target, then sender (keys target*n +
            # sender), each into the next free diagonal of its target
            key = np.multiply(indices[indptr[lo]:indptr[hi]], n, dtype=np.int64)
            key += np.arange(lo, hi).repeat(np.diff(indptr[lo:hi + 1]))
            key.sort()
            # not np.divmod: 10.3 ms against 3.6 ms over the 25 chunks
            # of 1.6M links (measured)
            targets = np.floor_divide(key, n)
            key -= targets * n
            senders = key
            # a link's diagonal: its target's links placed before this
            # chunk, plus its index less that of its target's first link
            link = np.arange(key.size)
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(targets[1:], targets[:-1], out=first[1:])
            diagonal = link - np.maximum.accumulate(np.where(first, link, 0))
            diagonal += placed[targets]
            flat[start[diagonal] + position[targets]] = senders
            np.add.at(placed, targets, 1)
        long = int(np.count_nonzero(lengths >= MIN_DIAGONAL))
        diagonals = tuple(flat[start[p]:start[p + 1]]
                          for p in range(lengths.size))
        tail_rows = (np.arange(start[long], start[-1])
                     - start[long:-1].repeat(lengths[long:]))
        cached = position, diagonals, long, tail_rows, flat[start[long]:]
        self._cache["diagonals"] = cached
        return cached


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
    pairs = _read_rows(source, "src dst", [
        (lambda s, d: (s < index_base) | (d < index_base),
         lambda s, d: f"index below base {index_base}"),
        (lambda s, d: (s >= limit) | (d >= limit),
         lambda s, d: f"index {max(s, d)} exceeds the limit of {MAX_PAGES} "
                      f"pages (base {index_base})"),
    ])
    n = int(pairs.max()) + 1 - index_base if pairs.size else 0
    if n < 2:
        raise ValueError(f"edge list describes {n} page(s); need at least 2")
    # the link keys src*n + dst, rebased in one subtraction; the pairs, which
    # `_read_rows` has range-checked, are dead once the keys exist
    key = np.multiply(pairs[:, 0], n, dtype=np.int64)
    key += pairs[:, 1]
    del pairs
    if index_base:
        key -= (n + 1) * index_base
    return WebGraph._from_keys(n, key)


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
    pairs = _read_rows(source, "page group", [
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
