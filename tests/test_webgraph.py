import bz2
import gzip
import io
import lzma
import os
import socket
import threading
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pushrank import (Partition, ParseError, WebGraph, cli, load_edge_list,
                      load_partition, patch_dangling, webgraph)

from conftest import random_graph
from oracles import q_column, q_matrix


def test_parse_two_node_cycle():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    assert g.n == 2
    assert g.out_degree.tolist() == [1, 1]
    assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [1]


@pytest.fixture
def narrow_parse(monkeypatch):
    """Every integer text parses as int32 first, as a large one does."""
    monkeypatch.setattr(webgraph, "_NARROW_PARSE_BYTES", 0)
    assert webgraph._read_rows(io.StringIO("0 1\n"), "src dst").dtype == np.int32


def test_parse_one_based_collapses_duplicates():
    g = load_edge_list(io.StringIO("1 2\n1 2\n2 1"), index_base=1)
    assert g.n == 2
    assert g.out_degree.tolist() == [1, 1]
    # unsorted, duplicated edges: loader and constructor store the same
    # sorted, deduplicated arrays
    g = load_edge_list(io.StringIO("3 1\n1 3\n3 1\n1 2\n4 4\n2 4\n1 3\n4 1"),
                        index_base=1)
    h = WebGraph(4, [3, 0, 2, 0, 0, 3, 1, 0, 3], [0, 2, 0, 1, 2, 3, 3, 1, 3])
    for graph in (g, h):
        assert graph.indptr.tolist() == [0, 2, 3, 4, 6]
        assert graph.indices.tolist() == [1, 2, 3, 0, 0, 3]
        # no buffer that held the dropped duplicates outlives the build
        assert graph.indices.base is None


def test_narrow_parse_collapses_duplicates(narrow_parse):
    test_parse_one_based_collapses_duplicates()


def test_parse_dangling_page_allowed():
    g = load_edge_list(io.StringIO("0 1"))
    assert g.out_degree.tolist() == [1, 0]
    assert g.dangling_pages().tolist() == [1]
    assert not g.is_stochastic


def test_parse_skips_comments_and_blanks():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n  \n1 0\n# trailing\n"))
    assert g.n == 2
    assert g.num_edges == 2


def test_parse_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list(io.StringIO("0 1\nnot an edge\n1 0"))
    with pytest.raises(ParseError, match="line 3"):
        load_edge_list(io.StringIO("0 1\n1 0\n1 2 3"))


def test_parse_rejects_tiny_graph():
    with pytest.raises(ValueError, match="at least 2"):
        load_edge_list(io.StringIO("0 0"))


def test_parse_rejects_index_below_base():
    with pytest.raises(ParseError, match="below base"):
        load_edge_list(io.StringIO("0 1"), index_base=1)


def test_parse_rejects_bad_base():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("0 1"), index_base=2)


def test_load_edge_list_from_path(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 0\n")
    assert load_edge_list(p).n == 2


def test_patch_cycle_unchanged():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    patched, report = patch_dangling(g)
    assert patched is g
    assert report.size == 0


def test_patch_dangling_uniform_all_pages():
    g, report = patch_dangling(load_edge_list(io.StringIO("0 1")))
    assert report.tolist() == [1]
    assert g.indices[g.indptr[1]:g.indptr[2]].tolist() == [0, 1]
    idx, vals = q_column(g, 0.15, 1)
    assert idx.tolist() == [0, 1]
    np.testing.assert_allclose(vals, [0.425, 0.425])
    # unsorted, duplicated edges around a dangling page
    g, report = patch_dangling(load_edge_list(io.StringIO("2 0\n0 2\n2 0\n0 1")))
    h, _ = patch_dangling(WebGraph(3, [2, 0, 2, 0, 0], [0, 2, 0, 1, 1]))
    assert report.tolist() == [1]
    for graph in (g, h):
        assert graph.indptr.tolist() == [0, 2, 5, 6]
        assert graph.indices.tolist() == [1, 2, 0, 1, 2, 0]


def test_patch_dangling_refuses_too_many_links(monkeypatch):
    from pushrank import webgraph
    # 9,999 dangling pages of 10,000 would need 99,990,000 links
    with pytest.raises(ValueError, match="9999 dangling pages of 10000"):
        patch_dangling(WebGraph(10_000, [0], [1]))
    # the limit is inclusive: 2 dangling pages of 3 need 6 links
    g = WebGraph(3, [0], [1])
    monkeypatch.setattr(webgraph, "MAX_PATCHED_LINKS", 6)
    assert patch_dangling(g)[0].num_edges == 7
    monkeypatch.setattr(webgraph, "MAX_PATCHED_LINKS", 5)
    with pytest.raises(ValueError, match="would need 6 patched links"):
        patch_dangling(g)


def test_patch_isolated_pages_fully_uniform():
    g = WebGraph(3, [], [])
    g, report = patch_dangling(g)
    assert report.tolist() == [0, 1, 2]
    cols = q_matrix(g, 0.15).toarray()
    np.testing.assert_allclose(cols, np.full((3, 3), 0.85 / 3))


def test_q_column_single_link():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    idx, vals = q_column(g, 0.15, 0)
    assert idx.tolist() == [1]
    np.testing.assert_array_equal(vals, [0.85])


def test_q_column_two_links():
    g = load_edge_list(io.StringIO("0 1\n0 2\n1 0\n2 0"))
    idx, vals = q_column(g, 0.15, 0)
    np.testing.assert_array_equal(vals, [0.425, 0.425])


def test_q_column_sums_to_one_minus_m(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(5, 60)))
        for i in range(g.n):
            _, vals = q_column(g, 0.15, i)
            assert abs(vals.sum() - 0.85) <= 1e-12


def test_q_column_requires_patched():
    g = load_edge_list(io.StringIO("0 1"))
    with pytest.raises(ValueError, match="dangling"):
        q_column(g, 0.15, 1)


def test_q_product_requires_patched_and_valid_m():
    g = load_edge_list(io.StringIO("0 1"))
    with pytest.raises(ValueError, match="dangling"):
        g.q_product(0.15, np.ones(2))
    g, _ = patch_dangling(g)
    for m in (0.0, 1.0, 1.5, np.nan):
        with pytest.raises(ValueError, match="m must"):
            g.q_product(m, np.ones((2, 3)))


def test_q_product_scales_in_place_only_into_its_vector(rng):
    # the push of every page, q_product(m, z, out=z), scales z in place;
    # every other call leaves v as it was
    g = random_graph(rng, 300)
    v = rng.random(g.n)
    want = g.q_product(0.15, v.copy())
    for out in (None, np.empty(g.n), np.empty(2 * g.n)[::2]):
        kept = v.copy()
        got = g.q_product(0.15, v, out=out)
        np.testing.assert_array_equal(got, want, strict=True)
        np.testing.assert_array_equal(v, kept, strict=True)
    # into itself, a strided vector and a block are written, not scaled
    strided = np.zeros(2 * g.n)[::2]
    strided[:] = v
    block = np.column_stack([v, v])
    for w, expected in ((strided, want), (block, np.column_stack([want, want]))):
        assert g.q_product(0.15, w, out=w) is w
        np.testing.assert_array_equal(w, expected, strict=True)
    assert g.q_product(0.15, v, out=v) is v
    np.testing.assert_array_equal(v, want, strict=True)


def test_self_loops_preserved():
    g = load_edge_list(io.StringIO("0 0\n0 1\n1 0"))
    assert g.indices[g.indptr[0]:g.indptr[1]].tolist() == [0, 1]


def test_trivial_partition():
    g = random_graph(np.random.default_rng(0), 7)
    p = Partition(np.arange(g.n))
    assert p.num_groups == 7
    assert p.sizes.tolist() == [1] * 7


def test_whole_graph_partition():
    g = random_graph(np.random.default_rng(0), 7)
    p = Partition(np.zeros(g.n, int))
    assert p.num_groups == 1
    assert p.sizes.tolist() == [7]


def test_partition_from_file():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    p = load_partition(io.StringIO("0 0\n1 0\n2 1"), g)
    assert p.num_groups == 2
    assert p.members[0].tolist() == [0, 1]
    assert p.members[1].tolist() == [2]


def test_partition_labels_densified():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    p = load_partition(io.StringIO("0 9\n1 5\n2 9"), g)
    assert p.num_groups == 2
    assert p.group_of.tolist() == [1, 0, 1]


def test_partition_missing_and_duplicate_pages_listed():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    with pytest.raises(ValueError, match=r"unassigned pages \[2\]"):
        load_partition(io.StringIO("0 0\n1 0"), g)
    with pytest.raises(ValueError, match=r"doubly-assigned pages \[1\]"):
        load_partition(io.StringIO("0 0\n1 0\n1 1\n2 1"), g)


def test_partition_error_names_at_most_10_pages_of_each_kind():
    g = load_edge_list(Path(__file__).resolve().parent / "data" / "web60.txt")
    with pytest.raises(ValueError) as info:
        load_partition(io.StringIO("0 0\n"), g)
    assert str(info.value) == ("invalid partition: doubly-assigned pages [], "
                               "unassigned pages [1, 2, 3, 4, 5, 6, 7, 8, 9, "
                               "10] and 49 more")


def test_partition_bad_line():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    with pytest.raises(ParseError, match="line 1"):
        load_partition(io.StringIO("0 a"), g)


def unique_reference(n, src, dst):
    """CSR arrays of a graph built with np.unique over the link keys."""
    key = np.unique(np.asarray(src, dtype=np.int64) * n + np.asarray(dst))
    src, dst = np.divmod(key, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, dst


@pytest.mark.parametrize("index_base", [0, 1])
def test_loader_matches_unique_reference(index_base, tmp_path):
    rng = np.random.default_rng(17 + index_base)
    for n in (2, 5, 60, 700):
        # unsorted links with duplicates and self-loops; pages may dangle
        k = int(rng.integers(1, 6 * n))
        src = rng.integers(0, n, size=k)
        dst = rng.integers(0, n, size=k)
        src[0], dst[0] = n - 1, n - 1          # fixes the page count
        dup = rng.integers(0, k, size=k // 3)
        src, dst = np.concatenate([src, src[dup]]), np.concatenate([dst, dst[dup]])
        order = rng.permutation(src.size)
        src, dst = src[order], dst[order]
        lines = []
        for s, d in zip(src + index_base, dst + index_base):
            if rng.random() < 0.1:
                lines.append("# a comment")
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "   ", "\t"]))
            lines.append(f"{s} {d}")
        # the same text from a file, with CRLF line ends and trailing
        # comments, which numpy reads from its path
        path = tmp_path / f"g{n}.txt"
        path.write_bytes("\r\n".join(
            line + "  # c" * (i % 7 == 3) for i, line in enumerate(lines)
        ).encode())
        indptr, indices = unique_reference(n, src, dst)
        for source in (io.StringIO("\n".join(lines)), path, str(path)):
            g = load_edge_list(source, index_base=index_base)
            assert g.n == n
            np.testing.assert_array_equal(g.indptr, indptr)
            np.testing.assert_array_equal(g.indices, indices)
        h = WebGraph(n, src, dst)
        np.testing.assert_array_equal(h.indptr, indptr)
        np.testing.assert_array_equal(h.indices, indices)


@pytest.mark.parametrize("index_base", [0, 1])
def test_narrow_parse_matches_unique_reference(index_base, tmp_path,
                                               narrow_parse):
    test_loader_matches_unique_reference(index_base, tmp_path)


def test_link_arrays_must_be_1d_and_of_one_length():
    with pytest.raises(ValueError, match=r"shapes \(3,\) and \(1,\)"):
        WebGraph(5, [0, 1, 2], [3])          # would broadcast to 0->3, 1->3, 2->3
    with pytest.raises(ValueError, match=r"shapes \(2, 1\) and \(2, 1\)"):
        WebGraph(5, [[0], [1]], [[1], [2]])
    with pytest.raises(ValueError, match=r"shapes \(\) and \(\)"):
        WebGraph(5, 0, 1)
    assert WebGraph(5, [], []).indptr.tolist() == [0] * 6


def test_build_allocates_about_two_words_per_link():
    rng = np.random.default_rng(5)
    n, k = 1000, 100_000
    src = rng.integers(0, n, size=k, dtype=np.intp)
    dst = rng.integers(0, n, size=k, dtype=np.intp)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = WebGraph(n, src, dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sorted keys, a byte per link to find duplicates and the kept keys,
    # which become g.indices
    beyond = peak - before - g.indptr.nbytes - g.indices.nbytes
    assert beyond <= 2.5 * 8 * k


def test_load_frees_the_parse_before_the_build(tmp_path):
    # the parse (16 B per link) and the link keys (8 B) are the high-water
    # mark: the pairs are freed before the keys are sorted, deduplicated
    # and cut into the graph's arrays, int32 `indices` among them
    rng = np.random.default_rng(5)
    n, k = 1000, 100_000
    for index_base in (0, 1):
        path = tmp_path / f"links{index_base}.txt"
        np.savetxt(path, rng.integers(index_base, n + index_base, size=(k, 2)),
                   fmt="%d")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = load_edge_list(path, index_base=index_base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 26 * k
        assert g.indices.dtype == np.int32


def test_load_peaks_at_two_words_per_link(tmp_path):
    # a text at the size gate or above parses as int32 (8 B per link), freed
    # once the int64 link keys (8 B) exist, and distinct keys are not
    # copied, so the high-water mark is the pairs and the keys, or the keys
    # and their duplicate mask (1 B), with 64 KiB for small temporaries;
    # int64 pairs beside the keys held 24 B
    rng = np.random.default_rng(5)
    n, k = 20_000, 200_000
    key = rng.choice(n * n, size=k, replace=False)
    path = tmp_path / "links.txt"
    np.savetxt(path, np.column_stack(np.divmod(key, n)), fmt="%10d")
    assert path.stat().st_size >= webgraph._NARROW_PARSE_BYTES
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges == k
    assert peak - before <= 17 * k + (1 << 16)


def test_bound_checks_take_no_column_sized_temporary(tmp_path):
    # the rules are checked on the columns' minima and maxima, so a checked
    # read costs what the parse does (16 B per link and about 1 B of the
    # parser's); comparing whole columns took 3 B per link more, which the
    # allocator kept resident through the load's peak
    rng = np.random.default_rng(5)
    n, k = 1000, 100_000
    path = tmp_path / "links.txt"
    np.savetxt(path, rng.integers(0, n, size=(k, 2)), fmt="%d")
    rules = [(lambda s, d: (s < 0) | (d < 0), None),
             (lambda s, d: (s >= n) | (d >= n), None)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = webgraph._read_rows(path, "src dst", rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs.shape == (k, 2)
    assert peak - before <= 17.5 * k


def test_numbers_outside_int32_are_read_exactly():
    # a narrower parse must not wrap a page number or a group label
    rows = webgraph._read_rows(io.StringIO("0 2147483648\n"), "src dst")
    assert rows.dtype == np.int64 and rows.tolist() == [[0, 2**31]]
    text = "0 5000000000\n1 -7\n"
    rows = webgraph._read_rows(io.StringIO(text), "page group")
    assert rows.tolist() == [[0, 5_000_000_000], [1, -7]]
    p = load_partition(io.StringIO(text), load_edge_list(io.StringIO("0 1")))
    assert [m.tolist() for m in p.members] == [[1], [0]]


def test_narrow_parse_reads_numbers_outside_int32_exactly(narrow_parse):
    test_numbers_outside_int32_are_read_exactly()


def test_link_keys_past_int32_do_not_wrap():
    # 50,000 * 50,001 is past int32: the keys are made in int64
    g = load_edge_list(io.StringIO("50000 1\n1 50000\n"))
    assert g.n == 50_001
    assert g.out_links(np.array([1, 50_000]))[1].tolist() == [50_000, 1]


def test_narrow_parse_link_keys_do_not_wrap(narrow_parse):
    test_link_keys_past_int32_do_not_wrap()


def test_index_dtype_is_int32_while_every_page_number_fits():
    # decided from the counts alone, so the boundary costs no allocation
    many = webgraph._INT32_MIN_LINKS
    assert webgraph._index_dtype(2**31, many) == np.int32   # pages 0..2^31-1
    assert webgraph._index_dtype(2**31 + 1, many) == np.intp
    assert webgraph._index_dtype(webgraph.MAX_PAGES, 2**40) == np.intp
    assert webgraph._index_dtype(2**31, many - 1) == np.intp
    assert WebGraph(3, [0, 1, 2], [1, 2, 0]).indices.dtype == np.intp
    g = WebGraph(many, np.arange(many), (np.arange(many) + 1) % many)
    assert g.indices.dtype == np.int32 and g.indptr.dtype == np.intp


def test_out_links_are_intp_from_an_int32_graph(monkeypatch):
    monkeypatch.setattr(webgraph, "_INT32_MIN_LINKS", 0)
    g = WebGraph(4, [0, 0, 1, 3, 3, 3], [1, 2, 3, 0, 1, 2])
    assert g.indices.dtype == np.int32
    degree, targets = g.out_links(np.array([3, 0, 2], dtype=np.intp))
    assert degree.dtype == targets.dtype == np.intp
    assert degree.tolist() == [3, 2, 0]
    assert targets.tolist() == [0, 1, 2, 1, 2]
    # offsets past 2^31 added to them do not wrap
    assert (targets + 2**31).min() == 2**31


def test_partition_members_match_flatnonzero_reference():
    rng = np.random.default_rng(3)
    labels = rng.choice([-7, 2, 5, 40, 41, 1000], size=300)  # not contiguous
    for p in (Partition(labels), Partition(np.arange(50)),
              Partition(np.zeros(50, int))):
        dense = np.unique(p.group_of, return_inverse=True)[1]
        np.testing.assert_array_equal(p.group_of, dense)
        reference = [np.flatnonzero(p.group_of == h) for h in range(p.num_groups)]
        assert len(p.members) == p.num_groups
        for mem, ref in zip(p.members, reference):
            assert mem.dtype == ref.dtype
            np.testing.assert_array_equal(mem, ref)
        np.testing.assert_array_equal(p.sizes, [ref.size for ref in reference])
    assert Partition(labels).num_groups == 6
    assert Partition(labels).members[0].tolist() == np.flatnonzero(labels == -7).tolist()


# comment and blank lines come first, so line N counts them
PREAMBLE = "# pages\n\n   \n0 1\n# more\n\n"
BAD_LINE = 7


EDGE_LIST_ERRORS = [
    ("3", 0, "expected 'src dst'"),
    ("1 2 3", 0, "expected 'src dst'"),
    ("1 x", 0, "expected two integers"),
    ("1 2.0", 0, "expected two integers"),
    ("1_000 2", 0, "expected two integers"),       # int() accepts it
    ("\u0661 2", 0, "expected two integers"),      # ARABIC-INDIC DIGIT ONE
    ("1 99999999999999999999", 0, "integer does not fit 64 bits"),
    ("-9223372036854775809 1", 0, "integer does not fit 64 bits"),
    ("0 3", 1, "index below base 1"),
    ("-1 3", 0, "index below base 0"),
    ("1 99999999999", 0, "index 99999999999 exceeds the limit"),
]


@pytest.mark.parametrize("line, index_base, message", EDGE_LIST_ERRORS)
def test_edge_list_error_names_the_line(line, index_base, message):
    text = PREAMBLE.replace("0 1", "1 2") + line + "\n2 1\n"
    with pytest.raises(ParseError, match=f"line {BAD_LINE}: {message}"):
        load_edge_list(io.StringIO(text), index_base=index_base)


@pytest.mark.parametrize("line, index_base, message", EDGE_LIST_ERRORS)
def test_narrow_parse_error_names_the_line(line, index_base, message,
                                           narrow_parse):
    # int32 refuses the numbers it cannot hold, and the int64 parse then
    # reads them, or refuses them as the walk does
    test_edge_list_error_names_the_line(line, index_base, message)


def _load_from_pipe(path, feed):
    """`load_edge_list(path)`'s exception while the thread `feed` writes
    into the pipe at `path`. A load that still waits after 30 s fails the
    test, once a writer that sends nothing has let it go."""
    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    raised = []

    def load():
        try:
            load_edge_list(path)
        except Exception as exc:
            raised.append(exc)
    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    loader.join(30)
    if loader.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        loader.join(30)
        pytest.fail(f"loading {path} waited for a second writer")
    writer.join(30)
    assert not writer.is_alive()
    assert raised, f"loading {path} raised nothing"
    return raised[0]


def test_named_pipe_is_read_once(tmp_path):
    # a FIFO cannot be opened again to name the bad line: its text is held
    fifo = tmp_path / "links"
    os.mkfifo(fifo)
    error = _load_from_pipe(fifo, lambda: fifo.write_text("0 1\n1 x\n"))
    assert isinstance(error, ParseError)
    assert str(error).startswith("line 2: expected two integers")


def test_descriptor_pipe_is_read_once():
    # a /dev/fd pipe opened again reads nothing: its text is held
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    read, write = os.pipe()

    def feed():
        with os.fdopen(write, "w") as fh:
            fh.write("0 1\n1 x\n")
    try:
        error = _load_from_pipe(f"/dev/fd/{read}", feed)
    finally:
        os.close(read)
    assert isinstance(error, ParseError)
    assert str(error).startswith("line 2: expected two integers")


@pytest.mark.parametrize("line, message", [
    ("1", "expected 'page group'"),
    ("1 0 0", "expected 'page group'"),
    ("1 zero", "expected two integers"),
    ("1 1_0", "expected two integers"),
    ("1 \u0661", "expected two integers"),
    ("1 99999999999999999999", "integer does not fit 64 bits"),
    ("3 0", r"page 3 outside 0\.\.2"),
    ("-1 0", r"page -1 outside 0\.\.2"),
])
def test_partition_error_names_the_line(line, message):
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    with pytest.raises(ParseError, match=f"line {BAD_LINE}: {message}"):
        load_partition(io.StringIO(PREAMBLE + line + "\n2 1\n"), g)


def test_first_bad_line_is_named():
    # a range error before a syntax error is still the one reported
    with pytest.raises(ParseError, match="line 2: index below base"):
        load_edge_list(io.StringIO("1 2\n0 1\n1 x\n"), index_base=1)
    with pytest.raises(ParseError, match="line 3: expected two integers"):
        load_edge_list(io.StringIO("1 2\n2 1\n1 x\n0 1\n"), index_base=1)


def test_trailing_comment_accepted(tmp_path):
    g = load_edge_list(io.StringIO("0 1  # first link\n1 0# second\n"))
    assert g.indices.tolist() == [1, 0]
    p = load_partition(io.StringIO("0 4 # group four\n1 4\n"), g)
    assert p.members[0].tolist() == [0, 1]
    path = tmp_path / "g.txt"
    path.write_bytes(b"0 1 # a\r\n1 0\r\n")
    assert load_edge_list(path).indices.tolist() == [1, 0]
    # the line walk that names a bad line reads comments the same way
    with pytest.raises(ParseError, match="line 2: expected two integers"):
        load_edge_list(io.StringIO("0 1 # a\n1 x # b\n"))


def test_text_and_file_read_line_ends_alike(tmp_path):
    text = "# cr\r0 1\r1 2\r\n2 0\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    for g in (load_edge_list(io.StringIO(text)), load_edge_list(path)):
        assert g.indices.tolist() == [1, 2, 0]


def test_parse_failure_without_a_bad_line_keeps_loadtxt_message():
    # loadtxt reads \v as a field separator where str.splitlines breaks the
    # line, so every line looks right to the walk
    with pytest.raises(ParseError, match="number of columns changed"):
        load_edge_list(io.StringIO("0 1\n0 1\x0b1 0\n"))


@pytest.mark.parametrize("text", ["", "# only\n\n# comments\n", "\n  \n"])
def test_empty_input_raises_without_warning(text, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for source in (io.StringIO(text), path):
            with pytest.raises(ValueError, match=r"describes 0 page\(s\)"):
                load_edge_list(source)
        with pytest.raises(ValueError, match=r"unassigned pages \[0, 1, 2\]"):
            load_partition(io.StringIO(text), g)


def test_page_limit_checked_before_allocation():
    from pushrank.webgraph import MAX_PAGES
    # the largest n whose link key src*n + dst fits int64
    assert (MAX_PAGES**2 - 1 < 2**63) and (MAX_PAGES + 1)**2 - 1 >= 2**63
    for n in (MAX_PAGES + 1, 10**11, 2**62):
        with pytest.raises(ValueError, match="exceed the limit"):
            WebGraph(n, [0], [1])
    with pytest.raises(ParseError, match="line 2: index 3037000499 exceeds"):
        load_edge_list(io.StringIO(f"0 1\n1 {MAX_PAGES}\n{MAX_PAGES} 0\n"))
    with pytest.raises(ParseError, match="line 1: index 3037000500 exceeds"):
        load_edge_list(io.StringIO(f"{MAX_PAGES + 1} 1\n"), index_base=1)


def test_only_plain_files_go_by_path(tmp_path):
    text = "0 1\n1 0\n"
    for name in ("g.txt", "g.gz", "g.txt.bz2", "g.xz", "g.lzma"):
        (tmp_path / name).write_text(text)
    with open(tmp_path / "g.txt") as plain:
        assert webgraph._path_or_stream(plain) == str(tmp_path / "g.txt")
    for name in ("g.gz", "g.txt.bz2", "g.xz", "g.lzma"):
        with open(tmp_path / name) as compressed:
            assert webgraph._path_or_stream(compressed) is compressed
    stream = io.StringIO(text)
    assert webgraph._path_or_stream(stream) is stream


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_missing_file_is_not_replaced_by_its_compressed_twin(
        suffix, tmp_path, capsys):
    # handed a missing path, np.loadtxt would read <path>.gz and the like
    compress = {".gz": gzip.compress, ".bz2": bz2.compress,
                ".xz": lzma.compress,
                ".lzma": partial(lzma.compress, format=lzma.FORMAT_ALONE)}
    graph = tmp_path / "g.txt"
    Path(f"{graph}{suffix}").write_bytes(compress[suffix](b"0 1\n1 0\n"))
    with pytest.raises(FileNotFoundError):
        load_edge_list(graph)
    assert cli.main(["sync", "--graph", str(graph)]) == cli.EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_compressed_file_is_read_as_text(tmp_path, capsys):
    # np.loadtxt decompresses by suffix; the loader reads the bytes as UTF-8
    # and names the first line that is not (gzip's magic bytes 1f 8b)
    graph = tmp_path / "g.gz"
    graph.write_bytes(gzip.compress(b"0 1\n1 0\n"))
    with pytest.raises(ParseError, match="line 1: 'utf-8' codec can't decode"):
        load_edge_list(graph)
    assert cli.main(["sync", "--graph", str(graph)]) == cli.EXIT_CONFIG
    assert "can't decode" in capsys.readouterr().err


@pytest.mark.parametrize("text", [b"0 1\n1 0\n2 \xff\n0 2\n",
                                  b"0 1\n1 0\n# caf\xe9\n0 2\n"])
def test_undecodable_byte_names_its_line(text, tmp_path, capsys):
    # a byte that is not UTF-8 is refused by line, in a comment too, as
    # in a partition; the lines around it still count as lines
    graph = tmp_path / "g.txt"
    graph.write_bytes(text)
    with pytest.raises(ParseError, match="^line 3: 'utf-8' codec can't "
                                         "decode byte 0x(ff|e9)"):
        load_edge_list(graph)
    assert cli.main(["sync", "--graph", str(graph)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: line 3: ")
    part = tmp_path / "p.txt"
    part.write_bytes(text.replace(b"0 2", b"2 0"))
    good = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    with pytest.raises(ParseError, match="^line 3: 'utf-8' codec"):
        load_partition(part, good)


def test_url_graph_opens_no_socket(tmp_path, monkeypatch):
    # np.loadtxt downloads a URL; the loader opens it as a local path
    opened = []
    monkeypatch.setattr(socket, "socket",
                        lambda *a, **k: opened.append(a) or 1 / 0)
    monkeypatch.setattr(socket, "create_connection",
                        lambda *a, **k: opened.append(a) or 1 / 0)
    monkeypatch.chdir(tmp_path)
    url = "http://127.0.0.1:9/g.txt"
    with pytest.raises(FileNotFoundError):
        load_edge_list(url)
    assert cli.main(["sync", "--graph", url]) == cli.EXIT_IO
    assert opened == []
