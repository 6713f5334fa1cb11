import io

import numpy as np
import pytest

from pushrank import (Partition, ParseError, WebGraph, load_edge_list,
                      load_partition, parse_edge_list, parse_partition,
                      patch_dangling)

from conftest import random_graph
from oracles import q_column


def test_parse_two_node_cycle():
    g = parse_edge_list("0 1\n1 0")
    assert g.n == 2
    assert g.out_degree.tolist() == [1, 1]
    assert g.out_neighbors(0).tolist() == [1]


def test_parse_one_based_collapses_duplicates():
    g = parse_edge_list("1 2\n1 2\n2 1", index_base=1)
    assert g.n == 2
    assert g.out_degree.tolist() == [1, 1]
    # unsorted, duplicated edges: loader and constructor store the same
    # sorted, deduplicated arrays, which are Q's own
    g = parse_edge_list("3 1\n1 3\n3 1\n1 2\n4 4\n2 4\n1 3\n4 1",
                        index_base=1)
    h = WebGraph(4, [3, 0, 2, 0, 0, 3, 1, 0, 3], [0, 2, 0, 1, 2, 3, 3, 1, 3])
    for graph in (g, h):
        assert graph.indptr.tolist() == [0, 2, 3, 4, 6]
        assert graph.indices.tolist() == [1, 2, 3, 0, 0, 3]
        q = graph.q_matrix(0.15)
        np.testing.assert_array_equal(q.indptr, graph.indptr)
        np.testing.assert_array_equal(q.indices, graph.indices)


def test_parse_dangling_page_allowed():
    g = parse_edge_list("0 1")
    assert g.out_degree.tolist() == [1, 0]
    assert g.dangling_pages().tolist() == [1]
    assert not g.is_stochastic


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("# header\n\n0 1\n  \n1 0\n# trailing\n")
    assert g.n == 2
    assert g.num_edges == 2


def test_parse_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("0 1\nnot an edge\n1 0")
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("0 1\n1 0\n1 2 3")


def test_parse_rejects_tiny_graph():
    with pytest.raises(ValueError, match="at least 2"):
        parse_edge_list("0 0")


def test_parse_rejects_index_below_base():
    with pytest.raises(ParseError, match="below base"):
        parse_edge_list("0 1", index_base=1)


def test_parse_rejects_bad_base():
    with pytest.raises(ValueError):
        parse_edge_list("0 1", index_base=2)


def test_load_edge_list_from_path(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 0\n")
    assert load_edge_list(p).n == 2


def test_patch_cycle_unchanged():
    g = parse_edge_list("0 1\n1 0")
    patched, report = patch_dangling(g)
    assert patched is g
    assert report.size == 0


def test_patch_dangling_uniform_all_pages():
    g, report = patch_dangling(parse_edge_list("0 1"))
    assert report.tolist() == [1]
    assert g.out_neighbors(1).tolist() == [0, 1]
    idx, vals = q_column(g, 0.15, 1)
    assert idx.tolist() == [0, 1]
    np.testing.assert_allclose(vals, [0.425, 0.425])
    # unsorted, duplicated edges around a dangling page
    g, report = patch_dangling(parse_edge_list("2 0\n0 2\n2 0\n0 1"))
    h, _ = patch_dangling(WebGraph(3, [2, 0, 2, 0, 0], [0, 2, 0, 1, 1]))
    assert report.tolist() == [1]
    for graph in (g, h):
        assert graph.indptr.tolist() == [0, 2, 5, 6]
        assert graph.indices.tolist() == [1, 2, 0, 1, 2, 0]
        q = graph.q_matrix(0.15)
        np.testing.assert_array_equal(q.indptr, graph.indptr)
        np.testing.assert_array_equal(q.indices, graph.indices)


def test_patch_isolated_pages_fully_uniform():
    g = WebGraph(3, [], [])
    g, report = patch_dangling(g)
    assert report.tolist() == [0, 1, 2]
    cols = g.q_matrix(0.15).toarray()
    np.testing.assert_allclose(cols, np.full((3, 3), 0.85 / 3))


def test_q_column_single_link():
    g = parse_edge_list("0 1\n1 0")
    idx, vals = q_column(g, 0.15, 0)
    assert idx.tolist() == [1]
    np.testing.assert_array_equal(vals, [0.85])


def test_q_column_two_links():
    g = parse_edge_list("0 1\n0 2\n1 0\n2 0")
    idx, vals = q_column(g, 0.15, 0)
    np.testing.assert_array_equal(vals, [0.425, 0.425])


def test_q_column_sums_to_one_minus_m(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(5, 60)))
        for i in range(g.n):
            _, vals = q_column(g, 0.15, i)
            assert abs(vals.sum() - 0.85) <= 1e-12


def test_q_column_requires_patched():
    g = parse_edge_list("0 1")
    with pytest.raises(ValueError, match="dangling"):
        q_column(g, 0.15, 1)


def test_q_matrix_requires_patched_and_valid_m():
    g = parse_edge_list("0 1")
    with pytest.raises(ValueError, match="dangling"):
        g.q_matrix(0.15)
    g, _ = patch_dangling(g)
    with pytest.raises(ValueError, match="m must"):
        g.q_matrix(1.5)


def test_self_loops_preserved():
    g = parse_edge_list("0 0\n0 1\n1 0")
    assert g.out_neighbors(0).tolist() == [0, 1]


def test_trivial_partition():
    g = random_graph(np.random.default_rng(0), 7)
    p = Partition.trivial(g.n)
    assert p.num_groups == 7
    assert p.sizes.tolist() == [1] * 7


def test_whole_graph_partition():
    g = random_graph(np.random.default_rng(0), 7)
    p = Partition.whole(g.n)
    assert p.num_groups == 1
    assert p.sizes.tolist() == [7]


def test_partition_from_file():
    g = parse_edge_list("0 1\n1 2\n2 0")
    p = parse_partition("0 0\n1 0\n2 1", g)
    assert p.num_groups == 2
    assert p.members[0].tolist() == [0, 1]
    assert p.members[1].tolist() == [2]


def test_partition_labels_densified():
    g = parse_edge_list("0 1\n1 2\n2 0")
    p = parse_partition("0 9\n1 5\n2 9", g)
    assert p.num_groups == 2
    assert p.group_of.tolist() == [1, 0, 1]


def test_partition_missing_and_duplicate_pages_listed():
    g = parse_edge_list("0 1\n1 2\n2 0")
    with pytest.raises(ValueError, match=r"unassigned pages \[2\]"):
        parse_partition("0 0\n1 0", g)
    with pytest.raises(ValueError, match=r"doubly-assigned pages \[1\]"):
        parse_partition("0 0\n1 0\n1 1\n2 1", g)


def test_partition_bad_line():
    g = parse_edge_list("0 1\n1 0")
    with pytest.raises(ParseError, match="line 1"):
        load_partition(io.StringIO("0 a"), g)

