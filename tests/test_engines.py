import functools
import io
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

from pushrank import (DenseOracle, GroupFactors, Partition, Schedule, WebGraph,
                      engines, init_state, load_edge_list, patch_dangling, run,
                      webgraph)

from conftest import copy_state, graph_from_lists, random_graph
from oracles import (analytic_mean_trace, neumann_partial, next_set, q_matrix,
                     run_step_by_step, step_set)

M = 0.15


def cycle2():
    return load_edge_list(io.StringIO("0 1\n1 0"))


def patched_chain():
    g, _ = patch_dangling(load_edge_list(io.StringIO("0 1")))
    return g


# -- initialization -------------------------------------------------------

def test_init_uniform_seven_pages():
    st = init_state(7, M)
    np.testing.assert_allclose(st.x, np.full(7, M / 7))
    np.testing.assert_array_equal(st.x, st.z)
    assert abs(st.x[0] - 0.0214286) < 1e-7
    assert st.step == 0 and st.cumulative_updates == 0


def test_init_half_m():
    st = init_state(2, 0.5)
    np.testing.assert_array_equal(st.x, [0.25, 0.25])


# -- synchronous steps (every page pushes) ---------------------------------

def test_step_sync_hand_values():
    st = init_state(2, M)
    step_set(st, cycle2(), M, [0, 1])
    np.testing.assert_allclose(st.x, [0.13875, 0.13875], atol=1e-16)
    np.testing.assert_allclose(st.z, [0.06375, 0.06375], atol=1e-16)
    assert st.step == 1 and st.cumulative_updates == 2


def test_step_sync_absorbing_when_z_zero():
    g = cycle2()
    st = init_state(2, M)
    st.z[:] = 0.0
    before = copy_state(st)
    step_set(st, g, M, np.arange(g.n))
    np.testing.assert_array_equal(st.x, before.x)
    np.testing.assert_array_equal(st.z, 0.0)
    assert st.step == 1


def test_sync_trajectory_is_partial_sum(rng):
    g = random_graph(rng, 30)
    st = init_state(g.n, M)
    for k in range(60):
        np.testing.assert_array_equal(st.x, neumann_partial(g, M, k))
        step_set(st, g, M, np.arange(g.n))


# -- set steps ------------------------------------------------------------

def test_step_set_singleton_hand_values():
    st = init_state(2, M)
    step_set(st, cycle2(), M, [0])
    np.testing.assert_allclose(st.x, [0.075, 0.13875], atol=1e-16)
    np.testing.assert_allclose(st.z, [0.0, 0.13875], atol=1e-16)
    assert st.cumulative_updates == 1


def test_step_set_empty_is_noop():
    g = cycle2()
    st = init_state(2, M)
    before = copy_state(st)
    step_set(st, g, M, [])
    np.testing.assert_array_equal(st.x, before.x)
    np.testing.assert_array_equal(st.z, before.z)
    assert st.step == 1 and st.cumulative_updates == 0


def test_step_set_full_matches_sync(rng):
    # the synchronous step x += Qz, z = Qz, with Q built independently
    g = random_graph(rng, 40, allow_self=True)
    q = q_matrix(g, M)
    st = init_state(g.n, M)
    for _ in range(5):
        qz = q @ st.z
        x_want = st.x + qz
        step_set(st, g, M, np.arange(g.n))
        np.testing.assert_array_equal(st.x, x_want)
        np.testing.assert_array_equal(st.z, qz)


def test_step_set_is_masked_matvec(rng):
    # any set phi: x += Q (mask z), z = (1 - mask) z + Q (mask z), bit for bit
    sparse_links = random_graph(rng, 40, mean_out=1.0, patched=False)
    assert sparse_links.dangling_pages().size > 0
    for g in (random_graph(rng, 40, allow_self=True),
              patch_dangling(sparse_links)[0]):
        q = q_matrix(g, M)
        st = init_state(g.n, M)
        for k in range(60):
            if k % 10 == 9:
                mask = np.ones(g.n, dtype=bool)
            else:
                mask = rng.random(g.n) < rng.choice([0.05, 0.3, 0.9])
            inflow = q @ np.where(mask, st.z, 0.0)
            x_want = st.x + inflow
            z_want = np.where(mask, 0.0, st.z) + inflow
            step_set(st, g, M, np.flatnonzero(mask))
            np.testing.assert_array_equal(st.x, x_want)
            np.testing.assert_array_equal(st.z, z_want)


def test_every_push_path_is_masked_matvec(rng):
    # single pages, gathered sets from two pages to all but one, and the
    # mat-vec of every page, on a graph with pages of every out-degree
    g = random_graph(rng, 500, mean_out=6.0, allow_self=True)
    q = q_matrix(g, M)
    st = init_state(g.n, M)
    for size in [1, 2, 3, 10, 21, 100, 300, g.n - 1, g.n] * 4:
        phi = rng.choice(g.n, size=size, replace=False)
        mask = np.zeros(g.n, dtype=bool)
        mask[phi] = True
        inflow = q @ np.where(mask, st.z, 0.0)
        x_want = st.x + inflow
        z_want = np.where(mask, 0.0, st.z) + inflow
        step_set(st, g, M, phi)
        np.testing.assert_array_equal(st.x, x_want)
        np.testing.assert_array_equal(st.z, z_want)


@functools.cache
def pull_graph(name):
    """A graph for the push of every page, built afresh on each call of
    `with_fresh_diagonals`."""
    rng = np.random.default_rng(24)
    if name == "no_inlinks":          # pages 2 and 5 have no in-links
        return graph_from_lists(6, [[1], [0, 3], [1, 4], [0], [3, 1], [0]])
    if name == "self_loops":          # each page links to itself and on
        return graph_from_lists(700, [[j, (j + 1) % 700, (j * 7) % 700]
                                      for j in range(700)])
    if name == "patched_dense":
        # k = 50 pages keep their links, the other n - k dangle and are
        # patched, so every row has at least n - k in-links
        n, k = 600, 50
        return patch_dangling(graph_from_lists(n, [
            rng.choice(n, size=3, replace=False) if j < k else []
            for j in range(n)]))[0]
    if name == "hub":                 # page 0 has 891 in-links, others ~3
        src = np.arange(1500).repeat(4)
        dst = rng.integers(0, 1500, src.size)
        dst[rng.random(src.size) < 0.2] = 0
        return WebGraph(1500, src, dst)
    return random_graph(rng, 20_000, mean_out=6.0, allow_self=True)


def with_fresh_diagonals(name):
    """`pull_graph(name)` rebuilt, so that its diagonals are laid out
    anew, with today's `webgraph.MIN_DIAGONAL`."""
    g = pull_graph(name)
    return WebGraph(g.n, np.repeat(np.arange(g.n), g.out_degree), g.indices)


PULL_GRAPHS = ["no_inlinks", "self_loops", "patched_dense", "hub",
               "random_20000"]


@pytest.mark.parametrize("min_diagonal", [1, webgraph.MIN_DIAGONAL])
@pytest.mark.parametrize("name", PULL_GRAPHS)
def test_every_page_push_is_the_csc_product_bit_for_bit(name, min_diagonal,
                                                         monkeypatch, rng):
    # scipy only on this side: the product over the in-link diagonals, a
    # vector's over their short tail too, sums each row from 0.0 in CSC
    # order, as Q @ v does, for vectors and blocks, a ragged last block of
    # replicas passed as a transposed view included, and block by block
    # or column by column (the hub's one-row diagonals); a vector's long
    # diagonals in blocks of rows of any size (partial last blocks, and
    # diagonals that end inside a block), by the caller alone or beside
    # the helper thread; the push of every page takes it in place
    monkeypatch.setattr(webgraph, "MIN_DIAGONAL", min_diagonal)
    g = with_fresh_diagonals(name)
    q = q_matrix(g, M)
    replicas = rng.random((88, g.n))
    for v in (replicas[:1].T.copy(), replicas[:81].T.copy(),
              replicas[81:].T):
        np.testing.assert_array_equal(g.q_product(M, v), q @ v, strict=True)
    # the push of every page below runs with the last setting
    for block_rows, cpus in [(webgraph._BLOCK_ROWS, 2), (64, 1), (64, 2),
                             (7, 2)]:
        monkeypatch.setattr(webgraph, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(webgraph, "_cpus", lambda: cpus)
        np.testing.assert_array_equal(g.q_product(M, replicas[0]),
                                      q @ replicas[0], strict=True)
    st = init_state(g.n, M)
    st.z[:] = rng.random(g.n)
    for _ in range(3):
        qz = q @ st.z
        x_want = st.x + qz
        step_set(st, g, M, np.arange(g.n))
        np.testing.assert_array_equal(st.z, qz)
        np.testing.assert_array_equal(st.x, x_want)


class Boom(Exception):
    pass


class Poisoned(np.ndarray):
    """A buffer whose every slice raises `Boom`."""

    def __getitem__(self, key):
        raise Boom


class PoisonedHelper(threading.Thread):
    """`q_product`'s helper thread, pulling into a `Poisoned` buffer; it
    runs to its end as it starts, so that it takes the first block."""

    def __init__(self, target, args):
        super().__init__(target=target, args=(
            *args[:3], args[3].view(Poisoned), *args[4:]))

    def start(self):
        super().start()
        self.join(timeout=60)
        assert not self.is_alive()


def test_an_exception_in_the_helper_thread_is_raised_by_the_product(
        monkeypatch):
    g = pull_graph("self_loops")
    monkeypatch.setattr(webgraph, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(webgraph, "_cpus", lambda: 2)
    monkeypatch.setattr(webgraph, "threading",
                        types.SimpleNamespace(Thread=PoisonedHelper))
    with pytest.raises(Boom):
        g.q_product(M, np.ones(g.n))


def test_blocks_shared_at_a_short_switch_interval_are_each_pulled_once(
        monkeypatch):
    # the helper and the caller pop 2,858 blocks of 7 rows while the
    # interpreter switches threads every 10 us: a block pulled twice
    # or not at all would change the product
    g = pull_graph("random_20000")
    q = q_matrix(g, M)
    vectors = np.random.default_rng(6).random((2, g.n))
    monkeypatch.setattr(webgraph, "_BLOCK_ROWS", 7)
    monkeypatch.setattr(webgraph, "_cpus", lambda: 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        products = [g.q_product(M, v) for v in vectors]
    finally:
        sys.setswitchinterval(interval)
    for v, product in zip(vectors, products):
        np.testing.assert_array_equal(product, q @ v, strict=True)


def test_one_cpu_pulls_every_block_without_a_helper(monkeypatch):
    def no_thread(**kwargs):
        raise AssertionError("a helper thread on one CPU")

    g = pull_graph("self_loops")
    v = np.random.default_rng(5).random(g.n)
    want = q_matrix(g, M) @ v
    monkeypatch.setattr(webgraph, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(webgraph.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(webgraph, "threading",
                        types.SimpleNamespace(Thread=no_thread))
    np.testing.assert_array_equal(g.q_product(M, v), want, strict=True)


@pytest.mark.parametrize("min_diagonal", [1, 40, webgraph.MIN_DIAGONAL])
@pytest.mark.parametrize("name", PULL_GRAPHS[:-1])
def test_in_link_diagonals_hold_every_link_once_in_row_order(name,
                                                              min_diagonal,
                                                              monkeypatch):
    monkeypatch.setattr(webgraph, "MIN_DIAGONAL", min_diagonal)
    g = with_fresh_diagonals(name)
    position, diagonals, long, tail_rows, tail_senders = g.in_diagonals()
    assert g.in_diagonals()[1] is diagonals           # cached
    in_degree = np.bincount(g.indices, minlength=g.n)
    # rows by falling in-degree, ties in ascending page order
    order = np.argsort(position)
    np.testing.assert_array_equal(np.sort(position), np.arange(g.n))
    np.testing.assert_array_equal(order, np.lexsort((np.arange(g.n),
                                                     -in_degree)))
    # diagonal sizes never increase, and diagonal p covers the rows with
    # more than p in-links; the first `long` have `MIN_DIAGONAL` rows or more
    sizes = [d.size for d in diagonals]
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    assert all(size >= min_diagonal for size in sizes[:long])
    assert all(size < min_diagonal for size in sizes[long:])
    np.testing.assert_array_equal(
        sizes, [(in_degree > p).sum() for p in range(in_degree.max())])
    # the tail is the short diagonals one after another, row by row, and
    # a view of the array that holds every diagonal: no link is stored twice
    short = diagonals[long:]
    np.testing.assert_array_equal(
        tail_rows, np.concatenate([np.arange(d.size) for d in short] + [[]]))
    np.testing.assert_array_equal(
        tail_senders, np.concatenate(list(short) + [np.empty(0, np.intp)]))
    base = diagonals[0].base
    assert base.size == g.num_edges
    assert all(d.base is base for d in diagonals) and tail_senders.base is base
    # every link exactly once, each row's senders ascending
    rows = np.concatenate([np.arange(d.size) for d in diagonals])
    senders = np.concatenate(diagonals)
    by_row = np.argsort(rows, kind="stable")     # each row's in diagonal order
    rows, senders = rows[by_row], senders[by_row]
    assert ((rows[1:] > rows[:-1]) | (senders[1:] > senders[:-1])).all()
    links = np.repeat(np.arange(g.n), g.out_degree) + g.indices * g.n
    np.testing.assert_array_equal(np.sort(order[rows] * g.n + senders),
                                  np.sort(links))


def test_partial_sets_push_on_an_unpatched_graph():
    # only the set of every page takes Q's values of every page, which
    # need a patched graph; partial sets, dangling senders included, push
    # without them
    g = graph_from_lists(30, [[1], [2], [0]] + [[]] * 27)
    st = init_state(g.n, M)
    step_set(st, g, M, [1, 5])
    assert st.z[1] == 0.0 and st.z[5] == 0.0
    assert st.z[2] == st.x[2] == M / 30 + (1.0 - M) * (M / 30)


def test_step_mutates_its_state():
    g = cycle2()
    st = init_state(2, M)
    x, z = st.x, st.z
    assert step_set(st, g, M, [0]) is None
    assert st.x is x and st.z is z
    np.testing.assert_allclose(x, [0.075, 0.13875], atol=1e-16)
    assert st.step == 1 and st.cumulative_updates == 1


def test_step_set_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        step_set(init_state(2, M), cycle2(), M, [2])


def test_step_set_deduplicates():
    g = cycle2()
    once, twice = init_state(2, M), init_state(2, M)
    step_set(once, g, M, [0])
    step_set(twice, g, M, [0, 0])
    np.testing.assert_array_equal(once.x, twice.x)
    assert twice.cumulative_updates == 1


def test_gossip_is_singleton_set_trajectory(rng):
    g = random_graph(rng, 25)
    drawn = Schedule.from_spec("uniform", g.n, 99)
    sets = [next_set(drawn) for _ in range(400)]
    st_a, _ = run(g, M, Schedule.from_spec("uniform", g.n, 99), steps=400)
    st_b, _ = run(g, M, Schedule("file", n=g.n, sequence=sets), steps=400)
    np.testing.assert_array_equal(st_a.x, st_b.x)
    np.testing.assert_array_equal(st_a.z, st_b.z)
    assert st_a.cumulative_updates == st_b.cumulative_updates == 400


# -- segments: runs of independent steps pushed in one call ---------------

def segments_by_hand(graph, sets):
    """Step counts of the segments the conflict rule cuts `sets` into, by a
    plain walk: a step whose sender an earlier step of the segment sent or
    received starts the next segment."""
    n, counts, touched = graph.n, [0], set()
    for phi in sets:
        senders = {int(i) for i in phi}
        if senders & touched:
            counts.append(0)
            touched = set()
        for i in senders:
            page, block = i % n, i - i % n
            links = graph.indices[graph.indptr[page]:graph.indptr[page + 1]]
            touched |= {i} | {block + int(t) for t in links}
        counts[-1] += 1
    return counts


def push_in_segments(state, graph, sets):
    """Push `sets` through `engines._push_segment`, one call per segment,
    with one scratch array of conflict marks, which each call must leave
    as it found it; returns each call's step count."""
    drawn = np.concatenate([np.asarray(p, dtype=np.intp) for p in sets])
    sizes = np.array([len(p) for p in sets])
    marks = np.full(state.z.size, engines._UNMARKED, dtype=np.intp)
    counts = []
    while sizes.size:
        held, every_page = state.z.copy(), sizes[0] == state.z.size
        taken, pushed = engines._push_segment(state, graph, M, drawn, sizes,
                                              marks=marks)
        assert (marks == engines._UNMARKED).all()
        used = sizes[:taken].sum()
        # the residual the senders held, or inf for the set of every page
        assert pushed == (np.inf if every_page
                          else held[drawn[:used]].sum())
        counts.append(taken)
        drawn, sizes = drawn[used:], sizes[taken:]
    return counts


def segment_cases():
    """(name, graph, replicas, sets): sets of stacked pages, each ascending."""
    rng = np.random.default_rng(41)
    g = random_graph(rng, 60, allow_self=True)
    out = g.indices[g.indptr[3]:g.indptr[4]]
    fed = int(out[out != 3][0])              # a page that page 3 pushes into
    yield "page drawn twice", g, 1, [[5], [17], [5], [30]]
    yield "sender pushed into", g, 1, [[3], [fed], [44]]
    yield "empty sets", g, 1, [[], [4], [], [], [11], []]
    yield "multi-page sets", g, 1, [[1, 9, 40], [22, 51], [7], [2, 58]]
    yield "stacked replicas", g, 3, [[2, 67, 122], [62], [], [3, 170],
                                     [5, 65, 125], [2]]
    big = random_graph(rng, 400, allow_self=True)
    sets = [np.sort(rng.choice(big.n, size=rng.choice([0, 1, 1, 1, 2, 4]),
                               replace=False)) for _ in range(300)]
    sets[150] = np.arange(big.n)             # the set of every page
    yield "random sets", big, 1, sets


@pytest.mark.parametrize("name, g, replicas, sets",
                         [pytest.param(*case, id=case[0])
                          for case in segment_cases()])
def test_a_segment_push_equals_its_steps_one_by_one(name, g, replicas, sets):
    got, want = init_state(g.n, M, replicas), init_state(g.n, M, replicas)
    counts = push_in_segments(got, g, sets)
    for phi in sets:
        step_set(want, g, M, phi)
    assert counts == segments_by_hand(g, sets)
    if name != "empty sets":
        assert counts[0] < len(sets)         # the walk found a conflict
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.z, want.z)
    assert got.step == want.step == len(sets)
    assert got.cumulative_updates == want.cumulative_updates


def test_a_segment_ends_at_the_step_reaching_its_update_bound(
        rng, monkeypatch):
    # `run` draws 128 steps ahead, so the draws pending near step 500 reach
    # past the first sweep mark: the segment it pushes must end at the
    # step that reaches the mark, which is then recorded
    g = random_graph(rng, 500, allow_self=True)
    push, calls = engines._push_segment, []

    def counted(*args):
        calls.append(args)
        return push(*args)
    monkeypatch.setattr(engines, "_push_segment", counted)
    state, trace = run(g, M, Schedule.from_spec("uniform", g.n, seed=8),
                       steps=1200)
    monkeypatch.setattr(engines, "_push_segment", push)
    want, want_trace = run_step_by_step(
        g, M, Schedule.from_spec("uniform", g.n, seed=8), steps=1200)
    assert len(calls) < state.step // 4
    assert trace.steps.tolist() == want_trace.steps.tolist() == [0, 500,
                                                                 1000, 1200]
    np.testing.assert_array_equal(trace.cert, want_trace.cert)
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)


# -- invariants -----------------------------------------------------------

def test_monotone_bounded_random_mixes(rng):
    for _ in range(3):
        g = random_graph(rng, int(rng.integers(5, 50)), allow_self=True)
        x_star = DenseOracle(g, M).x_star
        st = init_state(g.n, M)
        for _ in range(300):
            kind = rng.integers(3)
            if kind == 0:
                phi = [int(rng.integers(g.n))]
            elif kind == 1:
                phi = np.flatnonzero(rng.random(g.n) < 0.3)
            else:
                phi = []
            before = st.x.copy()
            step_set(st, g, M, phi)
            assert np.all(st.x >= before - 1e-12)
            assert np.all(st.x <= x_star + 1e-12)
            assert np.all(st.z >= 0.0)


def test_pages_without_inlinks_stay_at_floor(rng):
    # page 0 has no in-links: out-star from 0, others form a cycle
    n = 8
    out = [[1, 2, 3]] + [[(j % (n - 1)) + 1] for j in range(1, n)]
    g = graph_from_lists(n, out)
    assert 0 not in g.indices
    oracle = DenseOracle(g, M)
    assert abs(oracle.x_star[0] - M / n) <= 1e-12
    st = init_state(g.n, M)
    for _ in range(200):
        step_set(st, g, M, np.flatnonzero(rng.random(n) < 0.4))
        assert st.x[0] == M / n
    st, _ = run(g, M, steps=50)
    assert st.x[0] == M / n


def test_conservation_and_certificate(rng):
    g = random_graph(rng, 30)
    oracle = DenseOracle(g, M)
    sched = Schedule.from_spec("uniform", g.n, 5)
    st = init_state(g.n, M)
    # the certificate ||x* - x||_1 = ((1-m)/m) ||z||_1 needs no x*
    assert abs((1 - M) / M * st.z.sum() - (1 - M)) <= 1e-12
    for _ in range(500):
        step_set(st, g, M, next_set(sched))
        assert oracle.conservation_defect(st.x, st.z) <= 1e-10
        assert abs((1 - M) / M * st.z.sum() - oracle.error_l1(st.x)) <= 1e-9
    st.z[:] = 0.0
    assert (1 - M) / M * st.z.sum() == 0.0


# -- run loop -------------------------------------------------------------

def test_run_certificate_stop_guarantees_tol(rng):
    g = random_graph(rng, 20)
    oracle = DenseOracle(g, M)
    st, trace = run(g, M, Schedule.from_spec("uniform", g.n, 3),
                    steps=200_000, tol=1e-8, oracle=oracle)
    assert trace.final_cert <= 1e-8
    assert oracle.error_l1(st.x) <= 1e-8


def test_run_gossip_two_cycle_residual_vanishes():
    g = cycle2()
    st, _ = run(g, M, Schedule.from_spec("uniform", 2, 42), steps=10_000)
    assert st.z.sum() < 1e-8


def test_run_stops_when_sequence_exhausted():
    g = cycle2()
    st, trace = run(g, M, Schedule("file", n=2, sequence=[[0], [1], [0]]),
                    steps=100)
    assert st.step == 3
    assert trace.final_step == 3


def test_run_refuses_a_schedule_over_other_units(rng):
    # a schedule over 10 indices never draws half of 20 pages, so a tol
    # could never be met: it is refused before the first step, as is a
    # page schedule in a group run
    g = random_graph(rng, 20)
    with pytest.raises(ValueError,
                       match="draws from 10 indices, not the run's 20 pages"):
        run(g, M, Schedule.from_spec("uniform", 10, seed=0), steps=20_000,
            tol=1e-3)
    factors = GroupFactors(g, M, Partition(np.arange(g.n) % 4))
    with pytest.raises(ValueError, match="not the run's 4 groups"):
        run(g, M, Schedule.from_spec("roundrobin", g.n), factors=factors,
            steps=5)


@pytest.mark.parametrize("spec", ["roundrobin", "uniform"])
def test_page_set_runs_refuse_dangling_pages(spec):
    # page 2 has no out-links: the mass it receives leaves the system, so z
    # no longer certifies the error, and the run refuses the graph
    g = graph_from_lists(3, [[1], [2], []])
    with pytest.raises(ValueError, match=r"dangling pages \[2\]; patch first"):
        run(g, M, Schedule.from_spec(spec, g.n, seed=0), steps=1000,
            tol=1e-3)


def test_run_with_empty_schedule_is_flat():
    g = cycle2()
    st, trace = run(g, M, Schedule("file", n=2, sequence=[[]] * 20), steps=20)
    np.testing.assert_array_equal(st.x, init_state(2, M).x)
    assert trace.final_updates == 0
    assert trace.cert[0] == trace.cert[-1]


def test_run_round_robin_liveness_and_decay(rng):
    # after s complete sweeps the error is at most the synchronous error
    # at step s, i.e. (1-m)^(s+1)
    g = random_graph(rng, 12)
    oracle = DenseOracle(g, M)
    sweeps = 60
    _, trace = run(g, M, Schedule.from_spec("roundrobin", g.n),
                   steps=sweeps * g.n, oracle=oracle)
    errs = trace.err_l1[:, 0]
    assert errs[-1] <= (1 - M) ** (sweeps + 1)
    # error never increases along the way
    assert np.all(np.diff(errs) <= 1e-12)


def test_gossip_above_1000_pages_records_every_n_steps(rng):
    # one update per step: a sweep of n updates is n steps
    g = random_graph(rng, 1200)
    _, trace = run(g, M, Schedule.from_spec("uniform", g.n, 5),
                   steps=2 * g.n + 7)
    assert trace.steps.tolist() == [0, g.n, 2 * g.n, 2 * g.n + 7]


@pytest.mark.parametrize("spec, steps", [("uniform", None),
                                         ("subset:0.05", 90)])
@pytest.mark.parametrize("n", [60, 1000, 1001])
def test_default_records_fall_at_sweep_crossings_on_any_graph(n, spec, steps):
    # no cliff at 1,000 pages: web60 records where a graph above 1,000
    # pages does, at the first step at or after each n counted updates
    if n == 60:
        g, _ = patch_dangling(load_edge_list(
            Path(__file__).resolve().parent / "data" / "web60.txt"))
    else:
        g = random_graph(np.random.default_rng(n), n)
    assert g.n == n
    steps = steps or 2 * n + 7
    sched = Schedule.from_spec(spec, n, 11)
    counts = np.cumsum([len(next_set(sched)) for _ in range(steps)])
    want = (np.flatnonzero(np.diff(counts // n, prepend=0)) + 1).tolist()
    want = [0] + want + ([] if want[-1] == steps else [steps])
    assert len(want) >= 4
    _, trace = run(g, M, Schedule.from_spec(spec, n, 11), steps=steps)
    assert trace.steps.tolist() == want
    assert trace.updates.tolist() == [0] + counts[np.array(want[1:]) - 1].tolist()


def test_run_requires_some_bound():
    with pytest.raises(ValueError):
        run(cycle2(), M, Schedule.from_spec("roundrobin", 2))
    # a NaN or negative tol can never be met; steps=5 keeps a missing check finite
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="tol"):
            run(cycle2(), M, Schedule.from_spec("roundrobin", 2), steps=5,
                tol=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="cadence"):
            run(cycle2(), M, Schedule.from_spec("roundrobin", 2), steps=5,
                cadence=bad)


def test_mean_trajectory_smoke(rng):
    # sample mean of x(k) across seeded replicas tracks the analytic mean
    g = random_graph(rng, 10)
    p = np.full(g.n, 1 / g.n)
    analytic = analytic_mean_trace(g, M, p, 30)
    reps = 400
    sched = Schedule.from_spec("uniform", g.n, 1000, replicas=reps)
    st, _ = run(g, M, sched, steps=30)
    x = st.x.reshape(reps, g.n)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    bound = 5 * std / np.sqrt(reps) + 1e-12
    assert np.all(np.abs(mean - analytic[30]) <= bound)


@pytest.mark.parametrize("spec, steps", [("uniform", 200), ("subset:0.1", 40)])
def test_mean_certificate_follows_its_closed_form(spec, steps):
    # a push by page i takes m z_i out of ||z||_1, so over random pages the
    # mean certificate decays as (1-m)(1 - m/n)^k for one uniform page per
    # step and (1-m)(1 - m q)^k for subset:q; no oracle is needed
    path = Path(__file__).resolve().parent / "data" / "web60.txt"
    g, _ = patch_dangling(load_edge_list(path))
    reps = 2000
    sched = Schedule.from_spec(spec, g.n, 31, replicas=reps)
    _, trace = run(g, M, sched, steps=steps, cadence=1)
    cert = trace.cert
    assert cert.shape == (steps + 1, reps)
    rate = M / g.n if spec == "uniform" else M * sched.q
    want = (1 - M) * (1 - rate) ** np.arange(steps + 1)
    stderr = cert.std(axis=1, ddof=1) / np.sqrt(reps)
    # every replica holds the same certificate at step 0 (and, as all z_i
    # start equal, after one uniform push): there the stderr is at rounding
    # level and the absolute slack covers the rounding of the mean
    assert np.all(np.abs(cert.mean(axis=1) - want) <= 4 * stderr + 1e-14)
    assert stderr[-1] > 1e-5             # the replicas' draws do differ
