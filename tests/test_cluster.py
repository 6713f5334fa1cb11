import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pushrank import (DenseOracle, GroupFactors, NumericalFailure, Partition,
                      Schedule, WebGraph, cli, engines, init_state,
                      load_edge_list, load_partition, patch_dangling, run)
from pushrank.cluster import _REST_FRACTION

from conftest import (community_graph, copy_state, random_graph,
                      random_partition)
from oracles import (next_set, q_matrix, step_group, step_group_full_block,
                     step_set)

M = 0.15
DATA = Path(__file__).resolve().parent / "data"


def grouped_graph(kind, rng):
    """(graph, partition): the golden community700 files (one 600-page
    group and 100 singletons), or a random graph with self-loops and
    patched dangling pages, whose columns reach every row, in 7 groups."""
    if kind == "community700":
        g, _ = patch_dangling(load_edge_list(DATA / "community700.txt"))
        return g, load_partition(DATA / "community700.groups", g)
    g = random_graph(rng, 200, allow_self=True)
    assert g.out_degree.max() == g.n          # a patched page
    return g, random_partition(rng, g.n, 7)


def test_singleton_factor_without_self_loop_is_identity():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    rhs = np.array([0.3])
    zbar, rest = factors.solve_local(0, rhs, stop=1e-13)
    np.testing.assert_array_equal(zbar, rhs)
    assert rest == 0.0


def test_singleton_factor_with_self_loop():
    # page 0 links to itself and to 1, so q00 = 0.425: the series sums
    # 0.2 * 0.425^t until a term is negligible, and keeps that term
    g = load_edge_list(io.StringIO("0 0\n0 1\n1 0"))
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    rhs = np.array([0.2])
    zbar, rest = factors.solve_local(0, rhs, stop=1e-13)
    assert 0.0 <= rest[0] <= 1e-13
    assert abs((1 - 0.425) * zbar[0] - (rhs[0] - rest[0])) <= 1e-12
    np.testing.assert_allclose(zbar, rhs / (1 - 0.425), rtol=1e-12)


def test_whole_graph_factor_reaches_fixed_point(rng):
    g = random_graph(rng, 24)
    oracle = DenseOracle(g, M)
    factors = GroupFactors(g, M, Partition(np.zeros(g.n, int)))
    x, _ = factors.solve_local(0, np.full(g.n, M / g.n), stop=1e-13)
    assert np.abs(x - oracle.x_star).sum() <= 1e-12


def test_factor_roundtrip(rng):
    g = random_graph(rng, 40, allow_self=True)
    part = random_partition(rng, g.n, 6)
    q = q_matrix(g, M).toarray()
    factors = GroupFactors(g, M, part)
    for h, mem in enumerate(part.members):
        rhs = rng.random(mem.size)
        zbar, rest = factors.solve_local(h, rhs, stop=1e-13)
        block = np.eye(mem.size) - q[np.ix_(mem, mem)]
        assert np.abs(block @ zbar - (rhs - rest)).max() <= 1e-12
        assert np.all(rest >= 0.0) and np.sum(rest) <= 1e-13


def test_series_ends_on_a_closed_group_at_small_m():
    # a closed two-page group keeps all but m of its mass each round:
    # about 3e5 terms at m = 1e-4, past any fixed guard of 1e5
    m = 1e-4
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    factors = GroupFactors(g, m, Partition(np.zeros(g.n, int)))
    rhs = np.array([0.5, 0.5])
    zbar, rest = factors.solve_local(0, rhs, stop=1e-13)
    assert np.all(rest >= 0.0) and rest.sum() <= 1e-13
    block = np.eye(2) - (1 - m) * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.abs(block @ zbar - (rhs - rest)).max() <= 1e-12


def test_series_refuses_a_residual_that_is_not_finite():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    factors = GroupFactors(g, M, Partition(np.zeros(g.n, int)))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericalFailure, match="group 0"):
            factors.solve_local(0, np.array([bad, 0.5]), stop=1e-13)


def test_group_step_ends_its_series_on_a_closed_group_at_small_m():
    # the term-count guard at the step's own stop level: a closed group's
    # terms shrink by exactly 1-m, about 4.6e4 of them at m = 1e-4 to reach
    # _REST_FRACTION of the residual held, where the series stops
    m = 1e-4
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    factors = GroupFactors(g, m, Partition(np.zeros(g.n, int)))
    st = init_state(g.n, m)
    st.z[:] = 0.5
    assert step_group(st, g, m, factors, 0) == 1.0
    assert (1 - m) * _REST_FRACTION < st.z.sum() <= _REST_FRACTION


def test_group_step_refuses_a_residual_that_is_not_finite():
    # a stop level taken from a residual that is not finite is not finite
    # either, which ends no series: the step refuses it, also in a group
    # whose series would end after one term (page 1, no in-group link)
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 0"))
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    for bad in (np.nan, np.inf):
        for h in (0, 1):
            st = init_state(g.n, M)
            st.z[h] = bad
            with pytest.raises(NumericalFailure, match=f"group {h}"):
                step_group(st, g, M, factors, h)


def test_factors_hold_no_dense_block(rng):
    # three 300-page communities: every group keeps its sparse block and
    # columns, O(nnz + n) words, well under one dense 300 x 300 block
    g, part = community_graph(rng, num_groups=3, group_size=300, p_in=0.02,
                              p_out=0.002)
    nnz = g.num_edges
    tracemalloc.start()
    try:
        factors = GroupFactors(g, M, part)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert factors.num_groups == 3 and part.sizes.min() == 300
    assert held <= 6 * 8 * (nnz + g.n)
    assert held < 8 * 300 * 300 / 2


def test_factors_hold_each_link_once(rng):
    # the same three communities: one row per link, in-group links not kept
    # twice and no column index per link, plus a few words per page
    g, part = community_graph(rng, num_groups=3, group_size=300, p_in=0.02,
                              p_out=0.002)
    g.q_scale(M)                    # the graph's cache, not the factors'
    tracemalloc.start()
    try:
        factors = GroupFactors(g, M, part)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 8 * (g.num_edges + 6 * g.n)
    # a group's push reaches its members first, then the pages outside it
    # that its links reach, ascending
    for mem, rows in zip(factors.members, factors.block_rows):
        np.testing.assert_array_equal(rows[:mem.size], mem)
        outside = rows[mem.size:]
        assert (np.diff(outside) > 0).all()
        assert not np.isin(outside, mem).any()


def self_loops(g):
    return np.array([j in g.indices[g.indptr[j]:g.indptr[j + 1]]
                     for j in range(g.n)])


def scipy_series(qhh, rhs):
    """(zbar, rest) of the local series, each term a scipy product."""
    zbar, term = rhs.copy(), rhs
    while True:
        term = qhh @ term
        if float(term.sum()) <= 1e-13:
            return zbar, term
        zbar += term


def assert_scipy_bits(factors, q, h, rhs):
    """Group h's series and push equal scipy's ``Q[mem][:, mem] @ term``
    chain and ``Q[:, mem] @ zbar``, bit for bit."""
    mem = factors.members[h]
    zbar, rest = factors.solve_local(h, rhs, stop=1e-13)
    want_zbar, want_rest = scipy_series(q[mem][:, mem], rhs)
    np.testing.assert_array_equal(zbar, want_zbar)
    np.testing.assert_array_equal(rest, want_rest)
    inflow, rows = q[:, mem] @ zbar, factors.block_rows[h]
    np.testing.assert_array_equal(factors.inflow(h, zbar), inflow[rows])
    assert not np.delete(inflow, rows).any()


@pytest.mark.parametrize("kind", ["community700", "self_loops", "singletons"])
def test_group_products_match_scipy_bit_for_bit(kind, rng):
    # scipy only on this side: the products sum each row from 0.0 in CSC
    # order, as scipy's do, on random right-hand sides and on those of a
    # run of 3 stacked replicas; the singletons include pages with no
    # in-group link, whose series ends after one term
    if kind == "singletons":
        g = random_graph(rng, 20)
        part = Partition(np.arange(g.n))
        assert 0 < self_loops(g).sum() < g.n
    else:
        g, part = grouped_graph(kind, rng)
    q, factors = q_matrix(g, M), GroupFactors(g, M, part)
    for h, size in enumerate(part.sizes):
        assert_scipy_bits(factors, q, h, rng.random(size))
    sched = Schedule.from_spec("uniform", part.num_groups, 5, replicas=3)
    st = init_state(g.n, M, replicas=3)
    for _ in range(100):
        drawn = next_set(sched)
        for i in drawn.tolist():
            r, h = divmod(i, part.num_groups)
            assert_scipy_bits(factors, q, h, st.z[part.members[h] + r * g.n])
        step_group(st, g, M, factors, drawn)


@pytest.mark.parametrize("m", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_group_factors_refuse_m_outside_the_unit_interval(m):
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    with pytest.raises(ValueError, match=r"m must lie in \(0, 1\)"):
        GroupFactors(g, m, Partition(np.zeros(g.n, int)))


def test_group_factors_refuse_an_unpatched_graph():
    g = load_edge_list(io.StringIO("0 1\n2 1"))
    with pytest.raises(ValueError,
                       match=r"dangling pages \[1\]; patch first"):
        GroupFactors(g, M, Partition(np.arange(g.n)))


@pytest.mark.parametrize("replicas", [1, 3])
@pytest.mark.parametrize("warmup", [0, 1000])
@pytest.mark.parametrize("kind", ["community700", "self_loops"])
def test_step_group_matches_the_full_block_push(kind, warmup, replicas, rng):
    # the compact columns sum each reached row in the full mat-vec's order,
    # from the first step and from a state `warmup` group steps into the
    # run, where the series stop after fewer terms on a smaller residual
    g, part = grouped_graph(kind, rng)
    factors = GroupFactors(g, M, part)
    sched = Schedule.from_spec("uniform", part.num_groups, 5,
                               replicas=replicas)
    compact = init_state(g.n, M, replicas)
    for _ in range(warmup):
        step_group(compact, g, M, factors, next_set(sched))
    full = copy_state(compact)
    for _ in range(300):
        drawn = next_set(sched)
        step_group(compact, g, M, factors, drawn)
        step_group_full_block(full, g, M, factors, drawn)
    np.testing.assert_array_equal(compact.x, full.x)
    np.testing.assert_array_equal(compact.z, full.z)
    assert compact.cumulative_updates == full.cumulative_updates


def test_step_group_returns_the_residual_it_took(rng):
    g, part = grouped_graph("self_loops", rng)
    factors = GroupFactors(g, M, part)
    st = init_state(g.n, M, replicas=3)
    st.z[:] = rng.random(st.n)
    drawn = np.array([2, part.num_groups + 4, 2 * part.num_groups])
    held = sum(st.z[r * g.n + part.members[i - r * part.num_groups]].sum()
               for r, i in enumerate(drawn))
    assert step_group(st, g, M, factors, drawn) == held
    assert step_group(st, g, M, factors, drawn[:0]) == 0.0


def test_step_group_singleton_matches_set_step(rng):
    # the generator emits no self-loops, but patching links a dangling page
    # to every page, itself included: there the group step absorbs q_jj
    g = random_graph(rng, 20)
    loops = self_loops(g)
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    st = init_state(g.n, M)
    compared = 0
    for k in range(100):
        page = int(rng.integers(g.n))
        via_set = copy_state(st)
        step_set(via_set, g, M, [page])
        step_group(st, g, M, factors, page)
        if not loops[page]:
            np.testing.assert_array_equal(st.x, via_set.x)
            np.testing.assert_array_equal(st.z, via_set.z)
            compared += 1
    assert compared > 0


def test_step_group_singleton_self_loop_pushes_absorbed_residual(rng):
    # a singleton group on a self-loop page j pushes the series' sum zbar,
    # (1 - q_jj) zbar = z_j - rest, where a gossip step pushes z_j
    g = random_graph(rng, 20)
    loops = self_loops(g)
    assert loops.tolist().count(True) == 1 and loops[3]
    j = 3
    q_jj = (1 - M) / g.out_degree[j]
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    via_group = init_state(g.n, M)
    via_group.z[:] = 0.0
    via_group.z[j] = 0.25
    via_set = copy_state(via_group)
    step_group(via_group, g, M, factors, j)
    step_set(via_set, g, M, [j])
    rest = via_group.z[j]
    assert 0.0 <= rest <= max(1e-13, _REST_FRACTION * 0.25)
    zbar = (0.25 - rest) / (1 - q_jj)
    # with only z_j in flight, z after the step is the pushed inflow itself
    # off page j, and the rest of the series on it
    pushed = np.zeros(g.n)
    targets = g.indices[g.indptr[j]:g.indptr[j + 1]]
    pushed[targets] = (1 - M) / g.out_degree[j] * zbar
    pushed[j] = rest
    np.testing.assert_allclose(via_group.z, pushed, rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.delete(via_group.z, j),
                               np.delete(via_set.z, j) * (zbar / 0.25),
                               rtol=1e-15, atol=0)


def test_step_group_whole_graph_converges_in_one_step(rng):
    # a step of the whole graph is its exact limit on what its series
    # absorbs; that series stops at _REST_FRACTION of the residual held or
    # below, so the rest falls by at least that factor a step, here to
    # 1e-13 in 6 steps
    g = random_graph(rng, 30)
    oracle = DenseOracle(g, M)
    factors = GroupFactors(g, M, Partition(np.zeros(g.n, int)))
    st = init_state(g.n, M)
    steps = 0
    while st.z.sum() > 1e-13:
        held = st.z.sum()
        step_group(st, g, M, factors, 0)
        steps += 1
        assert np.all(st.z >= 0.0)
        assert st.z.sum() <= max(1e-13, _REST_FRACTION * held)
    assert steps == 6
    assert oracle.error_l1(st.x) <= 1e-10
    assert st.cumulative_updates == steps * g.n


def test_step_group_noop_when_group_residual_zero(rng):
    g = random_graph(rng, 12)
    part = random_partition(rng, g.n, 3)
    factors = GroupFactors(g, M, part)
    st = init_state(g.n, M)
    st.z[part.members[1]] = 0.0
    before = copy_state(st)
    step_group(st, g, M, factors, 1)
    np.testing.assert_array_equal(st.x, before.x)
    np.testing.assert_array_equal(st.z, before.z)


def test_step_group_rejects_bad_group(rng):
    g = random_graph(rng, 6)
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    with pytest.raises(ValueError, match="group"):
        step_group(init_state(g.n, M), g, M, factors, 6)


def test_group_step_is_limit_of_repeated_set_steps(rng):
    # one group step equals infinitely many simultaneous set steps on the
    # group, from the residual its series absorbed, z_h less the rest it
    # leaves in z_h; 200 repetitions already agree within the geometric tail
    tail = (1 - M) ** 200 / M
    for _ in range(3):
        g = random_graph(rng, int(rng.integers(8, 30)), allow_self=True)
        part = random_partition(rng, g.n, 4)
        factors = GroupFactors(g, M, part)
        h = int(rng.integers(part.num_groups))
        members = part.members[h]
        grouped = init_state(g.n, M)
        iterated = copy_state(grouped)
        held = grouped.z[members].sum()
        step_group(grouped, g, M, factors, h)
        rest = grouped.z[members].copy()
        assert rest.sum() <= max(1e-13, _REST_FRACTION * held)
        iterated.z[members] -= rest
        for _ in range(200):
            step_set(iterated, g, M, members)
        iterated.z[members] += rest
        assert np.abs(grouped.x - iterated.x).sum() <= tail + 1e-12
        assert np.abs(grouped.z - iterated.z).sum() <= tail + 1e-12


def test_trivial_partition_mirrors_gossip(rng):
    # the runs agree bit for bit until the first draw of a self-loop page
    # (patching gives dangling pages one); that step absorbs q_jj, so the
    # group run's certificate falls below the gossip run's
    g = random_graph(rng, 25)
    loops = self_loops(g)
    sched = Schedule.from_spec("uniform", g.n, 7)
    sets = [next_set(sched) for _ in range(300)]
    first_loop = next(k for k, s in enumerate(sets) if loops[s[0]])
    _, t_gossip = run(g, M, Schedule("file", n=g.n, sequence=sets),
                      steps=300, cadence=1, record_x=True)
    _, t_cluster = run(g, M, Schedule("file", n=g.n, sequence=sets),
                       steps=300,
                       factors=GroupFactors(g, M, Partition(np.arange(g.n))),
                       cadence=1, record_x=True)
    assert t_gossip.steps.tolist() == t_cluster.steps.tolist() == list(
        range(301))
    np.testing.assert_array_equal(t_gossip.updates, t_cluster.updates)
    for k in range(first_loop + 1):
        np.testing.assert_array_equal(t_gossip.x_rows[k], t_cluster.x_rows[k])
        assert t_gossip.cert[k] == t_cluster.cert[k]
    assert t_cluster.cert[first_loop + 1] < t_gossip.cert[first_loop + 1]


def test_clustered_monotone_bounded_and_conserving(rng):
    for _ in range(3):
        g = random_graph(rng, int(rng.integers(8, 50)), allow_self=True)
        oracle = DenseOracle(g, M)
        part = random_partition(rng, g.n, 5)
        factors = GroupFactors(g, M, part)
        st = init_state(g.n, M)
        for _ in range(200):
            h = int(rng.integers(part.num_groups))
            before = st.x.copy()
            step_group(st, g, M, factors, h)
            assert np.all(st.x >= before - 1e-12)
            assert np.all(st.x <= oracle.x_star + 1e-12)
            assert oracle.conservation_defect(st.x, st.z) <= 1e-10


class DenseSolves(GroupFactors):
    """Group factors whose local solve is numpy's dense solve of I - Qhh,
    for the part of the residual that the series absorbs, which leaves its
    rest in the group."""

    def __init__(self, graph, m, partition):
        super().__init__(graph, m, partition)
        q = q_matrix(graph, m).toarray()
        self.blocks = [np.eye(mem.size) - q[np.ix_(mem, mem)]
                       for mem in self.members]

    def solve_local(self, h, rhs, stop):
        _, rest = super().solve_local(h, rhs, stop)
        return np.linalg.solve(self.blocks[h], rhs - rest), rest


def test_iterative_and_dense_local_solves_agree(rng):
    g = random_graph(rng, 60)
    part = random_partition(rng, g.n, 3)
    cycle = lambda: Schedule.from_spec("roundrobin", part.num_groups)
    st_dense, _ = run(g, M, cycle(), steps=30,
                      factors=DenseSolves(g, M, part))
    st_iter, _ = run(g, M, cycle(), steps=30,
                     factors=GroupFactors(g, M, part))
    assert np.abs(st_dense.x - st_iter.x).max() <= 1e-12


def test_iterative_group_solves_keep_the_certificate(rng):
    # two 600-page communities; the mass a local series does not absorb
    # stays in the residual, so the certificate still equals the true
    # error when the run stops
    size = 600
    n = 2 * size
    src = np.repeat(np.arange(n), 5)
    dst = np.empty_like(src)
    for j in range(n):
        home = (j // size) * size
        others = np.delete(np.arange(home, home + size), j - home)
        dst[5 * j:5 * j + 4] = rng.choice(others, size=4, replace=False)
        dst[5 * j + 4] = (home + size) % n + rng.integers(size)
    g = WebGraph(n, src, dst)
    part = Partition(np.arange(n) // size)
    tol = 1e-12
    _, trace = run(g, M, Schedule.from_spec("roundrobin", 2), tol=tol,
                   factors=GroupFactors(g, M, part), oracle=DenseOracle(g, M))
    assert trace.final_cert <= tol
    assert trace.final_err <= tol
    assert abs(trace.final_err - trace.final_cert) <= 1e-14


def test_run_clustered_periodic_decays(rng):
    g = random_graph(rng, 40)
    oracle = DenseOracle(g, M)
    part = random_partition(rng, g.n, 5)
    _, trace = run(g, M, Schedule.from_spec("roundrobin", part.num_groups),
                   factors=GroupFactors(g, M, part), steps=60, oracle=oracle)
    errs = trace.err_l1[:, 0]
    # 12 complete cycles dominate 12 synchronous steps
    assert errs[-1] <= (1 - M) ** 13
    assert np.all(np.diff(errs) <= 1e-12)


def test_single_group_run_converges_immediately(rng):
    # each step's series stops at _REST_FRACTION of the residual held or
    # below, so the certificate falls by at least that factor a step
    g = random_graph(rng, 15)
    oracle = DenseOracle(g, M)
    _, trace = run(g, M, Schedule.from_spec("roundrobin", 1),
                   factors=GroupFactors(g, M, Partition(np.zeros(g.n, int))),
                   tol=1e-9, oracle=oracle)
    assert trace.final_step == 5
    assert trace.final_err <= 1e-10


def test_group_run_empty_draw_is_noop_step(rng):
    g = random_graph(rng, 12)
    part = random_partition(rng, g.n, 3)
    factors = GroupFactors(g, M, part)
    st, trace = run(g, M, Schedule("file", n=3, sequence=[[0], [], [1]]),
                    steps=10, factors=factors, cadence=1)
    assert trace.steps.tolist() == [0, 1, 2, 3]
    assert trace.updates[2] == trace.updates[1] == part.sizes[0]
    assert trace.cert[2] == trace.cert[1]
    assert st.cumulative_updates == part.sizes[0] + part.sizes[1]
    with pytest.raises(ValueError, match="one group per step"):
        run(g, M, Schedule("file", n=3, sequence=[[0, 1]]), steps=10,
            factors=factors)


def test_a_schedule_that_can_draw_two_groups_is_refused_before_step_1(
        rng, tmp_path, monkeypatch, capsys):
    # the check is made on the schedule, before the first step: a subset
    # schedule over the groups, or a sequence whose second line names two
    # groups, runs no group step at all
    step, calls = engines.step_group, []

    def counted(*args):
        calls.append(args)
        return step(*args)
    monkeypatch.setattr(engines, "step_group", counted)
    g = random_graph(rng, 12)
    factors = GroupFactors(g, M, random_partition(rng, g.n, 3))
    with pytest.raises(ValueError, match="one group per step"):
        run(g, M, Schedule.from_spec("subset:0.5", 3, seed=1), steps=10,
            factors=factors)
    (tmp_path / "g.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    (tmp_path / "groups.txt").write_text("0 0\n1 0\n2 1\n3 1\n")
    (tmp_path / "two.seq").write_text("0\n0,1\n1\n")
    assert cli.main(["cluster", "--graph", str(tmp_path / "g.txt"),
                     "--partition", str(tmp_path / "groups.txt"),
                     "--schedule", f"file:{tmp_path / 'two.seq'}",
                     "--steps", "3"]) == 2
    assert "one group per step" in capsys.readouterr().err
    assert calls == []


def test_partition_graph_mismatch(rng):
    g = random_graph(rng, 10)
    with pytest.raises(ValueError, match="page count"):
        GroupFactors(g, M, Partition(np.zeros(9, dtype=int)))
