import io

import numpy as np
import pytest

from pushrank import (DenseOracle, GroupFactors, Partition, Schedule, WebGraph,
                      cluster, init_state, load_edge_list, run, step_group,
                      step_set)

from conftest import copy_state, random_graph, random_partition

M = 0.15


def test_singleton_factor_without_self_loop_is_identity():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    rhs = np.array([0.3])
    zbar, rest = factors.solve_local(0, rhs)
    np.testing.assert_array_equal(zbar, rhs)
    assert rest == 0.0


def test_singleton_factor_with_self_loop():
    # page 0 links to itself and to 1, so q00 = 0.425
    g = load_edge_list(io.StringIO("0 0\n0 1\n1 0"))
    factors = GroupFactors(g, M, Partition(np.arange(g.n)))
    rhs = np.array([0.2])
    np.testing.assert_allclose(factors.solve_local(0, rhs)[0],
                               rhs / (1 - 0.425), rtol=1e-15)


def test_whole_graph_factor_reaches_fixed_point(rng):
    g = random_graph(rng, 24)
    oracle = DenseOracle(g, M)
    factors = GroupFactors(g, M, Partition(np.zeros(g.n, int)))
    x, _ = factors.solve_local(0, np.full(g.n, M / g.n))
    assert np.abs(x - oracle.x_star).sum() <= 1e-12


def test_factor_roundtrip(rng, monkeypatch):
    g = random_graph(rng, 40, allow_self=True)
    part = random_partition(rng, g.n, 6)
    q = g.q_matrix(M).toarray()
    for dense_cap in (512, 0):
        monkeypatch.setattr(cluster, "DENSE_GROUP_CAP", dense_cap)
        factors = GroupFactors(g, M, part)
        for h, mem in enumerate(part.members):
            rhs = rng.random(mem.size)
            zbar, rest = factors.solve_local(h, rhs)
            block = np.eye(mem.size) - q[np.ix_(mem, mem)]
            assert np.abs(block @ zbar - (rhs - rest)).max() <= 1e-12
            assert np.all(rest >= 0.0) and np.sum(rest) <= 1e-13


def self_loops(g):
    return np.array([j in g.indices[g.indptr[j]:g.indptr[j + 1]]
                     for j in range(g.n)])


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
    # a singleton group on a self-loop page j pushes z_j / (1 - q_jj), where
    # a gossip step pushes z_j
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
    # with only z_j in flight, z after the step is the pushed inflow itself
    pushed = np.zeros(g.n)
    targets = g.indices[g.indptr[j]:g.indptr[j + 1]]
    pushed[targets] = (1 - M) / g.out_degree[j] * (0.25 / (1 - q_jj))
    pushed[j] = 0.0
    np.testing.assert_allclose(via_group.z, pushed, rtol=1e-15, atol=0)
    gossip = via_set.z.copy()
    gossip[j] = 0.0
    np.testing.assert_allclose(via_group.z, gossip / (1 - q_jj),
                               rtol=1e-15, atol=0)


def test_step_group_whole_graph_converges_in_one_step(rng):
    g = random_graph(rng, 30)
    oracle = DenseOracle(g, M)
    factors = GroupFactors(g, M, Partition(np.zeros(g.n, int)))
    st = init_state(g.n, M)
    step_group(st, g, M, factors, 0)
    assert oracle.error_l1(st.x) <= 1e-10
    np.testing.assert_array_equal(st.z, 0.0)
    assert st.cumulative_updates == g.n


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
    # group; 200 repetitions already agree within the geometric tail
    tail = (1 - M) ** 200 / M
    for _ in range(3):
        g = random_graph(rng, int(rng.integers(8, 30)), allow_self=True)
        part = random_partition(rng, g.n, 4)
        factors = GroupFactors(g, M, part)
        h = int(rng.integers(part.num_groups))
        grouped = init_state(g.n, M)
        iterated = copy_state(grouped)
        step_group(grouped, g, M, factors, h)
        for _ in range(200):
            step_set(iterated, g, M, part.members[h])
        assert np.abs(grouped.x - iterated.x).sum() <= tail + 1e-12
        assert np.abs(grouped.z - iterated.z).sum() <= tail + 1e-12


def test_trivial_partition_mirrors_gossip(rng):
    # the runs agree bit for bit until the first draw of a self-loop page
    # (patching gives dangling pages one); that step absorbs q_jj, so the
    # group run's certificate falls below the gossip run's
    g = random_graph(rng, 25)
    loops = self_loops(g)
    sched = Schedule.from_spec("uniform", g.n, 7)
    sets = [sched.next(k) for k in range(300)]
    first_loop = next(k for k, s in enumerate(sets) if loops[s[0]])
    _, t_gossip = run(g, M, Schedule("file", sequence=sets), steps=300,
                      record_x=True)
    _, t_cluster = run(g, M, Schedule("file", sequence=sets), steps=300,
                       factors=GroupFactors(g, M, Partition(np.arange(g.n))),
                       record_x=True)
    assert t_gossip.steps == t_cluster.steps == list(range(301))
    assert t_gossip.updates == t_cluster.updates
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


def test_iterative_and_dense_local_solves_agree(rng, monkeypatch):
    g = random_graph(rng, 60)
    part = random_partition(rng, g.n, 3)
    dense = GroupFactors(g, M, part)
    monkeypatch.setattr(cluster, "DENSE_GROUP_CAP", 0)
    cycle = lambda: Schedule.from_spec("roundrobin", part.num_groups)
    st_dense, _ = run(g, M, cycle(), steps=30, factors=dense)
    st_iter, _ = run(g, M, cycle(), steps=30,
                     factors=GroupFactors(g, M, part))
    assert np.abs(st_dense.x - st_iter.x).max() <= 1e-12


def test_iterative_group_solves_keep_the_certificate(rng):
    # two 600-page communities, so both groups take the iterative solve;
    # the mass a solve does not absorb stays in the residual, so the
    # certificate still equals the true error when the run stops
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
    assert part.sizes.min() > cluster.DENSE_GROUP_CAP
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
    errs = trace.column("err_l1")
    # 12 complete cycles dominate 12 synchronous steps
    assert errs[-1] <= (1 - M) ** 13
    assert np.all(np.diff(errs) <= 1e-12)


def test_single_group_run_converges_immediately(rng):
    g = random_graph(rng, 15)
    oracle = DenseOracle(g, M)
    _, trace = run(g, M, Schedule.from_spec("roundrobin", 1),
                   factors=GroupFactors(g, M, Partition(np.zeros(g.n, int))),
                   tol=1e-9, oracle=oracle)
    assert trace.final_step == 1
    assert trace.final_err <= 1e-10


def test_group_run_empty_draw_is_noop_step(rng):
    g = random_graph(rng, 12)
    part = random_partition(rng, g.n, 3)
    factors = GroupFactors(g, M, part)
    st, trace = run(g, M, Schedule("file", sequence=[[0], [], [1]]), steps=10,
                    factors=factors)
    assert trace.steps == [0, 1, 2, 3]
    assert trace.updates[2] == trace.updates[1] == part.sizes[0]
    assert trace.cert[2] == trace.cert[1]
    assert st.cumulative_updates == part.sizes[0] + part.sizes[1]
    with pytest.raises(ValueError, match="one group per step"):
        run(g, M, Schedule("file", sequence=[[0, 1]]), steps=10,
            factors=factors)


def test_partition_graph_mismatch(rng):
    g = random_graph(rng, 10)
    with pytest.raises(ValueError, match="page count"):
        GroupFactors(g, M, Partition(np.zeros(9, dtype=int)))
