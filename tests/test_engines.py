import io

import numpy as np
import pytest

from pushrank import (DenseOracle, Schedule, engines, exact_error, init_state,
                      load_edge_list, patch_dangling, run, step_set)

from conftest import copy_state, graph_from_lists, random_graph
from oracles import analytic_mean_trace, neumann_partial

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
    q = g.q_matrix(M)
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
        q = g.q_matrix(M)
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
    q = g.q_matrix(M)
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


def test_partial_sets_push_on_an_unpatched_graph():
    # only the set of every page goes through Q, which needs a patched
    # graph; partial sets, dangling senders included, push without it
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
    sets = [drawn.next(k) for k in range(400)]
    st_a, _ = run(g, M, Schedule.from_spec("uniform", g.n, 99), steps=400)
    st_b, _ = run(g, M, Schedule("file", sequence=sets), steps=400)
    np.testing.assert_array_equal(st_a.x, st_b.x)
    np.testing.assert_array_equal(st_a.z, st_b.z)
    assert st_a.cumulative_updates == st_b.cumulative_updates == 400


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
    assert abs(exact_error(st, M) - (1 - M)) <= 1e-12
    for k in range(500):
        step_set(st, g, M, sched.next(k))
        assert oracle.conservation_defect(st.x, st.z) <= 1e-10
        assert abs(exact_error(st, M) - oracle.error_l1(st.x)) <= 1e-9
    st.z[:] = 0.0
    assert exact_error(st, M) == 0.0


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
    st, trace = run(g, M, Schedule("file", sequence=[[0], [1], [0]]),
                    steps=100)
    assert st.step == 3
    assert trace.final_step == 3


def test_run_with_empty_schedule_is_flat():
    g = cycle2()
    st, trace = run(g, M, Schedule("file", sequence=[[]] * 20), steps=20)
    np.testing.assert_array_equal(st.x, init_state(2, M).x)
    assert trace.final_updates == 0
    assert trace.column("cert")[0] == trace.column("cert")[-1]


def test_run_round_robin_liveness_and_decay(rng):
    # after s complete sweeps the error is at most the synchronous error
    # at step s, i.e. (1-m)^(s+1)
    g = random_graph(rng, 12)
    oracle = DenseOracle(g, M)
    sweeps = 60
    _, trace = run(g, M, Schedule.from_spec("roundrobin", g.n),
                   steps=sweeps * g.n, oracle=oracle)
    errs = trace.column("err_l1")
    assert errs[-1] <= (1 - M) ** (sweeps + 1)
    # error never increases along the way
    assert np.all(np.diff(errs) <= 1e-12)


def test_run_requires_some_bound():
    with pytest.raises(ValueError):
        run(cycle2(), M, Schedule.from_spec("roundrobin", 2))
    # a NaN or negative tol can never be met; steps=5 keeps a missing check finite
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="tol"):
            run(cycle2(), M, Schedule.from_spec("roundrobin", 2), steps=5,
                tol=bad)


def test_mean_trajectory_smoke(rng):
    # sample mean of x(k) across seeded replicas tracks the analytic mean
    g = random_graph(rng, 10)
    p = np.full(g.n, 1 / g.n)
    analytic = analytic_mean_trace(g, M, p, 30)
    reps = 400
    acc = np.zeros(g.n)
    sq = np.zeros(g.n)
    for r in range(reps):
        sched = Schedule.from_spec("uniform", g.n, 1000).derive(r)
        st, _ = run(g, M, sched, steps=30)
        acc += st.x
        sq += st.x ** 2
    mean = acc / reps
    std = np.sqrt(np.maximum(sq / reps - mean ** 2, 0.0))
    bound = 5 * std / np.sqrt(reps) + 1e-12
    assert np.all(np.abs(mean - analytic[30]) <= bound)
