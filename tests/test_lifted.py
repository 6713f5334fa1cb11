import io
import math

import numpy as np
import pytest

from pushrank import (DenseOracle, GroupFactors, Partition, init_state,
                      load_edge_list)
from pushrank.cluster import _REST_FRACTION

from conftest import copy_state, random_graph, random_partition
from oracles import (analytic_mean_trace, dense_q, lift_group_hat,
                     lift_group_hat_blocks, lift_set, lift_single,
                     mean_matrices, spectral_radius, step_group, step_set)

M = 0.15


def cycle2():
    return load_edge_list(io.StringIO("0 1\n1 0"))


def test_lift_single_two_cycle():
    q0, r0, s0 = lift_single(cycle2(), M, 0)
    np.testing.assert_array_equal(q0, [[0, 0], [0.85, 1]])
    np.testing.assert_array_equal(r0, [[0, 0], [0.85, 0]])
    np.testing.assert_array_equal(s0, [[0, 0], [0, 1]])


def test_single_decomposition_and_products(rng):
    g = random_graph(rng, 25, allow_self=True)
    n = g.n
    for _ in range(1000):
        i, j, k = rng.integers(n, size=3)
        qi, ri, si = lift_single(g, M, int(i))
        qj, rj, sj = lift_single(g, M, int(j))
        np.testing.assert_array_equal(qi, ri + si)
        # R_i S_j is zero when i == j and R_i otherwise
        prod = ri @ sj
        if i == j:
            assert not prod.any()
        else:
            np.testing.assert_array_equal(prod, ri)
        # R_i R_j = q_ij R_j^(i), with R_j^(i) carrying column q_i at j
        q = dense_q(g, M)
        rji = np.zeros((n, n))
        rji[:, j] = q[:, i]
        np.testing.assert_array_equal(ri @ rj, q[i, j] * rji)
        # R_j^(i) R_k = q_jk R_k^(i)
        rki = np.zeros((n, n))
        rki[:, k] = q[:, i]
        np.testing.assert_array_equal(rji @ lift_single(g, M, int(k))[1],
                                      q[j, k] * rki)


def test_lift_set_relations(rng):
    g = random_graph(rng, 30, allow_self=True)
    n = g.n
    for _ in range(200):
        phi = np.flatnonzero(rng.random(n) < 0.3)
        q_phi, r_phi, s_phi = lift_set(g, M, phi)
        acc = np.zeros((n, n))
        for i in phi:
            acc += lift_single(g, M, int(i))[1]
        np.testing.assert_array_equal(r_phi, acc)
        np.testing.assert_array_equal(q_phi, r_phi + s_phi)
        i = int(rng.integers(n))
        ri = lift_single(g, M, i)[1]
        prod = ri @ s_phi
        if i in phi:
            assert not prod.any()
        else:
            np.testing.assert_array_equal(prod, ri)


def test_lift_set_degenerate_cases(rng):
    g = random_graph(rng, 10)
    n = g.n
    q_phi, r_phi, s_phi = lift_set(g, M, [])
    np.testing.assert_array_equal(q_phi, np.eye(n))
    assert not r_phi.any()
    np.testing.assert_array_equal(s_phi, np.eye(n))
    q_phi, r_phi, s_phi = lift_set(g, M, np.arange(n))
    np.testing.assert_array_equal(q_phi, dense_q(g, M))
    np.testing.assert_array_equal(r_phi, dense_q(g, M))
    assert not s_phi.any()


def test_engine_step_matches_matrix_form(rng):
    g = random_graph(rng, 20, allow_self=True)
    st = init_state(g.n, M)
    for _ in range(50):
        phi = np.flatnonzero(rng.random(g.n) < 0.35)
        _, r_phi, _ = lift_set(g, M, phi)
        q_phi = lift_set(g, M, phi)[0]
        before = copy_state(st)
        step_set(st, g, M, phi)
        np.testing.assert_allclose(st.x, before.x + r_phi @ before.z, atol=1e-14)
        np.testing.assert_allclose(st.z, q_phi @ before.z, atol=1e-14)


def test_trajectory_matches_matrix_recursion(rng):
    g = random_graph(rng, 15, allow_self=True)
    st = init_state(g.n, M)
    x = st.x.copy()
    z = st.z.copy()
    for _ in range(100):
        phi = np.flatnonzero(rng.random(g.n) < 0.25)
        q_phi, r_phi, _ = lift_set(g, M, phi)
        x = x + r_phi @ z
        z = q_phi @ z
        step_set(st, g, M, phi)
        np.testing.assert_allclose(st.x, x, atol=1e-13)
        np.testing.assert_allclose(st.z, z, atol=1e-13)


def test_group_hat_singleton_without_self_loop(rng):
    g = random_graph(rng, 12)
    part = Partition(np.arange(g.n))
    i = 4
    rhat = lift_group_hat(g, M, part, i)
    np.testing.assert_allclose(rhat, lift_single(g, M, i)[1], atol=1e-15)


def test_group_hat_whole_graph(rng):
    g = random_graph(rng, 12)
    q = dense_q(g, M)
    rhat = lift_group_hat(g, M, Partition(np.zeros(g.n, int)), 0)
    expected = q @ np.linalg.inv(np.eye(g.n) - q)
    np.testing.assert_allclose(rhat, expected, atol=1e-12)


def test_group_hat_block_form_agrees(rng):
    g = random_graph(rng, 30, allow_self=True)
    part = random_partition(rng, g.n, 4)
    for h in range(part.num_groups):
        series = lift_group_hat(g, M, part, h)
        blocks = lift_group_hat_blocks(g, M, part, h)
        np.testing.assert_allclose(series, blocks, atol=1e-12)
        outside = np.setdiff1d(np.arange(g.n), part.members[h])
        if outside.size:
            assert np.abs(series[:, outside]).max() <= 1e-12


def test_step_group_matches_hat_form(rng):
    g = random_graph(rng, 25, allow_self=True)
    part = random_partition(rng, g.n, 5)
    factors = GroupFactors(g, M, part)
    st = init_state(g.n, M)
    for k in range(40):
        h = int(rng.integers(part.num_groups))
        rhat = lift_group_hat(g, M, part, h)
        _, _, s_h = lift_set(g, M, part.members[h])
        members = part.members[h]
        before = copy_state(st)
        held = before.z[members].sum()
        step_group(st, g, M, factors, h)
        # the step is the exact limit on what its series absorbed, z_h less
        # the rest it leaves in z_h
        rest = st.z[members].copy()
        assert np.all(rest >= 0.0)
        assert rest.sum() <= max(1e-13, _REST_FRACTION * held)
        absorbed = before.z.copy()
        absorbed[members] -= rest
        np.testing.assert_allclose(st.x, before.x + rhat @ absorbed, atol=1e-10)
        want_z = s_h @ (absorbed + rhat @ absorbed)
        want_z[members] += rest
        np.testing.assert_allclose(st.z, want_z, atol=1e-10)


def test_mean_matrices_column_sums(rng):
    g = random_graph(rng, 10)
    n = g.n
    p = np.full(n, 1 / n)
    qbar, rbar = mean_matrices(g, M, p)
    np.testing.assert_allclose(qbar.sum(axis=0), np.full(n, 1 - M / n),
                               atol=1e-14)
    w = rng.random(n) + 0.1
    p = w / w.sum()
    qbar, _ = mean_matrices(g, M, p)
    np.testing.assert_allclose(qbar.sum(axis=0), 1 - M * p, atol=1e-14)


def test_mean_matrices_match_exhaustive_expectation(rng):
    g = random_graph(rng, 15)
    w = rng.random(g.n) + 0.2
    p = w / w.sum()
    qbar, rbar = mean_matrices(g, M, p)
    q_acc = np.zeros((g.n, g.n))
    r_acc = np.zeros((g.n, g.n))
    for i in range(g.n):
        qi, ri, _ = lift_single(g, M, i)
        q_acc += p[i] * qi
        r_acc += p[i] * ri
    np.testing.assert_allclose(qbar, q_acc, atol=1e-14)
    np.testing.assert_array_equal(rbar, r_acc)


def test_mean_matrices_reject_nonpositive_p(rng):
    g = random_graph(rng, 5)
    with pytest.raises(ValueError, match="positive"):
        mean_matrices(g, M, np.array([0.5, 0.5, 0.0, 0.0, 0.0]))


def test_analytic_mean_trace_start_and_limit(rng):
    g = random_graph(rng, 10)
    n = g.n
    p = np.full(n, 1 / n)
    big_k = math.ceil(math.log(1e-8 * M) / math.log(1 - M / n))
    trace = analytic_mean_trace(g, M, p, big_k)
    np.testing.assert_array_equal(trace[0], np.full(n, M / n))
    x_star = DenseOracle(g, M).x_star
    assert np.abs(trace[-1] - x_star).sum() <= 1e-8


def test_analytic_mean_trace_one_step_cycle():
    g = cycle2()
    trace = analytic_mean_trace(g, M, np.array([0.5, 0.5]), 1)
    base = np.full(2, M / 2)
    expected = base + (dense_q(g, M) / 2) @ base
    np.testing.assert_allclose(trace[1], expected, atol=1e-16)


def test_mean_step_matrix_is_schur_stable(rng):
    g = random_graph(rng, 20)
    w = rng.random(g.n) + 0.05
    qbar, _ = mean_matrices(g, M, w / w.sum())
    assert spectral_radius(qbar) < 1.0


def test_oracle_scale_cap(rng):
    g = random_graph(rng, 201)
    with pytest.raises(ValueError, match="exceeds"):
        lift_single(g, M, 0)
