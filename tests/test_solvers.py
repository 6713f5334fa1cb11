import io

import numpy as np
import pytest

from pushrank import DenseOracle, load_edge_list, patch_dangling, power_method

from conftest import graph_from_lists, random_graph
from oracles import neumann_partial

M = 0.15


def cycle2():
    return load_edge_list(io.StringIO("0 1\n1 0"))


def patched_chain():
    g, _ = patch_dangling(load_edge_list(io.StringIO("0 1")))
    return g


def solve_dense(graph, m):
    return DenseOracle(graph, m).x_star


def test_dense_two_node_cycle():
    np.testing.assert_allclose(solve_dense(cycle2(), M), [0.5, 0.5],
                               atol=1e-14)


def test_dense_patched_chain():
    # frozen from the defining equation: x0 = 0.425 x1 + 0.075 and
    # x1 = 0.85 x0 + 0.425 x1 + 0.075 give x = (20/57, 37/57)
    x = solve_dense(patched_chain(), M)
    np.testing.assert_allclose(x, [20 / 57, 37 / 57], atol=1e-14)
    np.testing.assert_allclose(x, [0.350877, 0.649123], atol=1e-6)
    # substitution check: x = Q x + (m/n) 1
    g = patched_chain()
    np.testing.assert_allclose(g.q_matrix(M) @ x + M / 2, x, atol=1e-14)


def test_dense_three_isolated_pages():
    g, _ = patch_dangling(graph_from_lists(3, [[], [], []]))
    np.testing.assert_allclose(solve_dense(g, M), np.full(3, 1 / 3),
                               atol=1e-14)


def test_dense_cap_error():
    g = cycle2()
    with pytest.raises(ValueError, match="power_method"):
        DenseOracle(g, M, dense_cap=1)


def test_dense_floor_and_mass(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(5, 80)))
        x = solve_dense(g, M)
        assert x.min() >= M / g.n - 1e-15
        assert abs(x.sum() - 1.0) <= 1e-10


def test_power_one_hand_step():
    # from x(0) = (1/2, 1/2): x(1) = 0.85 (1/4, 1/2 + 1/4) + 0.075
    x, _ = power_method(patched_chain(), M, max_steps=1, tol=0.0)
    np.testing.assert_allclose(x, [0.2875, 0.7125], atol=1e-15)


def test_power_fixed_point():
    # every page has in-degree 2 and out-degree 2, so A is doubly
    # stochastic and the uniform start is already x*
    g = graph_from_lists(5, [[1, 2], [2, 3], [3, 4], [4, 0], [0, 1]])
    x_star = solve_dense(g, M)
    x, trace = power_method(g, M, max_steps=1, tol=0.0)
    assert np.abs(x - x_star).sum() <= 1e-12
    assert trace.final_step == 1


def test_power_matches_dense(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(5, 80)))
        oracle = DenseOracle(g, M)
        x, trace = power_method(g, M, tol=1e-13, oracle=oracle)
        assert oracle.error_l1(x) <= 1e-10
        assert trace.final_updates == trace.final_step * g.n


def test_power_without_tol_runs_every_step(rng):
    # tol=None turns the tolerance stop off, as in engines.run
    g = random_graph(rng, 30)
    _, trace = power_method(g, M, tol=None, max_steps=200)
    assert trace.final_step == 200


def test_power_keeps_probability_mass(rng):
    g = random_graph(rng, 40)
    x, _ = power_method(g, M, tol=1e-13)
    assert abs(x.sum() - 1.0) <= 1e-12


def test_neumann_k0_is_teleport_mass():
    g = cycle2()
    np.testing.assert_array_equal(neumann_partial(g, M, 0),
                                  np.full(2, M / 2))


def test_neumann_converges_geometrically(rng):
    g = random_graph(rng, 30)
    x_star = solve_dense(g, M)
    x = neumann_partial(g, M, 500)
    assert np.abs(x - x_star).sum() <= 1e-10


def test_neumann_monotone_in_k(rng):
    g = random_graph(rng, 20)
    prev = neumann_partial(g, M, 0)
    for k in range(1, 40):
        cur = neumann_partial(g, M, k)
        assert np.all(cur >= prev - 1e-15)
        prev = cur


def test_neumann_rejects_negative_k():
    with pytest.raises(ValueError):
        neumann_partial(cycle2(), M, -1)


def test_oracle_conservation_identity(rng):
    g = random_graph(rng, 25)
    oracle = DenseOracle(g, M)
    # x* itself with z = 0 has zero defect
    assert oracle.conservation_defect(oracle.x_star, np.zeros(g.n)) <= 1e-12
    # the initial push state conserves as well
    z0 = np.full(g.n, M / g.n)
    assert oracle.conservation_defect(z0.copy(), z0) <= 1e-12
