import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pushrank import (DenseOracle, GroupFactors, Schedule, WebGraph,
                      load_edge_list, load_partition, patch_dangling,
                      power_method, run)

from conftest import graph_from_lists, random_graph
from oracles import DenseDefect, neumann_partial, q_matrix

M = 0.15
DATA = Path(__file__).resolve().parent / "data"


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
    np.testing.assert_allclose(q_matrix(g, M) @ x + M / 2, x, atol=1e-14)


def test_dense_three_isolated_pages():
    g, _ = patch_dangling(graph_from_lists(3, [[], [], []]))
    np.testing.assert_allclose(solve_dense(g, M), np.full(3, 1 / 3),
                               atol=1e-14)


@pytest.mark.parametrize("m", [0.01, 0.15, 0.5, 0.85])
@pytest.mark.parametrize("kind", ["web60", "community700", "random"])
def test_reference_matches_the_dense_lu(kind, m, rng):
    # x* from the power method against the LU solve of (I - Q) x* = (m/n) 1;
    # the random graphs have self-loops and many patched dangling pages.
    # The power iterate stops at a fixed point of the rounded step, whose
    # rounding (about eps in L1) ||(I - Q)^{-1}||_1 <= 1/m amplifies: at
    # m = 0.01 the gap reaches 2.4e-14 on such graphs
    bound = max(1e-14, 2 * np.finfo(float).eps / m)
    if kind == "random":
        graphs = [random_graph(rng, int(rng.integers(5, 300)), mean_out=1.5,
                               allow_self=True) for _ in range(3)]
    else:
        graphs = [patch_dangling(load_edge_list(DATA / f"{kind}.txt"))[0]]
    for g in graphs:
        gap = np.abs(DenseOracle(g, m).x_star - DenseDefect(g, m).x_star).sum()
        assert gap <= bound


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


def looped_chain(n=200):
    """i -> i+1 on n pages, and the last page back to pages 0..4."""
    return WebGraph(n, [*range(n - 1), *[n - 1] * 5],
                    [*range(1, n), *range(5)])


@pytest.mark.parametrize("m, tol", [(0.15, 1e-6), (0.15, 1e-9), (0.01, 1e-6),
                                    (0.01, 1e-9)])
def test_power_tol_stop_is_certified(m, tol):
    # on a long chain the step difference falls below tol while the error
    # is still up to 8.6 tol (m = 0.01); ((1-m)/m) times the difference
    # bounds the error of the new iterate, and the run stops on that
    g = looped_chain()
    oracle = DenseOracle(g, m)
    _, trace = power_method(g, m, tol=tol, oracle=oracle)
    err, cert = trace.column("err_l1")[1:, 0], trace.column("cert")[1:, 0]
    assert np.all(err <= cert)
    assert trace.final_cert <= tol and trace.final_err <= tol


def test_power_without_tol_runs_every_step(rng):
    # tol=None turns the tolerance stop off, as in engines.run
    g = random_graph(rng, 30)
    _, trace = power_method(g, M, tol=None, max_steps=200)
    assert trace.final_step == 200


@pytest.mark.parametrize("cadence", [0, -2])
def test_power_refuses_a_cadence_below_one(cadence):
    # as engines.run does: 0 is not every step, nor -2 every other step
    with pytest.raises(ValueError, match="cadence"):
        power_method(cycle2(), M, max_steps=5, cadence=cadence)


@pytest.mark.parametrize("tol", [-1e-9, np.nan])
def test_power_refuses_a_tol_that_is_negative_or_nan(tol):
    # as engines.run does: a NaN tol would run every step without a word
    with pytest.raises(ValueError, match="tol must be a non-negative number"):
        power_method(patched("web60"), M, tol=tol, max_steps=5000)


@pytest.mark.parametrize("m", [0.0, 1.0, -0.5, 1.5, np.nan])
def test_reference_and_power_refuse_m_outside_the_unit_interval(m):
    # before any work: the oracle's step count divides by ln(1 - m)
    with pytest.raises(ValueError, match=r"m must lie in \(0, 1\)"):
        DenseOracle(cycle2(), m)
    with pytest.raises(ValueError, match=r"m must lie in \(0, 1\)"):
        power_method(cycle2(), m, max_steps=0)


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


def test_oracle_keeps_nothing_larger_than_a_page_vector(rng):
    # the n x n matrix of the solve for x*, and any factor of it, is
    # dropped once x* is checked; the in-link diagonals of the product are
    # the graph's, cached before
    g = random_graph(rng, 200)
    g.in_diagonals()
    tracemalloc.start()
    try:
        oracle = DenseOracle(g, M)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept = [v for v in vars(oracle).values() if isinstance(v, np.ndarray)]
    assert kept and max(v.size for v in kept) <= g.n
    assert held < 8 * g.n * g.n / 10


class CheckedOracle(DenseOracle):
    """A dense oracle that also takes the dense defect at every record."""

    def __init__(self, graph, m):
        super().__init__(graph, m)
        self.dense = DenseDefect(graph, m)
        self.pairs = []

    def conservation_defect(self, x, z):
        bound = super().conservation_defect(x, z)
        self.pairs.append((bound, self.dense(x, z)))
        return bound


def patched(name):
    return patch_dangling(load_edge_list(DATA / f"{name}.txt"))[0]


@pytest.mark.parametrize("name, spec, replicas, steps", [
    ("web60", "uniform", None, 400),             # gossip
    ("web60", "subset:0.25", None, 100),         # multi
    ("community700", "uniform", None, 60),       # cluster
    ("web60", "uniform", 9, 200),                # stacked mc
])
def test_defect_bound_covers_the_dense_defect_at_every_record(name, spec,
                                                              replicas,
                                                              steps):
    graph, factors = patched(name), None
    if name == "community700":
        factors = GroupFactors(graph, M, load_partition(
            DATA / "community700.groups", graph))
    units = graph.n if factors is None else factors.num_groups
    sched = Schedule.from_spec(spec, units, 5, replicas=replicas)
    oracle = CheckedOracle(graph, M)
    trace = run(graph, M, sched, factors=factors, steps=steps,
                oracle=oracle, cadence=1)[1]
    bound, dense = (np.array(v) for v in zip(*oracle.pairs))
    assert bound.shape == dense.shape == (steps + 1, sched.replicas)
    np.testing.assert_array_equal(trace.column("defect"), bound)
    assert (bound >= dense - 1e-15).all()
    assert bound.max() <= 1e-13


def test_defect_bound_sees_a_spike_on_any_page():
    # row p of the first half holds a gossip state with s added to x at
    # page p, of the second half with s added to z there: the dense
    # defects are s and (1-m)/m s, and the bound is exact on the second
    graph = patched("web60")
    n, spike = graph.n, 1e-6
    state = run(graph, M, Schedule.from_spec("uniform", n, 3), steps=400)[0]
    x, z = np.tile(state.x, (2 * n, 1)), np.tile(state.z, (2 * n, 1))
    x[np.arange(n), np.arange(n)] += spike
    z[np.arange(n) + n, np.arange(n)] += spike
    bound = DenseOracle(graph, M).conservation_defect(x, z)
    dense = DenseDefect(graph, M)(x, z)
    assert bound.shape == dense.shape == (2 * n,)
    assert (bound >= dense - 1e-15).all()
    assert (bound >= spike).all()
    np.testing.assert_allclose(dense, np.repeat([1, (1 - M) / M], n) * spike,
                               rtol=1e-9)
