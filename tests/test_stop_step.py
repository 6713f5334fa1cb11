"""The certificate stops `engines.run` where an exact sum would.

`engines.run` keeps a lower bound on ||z||_1 and sums z only when the
bound reaches the stop level, and pushes runs of independent steps in
one call.
These tests hold it to the driver that sums z before every step
(`oracles.run_summing_every_step`): same stop step, bit-equal x and z;
and its whole trace to the driver that pushes one step per call
(`oracles.run_step_by_step`).
"""

import numpy as np
import pytest

from pushrank import (GroupFactors, Partition, Schedule, engines, init_state,
                      run, indegree_plus_one_weights, patch_dangling)

from conftest import (community_graph, graph_from_lists, random_graph,
                      random_partition)
from oracles import (next_set, run_step_by_step, run_summing_every_step,
                     step_group, step_set)

M = 0.15
NO_RECORDS = 10**9       # record only the first and the last step


SPECS = {"gossip": "uniform", "weighted": "weighted:indegree_plus_one",
         "roundrobin": "roundrobin", "subset_small": "subset:0.02",
         "subset_large": "subset:0.3"}


def schedules(kind, graph, seed, rng, replicas=None):
    """Two identical fresh schedules of a kind, for the run and its reference."""
    n = graph.n
    if kind == "sync":
        return None, None
    if kind in ("file", "file_every_page"):
        sets = [np.flatnonzero(rng.random(n) < rng.choice([0.01, 0.05, 0.5]))
                for _ in range(3000)]
        if kind == "file_every_page":   # pushed by the mat-vec, alone
            sets[9::10] = [np.arange(n)] * len(sets[9::10])
        return (Schedule("file", n=n, sequence=sets),
                Schedule("file", n=n, sequence=sets))
    weights = indegree_plus_one_weights(graph) if kind == "weighted" else None
    seed = None if kind == "roundrobin" else seed
    return tuple(Schedule.from_spec(SPECS[kind], n, seed, weights, replicas)
                 for _ in range(2))


def assert_same_stop(graph, m, pair, tol, factors=None, steps=None,
                     want_factors=None):
    """Run and reference stop alike; the reference takes `want_factors`
    when given, else the run's `factors`."""
    state, trace = run(graph, m, pair[0], factors=factors, steps=steps,
                       tol=tol, cadence=NO_RECORDS)
    want = run_summing_every_step(
        graph, m, pair[1], steps=steps, tol=tol,
        factors=factors if want_factors is None else want_factors)
    assert state.step == want.step == trace.final_step
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)
    return state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["sync", "gossip", "weighted", "roundrobin",
                                  "subset_small", "subset_large", "file",
                                  "file_every_page"])
def test_set_runs_stop_at_the_exact_sum_step(kind, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 300, allow_self=True)
    state = assert_same_stop(g, M, schedules(kind, g, seed, rng), tol=1e-4)
    assert state.step > (10 if kind == "file_every_page" else 0)


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("shared", [True, False])
def test_group_runs_stop_at_the_exact_sum_step(seed, shared):
    # shared: the run and its reference solve with one GroupFactors, so a
    # solve that left state behind would show; else each builds its own
    rng = np.random.default_rng(seed)
    g, part = community_graph(rng, num_groups=6, group_size=25)
    factors = GroupFactors(g, M, part)
    want_factors = None if shared else GroupFactors(g, M, part)
    pair = (Schedule.from_spec("uniform", part.num_groups, seed),
            Schedule.from_spec("uniform", part.num_groups, seed))
    state = assert_same_stop(g, M, pair, tol=1e-9, factors=factors,
                             want_factors=want_factors)
    assert state.step > 0


@pytest.mark.parametrize("tol", [None, 0.65])
@pytest.mark.parametrize("kind", ["gossip", "weighted", "roundrobin", "file"])
def test_runs_above_1000_pages_keep_the_step_by_step_trace(kind, tol):
    # the default record rule records by sweeps of counted updates, so
    # segments end at records, at conflicts and near the stop level
    rng = np.random.default_rng(21)
    g = random_graph(rng, 2000, mean_out=6.0, allow_self=True)
    pair = schedules(kind, g, 22, rng)
    state, trace = run(g, M, pair[0], steps=5000, tol=tol)
    want, want_trace = run_step_by_step(g, M, pair[1], steps=5000, tol=tol)
    assert len(trace.steps) >= 3 and state.step == want.step
    if tol is not None and kind != "file":
        assert state.step < 5000
    for name in ("steps", "updates", "cert"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(want_trace, name))
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)


def test_small_runs_to_a_tol_record_by_sweeps_in_segments(monkeypatch):
    # the default record rule on a small graph: segments span the steps
    # between sweep crossings, and the run keeps the step-by-step trace
    rng = np.random.default_rng(25)
    g = random_graph(rng, 300, allow_self=True)
    pair = schedules("gossip", g, 26, rng)
    push, calls = engines._push_segment, []

    def counted(*args):
        calls.append(args)
        return push(*args)
    monkeypatch.setattr(engines, "_push_segment", counted)
    state, trace = run(g, M, pair[0], steps=50_000, tol=1e-6)
    monkeypatch.setattr(engines, "_push_segment", push)
    want, want_trace = run_step_by_step(g, M, pair[1], steps=50_000, tol=1e-6)
    assert 0 < state.step == want.step < 50_000
    assert len(calls) < state.step // 4
    assert len(trace.steps) == len(want_trace.steps) >= 3
    for name in ("steps", "updates", "cert"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(want_trace, name))
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)


@pytest.mark.parametrize("cadence", [None, 7])
def test_stacked_runs_keep_the_step_by_step_trace(cadence):
    rng = np.random.default_rng(23)
    g = random_graph(rng, 1500, allow_self=True)
    pair = schedules("gossip", g, 24, rng, replicas=3)
    state, trace = run(g, M, pair[0], steps=3000, cadence=cadence)
    want, want_trace = run_step_by_step(g, M, pair[1], steps=3000,
                                        cadence=cadence)
    for name in ("steps", "updates", "cert"):
        np.testing.assert_array_equal(getattr(trace, name),
                                      getattr(want_trace, name))
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)


def exact_sums(graph, m, schedule, steps, factors=None):
    """z.sum() before each of `steps` steps of a run without a tolerance."""
    state = init_state(graph.n, m)
    sums = []
    for _ in range(steps):
        sums.append(float(state.z.sum()))
        drawn = np.arange(graph.n) if schedule is None else next_set(schedule)
        if factors is None:
            step_set(state, graph, m, drawn)
        else:
            step_group(state, graph, m, factors, int(drawn[0]))
    return sums


@pytest.mark.parametrize("kind", ["sync", "gossip", "subset_small", "group"])
def test_tol_met_exactly_at_step_k_stops_at_k(kind):
    # with m = 1/2 the stop level m tol / (1-m) is tol itself, so tol can
    # be set to the exact sum before step k
    m, k = 0.5, 40
    rng = np.random.default_rng(7)
    g = random_graph(rng, 300, allow_self=True)
    factors = None
    if kind == "group":
        factors = GroupFactors(g, m, random_partition(rng, g.n, 30))
        make = lambda: Schedule.from_spec("uniform", factors.num_groups, 8)
    else:
        make = lambda: schedules(kind, g, 8, rng)[0]
    sums = exact_sums(g, m, make(), k + 1, factors)
    assert min(sums[:k]) > sums[k]
    for tol in (sums[k], np.nextafter(sums[k], 0.0)):
        state, _ = run(g, m, make(), factors=factors, tol=tol,
                       steps=10 * k, cadence=NO_RECORDS)
        want = run_summing_every_step(g, m, make(), factors=factors,
                                      steps=10 * k, tol=tol)
        assert state.step == want.step
        np.testing.assert_array_equal(state.z, want.z)
    assert run(g, m, make(), factors=factors, tol=sums[k], steps=10 * k,
               cadence=NO_RECORDS)[0].step == k


@pytest.mark.parametrize("n, m", [(6, 0.01), (40, 0.01), (2000, 0.05)])
def test_long_runs_stop_at_the_exact_sum_step(n, m):
    # few pages, a small m and thousands of steps: z is summed many times,
    # and rounding piles up most in the lower bound between two sums
    rng = np.random.default_rng(n)
    g = random_graph(rng, n, allow_self=True)
    make = lambda: Schedule.from_spec("uniform", n, 31)
    sums = exact_sums(g, m, make(), 3000)
    for k in (50, 700, 2999):
        tol = sums[k] * (1 - m) / m
        state = assert_same_stop(g, m, (make(), make()), tol, steps=4000)
        assert 0 < state.step < 4000


def closed_group_graph(rng, n=150, closed=20, num_groups=5):
    """(graph, partition): pages 0..closed-1 link only among themselves,
    with self-loops, and form group 0, which pushes nothing out; the other
    pages link anywhere, those without out-links patched to link to every
    page, and spread over `num_groups` random groups."""
    out = []
    for j in range(n):
        pool = np.arange(closed if j < closed else n)
        d = min(int(rng.poisson(3.0)), pool.size)
        if j < closed:
            d = max(d, 1)
        out.append(rng.choice(pool, size=d, replace=False) if d else [])
    g, patched = patch_dangling(graph_from_lists(n, out))
    assert patched.size and patched.min() >= closed
    groups = np.concatenate((np.zeros(closed, dtype=int),
                             rng.integers(1, num_groups + 1, n - closed)))
    return g, Partition(groups)


@pytest.mark.parametrize("m", [0.01, 0.15, 0.5])
@pytest.mark.parametrize("shared", [True, False])
def test_group_runs_stop_at_the_exact_sum_step_of_chosen_steps(m, shared):
    # a group step lowers z.sum() by m times what it pushes, which for
    # the closed group is nearly all it held, and the patched pages'
    # columns reach every row: the bound between two sums must still
    # stop the run where summing before every step does
    rng = np.random.default_rng(41)
    g, part = closed_group_graph(rng)
    factors = GroupFactors(g, m, part)
    want_factors = None if shared else GroupFactors(g, m, part)
    make = lambda: Schedule.from_spec("uniform", part.num_groups, 43)
    sums = exact_sums(g, m, make(), 400, factors)
    assert sums[-1] > 0.0
    for k in (3, 40, 399):
        tol = sums[k] * (1 - m) / m
        state = assert_same_stop(g, m, (make(), make()), tol,
                                 factors=factors, steps=2000,
                                 want_factors=want_factors)
        assert 0 < state.step < 2000
