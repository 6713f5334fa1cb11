"""The running certificate stops `engines.run` where an exact sum would.

`engines.run` keeps a running estimate of ||z||_1 and sums z only near
the stopping threshold. These tests hold it to the driver that sums z
before every step (`oracles.run_summing_every_step`): same stop step,
bit-equal x and z.
"""

import numpy as np
import pytest

from pushrank import (GroupFactors, Schedule, cluster, init_state,
                      run, step_group, step_set)

from conftest import community_graph, random_graph, random_partition
from oracles import run_summing_every_step

M = 0.15
NO_RECORDS = 10**9       # no intermediate record resyncs the running mass


def schedules(kind, n, seed, rng):
    """Two identical fresh schedules of a kind, for the run and its reference."""
    if kind == "sync":
        return None, None
    if kind == "file":
        sets = [np.flatnonzero(rng.random(n) < rng.choice([0.01, 0.05, 0.5]))
                for _ in range(3000)]
        return Schedule("file", sequence=sets), Schedule("file", sequence=sets)
    spec = {"gossip": "uniform", "subset_small": "subset:0.02",
            "subset_large": "subset:0.3"}[kind]
    return (Schedule.from_spec(spec, n, seed, None),
            Schedule.from_spec(spec, n, seed, None))


def assert_same_stop(graph, m, pair, tol, factors=None, steps=None):
    state, trace = run(graph, m, pair[0], factors=factors, steps=steps,
                       tol=tol, cadence=NO_RECORDS)
    want = run_summing_every_step(graph, m, pair[1], factors=factors,
                                  steps=steps, tol=tol)
    assert state.step == want.step == trace.final_step
    np.testing.assert_array_equal(state.x, want.x)
    np.testing.assert_array_equal(state.z, want.z)
    return state


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["sync", "gossip", "subset_small",
                                  "subset_large", "file"])
def test_set_runs_stop_at_the_exact_sum_step(kind, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 300, allow_self=True)
    state = assert_same_stop(g, M, schedules(kind, g.n, seed, rng), tol=1e-4)
    assert state.step > 0


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("dense", [True, False])
def test_group_runs_stop_at_the_exact_sum_step(seed, dense, monkeypatch):
    rng = np.random.default_rng(seed)
    g, part = community_graph(rng, num_groups=6, group_size=25)
    if not dense:
        monkeypatch.setattr(cluster, "DENSE_GROUP_CAP", 0)
    factors = GroupFactors(g, M, part)
    pair = (Schedule.from_spec("uniform", part.num_groups, seed),
            Schedule.from_spec("uniform", part.num_groups, seed))
    state = assert_same_stop(g, M, pair, tol=1e-9, factors=factors)
    assert state.step > 0


def exact_sums(graph, m, schedule, steps, factors=None):
    """z.sum() before each of `steps` steps of a run without a tolerance."""
    state = init_state(graph.n, m)
    sums = []
    for k in range(steps):
        sums.append(float(state.z.sum()))
        drawn = np.arange(graph.n) if schedule is None else schedule.next(k)
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
        make = lambda: schedules(kind, g.n, 8, rng)[0]
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


def test_running_mass_of_a_long_run_stays_within_its_drift(rng):
    # few pages and many steps: rounding accumulates in the running mass
    # well past the error of one exact sum
    g = random_graph(rng, 6, allow_self=True)
    st = init_state(g.n, 0.01)
    for _ in range(5000):
        step_set(st, g, 0.01, rng.choice(g.n, size=rng.integers(1, 3),
                                         replace=False))
        assert abs(st.mass - st.z.sum()) <= st.drift


def test_running_mass_stays_within_its_drift():
    # the bound the stop rule relies on: |mass - z.sum()| <= drift after
    # every partial-set step, without any resync
    rng = np.random.default_rng(11)
    g = random_graph(rng, 400, allow_self=True)
    st = init_state(g.n, M)
    for _ in range(300):
        size = rng.choice([0, 1, 5, 60, g.n - 1])
        step_set(st, g, M, rng.choice(g.n, size=size, replace=False))
        assert abs(st.mass - st.z.sum()) <= st.drift < 1e-9
    assert st.synced_at == 0


def test_pushes_to_every_page_leave_the_mass_unknown():
    # synchronous and group steps rewrite z wholesale: the running mass is
    # unknown (infinite drift) until the next exact sum
    rng = np.random.default_rng(12)
    g = random_graph(rng, 100, allow_self=True)
    factors = GroupFactors(g, M, random_partition(rng, g.n, 5))
    st = init_state(g.n, M)
    for push in (lambda: step_set(st, g, M, np.arange(g.n)),
                 lambda: step_group(st, g, M, factors, 2)):
        push()
        assert st.drift == np.inf
        assert st.resync() == st.z.sum() == st.mass
        assert st.drift < 1e-12
        step_set(st, g, M, [3, 7])
        assert abs(st.mass - st.z.sum()) <= st.drift < 1e-12
