import io

import numpy as np
import pytest

from pushrank import (ConfigError, ParseError, Schedule, derive_seed,
                      indegree_plus_one_weights, load_edge_list)
from pushrank.scheduling import load_sequence_file, splitmix64

from conftest import random_graph
from oracles import next_set


def draws(sched, count):
    return [next_set(sched) for _ in range(count)]


def test_uniform_frequencies_and_chi_square():
    n, count = 7, 70_000
    sched = Schedule.from_spec("uniform", n, 11)
    hits = np.zeros(n)
    for _ in range(count):
        hits[next_set(sched)[0]] += 1
    freq = hits / count
    assert np.all(np.abs(freq - 1 / n) <= 0.01)
    expected = count / n
    chi2 = float(((hits - expected) ** 2 / expected).sum())
    assert chi2 < 22.46  # df=6, p ~ 0.001


def test_round_robin_pattern():
    sched = Schedule.from_spec("roundrobin", 3)
    assert [s[0] for s in draws(sched, 7)] == [0, 1, 2, 0, 1, 2, 0]


def test_periodic_groups_pattern():
    # cluster's default spec cycles the groups; "periodic" is no other name
    sched = Schedule.from_spec("roundrobin", 4, seed=0, weights=None)
    assert sched.kind == "roundrobin"
    assert [s[0] for s in draws(sched, 6)] == [0, 1, 2, 3, 0, 1]
    with pytest.raises(ConfigError, match="unknown schedule spec 'periodic'"):
        Schedule.from_spec("periodic", 4)


def test_weighted_frequencies_five_sigma():
    w = np.array([1.0, 2.0, 3.0, 4.0])
    p = w / w.sum()
    count = 1_000_000
    sched = Schedule.from_spec("weighted", w.size, 123, w)
    hits = np.zeros(4)
    for _ in range(count):
        hits[next_set(sched)[0]] += 1
    freq = hits / count
    sigma = np.sqrt(p * (1 - p) / count)
    assert np.all(np.abs(freq - p) <= 5 * sigma)


def test_indegree_plus_one_star():
    # center 0 linked by all 4 leaves and linking back: in-degrees 4,1,1,1,1
    edges = "\n".join(f"{j} 0\n0 {j}" for j in range(1, 5))
    g = load_edge_list(io.StringIO(edges))
    w = indegree_plus_one_weights(g)
    assert w.tolist() == [5.0, 2.0, 2.0, 2.0, 2.0]
    sched = Schedule.from_spec("weighted", w.size, 0, w)
    # the cumulative weights start at page 0's selection probability
    assert sched._cum[0] == pytest.approx(5 / 13)


def test_random_subset_membership_rate():
    n, q, count = 40, 0.5, 2000
    sched = Schedule.from_spec(f"subset:{q}", n, 8)
    total = sum(s.size for s in draws(sched, count))
    rate = total / (n * count)
    assert abs(rate - q) < 0.02


def test_random_subset_probability_validated():
    for bad in (1.5, 0.0, np.nan):
        with pytest.raises(ValueError):
            Schedule.from_spec(f"subset:{bad}", 5, 0)


def test_fixed_sequence_exhaustion_signals_none():
    sched = Schedule("file", n=3, sequence=[[0], [1, 2]])
    assert next_set(sched).tolist() == [0]
    assert next_set(sched).tolist() == [1, 2]
    assert next_set(sched) is None


def test_same_seed_same_sequence():
    a = Schedule.from_spec("uniform", 9, 77)
    b = Schedule.from_spec("uniform", 9, 77)
    assert [x[0] for x in draws(a, 200)] == [x[0] for x in draws(b, 200)]


def test_derived_streams_differ_and_are_stable():
    def replica_draws(replica):
        sched = Schedule.from_spec("uniform", 50, 42, replicas=3)
        return [s[replica] - 50 * replica for s in draws(sched, 100)]
    r1, r2, r1_again = replica_draws(1), replica_draws(2), replica_draws(1)
    assert r1 != r2
    assert r1 == r1_again


def test_splitmix64_known_vector():
    # first output of the reference splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert derive_seed(7, 0) == 7 ^ 0xE220A8397B1DCDAF


def test_weights_must_be_positive():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            Schedule.from_spec("weighted", 2, 0, np.array([0.5, bad]))


def test_weighted_specs_need_one_weight_per_index():
    for weights in (None, np.ones(3), np.ones((5, 1))):
        with pytest.raises(ValueError, match="needs 5 weights, one per index"):
            Schedule.from_spec("weighted", 5, 3, weights)


def test_sequence_file_parsing():
    text = "# schedule\n0,2,4\n-\n1\n\n3,3\n"
    sets = load_sequence_file(io.StringIO(text), 5)
    assert [s.tolist() for s in sets] == [[0, 2, 4], [], [1], [3, 3]]
    with pytest.raises(ParseError, match="line 1"):
        load_sequence_file(io.StringIO("0;1"), 5)


def test_weighted_draw_matches_indegree_policy_on_random_graph(rng):
    g = random_graph(rng, 30)
    w = indegree_plus_one_weights(g)
    assert np.all(w >= 1.0)
    assert w.sum() == pytest.approx(g.num_edges + g.n)


@pytest.mark.parametrize("kind", ["uniform", "weighted"])
def test_block_draws_match_scalar_draws(kind):
    # singleton draws come in blocks; the indices must be those of one
    # scalar rng.random() per step, across every block boundary, also on
    # the derived stream of replica 3 of a four-replica schedule
    n, seed, count = 37, 2024, 10_001
    weights = np.arange(1.0, n + 1.0) if kind == "weighted" else np.ones(n)
    w = weights if kind == "weighted" else None
    cum = np.cumsum(weights / weights.sum())
    cum[-1] = 1.0
    for replica, replicas in ((None, None), (3, 4)):
        sched = Schedule.from_spec(kind, n, seed, w, replicas)
        rng = np.random.default_rng(
            seed if replica is None else derive_seed(seed, replica))
        want = [int(np.searchsorted(cum, rng.random(), side="right"))
                for _ in range(count)]
        got = draws(sched, count)
        assert all(d.shape == (replicas or 1,) and d.dtype == np.intp
                   for d in got)
        r = replica or 0
        assert [int(d[r]) - r * n for d in got] == want


@pytest.mark.parametrize("spec, replicas", [
    ("uniform", None), ("weighted", 3), ("roundrobin", None),
    ("subset:0.1", 2), ("file", None)])
def test_draws_of_many_steps_are_their_steps_one_by_one(spec, replicas):
    # each `draw`, of many steps or of one, goes on where the last one
    # stopped: the sets are those of one-step draws, in step order,
    # stopping after the step that reaches the page bound and where a
    # sequence ends
    n, w = 30, np.arange(1.0, 31.0)
    rng = np.random.default_rng(8)
    sets = [np.flatnonzero(rng.random(n) < 0.1) for _ in range(50)]

    def make():
        if spec == "file":
            return Schedule("file", n=n, sequence=sets)
        seed = None if spec == "roundrobin" else 9
        return Schedule.from_spec(spec, n, seed, w, replicas)

    one, many = make(), make()
    want = draws(one, 100)
    k, got = 0, []
    for steps, pages in [(1, 1), (7, 100), (20, 5), (64, 64), (3, 1000)]:
        drawn, sizes = many.draw(steps, pages)
        assert sizes.size <= steps and drawn.size == sizes.sum()
        assert (sizes.size == steps or k + sizes.size == 50
                or sizes[:-1].sum() < pages <= sizes.sum())
        got += np.split(drawn, np.cumsum(sizes)[:-1]) if sizes.size else []
        k += sizes.size
        step = next_set(many)
        if step is not None:
            got.append(step)
            k += 1
    want = [d for d in want[:k] if d is not None]
    assert len(got) == len(want) == k
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("replicas", [1, 7, 700])
@pytest.mark.parametrize("spec", ["uniform", "weighted", "subset:0.3"])
def test_stacked_draws_are_each_replicas_own(spec, replicas):
    # replica r draws what a single schedule on its derived stream draws,
    # offset by r n, also across the blocks that many replicas cap at
    # fewer steps
    n = 20
    w = np.arange(1.0, n + 1.0)
    stacked = Schedule.from_spec(spec, n, 5, w, replicas)
    alone = [Schedule.from_spec(spec, n, derive_seed(5, r), w)
             for r in range(replicas)]
    for _ in range(120):
        want = np.concatenate([next_set(s) + r * n
                               for r, s in enumerate(alone)])
        assert np.array_equal(next_set(stacked), want)


def test_fixed_schedules_refuse_more_than_one_replica(tmp_path):
    seq = tmp_path / "two.seq"
    seq.write_text("0\n1\n")
    for spec in ("roundrobin", f"file:{seq}"):
        assert Schedule.from_spec(spec, 2, replicas=1).replicas == 1
        with pytest.raises(ValueError, match="one replica, not 2"):
            Schedule.from_spec(spec, 2, replicas=2)
    with pytest.raises(ValueError, match="at least 1"):
        Schedule.from_spec("uniform", 2, 0, replicas=0)


def test_random_kinds_need_a_seed():
    for spec in ("uniform", "weighted", "subset:0.5"):
        kind = spec.partition(":")[0]
        for replicas in (None, 3):
            with pytest.raises(ValueError, match=f"a {kind} schedule needs a seed"):
                Schedule.from_spec(spec, 5, weights=np.ones(5),
                                   replicas=replicas)


def test_never_drawn_names_idle_indices():
    sched = Schedule("file", n=5, sequence=[[0, 2], [], [2, 0]])
    assert sched.never_drawn().tolist() == [1, 3, 4]
    assert Schedule.from_spec("roundrobin", 4).never_drawn().size == 0
    assert Schedule.from_spec("uniform", 4, 0).never_drawn().size == 0


def test_file_schedules_refuse_indices_outside_their_n():
    # sets built in memory are checked once, when the schedule is built, as
    # a sequence file is when it is loaded
    for sets in ([[0], [9]], [[-1]], [[], [0, 3]]):
        with pytest.raises(ValueError, match=r"0\.\.n-1, n = 3"):
            Schedule("file", n=3, sequence=sets)
    with pytest.raises(ValueError, match="n = None"):
        Schedule("file", sequence=[[0]])
