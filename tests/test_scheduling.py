import io

import numpy as np
import pytest

from pushrank import (ConfigError, ParseError, Schedule, derive_seed,
                      indegree_plus_one_weights, load_edge_list)
from pushrank.scheduling import load_sequence_file, splitmix64

from conftest import random_graph


def draws(sched, count):
    return [sched.next(k) for k in range(count)]


def test_uniform_frequencies_and_chi_square():
    n, count = 7, 70_000
    sched = Schedule.from_spec("uniform", n, 11)
    hits = np.zeros(n)
    for k in range(count):
        hits[sched.next(k)[0]] += 1
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
    for k in range(count):
        hits[sched.next(k)[0]] += 1
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
    sched = Schedule("file", sequence=[[0], [1, 2]])
    assert sched.next(0).tolist() == [0]
    assert sched.next(1).tolist() == [1, 2]
    assert sched.next(2) is None


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


def test_random_schedule_requires_sequential_consumption():
    sched = Schedule.from_spec("uniform", 5, 1)
    sched.next(0)
    with pytest.raises(ValueError, match="sequentially"):
        sched.next(5)


def test_weights_must_be_positive():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive"):
            Schedule.from_spec("weighted", 2, 0, np.array([0.5, bad]))


def test_sequence_file_parsing():
    text = "# schedule\n0,2,4\n-\n1\n\n3,3\n"
    sets = load_sequence_file(io.StringIO(text))
    assert [s.tolist() for s in sets] == [[0, 2, 4], [], [1], [3, 3]]
    with pytest.raises(ParseError, match="line 1"):
        load_sequence_file(io.StringIO("0;1"))


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
        got = [sched.next(k) for k in range(count)]
        assert all(d.shape == (replicas or 1,) and d.dtype == np.intp
                   for d in got)
        r = replica or 0
        assert [int(d[r]) - r * n for d in got] == want


def test_block_draws_still_require_sequential_steps():
    sched = Schedule.from_spec("uniform", 5, 1)
    for k in range(16):          # the whole first block
        sched.next(k)
    with pytest.raises(ValueError, match="sequentially"):
        sched.next(15)
    with pytest.raises(ValueError, match="sequentially"):
        sched.next(17)
    assert sched.next(16).shape == (1,)


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
    for k in range(120):
        want = np.concatenate([s.next(k) + r * n for r, s in enumerate(alone)])
        assert np.array_equal(stacked.next(k), want)


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
    sched = Schedule("file", sequence=[[0, 2], [], [2, 9], [-1]])
    assert sched.never_drawn(5).tolist() == [1, 3, 4]
    assert Schedule.from_spec("roundrobin", 4).never_drawn(4).size == 0
    assert Schedule.from_spec("uniform", 4, 0).never_drawn(4).size == 0
