"""Update schedules: which pages (or groups) push at each step.

`Schedule.from_spec` is the one place a spec string becomes a schedule,
and a schedule's `kind` is its spec's: ``uniform`` and
``weighted:<weights>`` draw one index per step (the caller resolves the
weights the spec names), ``roundrobin`` cycles ``k mod n``,
``subset:<q>`` draws each index with probability q and ``file:<path>``
replays the sets of a sequence file. `RANDOM_KINDS` names the kinds that
draw at random, the only ones a seed steers, and each needs one. Which
specs an algorithm accepts is the harness's table, not this module's.

Random kinds draw from seeded PCG64 streams and are reproducible across
platforms; singleton draws use an inverse-CDF lookup (binary search on the
cumulative weight array). A schedule draws for R replicas of a run at once
(`replicas`; one when None) and returns every replica's draw for a step as
one ascending array of stacked indices ``r n + i`` (replica r's index i).
A single run has one stream on `seed`; with `replicas` R, replica r has
its own stream on ``derive_seed(seed, r)`` = ``seed XOR splitmix64(r)``,
so no two replicas share one. Only random kinds draw for more than one
replica. Singleton draws are made in blocks: one ``rng.random(k)`` per
stream and one vector search give the indices of the next k steps, the
same doubles and indices as k scalar draws. Blocks double from 16 to 4096
steps, so a short run draws few it does not use.

A schedule is owned by one run and consumed sequentially.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .webgraph import _as_lines, _int64s

__all__ = ["Schedule", "indegree_plus_one_weights", "load_sequence_file",
           "subset_probability", "derive_seed", "splitmix64"]

_MASK64 = (1 << 64) - 1

RANDOM_KINDS = ("uniform", "weighted", "subset")
# singleton draws come in blocks of steps that double from _BLOCK_MIN to
# _BLOCK_MAX; a block holds at most _BLOCK_MAX * _BLOCK_MIN draws
_BLOCK_MIN = 16
_BLOCK_MAX = 4096


def splitmix64(v):
    """One splitmix64 output step; the stable scrambler behind seed derivation."""
    v = (v + 0x9E3779B97F4A7C15) & _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return v ^ (v >> 31)


def derive_seed(seed, replica):
    """Replica stream seed: base seed XOR splitmix64(replica)."""
    return (int(seed) & _MASK64) ^ splitmix64(int(replica))


def indegree_plus_one_weights(graph):
    """Selection weights proportional to each page's in-degree plus one."""
    return np.bincount(graph.indices, minlength=graph.n) + 1.0


class Schedule:
    """A policy producing the update set for each step, for `replicas` runs.

    `kind` is a spec kind (see the module doc). ``file`` replays explicit
    `sequence` sets, also ones built in memory, and signals exhaustion by
    returning None.
    """

    def __init__(self, kind, *, n=None, weights=None, seed=None, q=None,
                 sequence=None, replicas=None):
        self.kind = kind
        self.n = n
        self.q = q
        self.replicas = 1 if replicas is None else replicas
        if self.replicas < 1:
            raise ValueError(f"replicas must be at least 1, got {replicas}")
        if self.replicas > 1 and kind not in RANDOM_KINDS:
            raise ValueError(f"a {kind} schedule draws for one replica, "
                             f"not {replicas}")
        self._cum = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if not np.all((w > 0) & np.isfinite(w)):
                raise ValueError("selection weights must all be positive and finite")
            self._cum = np.cumsum(w / w.sum())
            self._cum[-1] = 1.0
            self.n = w.size
        self.sequence = None
        if sequence is not None:
            self.sequence = [np.unique(np.asarray(s, dtype=np.intp)).reshape(-1)
                             for s in sequence]
        self._rngs = None
        if kind in RANDOM_KINDS:
            if seed is None:
                raise ValueError(f"a {kind} schedule needs a seed")
            seeds = ([seed] if replicas is None else
                     [derive_seed(seed, r) for r in range(replicas)])
            self._rngs = [np.random.default_rng(s) for s in seeds]
        self._next_k = 0
        self._block = np.empty((0, self.replicas), dtype=np.intp)
        self._taken = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_spec(cls, spec, n, seed=None, weights=None, replicas=None):
        """Schedule over n indices for a spec string (see the module doc).

        `weights` are the selection weights of a ``weighted`` spec (else unused).
        """
        kind, _, arg = spec.partition(":")
        if kind == "roundrobin":
            return cls(kind, n=n, replicas=replicas)
        if kind == "uniform":
            return cls(kind, weights=np.ones(n), seed=seed, replicas=replicas)
        if kind == "weighted":
            return cls(kind, weights=weights, seed=seed, replicas=replicas)
        if kind == "subset":
            return cls(kind, n=n, q=subset_probability(spec), seed=seed,
                       replicas=replicas)
        if kind == "file":
            return cls(kind, sequence=load_sequence_file(arg), replicas=replicas)
        raise ConfigError(f"unknown schedule spec {spec!r}")

    # -- queries --------------------------------------------------------

    @property
    def mean_draw_size(self):
        """Expected number of indices one replica's draw holds, at least 1."""
        if self.kind == "subset":
            return max(1.0, self.q * self.n)
        if self.kind == "file":
            sizes = [s.size for s in self.sequence] or [1]
            return max(1.0, sum(sizes) / len(sizes))
        return 1.0

    def never_drawn(self, n):
        """Indices in 0..n-1 that a fixed sequence never draws, ascending.

        Empty for the other kinds, which reach every index eventually.
        """
        if self.sequence is None:
            return np.empty(0, dtype=np.intp)
        drawn = np.zeros(n, dtype=bool)
        named = np.concatenate([np.empty(0, dtype=np.intp), *self.sequence])
        drawn[named[(named >= 0) & (named < n)]] = True
        return np.flatnonzero(~drawn)

    # -- drawing --------------------------------------------------------

    def next(self, k):
        """Every replica's update set for step k as stacked indices, or None
        when a sequence is exhausted.

        Random kinds consume their streams and must be called with
        consecutive k starting at 0.
        """
        if self._rngs is not None:
            if k != self._next_k:
                raise ValueError(f"random schedule must be consumed sequentially: "
                                 f"expected step {self._next_k}, got {k}")
            self._next_k += 1
        if self.kind in ("uniform", "weighted"):
            if self._taken == len(self._block):
                size = min(max(_BLOCK_MIN, 2 * len(self._block)), _BLOCK_MAX,
                           max(1, _BLOCK_MAX * _BLOCK_MIN // self.replicas))
                doubles = np.stack([rng.random(size) for rng in self._rngs],
                                   axis=1)
                self._block = np.searchsorted(self._cum, doubles, side="right")
                self._block += self.n * np.arange(self.replicas)
                self._taken = 0
            self._taken += 1
            return self._block[self._taken - 1]
        if self.kind == "subset":
            # replica r's draw is row r of the mask: flat index r n + i
            return np.flatnonzero(
                np.stack([rng.random(self.n) for rng in self._rngs]) < self.q)
        if self.kind == "roundrobin":
            return np.array([k % self.n], dtype=np.intp)
        if self.kind == "file":
            if k >= len(self.sequence):
                return None
            return self.sequence[k]
        raise AssertionError(f"unhandled schedule kind {self.kind!r}")


def subset_probability(spec):
    """The q of a ``subset:<q>`` spec, which must lie in (0, 1]."""
    try:
        q = float(spec.partition(":")[2])
    except ValueError:
        raise ConfigError(f"bad subset probability in {spec!r}") from None
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"subset probability must lie in (0, 1], got {q}")
    return q


def load_sequence_file(source):
    """Explicit update sequence: one set per line, comma-separated indices.

    Blank and ``#`` lines are skipped; a line containing just ``-`` denotes
    the empty set (a no-op step). Indices are ASCII integers with an
    optional sign that fit 64 bits, as in edge lists (`pushrank.webgraph`).
    """
    sets = []
    for lineno, line in _as_lines(source):
        if line == "-":
            sets.append(np.empty(0, dtype=np.intp))
            continue
        values = _int64s(lineno, line, [tok.strip() for tok in line.split(",")],
                         "comma-separated integers")
        sets.append(np.array(values, dtype=np.intp))
    return sets
