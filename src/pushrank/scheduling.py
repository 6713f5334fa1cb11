"""Update schedules: which pages (or groups) push at each step.

`Schedule.from_spec` is the one place a spec string becomes a schedule:
``uniform`` and ``weighted`` draw one index per step, ``roundrobin`` and
``periodic`` cycle ``k mod n``, ``subset:<q>`` draws each index with
probability q and ``file:<path>`` replays the sets of a sequence file.
Which specs an algorithm accepts is the harness's table, not this module's.

Random kinds draw from a seeded PCG64 stream and are reproducible across
platforms; singleton draws use an inverse-CDF lookup (binary search on the
cumulative weight array). Singleton draws are made in blocks: one
``rng.random(k)`` and one vector search give the indices of the next k
steps, the same doubles and indices as k scalar draws. Blocks double from
16 to 4096 draws, so a short replica draws few it does not use. Parallel
replicas never share a stream: replica r derives its own seed as
``seed XOR splitmix64(r)``.

A schedule is owned by one engine replica and consumed sequentially; call
`derive` for a replica stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ParseError
from .webgraph import _INT64, _as_lines

__all__ = ["Schedule", "indegree_plus_one_weights", "load_sequence_file",
           "derive_seed", "splitmix64"]

_MASK64 = (1 << 64) - 1

RANDOM_KINDS = ("uniform_singleton", "weighted_singleton", "random_subset")
# singleton draws come in blocks that double from _BLOCK_MIN to _BLOCK_MAX
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
    """A policy producing the update set for each step.

    Kinds: ``uniform_singleton`` and ``weighted_singleton`` draw one index
    per step from a seeded stream; ``round_robin`` cycles {k mod n};
    ``fixed_sequence`` replays explicit sets and signals exhaustion by
    returning None; ``random_subset`` includes each index independently
    with probability q.
    """

    def __init__(self, kind, *, n=None, weights=None, seed=None, q=None,
                 sequence=None):
        self.kind = kind
        self.n = n
        self.seed = seed
        self.q = q
        self.weights = None
        self._cum = None
        if weights is not None:
            w = np.asarray(weights, dtype=float)
            if not np.all((w > 0) & np.isfinite(w)):
                raise ValueError("selection weights must all be positive and finite")
            self.weights = w / w.sum()
            self._cum = np.cumsum(self.weights)
            self._cum[-1] = 1.0
            self.n = w.size
        self.sequence = None
        if sequence is not None:
            self.sequence = [np.unique(np.asarray(s, dtype=np.intp)).reshape(-1)
                             for s in sequence]
        self._rng = np.random.default_rng(seed) if kind in RANDOM_KINDS else None
        self._next_k = 0
        self._block = np.empty(0, dtype=np.intp)    # drawn singleton indices
        self._taken = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_spec(cls, spec, n, seed, weights):
        """Schedule over n indices for a spec string (see the module doc).

        `weights` are the selection weights of a ``weighted`` spec (else unused).
        """
        kind, _, arg = spec.partition(":")
        if kind in ("roundrobin", "periodic"):
            return cls.round_robin(n)
        if kind == "uniform":
            return cls.uniform_singleton(n, seed)
        if kind == "weighted":
            return cls.weighted_singleton(weights, seed)
        if kind == "subset":
            try:
                q = float(arg)
            except ValueError:
                raise ConfigError(f"bad subset probability in {spec!r}") from None
            return cls.random_subset(n, q, seed)
        if kind == "file":
            return cls.fixed_sequence(load_sequence_file(arg))
        raise ConfigError(f"unknown schedule spec {spec!r}")

    @classmethod
    def uniform_singleton(cls, n, seed):
        return cls("uniform_singleton", weights=np.ones(n), seed=seed)

    @classmethod
    def weighted_singleton(cls, weights, seed):
        return cls("weighted_singleton", weights=weights, seed=seed)

    @classmethod
    def round_robin(cls, n):
        return cls("round_robin", n=n)

    @classmethod
    def fixed_sequence(cls, sets):
        return cls("fixed_sequence", sequence=sets)

    @classmethod
    def random_subset(cls, n, q, seed):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"subset probability must lie in (0, 1], got {q}")
        return cls("random_subset", n=n, q=q, seed=seed)

    # -- stream management ---------------------------------------------

    @property
    def is_random(self):
        return self.kind in RANDOM_KINDS

    @property
    def mean_draw_size(self):
        """Expected number of indices one draw returns, at least 1."""
        if self.kind == "random_subset":
            return max(1.0, self.q * self.n)
        if self.kind == "fixed_sequence":
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

    def derive(self, replica):
        """Clone for a Monte Carlo replica, on its own derived stream."""
        seed = derive_seed(self.seed, replica) if self.is_random else self.seed
        return Schedule(self.kind, n=self.n, weights=self.weights,
                        seed=seed, q=self.q, sequence=self.sequence)

    # -- drawing --------------------------------------------------------

    def next(self, k):
        """The update set for step k, or None when a sequence is exhausted.

        Random kinds consume their stream and must be called with
        consecutive k starting at 0.
        """
        if self.is_random:
            if k != self._next_k:
                raise ValueError(
                    f"random schedule must be consumed sequentially: "
                    f"expected step {self._next_k}, got {k}")
            self._next_k += 1
            if self.kind == "random_subset":
                return np.flatnonzero(self._rng.random(self.n) < self.q)
            if self._taken == self._block.size:
                size = min(_BLOCK_MAX, max(_BLOCK_MIN, 2 * self._block.size))
                self._block = np.searchsorted(self._cum, self._rng.random(size),
                                              side="right")
                self._taken = 0
            self._taken += 1
            return self._block[self._taken - 1:self._taken]
        if self.kind == "round_robin":
            return np.array([k % self.n], dtype=np.intp)
        if self.kind == "fixed_sequence":
            if k >= len(self.sequence):
                return None
            return self.sequence[k]
        raise AssertionError(f"unhandled schedule kind {self.kind!r}")


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
        tokens = [tok.strip() for tok in line.split(",")]
        if not all(_INT64.fullmatch(tok) for tok in tokens):
            raise ParseError(
                f"line {lineno}: expected comma-separated integers, got {line!r}")
        values = [int(tok) for tok in tokens]
        if not all(-2**63 <= v < 2**63 for v in values):
            raise ParseError(
                f"line {lineno}: integer does not fit 64 bits in {line!r}")
        sets.append(np.array(values, dtype=np.intp))
    return sets
