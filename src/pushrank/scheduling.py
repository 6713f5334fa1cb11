"""Update schedules: which pages (or groups) push at each step.

`Schedule.from_spec` is the one place a spec string becomes a schedule,
and a schedule's `kind` is its spec's: ``uniform`` and
``weighted:<weights>`` draw one index per step (the caller resolves the
weights the spec names), ``roundrobin`` cycles ``k mod n``,
``subset:<q>`` draws each index with probability q and ``file:<path>``
replays the sets of a sequence file. `RANDOM_KINDS` names the kinds that
draw at random, the only ones a seed steers, and each needs one. Which
specs an algorithm accepts is the harness's table, not this module's.

Random kinds draw from seeded PCG64 streams, the doubles of
``np.random.default_rng(seed).random()``, and are reproducible across
platforms; singleton draws use an inverse-CDF lookup (binary search on the
cumulative weight array). A schedule draws for R replicas of a run at once
(`replicas`; one when None) and returns every replica's draw for a step as
one ascending array of stacked indices ``r n + i`` (replica r's index i).
A single run has one stream on `seed`; with `replicas` R, replica r has
its own stream on ``derive_seed(seed, r)`` = ``seed XOR splitmix64(r)``,
so no two replicas share one. Only random kinds draw for more than one
replica.

Every random kind draws from `_pcg64.Streams`, which computes numpy's
PCG64 doubles bit for bit with numpy arithmetic, so that no run imports
numpy.random (5.5 MB of RSS). ``uniform`` and ``weighted`` draw in
blocks: one `Streams.random` call and one vector search give every
replica's indices of the next k steps, the same doubles and indices as
k scalar draws. Blocks double from 16 to 4096 steps, so a short run draws
few it does not use. ``subset`` draws n doubles a step for each replica.

A schedule is owned by one run and keeps its own position: each `draw`
goes on where the last one stopped. Every set it draws is ascending,
duplicate-free and within its n indices (stacked: 0..R n - 1), so a run
pushes it as drawn; a ``file`` schedule checks its sets when it is built.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ParseError
from .webgraph import _as_lines, _distinct, _int64s

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
    `sequence` sets, also ones built in memory, over n indices, and ends
    where they do. The random kinds draw from one `_pcg64.Streams` over
    every replica's seed.
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
            self.sequence = [_distinct(np.asarray(s, dtype=np.intp))
                             for s in sequence]
            named = np.concatenate([np.empty(0, dtype=np.intp), *self.sequence])
            if n is None or named.size and not (0 <= named.min()
                                                and named.max() < n):
                raise ValueError("a file schedule's sets must lie in 0..n-1, "
                                 f"n = {n}")
        self._streams = None
        if kind in RANDOM_KINDS:
            if seed is None:
                raise ValueError(f"a {kind} schedule needs a seed")
            seeds = ([seed] if replicas is None else
                     [derive_seed(seed, r) for r in range(replicas)])
            # imported here, so runs without random draws load no more code
            from ._pcg64 import Streams
            self._streams = Streams(seeds)
        self._steps = 0          # the steps drawn so far
        self._block = np.empty((0, self.replicas), dtype=np.intp)
        self._taken = 0

    # -- constructors -------------------------------------------------

    @classmethod
    def from_spec(cls, spec, n, seed=None, weights=None, replicas=None):
        """Schedule over n indices for a spec string (see the module doc).

        `weights` are a ``weighted`` spec's selection weights, one per
        index (else unused); a ``file`` spec's indices must lie in 0..n-1.
        """
        kind, _, arg = spec.partition(":")
        if kind == "roundrobin":
            return cls(kind, n=n, replicas=replicas)
        if kind == "uniform":
            return cls(kind, weights=np.ones(n), seed=seed, replicas=replicas)
        if kind == "weighted":
            if np.shape(weights) != (n,):     # None has shape ()
                raise ValueError(f"a weighted schedule needs {n} weights, "
                                 "one per index")
            return cls(kind, weights=weights, seed=seed, replicas=replicas)
        if kind == "subset":
            return cls(kind, n=n, q=subset_probability(spec), seed=seed,
                       replicas=replicas)
        if kind == "file":
            return cls(kind, n=n, sequence=load_sequence_file(arg, n),
                       replicas=replicas)
        raise ConfigError(f"unknown schedule spec {spec!r}")

    # -- queries --------------------------------------------------------

    def never_drawn(self):
        """Indices in 0..n-1 that a fixed sequence never draws, ascending.

        Empty for the other kinds, which reach every index eventually.
        """
        if self.sequence is None:
            return np.empty(0, dtype=np.intp)
        named = np.concatenate([np.empty(0, dtype=np.intp), *self.sequence])
        return np.flatnonzero(np.bincount(named, minlength=self.n) == 0)

    def most_drawn(self):
        """The most indices one step can draw for one replica: a
        sequence's longest set, all n for ``subset``, else one."""
        if self.sequence is not None:
            return max(map(len, self.sequence), default=0)
        return self.n if self.kind == "subset" else 1

    # -- drawing --------------------------------------------------------

    def draw(self, steps, pages):
        """The update sets of up to `steps` next steps, as (indices, sizes):
        every set's stacked indices in step order, each set ascending and
        duplicate-free, and each set's size. Stops after the step that
        brings the indices drawn to `pages` (at least one step), and where
        a sequence ends. The next call goes on from the step after the
        last one drawn.
        """
        k = self._steps
        if self.kind in ("uniform", "weighted", "roundrobin"):
            steps = min(steps, max(1, -(-pages // self.replicas)))
            sizes = np.full(steps, self.replicas, dtype=np.intp)
            if self.kind == "roundrobin":
                drawn = np.arange(k, k + steps, dtype=np.intp) % self.n
            else:
                drawn = self._rows(steps).reshape(-1)
        else:
            sets, total = [], 0
            while len(sets) < steps and total < pages:
                if self.kind == "subset":
                    # replica r's draw is column r of the doubles, row r of
                    # the transposed mask: flat index r n + i
                    sets.append(np.flatnonzero(
                        self._streams.random(self.n).T < self.q))
                elif k + len(sets) < len(self.sequence):
                    sets.append(self.sequence[k + len(sets)])
                else:
                    break
                total += sets[-1].size
            drawn = np.concatenate([np.empty(0, dtype=np.intp), *sets])
            sizes = np.array([s.size for s in sets], dtype=np.intp)
        self._steps += sizes.size
        return drawn, sizes

    def _refill(self):
        """Draw the next block of singleton rows, one index per replica:
        one search over every stream's doubles, column r replica r's."""
        size = min(max(_BLOCK_MIN, 2 * len(self._block)), _BLOCK_MAX,
                   max(1, _BLOCK_MAX * _BLOCK_MIN // self.replicas))
        self._block = np.searchsorted(self._cum, self._streams.random(size),
                                      side="right")
        self._block += self.n * np.arange(self.replicas)
        self._taken = 0

    def _rows(self, steps):
        """The next `steps` rows of singleton draws."""
        rows = []
        while steps:
            if self._taken == len(self._block):
                self._refill()
            take = min(steps, len(self._block) - self._taken)
            rows.append(self._block[self._taken:self._taken + take])
            self._taken += take
            steps -= take
        return rows[0] if len(rows) == 1 else np.concatenate(rows)


def subset_probability(spec):
    """The q of a ``subset:<q>`` spec, which must lie in (0, 1]."""
    try:
        q = float(spec.partition(":")[2])
    except ValueError:
        raise ConfigError(f"bad subset probability in {spec!r}") from None
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"subset probability must lie in (0, 1], got {q}")
    return q


def load_sequence_file(source, n):
    """Explicit update sequence: one set per line, comma-separated indices.

    Blank and ``#`` lines are skipped; a line containing just ``-`` denotes
    the empty set (a no-op step). Indices are ASCII integers in 0..n-1, as
    in edge lists (`pushrank.webgraph`); a `ParseError` names the first
    line that breaks this.
    """
    sets = []
    for lineno, line in _as_lines(source):
        if line == "-":
            sets.append(np.empty(0, dtype=np.intp))
            continue
        values = _int64s(lineno, line, [tok.strip() for tok in line.split(",")],
                         "comma-separated integers")
        for v in values:
            if not 0 <= v < n:
                raise ParseError(f"line {lineno}: index {v} outside 0..{n - 1}")
        sets.append(np.array(values, dtype=np.intp))
    return sets
