"""PCG64 streams drawn with numpy arithmetic, bit for bit numpy's.

``np.random.default_rng(seed).random(k)`` draws from O'Neill's PCG64: a
128-bit LCG ``s <- MULT s + inc`` whose XSL-RR output gives 64 bits a
step, and a double ``(u >> 11) 2^-53``. `seed_state` computes the state
and increment numpy seeds it with: the `SeedSequence` hash of the seed's
32-bit words, then PCG64's ``srandom``, in Python ints. `Streams` draws
from many such streams at once without importing numpy.random, whose
extension modules (5.5 MB of RSS and 9 ms to import on numpy 2.4) a
schedule uses none of.

The 128-bit states are (hi, lo) uint64 arrays. By Brown's arbitrary-stride
jump-ahead, the j-th state after s is ``A_j s + G_j inc`` with
``A_j = MULT^j`` and ``G_j = sum_{i<j} MULT^i``, so a block of j = 1..c
steps of R streams is one vector multiply-add, in chunks of at most
`_CHUNK` entries. Every constant is an explicit uint64, so the arithmetic
wraps mod 2^64 with the same promotion under every numpy.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit multiplier
# SeedSequence's hash constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_CHUNK = 8192          # entries (steps times streams) drawn per multiply-add
_U32 = np.uint64(32)
_LOW32 = np.uint64(_MASK32)


def seed_state(seed):
    """PCG64's (state, inc) for ``default_rng(seed)``, as 128-bit ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"a seed must not be negative, got {seed}")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    # SeedSequence.mix_entropy: hash the first words into the pool (zeros
    # past the seed's), mix each pool word into every other, then mix in
    # the words past the pool
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        v = (_MIX_L * x - _MIX_R * y) & _MASK32
        return v ^ v >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight hashed words, paired little-endian
    h, out = _INIT_B, []
    for i in range(8):
        v = pool[i % _POOL] ^ h
        h = h * _MULT_B & _MASK32
        v = v * h & _MASK32
        out.append(v ^ v >> 16)
    w = [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]
    # pcg64_set_seed: the first pair is the state seed, high word first
    init, seq = w[0] << 64 | w[1], w[2] << 64 | w[3]
    inc = (seq << 1 | 1) & _MASK128
    state = (inc + init) * _MULT + inc & _MASK128
    return state, inc


def _split(values):
    """(hi, lo) uint64 arrays of 128-bit ints."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _mul(ah, al, bh, bl):
    """(hi, lo) of the 128-bit products a b mod 2^128, broadcast."""
    a0, a1 = al & _LOW32, al >> _U32
    b0, b1 = bl & _LOW32, bl >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = (a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
          + al * bh + ah * bl)
    return hi, al * bl


def _add(ah, al, bh, bl):
    """(hi, lo) of the 128-bit sums a + b mod 2^128, broadcast."""
    lo = al + bl
    return ah + bh + (lo < al), lo


class Streams:
    """The PCG64 streams of ``default_rng(seed)`` for each of `seeds`."""

    def __init__(self, seeds):
        states = [seed_state(s) for s in seeds]
        self._hi, self._lo = _split([s for s, _ in states])
        inc_hi, inc_lo = _split([i for _, i in states])
        # jump tables for j = 1..rows: A_j (one column) and G_j inc (one
        # column per stream), grown to the longest chunk drawn
        a_hi, a_lo = _split([_MULT])
        self._a = (a_hi[:, None], a_lo[:, None])
        self._c = (inc_hi[None, :], inc_lo[None, :])

    def _grow(self, rows):
        """Extend the tables to `rows` steps: A_{m+j} = A_j A_m and
        G_{m+j} inc = A_j G_m inc + G_j inc, at most doubling them."""
        while len(self._a[0]) < rows:
            m = len(self._a[0])
            j = min(m, rows - m)
            (ah, al), (ch, cl) = self._a, self._c
            new_a = _mul(ah[:j], al[:j], ah[m - 1], al[m - 1])
            new_c = _add(*_mul(ah[:j], al[:j], ch[m - 1], cl[m - 1]),
                         ch[:j], cl[:j])
            self._a = tuple(np.concatenate(p) for p in zip(self._a, new_a))
            self._c = tuple(np.concatenate(p) for p in zip(self._c, new_c))

    def random(self, k):
        """The next k doubles of every stream, as a (k, streams) array:
        column r is what ``default_rng(seeds[r]).random(k)`` draws next."""
        streams = self._hi.size
        out = np.empty((k, streams))
        rows = max(1, _CHUNK // streams)
        for start in range(0, k, rows):
            c = min(rows, k - start)
            self._grow(c)
            (ah, al), (ch, cl) = self._a, self._c
            hi, lo = _add(*_mul(ah[:c], al[:c], self._hi, self._lo),
                          ch[:c], cl[:c])
            self._hi, self._lo = hi[-1].copy(), lo[-1].copy()
            # XSL-RR: rotate hi ^ lo right by the top six bits of hi
            x, rot = hi ^ lo, hi >> np.uint64(58)
            x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
            np.multiply((x >> np.uint64(11)).astype(np.float64), 2.0 ** -53,
                        out=out[start:start + c])
        return out
