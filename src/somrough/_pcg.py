"""numpy's ``default_rng(seed)`` stream in plain Python.

A seed is mixed into a 128-bit state and increment by numpy's
``SeedSequence`` (O'Neill's ``seed_seq_fe`` hash, pool of four 32-bit
words), then drives PCG64: a 128-bit linear congruential step with the
XSL-RR 128/64 output permutation (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014). 32-bit draws split one 64-bit output, low half first,
and keep the high half for the next 32-bit draw, as numpy's bit generator
does.

:class:`Stream` reproduces ``numpy.random.default_rng(seed)`` bit for bit
for the three calls the package makes: ``uniform(size=k)``,
``permutation(n)`` and ``integers(high)`` with ``high <= 2**32``. The
stream is part of the package, so fixed seeds give the same outputs
whatever numpy is installed, or none.
"""

from __future__ import annotations

import operator

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hashing constants and pool size.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL = 4


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence's entropy pool for a non-negative integer seed."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]  # least significant word first; 0 is one word
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class Stream:
    """PCG64 seeded like ``numpy.random.default_rng(seed)``."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        pool = _seed_pool(seed)
        # SeedSequence.generate_state(4, uint64): eight hashed words,
        # paired low word first.
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % _POOL] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _M32
            value = (value * hash_const) & _M32
            words.append(value ^ (value >> 16))
        s = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        self._inc = ((s[2] << 64 | s[3]) << 1 | 1) & _M128
        # pcg64_srandom: step from state 0 (giving inc), add the seed, step.
        state = (self._inc + (s[0] << 64 | s[1])) & _M128
        self._state = (state * _PCG_MULT + self._inc) & _M128
        self._half = None  # high half of the last 64-bit output, if unused

    def next_uint64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = state
        value = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((value >> rot) | (value << (-rot & 63))) & _M64

    def next_uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self.next_uint64()
        self._half = value >> 32
        return value & _M32

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    def random_interval(self, top: int) -> int:
        """Uniform on 0..top by masked rejection."""
        if top == 0:
            return 0
        mask = (1 << top.bit_length()) - 1
        draw = self.next_uint32 if top <= _M32 else self.next_uint64
        while True:
            value = draw() & mask
            if value <= top:
                return value

    def uniform(self, k: int) -> list[float]:
        """``uniform(size=k)`` on [0, 1); a C-order fill of any shape."""
        return [self.next_double() for _ in range(k)]

    def integers(self, high: int) -> int:
        """``integers(high)``: uniform on 0..high-1 by Lemire's method."""
        top = high - 1
        if not 0 <= top <= _M32:
            raise ValueError("high must be in 1..2**32")
        if top == 0:
            return 0
        if top == _M32:
            return self.next_uint32()
        span = top + 1
        m = self.next_uint32() * span
        if m & _M32 < span:
            threshold = (_M32 - top) % span
            while m & _M32 < threshold:
                m = self.next_uint32() * span
        return m >> 32

    def permutation(self, n: int, tail: int | None = None) -> list[int]:
        """``permutation(n)`` as a list.

        The Fisher-Yates shuffle runs from the top, and position i is
        final once step i has run. With ``tail``, only the steps that
        settle the last ``tail`` positions run: those positions hold what
        the full permutation holds there, and the rest hold the others in
        some order.
        """
        perm = list(range(n))
        stop = 0 if tail is None else max(0, n - tail - 1)
        for i in range(n - 1, stop, -1):
            j = self.random_interval(i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm
