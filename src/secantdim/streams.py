"""Reproducible sampling streams, computed in the package.

Stream(seed, key) draws what numpy's
default_rng(SeedSequence(seed, spawn_key=key)) draws: the same SeedSequence
pool, the same PCG64 (XSL-RR 128/64) generator seeded from it, the same
32-bit halves of its outputs and the same Lemire draw of a bounded integer.
So every report is fixed by its seed alone, whatever numpy is installed
(numpy freezes RandomState's streams, not Generator's), and no run imports
numpy's random module. Only draws whose range is 1 to 2**32 are reproduced,
the ranges numpy serves from 32-bit outputs; others are refused.
"""

from __future__ import annotations

from typing import Sequence

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's pool size, hash constants and shift
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative int; [0] for 0."""
    if value < 0:
        raise ValueError("seeds and key entries must be non-negative")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _pool(seed: int, key: Sequence[int]) -> list[int]:
    """SeedSequence(seed, spawn_key=key).pool: the entropy hashed into four
    words and mixed so that every word reaches every other."""
    entropy = _words(seed)
    if key:
        # a spawned sequence pads its run entropy to the pool size first
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for entry in key:
            entropy += _words(entry)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    padded = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int], count: int) -> list[int]:
    """SeedSequence.generate_state(count) as 32-bit words."""
    hash_const = _INIT_B
    words = []
    for i in range(count):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    return words


def first_state_word(seed: int, key: Sequence[int]) -> int:
    """SeedSequence(seed, spawn_key=key).generate_state(1)[0]."""
    return _state_words(_pool(seed, key), 1)[0]


class Stream:
    """default_rng(SeedSequence(seed, spawn_key=key)), for integer draws
    whose range is 1 to 2**32."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, seed: int, key: Sequence[int]) -> None:
        w = _state_words(_pool(seed, key), 8)
        # generate_state(4, uint64), each word little-endian from two halves
        u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        initstate, initseq = u[0] << 64 | u[1], u[2] << 64 | u[3]
        self._inc = (initseq << 1 | 1) & _MASK128
        # numpy steps state 0 (to inc), adds initstate and steps again
        self._state = (self._inc + initstate) & _MASK128
        self._step()
        self._spare: int | None = None

    def _step(self) -> None:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128

    def _next64(self) -> int:
        self._step()
        state = self._state
        value = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (value >> rot | value << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        """The low half of a 64-bit output; the high half is kept for the
        next call."""
        if self._spare is not None:
            value, self._spare = self._spare, None
            return value
        value = self._next64()
        self._spare = value >> 32
        return value & _MASK32

    def _draw(self, span: int) -> int:
        """Uniform in [0, span), 1 <= span <= 2**32, as numpy draws it: span
        1 takes no output, any other span Lemire's multiply-and-reject on
        32-bit outputs (at span 2**32 it keeps the first output as it is)."""
        if span == 1:
            return 0
        threshold = ((1 << 32) - span) % span
        product = self._next32() * span
        while product & _MASK32 < threshold:
            product = self._next32() * span
        return product >> 32

    def integers(self, low: int, high: int, size: int | None = None) -> int | list[int]:
        """Uniform integers in [low, high): one int when size is None, else a
        list of size ints."""
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError("need 1 <= high - low <= 2**32")
        if size is None:
            return low + self._draw(span)
        return [low + self._draw(span) for _ in range(size)]
