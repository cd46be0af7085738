"""Counter-based splittable random streams.

Every consumer of randomness derives its own Philox stream from the master
seed and a tuple of integer ids via ``SeedSequence(seed, spawn_key=ids)``:

* free/restricted path of replicate r      -> (r, PATH)
* coupled pair r                           -> (r, COUPLED)
* exit-probability start directions        -> (0, EXIT_START)

Replicate results therefore depend only on (seed, replicate index), never on
chunking or worker count.

``substream`` builds one stream through numpy's ``SeedSequence``.  The
engine wants one stream per replicate of a chunk, thousands at a time, and
``substreams`` builds them together: it runs ``SeedSequence``'s entropy
mixing and its ``generate_state(2, np.uint64)`` as uint32 array arithmetic
over the whole chunk, and hands each Philox its key, so every stream equals
``substream``'s bit for bit.  For a chunk of 4,096 that takes 9.6 us per
stream against ``substream``'s 35, 0.95 ms of it key arithmetic (2-vCPU VM,
numpy 2.4.6).
"""

from __future__ import annotations

from functools import cache
from itertools import chain

import numpy as np

PATH = 0
COUPLED = 1
EXIT_START = 4  # ids 2 and 3 are retired; the ids are kept so no stream changes

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def substream(seed, *key):
    """Philox generator for the (seed, *key) stream."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@cache
def _key_type():
    """The type of a seed sequence that hands a Philox its precomputed key,
    made on first use, so that importing the package loads no numpy.random
    (a run that simulates nothing never does)."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def _words(v):
    """The little-endian uint32 words of the int ``v`` >= 0, as ``SeedSequence``
    splits its entropy (0 is one word)."""
    out = [v & _MASK32]
    while v := v >> 32:
        out.append(v & _MASK32)
    return out


def _hasher(h, mult):
    """``SeedSequence``'s hash with the running multiplier ``h``, which every
    call advances by ``mult``, on uint32 arrays."""

    def hash_(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * mult & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    return hash_


def _philox_keys(words):
    """``SeedSequence`` entropy mixing and ``generate_state(2, np.uint64)`` on
    the columns of ``words``, a list of uint32 arrays (broadcast together)
    holding one entropy word each; returns the (n, 2) uint64 keys."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(w))
    out = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (out(p).astype(np.uint64) for p in pool)
    return np.stack([lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)], axis=-1)


def substreams(seed, lo, hi, tag):
    """The generators of the streams (seed, r, tag) for r in [lo, hi), each
    equal to ``substream(seed, r, tag)`` bit for bit; 0 <= lo <= hi <= 2**64."""
    if not 0 <= lo <= hi <= 1 << 64:
        raise ValueError(f"stream ids [{lo}, {hi}) outside [0, 2**64)")
    run = _words(int(seed) & _MASK64)
    run = [np.array([w], dtype=np.uint32) for w in run + [0] * (_POOL_SIZE - len(run))]
    tail = [np.array([w], dtype=np.uint32) for w in _words(int(tag))]
    keys = []
    # a spawn id below 2**32 is one entropy word and a larger one two
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if a < b:
            ids = np.arange(a, b, dtype=np.uint64)
            id_words = [(ids & np.uint64(_MASK32)).astype(np.uint32)]
            if a >= 1 << 32:
                id_words.append((ids >> np.uint64(32)).astype(np.uint32))
            keys.append(_philox_keys(run + id_words + tail))
    key = _key_type()
    return [np.random.Generator(np.random.Philox(key(k))) for part in keys for k in part]


def uniforms(seed, *key):
    """A function returning the next uniform of the (seed, *key) stream as a
    Python float on each call, read from the stream in blocks of 1024.

    The coupled pairs draw through it.  The engine reads the same streams in its own blocks (``engine._draw_blocks``);
    a stream gives the same sequence whatever the block size.
    """
    gen = substream(seed, *key)
    return chain.from_iterable(iter(lambda: gen.random(1024).tolist(), None)).__next__
