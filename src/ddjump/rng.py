"""Counter-based splittable random streams.

Every consumer of randomness derives its own Philox stream from the master
seed and a tuple of integer ids via ``SeedSequence(seed, spawn_key=ids)``:

* free/restricted path of replicate r      -> (r, PATH)
* coupled pair r                           -> (r, COUPLED)
* occupation sampler                       -> (0, OCCUPATION)
* bootstrap resampling                     -> (0, BOOTSTRAP)

Replicate results therefore depend only on (seed, replicate index), never on
chunking or worker count.
"""

from __future__ import annotations

import numpy as np

PATH = 0
COUPLED = 1
OCCUPATION = 2
BOOTSTRAP = 3
EXIT_START = 4

_MASK64 = (1 << 64) - 1


def substream(seed, *key):
    """Philox generator for the (seed, *key) stream."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class UniformBlocks:
    """Block-buffered uniforms from one stream, consumed strictly in order.

    The occupation sampler draws through this class.  The engine reads the
    same streams in its own blocks (``engine._draw_blocks``); a stream gives
    the same sequence whatever the block size.
    """

    __slots__ = ("gen", "block", "buf", "pos")

    def __init__(self, seed, *key, block=1024):
        self.gen = substream(seed, *key)
        self.block = block
        self.buf = self.gen.random(block)
        self.pos = 0

    def next(self):
        if self.pos >= self.block:
            self.buf = self.gen.random(self.block)
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v
