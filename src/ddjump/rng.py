"""Counter-based splittable random streams.

Every consumer of randomness derives its own Philox stream from the master
seed and a tuple of integer ids via ``SeedSequence(seed, spawn_key=ids)``:

* free/restricted path of replicate r      -> (r, PATH)
* coupled pair r                           -> (r, COUPLED)
* exit-probability start directions        -> (0, EXIT_START)

Replicate results therefore depend only on (seed, replicate index), never on
chunking or worker count.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

PATH = 0
COUPLED = 1
EXIT_START = 4  # ids 2 and 3 are retired; the ids are kept so no stream changes

_MASK64 = (1 << 64) - 1


def substream(seed, *key):
    """Philox generator for the (seed, *key) stream."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def uniforms(seed, *key):
    """A function returning the next uniform of the (seed, *key) stream as a
    Python float on each call, read from the stream in blocks of 1024.

    The coupled pairs draw through it.  The engine reads the same streams in its own blocks (``engine._draw_blocks``);
    a stream gives the same sequence whatever the block size.
    """
    gen = substream(seed, *key)
    return chain.from_iterable(iter(lambda: gen.random(1024).tolist(), None)).__next__
