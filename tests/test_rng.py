"""The chunk's streams built together equal the streams built one by one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddjump import rng

MASK64 = (1 << 64) - 1


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(-(2**70), 2**70),
    base=st.sampled_from([0, 2**32 - 1, 2**32, 2**40]),
    lo_off=st.integers(-3, 3),
    size=st.integers(0, 6),
    tag=st.sampled_from([rng.PATH, rng.COUPLED, rng.EXIT_START]),
)
def test_substreams_are_the_seed_sequence_streams(seed, base, lo_off, size, tag):
    # ids around 2**32 take two entropy words and those below it one, so a
    # range across 2**32 holds both
    lo = max(base + lo_off, 0)
    gens = rng.substreams(seed, lo, lo + size, tag)
    assert len(gens) == size
    for r, gen in zip(range(lo, lo + size), gens):
        key = np.random.SeedSequence(seed & MASK64, spawn_key=(r, tag)).generate_state(2, np.uint64)
        assert np.array_equal(gen.bit_generator.state["state"]["key"], key)
        assert np.array_equal(gen.random(3000), rng.substream(seed, r, tag).random(3000))


@pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 2), (2**64 - 1, 2**64 + 1)])
def test_substreams_refuse_ids_outside_64_bits(lo, hi):
    with pytest.raises(ValueError, match="outside"):
        rng.substreams(1, lo, hi, rng.PATH)
