"""The compacted batched engine against its per-step gather/scatter
reference (``engine_reference``) and against the scalar path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddjump as dj
import ddjump.engine as engine
from engine_reference import simulate_chunk_reference

SIR = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
PURE_DEATH = dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")
# nine jumps: numpy's sum adds the rate row pairwise, the engines left to right
NINE_JUMPS = dj.parse_model(
    """
[dimension]
2
[jumps]
 1  0 : 1.3
 0  1 : 0.7
 1  1 : 0.2
-1  0 : x1
 0 -1 : 1.1 * x2
-1 -1 : 0.5 * x1 * x2
-1  1 : 0.8 * x1
 1 -1 : 0.6 * x2
 2  0 : 0.1 + 0.05 * x2
"""
)
MODELS = {"sir": SIR, "pure_death": PURE_DEATH, "nine_jumps": NINE_JUMPS}
M_OF_DIM = {1: np.array([[1.0]]), 2: np.array([[1.0, 0.3], [0.3, 2.0]])}


def assert_same(new, ref):
    assert new.keys() == ref.keys()
    for key in ref:
        assert new[key].dtype == ref[key].dtype, key
        assert new[key].shape == ref[key].shape, key
        assert np.array_equal(new[key], ref[key], equal_nan=True), key


@st.composite
def chunk_runs(draw):
    """(model, N, X0, seed, rep_lo, rep_hi, keyword arguments) of one chunk."""
    name = draw(st.sampled_from(sorted(MODELS)))
    m = MODELS[name]
    N = draw(st.sampled_from([5, 12, 30]))
    base = np.full(m.d, N, dtype=np.int64)
    rep_lo = draw(st.integers(0, 5))
    rep_hi = rep_lo + draw(st.integers(1, 23))
    if draw(st.booleans()):
        X0 = base
    else:  # one start per replicate, as the exit experiment passes them
        shifts = draw(st.lists(st.integers(-2, 2), min_size=rep_hi * m.d, max_size=rep_hi * m.d))
        X0 = base + np.array(shifts, dtype=np.int64).reshape(rep_hi, m.d)
    centre = base.astype(float)
    ball = engine.Restriction(M=M_OF_DIM[m.d], center=centre, radius=draw(st.floats(3.0, 8.0)))
    horizon = draw(st.sampled_from([0.3, 1.0, 2.5]))
    kw = {"block": draw(st.sampled_from([2, 3, 8, 64]))}
    mode = draw(st.sampled_from([engine.RECORDS, engine.MARTINGALE, engine.EXIT]))
    kw["mode"] = mode
    if mode == engine.RECORDS:
        inner = draw(st.lists(st.floats(0.0, horizon), min_size=0, max_size=4))
        ends = draw(st.sampled_from([(), (0.0,), (horizon,), (0.0, horizon)]))
        kw["record_times"] = tuple(sorted(inner + list(ends))) or (horizon,)
        if draw(st.booleans()):
            kw["restriction"] = ball
            X0 = base  # the start lies inside the ball it is restricted to
    elif mode == engine.MARTINGALE:
        kw["horizon"] = horizon
        half = draw(st.floats(0.05, 2.0))
        kw["stop_box"] = (np.full(m.d, 1.0 - half), np.full(m.d, 1.0 + half))
    else:
        kw["horizon"] = horizon
        kw["exit_ball"] = ball
    seed = draw(st.integers(0, 2**32 - 1))
    return m, N, X0, seed, rep_lo, rep_hi, kw


@settings(max_examples=150, deadline=None)
@given(chunk_runs())
def test_chunk_matches_reference_bitwise(run):
    m, N, X0, seed, rep_lo, rep_hi, kw = run
    new = engine.simulate_chunk(m, N, X0, seed, rep_lo, rep_hi, **kw)
    ref = simulate_chunk_reference(m, N, X0, seed, rep_lo, rep_hi, **kw)
    assert_same(new, ref)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("mode", [engine.RECORDS, engine.MARTINGALE, engine.EXIT])
def test_run_paths_matches_reference_across_chunks_and_workers(name, mode):
    m = MODELS[name]
    N, seed, reps = 12, 11, 37
    X0 = np.full(m.d, N, dtype=np.int64)
    kw = {
        engine.RECORDS: dict(record_times=(0.0, 0.4, 4.0)),
        engine.MARTINGALE: dict(horizon=1.5, stop_box=(np.full(m.d, 0.2), np.full(m.d, 1.8))),
        engine.EXIT: dict(
            horizon=0.3,
            exit_ball=engine.Restriction(M=M_OF_DIM[m.d], center=X0.astype(float), radius=5.0),
        ),
    }[mode]
    ref = simulate_chunk_reference(m, N, X0, seed, 0, reps, mode=mode, **kw)
    if mode != engine.RECORDS:  # both retirements occur: exits and horizon stops
        assert ref["exited"].any() and not ref["exited"].all()
    if name == "pure_death" and mode == engine.RECORDS:
        assert ref["absorbed"].any() and not ref["absorbed"].all()
    for workers, chunk in ((1, 37), (1, 5), (2, 10)):
        out = engine.run_paths(m, N, X0, seed, reps, workers=workers, chunk=chunk, mode=mode, **kw)
        assert_same(out, ref)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 7),
    st.integers(1, 9),
    st.lists(st.floats(0.0, 1e6, allow_subnormal=False), min_size=63, max_size=63),
)
def test_running_total_is_numpy_sum_below_eight_terms(k, n, values):
    # below 8 terms numpy adds a row left to right too, so switching the
    # engines to the running sum left every model with fewer jumps unchanged
    r = np.array(values[: n * k]).reshape(n, k)
    cum = engine._running_sums(r)
    assert np.array_equal(cum[-1], r.sum(axis=1))
    assert np.array_equal(np.stack(cum, axis=1), np.cumsum(r, axis=1))
    assert engine._running_sums(r[0])[-1] == r[0].sum()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 50), st.lists(st.floats(0.0, 1e6), min_size=150, max_size=150))
def test_drift_is_the_matrix_product_for_sir_jumps(n, values):
    # two nonzero jump entries per coordinate: any order of the sum agrees,
    # so the martingale of the shipped models is what r @ J gave
    r = np.array(values[: 3 * n]).reshape(n, 3)
    assert np.array_equal(engine._drift(r, SIR.kernel.J), r @ SIR.kernel.J)


def test_scalar_path_matches_engine_with_nine_jumps():
    opts = dj.SimOptions(N=20, seed=5, horizon=3.0, record=(0.0, 0.5, 1.7, 3.0))
    X0 = np.array([20, 20])
    rec = dj.sample_states(NINE_JUMPS, opts, X0, opts.record, reps=8)
    for r in range(8):
        tr = dj.simulate_path(NINE_JUMPS, opts, X0, replicate=r)
        assert np.array_equal(tr.recorded, rec[r])


def test_records_without_record_times():
    out = engine.simulate_chunk(SIR, 10, np.array([10, 10]), 0, 0, 3, record_times=())
    assert out["records"].shape == (3, 0, 2)


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown mode"):
        engine.simulate_chunk(SIR, 10, np.array([10, 10]), 0, 0, 3, mode="bogus")


@pytest.mark.parametrize("reps,chunk,message", [(0, 4096, "reps"), (-3, 4096, "reps"), (5, 0, "chunk")])
def test_run_paths_rejects_empty_splits(reps, chunk, message):
    with pytest.raises(ValueError, match=message):
        engine.run_paths(SIR, 10, np.array([10, 10]), 0, reps, chunk=chunk, record_times=(1.0,))
