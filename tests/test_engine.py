"""The compacted batched engine against its per-step gather/scatter
reference (``engine_reference``), and its ``events`` mode, which runs
``simulate_path``, against the scalar Gillespie loop (``path_reference``)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddjump as dj
import ddjump.engine as engine
from ddjump.equilibrium import build_restricted_generator
from ddjump.errors import SimulationError
from conftest import identity_certificate
from coupling_reference import _mq
from engine_reference import _drift, _restriction_mask, _running_sums, simulate_chunk_reference
from path_reference import simulate_path_reference

SIR = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
PURE_DEATH = dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")
# absorbs at the origin in two coordinates, where a row norm and a BLAS dot
# can round apart
PURE_DEATH_2D = dj.parse_model("[dimension]\n2\n[jumps]\n-1 0 : x1\n0 -1 : 0.7 * x2\n")
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
MODELS = {"sir": SIR, "pure_death": PURE_DEATH, "pure_death_2d": PURE_DEATH_2D, "nine_jumps": NINE_JUMPS}
M_OF_DIM = {1: np.array([[1.0]]), 2: np.array([[1.0, 0.3], [0.3, 2.0]])}


def assert_same(new, ref):
    assert new.keys() == ref.keys()
    for key in ref:
        assert new[key].dtype == ref[key].dtype, key
        assert new[key].shape == ref[key].shape, key
        assert np.array_equal(new[key], ref[key], equal_nan=True), key


def chunk_at_block(*args, block, **kw):
    """``engine.simulate_chunk`` refilling ``block`` uniforms at a time, so
    that a short chunk crosses refills as the reference's ``block`` does."""
    with mock.patch.object(engine, "BLOCK", block):
        return engine.simulate_chunk(*args, **kw)


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


# a target on the sphere: the ball keeps it, where an expanded or einsum form
# of the quadratic can round it out
ON_SPHERE = engine.Restriction(M=M_OF_DIM[2], center=np.array([12.0, 12.0]), radius=6.0)


@settings(max_examples=150, deadline=None)
@given(chunk_runs())
@example(
    (NINE_JUMPS, 12, np.array([12, 12]), 0, 0, 4,
     {"block": 2, "mode": engine.RECORDS, "record_times": (0.625,), "restriction": ON_SPHERE})
)
def test_chunk_matches_reference_bitwise(run):
    m, N, X0, seed, rep_lo, rep_hi, kw = run
    new = chunk_at_block(m, N, X0, seed, rep_lo, rep_hi, **kw)
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
    if name.startswith("pure_death") and mode == engine.RECORDS:
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
    cum = np.stack(engine._running_sums(np.ascontiguousarray(r.T)))
    assert np.array_equal(cum, np.stack(_running_sums(r)))
    assert np.array_equal(cum[-1], r.sum(axis=1))
    assert engine._running_sums(r[:1].T)[-1][0] == _running_sums(r[0])[-1] == r[0].sum()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 50), st.lists(st.floats(0.0, 1e6), min_size=150, max_size=150))
def test_drift_is_the_matrix_product_for_sir_jumps(n, values):
    # two nonzero jump entries per coordinate: any order of the sum agrees,
    # so the martingale of the shipped models is what r @ J gave
    r = np.array(values[: 3 * n]).reshape(n, 3)
    assert np.array_equal(engine._drift(r.T, SIR.kernel.J).T, r @ SIR.kernel.J)
    assert np.array_equal(engine._drift(r.T, SIR.kernel.J).T, _drift(r, SIR.kernel.J))


@pytest.mark.parametrize("N", [12, 30])
def test_one_live_replicate_with_nine_jumps_matches_the_oracles(N):
    # one live replicate holds its rates as a (9, 1) array, along whose
    # contiguous jump axis numpy's sum adds pairwise; the engine's running
    # sums must still add left to right, as both oracles do
    X0 = np.array([N, N])
    box = (np.full(2, 0.2), np.full(2, 1.8))
    kws = [
        dict(mode=engine.RECORDS, record_times=(0.0, 0.3, 0.9, 2.0)),
        dict(mode=engine.MARTINGALE, horizon=2.0, stop_box=box),
    ]
    for rep in range(12):
        for kw in kws:
            new = chunk_at_block(NINE_JUMPS, N, X0, 17, rep, rep + 1, block=8, **kw)
            assert_same(new, simulate_chunk_reference(NINE_JUMPS, N, X0, 17, rep, rep + 1, block=8, **kw))
        opts = dj.SimOptions(N=N, seed=17, horizon=2.0, record=(0.0, 0.9))
        ref = simulate_path_reference(NINE_JUMPS, opts, X0, replicate=rep)
        assert_same_path(dj.simulate_path(NINE_JUMPS, opts, X0, replicate=rep), ref)


def test_scalar_path_matches_engine_with_nine_jumps():
    opts = dj.SimOptions(N=20, seed=5, horizon=3.0, record=(0.0, 0.5, 1.7, 3.0))
    X0 = np.array([20, 20])
    rec = dj.sample_states(NINE_JUMPS, opts, X0, reps=8)
    for r in range(8):
        tr = simulate_path_reference(NINE_JUMPS, opts, X0, replicate=r)
        assert np.array_equal(tr.recorded, rec[r])


def assert_same_path(new, ref):
    for field in ("times", "states", "recorded"):
        a, b = getattr(new, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field
    assert new.record_times == ref.record_times
    assert type(new.absorbed) is bool and new.absorbed == ref.absorbed


@st.composite
def path_runs(draw):
    """(model, SimOptions, X0, replicate, restriction ball or None) of one path."""
    name = draw(st.sampled_from(sorted(MODELS)))
    m = MODELS[name]
    N = draw(st.sampled_from([5, 12, 30]))
    X0 = np.full(m.d, N, dtype=np.int64)
    # pure death runs on to absorption
    horizon = draw(st.sampled_from([0.3, 1.0, 2.5] + ([50.0] if name.startswith("pure_death") else [])))
    inner = draw(st.lists(st.floats(0.0, horizon), min_size=0, max_size=4))
    ends = draw(st.sampled_from([(), (0.0,), (horizon,), (0.0, horizon)]))
    restriction = None
    if draw(st.booleans()):
        restriction = identity_certificate(d=m.d, c=X0 / N).ball(N, draw(st.floats(0.2, 1.0)))
    opts = dj.SimOptions(
        N=N,
        seed=draw(st.integers(0, 2**32 - 1)),
        horizon=horizon,
        record=tuple(sorted(inner + list(ends))),
    )
    return m, opts, X0, draw(st.integers(0, 5)), restriction


@settings(max_examples=150, deadline=None)
@given(path_runs())
def test_simulate_path_matches_scalar_reference_bitwise(run):
    m, opts, X0, replicate, restriction = run
    new = dj.simulate_path(m, opts, X0, replicate=replicate, restriction=restriction)
    ref = simulate_path_reference(m, opts, X0, replicate=replicate, restriction=restriction)
    assert_same_path(new, ref)


def test_path_whose_event_falls_on_the_horizon_matches_reference():
    # the horizon and a record sit exactly on the third event time, so the
    # record is not due before that event and takes the state held to it
    X0 = np.array([12, 12])
    t3 = dj.simulate_path(SIR, dj.SimOptions(N=12, seed=4, horizon=5.0), X0).times[3]
    opts = dj.SimOptions(N=12, seed=4, horizon=t3, record=(t3,))
    new = dj.simulate_path(SIR, opts, X0)
    ref = simulate_path_reference(SIR, opts, X0)
    assert_same_path(new, ref)
    assert len(new.times) == 3 and np.array_equal(new.recorded[0], new.states[-1])


@pytest.mark.parametrize("name", sorted(MODELS))
def test_run_paths_events_give_each_replicate_its_path(name):
    m = MODELS[name]
    N, seed, reps = 12, 3, 11
    X0 = np.full(m.d, N, dtype=np.int64)
    horizon = 30.0 if name.startswith("pure_death") else 1.0
    opts = dj.SimOptions(N=N, seed=seed, horizon=horizon, record=(0.0, 0.4, horizon))
    paths = [dj.simulate_path(m, opts, X0, replicate=r) for r in range(reps)]
    if name.startswith("pure_death"):
        assert any(p.absorbed for p in paths)
    kw = dict(mode=engine.EVENTS, horizon=horizon)
    for workers, chunk in ((1, 1), (1, 3), (1, 7), (2, 1), (2, 3), (2, 7)):
        out = engine.run_paths(m, N, X0, seed, reps, workers=workers, chunk=chunk, **kw)
        assert np.array_equal(out["event_rep"], np.repeat(np.arange(reps), [len(p.times) - 1 for p in paths]))
        for r, path in enumerate(paths):
            mine = out["event_rep"] == r
            assert out["event_t"][mine].tobytes() == path.times[1:].tobytes()
            assert np.array_equal(out["event_X"][mine], path.states[1:])
            assert out["absorbed"][r] == path.absorbed


def test_exit_mode_takes_the_first_event_past_the_horizon():
    # exit mode is not censored at the horizon: a replicate stops at its first
    # event that leaves the ball or falls at or past the horizon, and an exit
    # that this last event causes is reported, with its time past the horizon
    N, T, reps = 200, 0.02, 256
    X0 = np.array([N, N])
    ball = engine.Restriction(M=M_OF_DIM[2], center=X0.astype(float), radius=6.0)
    out = engine.simulate_chunk(SIR, N, X0, 1, 0, reps, mode=engine.EXIT, horizon=T, exit_ball=ball)
    paths = engine.simulate_chunk(SIR, N, X0, 1, 0, reps, mode=engine.EVENTS, horizon=5 * T)
    for r in range(reps):
        mine = paths["event_rep"] == r
        event_t, outside = paths["event_t"][mine], ~ball.contains(paths["event_X"][mine])
        last = np.flatnonzero(outside | (event_t >= T))[0]
        assert out["exited"][r] == outside[last]
        assert out["exit_time"][r] == (event_t[last] if outside[last] else np.inf)
    late = out["exited"] & (out["exit_time"] >= T)
    assert late.any() and (out["exited"] & ~late).any()


@pytest.mark.parametrize("mode", [engine.MARTINGALE, engine.EXIT])
def test_absorbed_start_outside_the_stopping_set_is_no_exit(mode):
    # an absorbed replicate takes no event, so it does not exit, even from a
    # start outside the box or ball
    X0 = np.array([[0], [6], [0], [7]])
    kw = {
        engine.MARTINGALE: dict(horizon=1.0, stop_box=(np.array([0.5]), np.array([1.5]))),
        engine.EXIT: dict(horizon=1.0, exit_ball=engine.Restriction(M=np.eye(1), center=np.array([6.0]), radius=3.0)),
    }[mode]
    out = engine.simulate_chunk(PURE_DEATH, 6, X0, 2, 0, 4, mode=mode, **kw)
    assert_same(out, simulate_chunk_reference(PURE_DEATH, 6, X0, 2, 0, 4, mode=mode, **kw))
    assert out["absorbed"][[0, 2]].all() and not out["exited"][[0, 2]].any()


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


# every array of lattice rates is checked by one rule: a rate that is not
# finite and >= 0 at a lattice state raises SimulationError naming the state;
# jump +1's rate is negative or NaN at every state, jump -1's is valid
INVALID_RATES = [("x1 - 9", "negative"), ("1 + 0 / (x1 - x1)", "non-finite")]
LATTICE_RATE_CALLERS = {
    "engine step": lambda m, cert: dj.sample_states(
        m, dj.SimOptions(N=10, seed=0, horizon=1.0, record=(1.0,)), np.array([12]), reps=4
    ),
    "restricted generator": lambda m, cert: build_restricted_generator(m, 10, cert, 0.5),
    "K1 scan": lambda m, cert: dj.check_drift_condition(m, cert, 10, sample_count=50),
    "K2 pairs": lambda m, cert: dj.estimate_K2(m, cert, 10),
}


@pytest.mark.parametrize("caller", sorted(LATTICE_RATE_CALLERS))
@pytest.mark.parametrize("rate,kind", INVALID_RATES)
def test_an_invalid_rate_at_a_lattice_state_is_a_simulation_error(caller, rate, kind):
    m = dj.parse_model(f"[dimension]\n1\n[jumps]\n1 : {rate}\n-1 : x1\n")
    cert = identity_certificate(d=1, c=(1.0,))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match=rf"^{kind} rate at state \[\d+\] \(N=10\)$"):
            LATTICE_RATE_CALLERS[caller](m, cert)


# the same rule under a restriction: the ball [5, 15] (N=10, delta 0.5)
# switches off the +1 jump from 15, whose rate 1 + 0 / 0 is NaN there; each
# sampler checks the rates before the ball zeroes that jump, so each raises
OFF_JUMP_NAN = "[dimension]\n1\n[jumps]\n1 : 1 + 0 / (x1 - 1.5)\n-1 : x1\n"
RESTRICTED_RATE_CALLERS = {
    "engine step": lambda m, cert: dj.simulate_path(
        m, dj.SimOptions(N=10, seed=0, horizon=5.0), np.array([15]), restriction=cert.ball(10, 0.5)
    ),
    "restricted generator": lambda m, cert: build_restricted_generator(m, 10, cert, 0.5),
}


@pytest.mark.parametrize("caller", sorted(RESTRICTED_RATE_CALLERS))
def test_an_invalid_rate_on_a_jump_the_ball_switches_off_raises(caller):
    m = dj.parse_model(OFF_JUMP_NAN)
    cert = identity_certificate(d=1, c=(1.0,))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match=r"^non-finite rate at state \[15\] \(N=10\)$"):
            RESTRICTED_RATE_CALLERS[caller](m, cert)


@st.composite
def balls(draw):
    """(ball, points, jumps): an SPD M of dimension 1-3, a non-integer centre,
    integer points and integer jumps."""
    d = draw(st.integers(1, 3))
    A = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d)))
    M = A.reshape(d, d) @ A.reshape(d, d).T + 0.1 * np.eye(d)
    fractional = st.floats(-1e3, 1e3).filter(lambda v: not v.is_integer())
    centre = np.array(draw(st.lists(fractional, min_size=d, max_size=d)))
    n, n_jumps = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    X = draw(st.lists(st.integers(-2000, 2000), min_size=n * d, max_size=n * d))
    J = draw(st.lists(st.integers(-3, 3), min_size=n_jumps * d, max_size=n_jumps * d))
    ball = engine.Restriction(M=M, center=centre, radius=draw(st.floats(0.0, 3e3)))
    return ball, np.array(X).reshape(n, d), np.array(J).reshape(n_jumps, d)


@settings(max_examples=300, deadline=None)
@given(balls())
def test_ball_form_is_the_pair_loop_form_bit_for_bit(case):
    # the generated pair loop's H is pinned to coupling_reference._mq, so
    # this ties it to the ball's arithmetic
    ball, X, J = case
    M, centre, r2 = ball.M.tolist(), ball.center.tolist(), ball.radius**2
    q = engine.m_form(ball.M, (X - ball.center).T)
    keeps, inside = ball.keeps(X, J), ball.contains(X)
    # a transposed (d, n) array, as the engine passes its state, reads the same
    XT = np.ascontiguousarray(X.T).T
    assert np.array_equal(ball.contains(XT), inside) and np.array_equal(ball.keeps(XT, J), keeps)
    assert np.ndim(ball.contains(X[0])) == 0 and type(ball.contains(X[0])) is np.bool_
    for n, x in enumerate(X.tolist()):
        ref = np.float64(_mq([a - c for a, c in zip(x, centre)], M)).tobytes()
        one = np.float64(engine.m_form(ball.M, X[n] - ball.center))
        assert q[n].tobytes() == one.tobytes() == ref
        assert inside[n] == ball.contains(X[n]) == (q[n] <= r2)
        for k, j in enumerate(J.tolist()):
            assert keeps[n, k] == (_mq([(a + b) - c for a, b, c in zip(x, j, centre)], M) <= r2)


def test_keeps_adds_the_jump_before_subtracting_the_centre():
    # (5 + -1) - c rounds once; (5 - c) + -1 rounds twice and lands one ulp
    # further out, past a sphere through the target
    c = -3.848712202172183
    w = (5 - 1) - c
    assert abs((5 - c) - 1) > abs(w)
    ball = engine.Restriction(M=np.eye(1), center=np.array([c]), radius=w)
    assert ball.keeps(np.array([[5]]), np.array([[-1]]))[0, 0]


@pytest.mark.parametrize(
    "N,delta,cert", [(30, 0.78, "cert05"), (100, 0.7, "cert05"), (200, 1.8, "cert09")]
)
def test_keeps_on_every_sir_ball_state_matches_every_reference(request, sir, N, delta, cert):
    cert = request.getfixturevalue(cert)
    states = dj.enumerate_ball(N, cert, delta)
    ball, jumps = cert.ball(N, delta), sir.jump_array
    keeps = ball.keeps(states, jumps)
    W = (states[:, None, :] + jumps).astype(float) - ball.center
    assert np.array_equal(keeps, np.einsum("nki,ij,nkj->nk", W, ball.M, W) <= ball.radius**2)
    assert np.array_equal(keeps, _restriction_mask(states, jumps, ball))
    # the expanded form q(X) + 2 (X - c)^T M J + J^T M J that the engine took
    # before its ball type keeps the same jumps on these balls
    V = states - ball.center
    MJ = ball.M @ jumps.T
    q = np.einsum("ni,ij,nj->n", V, ball.M, V)[:, None] + 2.0 * (V @ MJ)
    assert np.array_equal(keeps, q + np.einsum("ji,ij->j", jumps, MJ) <= ball.radius**2)
    assert keeps.all(axis=1).any() and not keeps.all()
