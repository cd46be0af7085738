import dataclasses
import math
import pickle
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddjump as dj
import ddjump.engine as engine
import ddjump.simulate as simulate
from ddjump.dynamics import m_sphere_map
from ddjump.equilibrium import enumerate_ball
from ddjump.errors import CapExceededError, DomainError, RateError, SimulationError
from ddjump.simulate import K2_CAP_FACTOR, K2_EXACT_POINTS, _exit_starts
from conftest import as_dict, identity_certificate
from coupling_reference import simulate_coupled_reference
from path_reference import simulate_path_reference


def pure_death():
    return dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")


# ---------------------------------------------------------------------------
# simulate_path / sample_at
# ---------------------------------------------------------------------------


def test_time_zero_identity(sir):
    opts = dj.SimOptions(N=100, seed=0, horizon=1.0, record=(0.0,))
    tr = dj.simulate_path(sir, opts, np.array([50, 100]))
    assert tr.recorded[0].tolist() == [50, 100]
    dist = dj.sample_at(sir, opts, np.array([50, 100]), 0.0, reps=3)
    assert as_dict(dist) == {(50, 100): 1.0}


def test_sample_at_single_rep_is_point_mass(sir):
    opts = dj.SimOptions(N=50, seed=4, horizon=2.0, record=(1.0,))
    dist = dj.sample_at(sir, opts, np.array([25, 50]), 1.0, reps=1)
    assert len(dist) == 1
    assert dist.mass.tolist() == [1.0]


def test_pure_death_mean_matches_exponential_decay():
    # linear death process: E X(t) = X(0) e^{-t}, exactly
    m = pure_death()
    N = 50
    reps = 20_000
    opts = dj.SimOptions(N=N, seed=9, horizon=1.5, record=(1.0,))
    rec = dj.sample_states(m, opts, np.array([N]), reps)
    vals = rec[:, 0, 0] / N
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - math.exp(-1.0)) <= 3.0 * se


def test_scalar_and_batched_engines_agree_bitwise(sir):
    opts = dj.SimOptions(N=80, seed=123, horizon=4.0, record=(0.0, 0.7, 1.9, 3.7))
    X0 = np.array([40, 80])
    rec = dj.sample_states(sir, opts, X0, reps=6)
    for r in range(6):
        tr = simulate_path_reference(sir, opts, X0, replicate=r)
        assert np.array_equal(tr.recorded, rec[r])


def test_determinism_independent_of_chunk_and_workers(sir):
    X0 = np.array([30, 60])
    kw = dict(mode=engine.RECORDS, record_times=(0.5, 1.5))
    a = engine.run_paths(sir, 60, X0, 7, 97, chunk=13, workers=1, **kw)
    b = engine.run_paths(sir, 60, X0, 7, 97, chunk=50, workers=2, **kw)
    assert np.array_equal(a["records"], b["records"])


def test_restricted_path_stays_in_ball(sir, cert05):
    N = 100
    delta = cert05.delta0 / 2
    opts = dj.SimOptions(N=N, seed=1, horizon=3.0, record=(0.5, 1.5, 2.5))
    X0 = np.round(N * cert05.c).astype(np.int64)
    tr = dj.simulate_path(sir, opts, X0, restriction=cert05.ball(N, delta))
    for X in tr.recorded:
        assert cert05.m_norm(X - N * cert05.c) <= N * delta + 1e-9
    for X in tr.states:
        assert cert05.m_norm(X - N * cert05.c) <= N * delta + 1e-9


@pytest.mark.parametrize(
    "horizon,record", [(math.inf, (0.5, math.inf)), (math.inf, (math.nan,)), (1.0, (-0.1, 0.5)), (1.0, (0.5, 2.0))]
)
def test_record_times_must_be_finite_and_within_the_horizon(horizon, record):
    # a record at t = inf is no time a path reaches: the records mode and
    # the events mode used to fill it differently for an absorbed path
    with pytest.raises(ValueError, match="record times must be finite"):
        dj.SimOptions(N=10, seed=0, horizon=horizon, record=record)


def test_start_outside_restriction_rejected(sir, cert05):
    opts = dj.SimOptions(N=100, seed=0, horizon=1.0)
    with pytest.raises(DomainError, match=r"^start \[100, 100\] outside the restriction ball$"):
        dj.simulate_path(sir, opts, np.array([100, 100]), restriction=cert05.ball(100, cert05.delta0))


# a walk on x1 >= 0 whose rates never vanish, so a start below 0 runs unless
# it is checked
WALK = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1\n-1 : 1\n")
OFF_DOMAIN = r"^start \[-5\] outside domain at N=10$"
WALK_OPTS = dj.SimOptions(N=10, seed=1, horizon=1.0, record=(1.0,))
OFF_DOMAIN_RUNS = {
    "simulate_path": lambda: dj.simulate_path(WALK, WALK_OPTS, np.array([-5])),
    "sample_states": lambda: dj.sample_states(WALK, WALK_OPTS, np.array([-5]), reps=4),
    "martingale_deviation": lambda: dj.martingale_deviation(
        WALK, WALK_OPTS, np.array([-5]), T=1.0, reps=4, z_grid=(0.1,)
    ),
    # the start sphere of radius N delta' = 15 about N c = 10 reaches -5
    "exit_probability": lambda: dj.exit_probability(
        WALK, identity_certificate(d=1, c=(1.0,)), 10, 1.5, 2.0, T=1.0, reps=8, seed=1
    ),
    "run_paths exit": lambda: engine.run_paths(
        WALK, 10, np.array([[10], [-5], [-6]]), 1, 3, mode=engine.EXIT, horizon=1.0,
        exit_ball=identity_certificate(d=1, c=(1.0,)).ball(10, 2.0),
    ),
}


@pytest.mark.parametrize("run", sorted(OFF_DOMAIN_RUNS))
def test_an_off_domain_start_is_one_domain_error_everywhere(run):
    with pytest.raises(DomainError, match=OFF_DOMAIN):
        OFF_DOMAIN_RUNS[run]()


def test_exit_probability_checks_its_starts():
    # the starts round N c +- N delta' = 25 and -5; -5 lies off x1 >= 0; at
    # T = 0 no path runs, and the starts are checked all the same
    starts = _exit_starts(identity_certificate(d=1, c=(1.0,)).ball(10, 1.5), m_sphere_map(np.eye(1)), 8, 1)
    assert sorted(set(starts[:, 0].tolist())) == [-5, 25]
    for T in (1.0, 0.0):
        with pytest.raises(DomainError, match=OFF_DOMAIN):
            dj.exit_probability(WALK, identity_certificate(d=1, c=(1.0,)), 10, 1.5, 2.0, T=T, reps=8, seed=1)


@pytest.mark.parametrize("T", [0.0, 5.0])
@pytest.mark.parametrize("reps", [0, -2])
def test_exit_probability_refuses_reps_below_1(sir, cert05, reps, T):
    # checked before the starts are drawn, also at T = 0, where no path runs
    with pytest.raises(ValueError, match=rf"^reps must be >= 1, got {reps}$"):
        dj.exit_probability(sir, cert05, 50, 0.3, 0.6, T=T, reps=reps, seed=1)


SIR50 = dj.SimOptions(N=50, seed=1, horizon=1.0, record=(0.0, 1.0))
ONE_START_RUNS = {
    "simulate_path": lambda m, cert, X: dj.simulate_path(m, SIR50, X),
    "simulate_coupled U0": lambda m, cert, X: dj.simulate_coupled(m, cert, SIR50, X, [50, 50], k2=5.0, nu=2.0),
    "simulate_coupled V0": lambda m, cert, X: dj.simulate_coupled(m, cert, SIR50, [50, 50], X, k2=5.0, nu=2.0),
    "coupled_ensemble U0": lambda m, cert, X: dj.coupled_ensemble(
        m, cert, SIR50, X, [50, 50], reps=2, k2=5.0, nu=2.0
    ),
    "coupled_ensemble V0": lambda m, cert, X: dj.coupled_ensemble(
        m, cert, SIR50, [50, 50], X, reps=2, k2=5.0, nu=2.0
    ),
    "martingale_deviation": lambda m, cert, X: dj.martingale_deviation(
        m, SIR50, X, T=1.0, reps=4, z_grid=(0.1,)
    ),
}


@pytest.mark.parametrize("run", sorted(ONE_START_RUNS))
def test_a_one_start_function_rejects_a_row_of_starts(sir, cert05, run):
    with pytest.raises(ValueError, match=r"^start has shape \(1, 2\), expected \(2,\)$"):
        ONE_START_RUNS[run](sir, cert05, np.array([[50, 50]]))


@pytest.mark.parametrize("workers", [1, 2])
def test_the_lowest_bad_start_is_named_at_any_worker_count(workers):
    # two chunks of two, each with a bad start; the first chunk's is named
    X0 = np.array([[10], [-5], [12], [-6]])
    with pytest.raises(DomainError, match=OFF_DOMAIN):
        engine.run_paths(WALK, 10, X0, 1, 4, workers=workers, chunk=2, record_times=(1.0,))
    with pytest.raises(DomainError, match=r"^start \[-6\] outside domain at N=10$"):
        engine.run_paths(WALK, 10, X0[[0, 2, 3]], 1, 3, workers=workers, chunk=2, record_times=(1.0,))


def test_absorbing_state_held_and_flagged():
    m = pure_death()
    opts = dj.SimOptions(N=5, seed=3, horizon=50.0, record=(40.0,))
    tr = dj.simulate_path(m, opts, np.array([5]))
    assert tr.absorbed
    assert tr.recorded[0][0] == 0
    assert tr.states[-1][0] == 0


def test_record_semantics_right_continuous(sir):
    # recorded value is the cadlag state: the pre-jump state holds until the
    # next event time
    opts = dj.SimOptions(N=40, seed=5, horizon=3.0, record=(0.3, 1.1, 2.2))
    tr = dj.simulate_path(sir, opts, np.array([20, 40]))
    for rec_t, rec_x in zip(tr.record_times, tr.recorded):
        k = int(np.searchsorted(tr.times, rec_t, side="right")) - 1
        assert np.array_equal(tr.states[k], rec_x)


# ---------------------------------------------------------------------------
# coupling
# ---------------------------------------------------------------------------


def test_coupled_equal_starts_coalesce_immediately(sir, cert05):
    opts = dj.SimOptions(N=100, seed=2, horizon=2.0, record=(0.0, 0.5, 1.0))
    X0 = np.round(100 * cert05.c).astype(np.int64)
    tr = dj.simulate_coupled(sir, cert05, opts, X0, X0, k2=5.0)
    assert tr.coalesce_time == 0.0
    assert np.all(tr.H == 0.0)


@pytest.mark.parametrize(
    "U0,V0,seed,message",
    [
        (2, 8, 1, "invalid rate nan for chain U at [5]"),
        (3, 5, 0, "invalid rate nan for chain V at [5]"),
    ],
)
def test_coupled_rate_dividing_by_zero_is_a_simulation_error(U0, V0, seed, message):
    # 0 / (x1 - 0.5) is 0 everywhere but at X = 5, where it is 0 / 0
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1 + 0 / (x1 - 0.5)\n-1 : x1\n")
    cert = identity_certificate(d=1, c=(0.5,))
    opts = dj.SimOptions(N=10, seed=seed, horizon=50.0, record=(0.0, 1.0))
    with pytest.warns(RuntimeWarning), pytest.raises(SimulationError) as info:
        dj.simulate_coupled(m, cert, opts, np.array([U0]), np.array([V0]), k2=1.0, nu=2.0)
    assert str(info.value) == message


@pytest.mark.parametrize("wrong", ["U0", "V0"])
@pytest.mark.parametrize("start", [[50], [50, 50, 0]])
def test_coupled_start_of_the_wrong_length_is_rejected(sir, cert05, start, wrong):
    opts = dj.SimOptions(N=100, seed=0, horizon=1.0, record=(0.0, 1.0))
    X0 = np.array([50, 50])
    U0, V0 = (start, X0) if wrong == "U0" else (X0, start)
    message = rf"start has shape \({len(start)},\), expected \(2,\)"
    with pytest.raises(ValueError, match=message):
        dj.simulate_coupled(sir, cert05, opts, U0, V0, k2=5.0, nu=2.0)
    with pytest.raises(ValueError, match=message):
        dj.coupled_ensemble(sir, cert05, opts, U0, V0, reps=2, k2=5.0, nu=2.0)


def test_coalescence_is_absorbing(sir, cert05):
    N = 60
    Nc = N * cert05.c
    U0 = np.round(Nc).astype(np.int64) + np.array([2, 0])
    V0 = np.round(Nc).astype(np.int64) - np.array([2, 0])
    opts = dj.SimOptions(N=N, seed=8, horizon=30.0, record=tuple(np.linspace(0, 30, 61)))
    tr = dj.simulate_coupled(sir, cert05, opts, U0, V0, k2=5.0)
    if math.isfinite(tr.coalesce_time):
        after = np.array(opts.record) >= tr.coalesce_time
        assert np.all(tr.H[after] == 0.0)


def test_coupled_marginal_is_free_chain(sir, cert05):
    # with the partner ignored, the U leg has the law of the free chain:
    # TV between the two empirical laws within 3x the bootstrap null scale
    N, reps, t = 60, 400, 1.0
    Nc = N * cert05.c
    U0 = np.round(Nc).astype(np.int64) + np.array([3, -2])
    V0 = np.round(Nc).astype(np.int64) - np.array([3, 2])
    opts = dj.SimOptions(N=N, seed=31, horizon=1.5, record=(t,))
    legs = np.zeros((reps, 2), dtype=np.int64)
    for r in range(reps):
        tr = dj.simulate_coupled(sir, cert05, opts, U0, V0, k2=5.0, replicate=r, trace_states=True)
        legs[r] = tr.U[0]
    free_opts = dj.SimOptions(N=N, seed=77, horizon=1.5, record=(t,))
    free = dj.sample_states(sir, free_opts, U0, reps)[:, 0, :]
    p = dj.LatticeDistribution.from_points(legs)
    q = dj.LatticeDistribution.from_points(free)
    tv_obs = dj.tv_distance(p, q)
    # bootstrap null: TV between two resamples of the pooled empirical law
    pooled = dj.LatticeDistribution.from_points(np.vstack([legs, free]))
    rng = np.random.default_rng(5)
    null = []
    for _ in range(200):
        a = rng.multinomial(reps, pooled.mass) / reps
        b = rng.multinomial(reps, pooled.mass) / reps
        null.append(0.5 * np.abs(a - b).sum())
    assert tv_obs <= 3.0 * float(np.mean(null))


def test_contractive_generator_identity_and_negativity(sir, cert05):
    # grouping the coupling events per jump reproduces the generator formula,
    # and the drift is <= -rho H on sampled pairs above the scan threshold
    N = 400
    k2 = dj.estimate_K2(sir, cert05, N, samples=2000, seed=6)
    rng = np.random.default_rng(12)
    Nc = N * cert05.c
    L = np.linalg.cholesky(cert05.M)
    LinvT = np.linalg.inv(L).T
    rates = sir.kernel.rate_entries
    checked = 0
    for _ in range(400):
        r1, r2 = cert05.delta0 * np.sqrt(rng.random(2))
        th = rng.normal(size=(2, 2))
        th /= np.linalg.norm(th, axis=1, keepdims=True)
        U = np.round(Nc + N * r1 * (LinvT @ th[0])).astype(np.int64)
        V = np.round(Nc + N * r2 * (LinvT @ th[1])).astype(np.int64)
        H = cert05.m_norm(U - V)
        if H < k2 or cert05.m_norm(U / N - cert05.c) > cert05.delta0:
            continue
        if cert05.m_norm(V / N - cert05.c) > cert05.delta0:
            continue
        ru = np.array([rate(*(U / N)) for rate in rates])
        rv = np.array([rate(*(V / N)) for rate in rates])
        w = (U - V).astype(float)
        # route 1: per-jump split into joint + unilateral events
        total = 0.0
        for J, a, b in zip(sir.jump_array, ru, rv):
            joint = min(a, b)
            total += N * joint * 0.0
            if a > b:
                total += N * (a - b) * (cert05.m_norm(w + J) - H)
            elif b > a:
                total += N * (b - a) * (cert05.m_norm(w - J) - H)
        # route 2: the two-sum generator formula
        total2 = 0.0
        for J, a, b in zip(sir.jump_array, ru, rv):
            if a >= b:
                total2 += (cert05.m_norm(w + J) - H) * N * (a - b)
            else:
                total2 += (cert05.m_norm(w - J) - H) * N * (b - a)
        assert total == pytest.approx(total2, rel=1e-12, abs=1e-12)
        assert total <= -cert05.rho * H
        checked += 1
    assert checked >= 20


# K2 from the 4,000-pair rejection scan that estimate_K2 ran before it scored
# every pair of the ball; the scan gave these at seeds 0 and 3 alike
K2_SCAN = {
    ("cert025", 100): 1.282121529512065,
    ("cert025", 400): 1.282121529512065,
    ("cert05", 100): 36.81431946467376,
    ("cert05", 400): 2.5895718474182505,
    ("cert05", 1600): 2.5895718474182505,
    ("cert09", 100): 86.83058863208558,
    ("cert09", 400): 86.83058863208558,
    ("cert09", 1600): 86.83058863208558,
}


def scan_slack(m, cert, N, U, V):
    """(H, A H + rho H) of the pair (U, V), term for term as the scan scored it."""
    H = cert.m_norm(U - V)
    ru, rv = dj.eval_rates(m, U / N), dj.eval_rates(m, V / N)
    w = (U - V).astype(float)
    AH = 0.0
    for J, a, b in zip(m.jump_array, ru, rv):
        if a >= b:
            AH += (cert.m_norm(w + J) - H) * N * (a - b)
        else:
            AH += (cert.m_norm(w - J) - H) * N * (b - a)
    return H, AH + cert.rho * H


@pytest.mark.parametrize("cert_name,N", sorted(K2_SCAN))
def test_estimate_k2_is_the_scan_value_bit_for_bit(request, sir, cert_name, N):
    cert = request.getfixturevalue(cert_name)
    k2 = dj.estimate_K2(sir, cert, N, seed=3)
    assert np.float64(k2).tobytes() == np.float64(K2_SCAN[cert_name, N]).tobytes()
    # every pair is scored, so neither the seed nor the sample count is read
    for seed, samples in ((0, 4000), (7, 1), (123, 50)):
        assert dj.estimate_K2(sir, cert, N, samples=samples, seed=seed) == k2


def test_estimate_k2_of_a_one_point_ball_is_the_cap(sir, cert05):
    assert len(enumerate_ball(100, cert05, cert05.delta0)) == 1
    assert dj.estimate_K2(sir, cert05, 100) == K2_CAP_FACTOR * cert05.JstarM


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("cert_name,N", [("cert05", 400), ("cert025", 20000)])
def test_estimate_k2_refuses_samples_below_1(request, sir, cert_name, N, samples):
    # an exact ball, which reads no samples, and a sampled one past the cap
    cert = request.getfixturevalue(cert_name)
    with pytest.raises(ValueError, match=rf"^samples must be >= 1, got {samples}$"):
        dj.estimate_K2(sir, cert, N, samples=samples)


@pytest.mark.parametrize("N", [1600, 20000])
def test_estimate_k2_samples_a_ball_past_the_cap_reproducibly(sir, cert025, N):
    with pytest.raises(CapExceededError):
        enumerate_ball(N, cert025, cert025.delta0, cap=K2_EXACT_POINTS)
    k2 = [dj.estimate_K2(sir, cert025, N, seed=s) for s in (0, 1, 0)]
    assert k2[0] == k2[2]
    assert all(0.0 < k <= K2_CAP_FACTOR * cert025.JstarM for k in k2)


def test_estimate_k2_is_capped_when_no_scored_pair_has_positive_slack(sir, cert025, cert05):
    # at N=200,000 the smallest sampled H already lies past the cap, so no
    # scored pair fails and the threshold is that H, which the cap bounds
    for cert, seed in ((cert025, 0), (cert025, 3), (cert05, 0)):
        assert dj.estimate_K2(sir, cert, 200_000, seed=seed) == K2_CAP_FACTOR * cert.JstarM
    # sampled values below the cap do not move
    assert dj.estimate_K2(sir, cert025, 20_000, seed=0) == 9.837028173573117
    assert dj.estimate_K2(sir, cert025, 20_000, seed=3) == 4.8143620752682095


def test_estimate_k2_near_the_cap_is_scored_in_bounded_blocks(monkeypatch, sir, cert025):
    # 1,021 points, 520,710 pairs: the values do not depend on the block size,
    # and the call's numpy memory stays well under the 68 MB that scoring
    # every pair in one pass took
    N = 1290
    assert 0.95 * K2_EXACT_POINTS < len(enumerate_ball(N, cert025, cert025.delta0)) <= K2_EXACT_POINTS
    tracemalloc.start()
    try:
        k2 = dj.estimate_K2(sir, cert025, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    for block in (1000, 10**9):
        monkeypatch.setattr(simulate, "K2_PAIR_BLOCK", block)
        assert np.float64(dj.estimate_K2(sir, cert025, N)).tobytes() == np.float64(k2).tobytes()


@st.composite
def small_balls(draw):
    """(model, certificate, N): a random SIR certificate and an N at which
    its ball B_M(N c, N delta0) holds about 15 to 60 lattice points."""
    alpha, beta, gamma = (draw(st.floats(0.5, 3.0)) for _ in range(3))
    m = dj.builtin_hamer_sir(alpha, beta, gamma)
    cert = dj.certify(m, np.array([gamma / alpha, beta / gamma]), rho_fraction=draw(st.floats(0.1, 0.9)))
    n_max = int(math.sqrt(60.0 * math.sqrt(np.linalg.det(cert.M)) / math.pi) / cert.delta0)
    return m, cert, draw(st.integers(max(1, n_max // 2), max(1, n_max)))


@settings(max_examples=30, deadline=None)
@given(small_balls())
def test_estimate_k2_is_the_threshold_of_every_pair(case):
    # scored pair by pair in the scan's scalar arithmetic: no pair at H >= K2
    # has positive slack, and K2 is the next level above the last one that does
    m, cert, N = case
    pts = enumerate_ball(N, cert, cert.delta0)
    rows = []
    for a, U in enumerate(pts):
        for V in pts[a + 1 :]:
            H, slack = scan_slack(m, cert, N, U, V)
            assert scan_slack(m, cert, N, V, U) == (H, slack)
            rows.append((H, slack))
    k2 = dj.estimate_K2(m, cert, N)
    cap = K2_CAP_FACTOR * cert.JstarM
    if k2 < cap:
        assert all(slack <= 0.0 for H, slack in rows if H >= k2)
    bad = [H for H, slack in rows if slack > 0.0]
    above = sorted(H for H, _ in rows if not bad or H > max(bad))
    if not above:
        assert k2 == cap
    else:
        assert k2 == (above[0] if not bad else min(above[0], cap))


def test_coupled_trace_dump_fields(sir, cert05):
    opts = dj.SimOptions(N=50, seed=1, horizon=2.0, record=(0.0, 1.0, 2.0))
    Nc = np.round(50 * cert05.c).astype(np.int64)
    tr = dj.simulate_coupled(
        sir, cert05, opts, Nc + [4, 0], Nc - [4, 0], k2=5.0, trace_states=True
    )
    assert tr.U.shape == (3, 2)
    assert tr.V.shape == (3, 2)
    assert tr.K3 == max(5.0, 8 * cert05.JstarM)


# Two extra models for the generated pair loop: eight jumps (its totals and
# picks run over eight terms) and three coordinates.
EIGHT_JUMPS = dj.parse_model(
    """
[dimension]
2
[jumps]
 1  0 : 1.0
-1  0 : x1
 0  1 : 0.5 + 0.2 * x1
 0 -1 : x2
 1  1 : 0.3 * x1 * x2 / (1 + x1)
-1 -1 : 0.2 * x1 * x2
 1 -1 : 0.1 * x2
-1  1 : 0.4 * x1
"""
)
THREE_DIM = dj.parse_model(
    """
[dimension]
3
[jumps]
 1  0  0 : 1.0
-1  1  0 : x1
 0 -1  1 : 0.8 * x2
 0  0 -1 : x3
-1  0  0 : 0.5 * x1 * x3
"""
)
DIVIDES_BY_ZERO = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1 + 0 / (x1 - 0.5)\n-1 : x1\n")


def _certificate(M, c):
    """A hand-built certificate with norm matrix M; K3 >= 8 JstarM = 2."""
    base = identity_certificate(d=len(c), c=c)
    return dataclasses.replace(base, M=np.asarray(M, dtype=float), JstarM=0.25)


def _run_pair(fn, *args, **kwargs):
    """``fn``'s trace, or its SimulationError text, plus its warning texts."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args, **kwargs)
        except SimulationError as e:
            out = str(e)
    return out, [str(w.message) for w in caught]


@st.composite
def coupled_runs(draw, cases):
    name = draw(st.sampled_from(sorted(cases)))
    m, cert = cases[name]
    N = draw(st.sampled_from([10, 20, 40]))
    centre = np.round(N * cert.c).astype(np.int64)

    def start():
        return np.maximum(centre + draw(st.lists(st.integers(-8, 8), min_size=m.d, max_size=m.d)), 0)

    U0 = start()
    V0 = U0.copy() if draw(st.integers(0, 4)) == 0 else start()
    horizon = draw(st.sampled_from([0.5, 1.5, 3.0]))
    inner = draw(st.lists(st.floats(0.0, horizon), max_size=12))
    ends = draw(st.sampled_from([(), (0.0,), (horizon,), (0.0, horizon)]))
    opts = dj.SimOptions(
        N=N,
        seed=draw(st.integers(0, 2**32 - 1)),
        horizon=horizon,
        record=sorted(inner + list(ends)),
    )
    kwargs = {
        "k2": draw(st.floats(0.1, 40.0)),
        "nu": draw(st.floats(1.0 + 1e-9, 3.0)),
        "replicate": draw(st.integers(0, 10**6)),
        "trace_states": draw(st.booleans()),
    }
    return m, cert, opts, U0, V0, kwargs


def test_pair_loop_matches_reference_bitwise(sir, cert05):
    cases = {
        "sir": (sir, cert05),
        "divides_by_zero": (DIVIDES_BY_ZERO, identity_certificate(d=1, c=(0.5,))),
        "eight_jumps": (EIGHT_JUMPS, _certificate([[1.3, 0.4], [0.4, 0.8]], (1.0, 1.0))),
        "three_dim": (
            THREE_DIM,
            _certificate([[1.0, 0.2, 0.1], [0.2, 1.5, 0.3], [0.1, 0.3, 0.9]], (1.0, 1.0, 1.0)),
        ),
    }
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(coupled_runs(cases))
    def check(run):
        m, cert, opts, U0, V0, kwargs = run
        new, new_warned = _run_pair(dj.simulate_coupled, m, cert, opts, U0, V0, **kwargs)
        ref, ref_warned = _run_pair(simulate_coupled_reference, m, cert, opts, U0, V0, **kwargs)
        assert new_warned == ref_warned
        if isinstance(ref, str):
            assert new == ref
            seen.add("error")
            return
        assert new.H.tobytes() == ref.H.tobytes()
        assert new.phases.dtype == ref.phases.dtype and np.array_equal(new.phases, ref.phases)
        assert new.coalesce_time == ref.coalesce_time
        assert (new.K3, new.nuK3) == (ref.K3, ref.nuK3)
        for a, b in ((new.U, ref.U), (new.V, ref.V)):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == b.dtype and np.array_equal(a, b)
        seen.update(new.phases.tolist())

    check()
    assert seen == {0, 1, 2, "error"}


def test_coupled_h0_is_the_certificate_norm(sir, cert05):
    # the criterion-06 and benchmark start: H(0) = 39.6 along (1, 0.3)
    N = 400
    Nc = N * cert05.c
    u = np.linalg.inv(np.linalg.cholesky(cert05.M)).T @ np.array([1.0, 0.3])
    u /= cert05.m_norm(u)
    U0 = np.round(Nc + 20.0 * u).astype(np.int64)
    V0 = np.round(Nc - 20.0 * u).astype(np.int64)
    assert (U0 - V0).tolist() == [12, 8]
    h0 = cert05.m_norm(U0 - V0)
    opts = dj.SimOptions(N=N, seed=11, horizon=0.5, record=(0.0, 0.5))
    tr = dj.simulate_coupled(sir, cert05, opts, U0, V0, k2=5.0, nu=2.0)
    assert tr.H[0] == h0
    H, _ = dj.coupled_ensemble(sir, cert05, opts, U0, V0, reps=3, k2=5.0, nu=2.0)
    assert np.all(H[:, 0] == h0)


def test_coupled_ensemble_invariant_to_chunk_and_workers(sir, cert05):
    N = 60
    Nc = np.round(N * cert05.c).astype(np.int64)
    opts = dj.SimOptions(N=N, seed=4, horizon=2.0, record=(0.0, 0.5, 1.0, 2.0))
    args = (sir, cert05, opts, Nc + [4, 1], Nc - [3, 2])
    H0, coal0 = dj.coupled_ensemble(*args, reps=70, k2=3.0, workers=1, chunk=70)
    assert np.isfinite(coal0).any() and not np.isfinite(coal0).all()
    for workers in (1, 2):
        for chunk in (1, 7, 16, 64):
            H, coal = dj.coupled_ensemble(*args, reps=70, k2=3.0, workers=workers, chunk=chunk)
            assert H.tobytes() == H0.tobytes()
            assert coal.tobytes() == coal0.tobytes()


@pytest.mark.parametrize(
    "reps,chunk,message",
    [
        (0, 64, "reps must be >= 1, got 0"),
        (-2, 64, "reps must be >= 1, got -2"),
        (5, 0, "chunk must be >= 1, got 0"),
    ],
)
def test_coupled_ensemble_rejects_empty_splits(sir, cert05, reps, chunk, message):
    opts = dj.SimOptions(N=20, seed=0, horizon=1.0, record=(0.0,))
    X0 = np.array([10, 20])
    with pytest.raises(ValueError, match=message):
        dj.coupled_ensemble(sir, cert05, opts, X0, X0, reps, k2=5.0, nu=2.0, chunk=chunk)


def test_pair_loop_is_built_on_first_use_and_not_pickled(cert05):
    m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    assert "pair_loop" not in m.__dict__
    opts = dj.SimOptions(N=40, seed=2, horizon=1.0, record=(0.5, 1.0))
    X0 = np.array([20, 40])
    first = dj.simulate_coupled(m, cert05, opts, X0 + [3, 0], X0, k2=2.0, nu=2.0)
    assert "pair_loop" in m.__dict__
    copy = pickle.loads(pickle.dumps(m))
    assert "pair_loop" not in copy.__dict__
    again = dj.simulate_coupled(copy, cert05, opts, X0 + [3, 0], X0, k2=2.0, nu=2.0)
    assert again.H.tobytes() == first.H.tobytes()


# ---------------------------------------------------------------------------
# martingale deviation
# ---------------------------------------------------------------------------


def test_martingale_zero_for_deterministic_model():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 0\n")
    opts = dj.SimOptions(N=20, seed=0, horizon=2.0)
    rep = dj.martingale_deviation(
        m, opts, np.array([20]), T=1.0, reps=50, z_grid=(0.01, 0.1)
    )
    assert np.all(rep.tail == 0.0)
    np.testing.assert_allclose(rep.mean_final, 0.0, atol=1e-15)


def test_martingale_mean_zero(sir):
    opts = dj.SimOptions(N=100, seed=13, horizon=3.0)
    rep = dj.martingale_deviation(
        sir, opts, np.array([100, 100]), T=2.0, reps=4000, z_grid=(0.05, 0.1, 0.2)
    )
    assert np.all(np.abs(rep.mean_final) <= 3.0 * rep.se_final + 1e-12)


def test_martingale_tail_below_bound(sir):
    opts = dj.SimOptions(N=100, seed=14, horizon=3.0)
    z_grid = np.geomspace(0.02, 2.0, 8)
    rep = dj.martingale_deviation(sir, opts, np.array([100, 100]), T=2.0, reps=3000, z_grid=z_grid)
    assert rep.violations == 0
    assert np.all(rep.tail[:-1] >= rep.tail[1:])  # tail nonincreasing in z


MARTINGALE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_martingale_bound.py"


def test_martingale_bound_script_writes_its_tail_table(tmp_path):
    """``scripts/run_martingale_bound.py`` at a small size exits 0 and writes
    one row per point of its 10-point z-grid."""
    args = ["--N", "20", "--reps", "64", "--T", "0.5", "--workers", "1", "--out", str(tmp_path)]
    cmd = [sys.executable, str(MARTINGALE_SCRIPT), *args]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    text = (tmp_path / "martingale_tail.csv").read_text()
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "z,empirical_tail,tail_lcb99,zeta_bound"
    assert len(lines) == 11 and all(len(row.split(",")) == 4 for row in lines[1:])


def test_martingale_rate_sup_with_a_nan_on_its_mesh_is_a_rate_error():
    # x2 * x2 / x1 is 0 / 0 at the mesh corner (0, 0) on the domain face; a
    # NaN sup made the bound drop its quadratic regime and report violations
    m = dj.parse_model(
        "[dimension]\n2\n[jumps]\n1 0 : 1.0\n-1 0 : x1\n0 1 : x1 + 0.1\n0 -1 : x2 * x2 / x1\n"
    )
    opts = dj.SimOptions(N=500, seed=0, horizon=1.0)
    message = r"^invalid rate nan for jump \(0, -1\) at \[0\.0, 0\.0\]$"
    with pytest.raises(RateError, match=message):
        dj.martingale_deviation(m, opts, np.array([50, 20]), T=1.0, reps=500, z_grid=(0.1, 0.5))


def test_exit_rate_sup_with_a_nan_in_the_ball_is_a_rate_error():
    # at T = 0 no path runs, so only the bound's sup constants see the rates
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1 + 0 / (x1 - x1)\n-1 : x1\n")
    cert = identity_certificate(d=1, c=(1.0,))
    with pytest.raises(RateError, match=r"^invalid rate nan for jump \(1,\) at \["):
        dj.exit_probability(m, cert, 20, 0.3, 0.6, T=0.0, reps=10, seed=0)


def binomial_tail(c, n, x):
    """``P(Bin(n, x) >= c)`` for the double ``x``, exactly: with x = p / D,
    the terms C(n, k) p^k (D - p)^(n - k), each from the last, over D^n."""
    p, D = float(x).as_integer_ratio()
    b = D - p
    term = math.comb(n, c) * p**c * b ** (n - c)
    total = term
    for k in range(c, n):
        term = term * (n - k) * p // ((k + 1) * b)
        total += term
    return Fraction(total, D**n)


def brackets_the_root(c, n, x):
    """Whether the doubles next to ``x`` bracket the x where the tail is 0.01."""
    lo, hi = np.nextafter(x, -1.0), np.nextafter(x, 2.0)
    return binomial_tail(c, n, lo) <= Fraction(1, 100) <= binomial_tail(c, n, hi)


@pytest.mark.parametrize("reps", [1, 2, 100])
def test_tail_lcb99_brackets_the_root_exactly(reps):
    lcb = simulate._tail_lcb99(np.arange(reps + 1), reps)
    assert lcb[0] == 0.0
    assert [c for c in range(1, reps + 1) if not brackets_the_root(c, reps, lcb[c])] == []


def ulps(a, b):
    return np.abs(np.asarray(a, dtype=float).view(np.int64) - np.asarray(b, dtype=float).view(np.int64))


@pytest.mark.parametrize("reps", [8192, 10_000])
def test_tail_lcb99_is_within_64_ulp_of_the_beta_quantile(reps):
    # scipy's quantile is itself up to 68 ulp from the root (scipy 1.17.1, at
    # counts 4065 and 4128 of 8192), so a count past 64 ulp must bracket the
    # root exactly; each such check takes about half a second
    from scipy.special import betaincinv

    counts = np.arange(reps + 1)
    lcb = simulate._tail_lcb99(counts, reps)
    c = np.maximum(counts, 1)
    off = ulps(lcb, np.where(counts > 0, betaincinv(c, reps - c + 1, 0.01), 0.0))
    far = np.flatnonzero(off > 64)
    assert len(far) <= 4, far
    assert all(brackets_the_root(int(c), reps, lcb[c]) for c in far)
    assert lcb[0] == 0.0 and np.all(np.diff(lcb) > 0)


# ---------------------------------------------------------------------------
# exit probability
# ---------------------------------------------------------------------------


def exit_starts_reference(start_ball, Linv_T, reps, seed):
    """The per-start loop ``exit_probability`` drew its starts with: one
    normal draw and one shrink loop per start."""
    Nc, rad_p = start_ball.center, start_ball.radius
    rng = dj.rng.substream(seed, 0, dj.rng.EXIT_START)
    starts = np.zeros((reps, len(Nc)), dtype=np.int64)
    for i in range(reps):
        u = rng.normal(size=len(Nc))
        u /= np.linalg.norm(u)
        X = np.round(Nc + rad_p * (Linv_T @ u)).astype(np.int64)
        scale = 1.0
        while not start_ball.contains(X) and scale > 0.0:
            scale -= 0.05
            X = np.round(Nc + scale * rad_p * (Linv_T @ u)).astype(np.int64)
        starts[i] = X
    return starts


@pytest.mark.parametrize("cert_name", ["cert05", "cert09"])
@pytest.mark.parametrize("N,delta_prime", [(40, 0.001), (40, 0.3), (200, 0.01), (200, 0.35), (1000, 1.0)])
def test_exit_starts_match_the_per_start_loop(request, cert_name, N, delta_prime):
    cert = request.getfixturevalue(cert_name)
    ball, Linv_T = cert.ball(N, delta_prime), m_sphere_map(cert.M)
    for seed in range(4):
        starts = _exit_starts(ball, Linv_T, 2000, seed)
        assert np.array_equal(starts, exit_starts_reference(ball, Linv_T, 2000, seed))


def test_exit_probability_zero_horizon(sir, cert05):
    for T in (0.0, -1.0):  # no path runs at T <= 0
        rep = dj.exit_probability(
            sir, cert05, N=50, delta_prime=0.3, delta=0.6, T=T, reps=100, seed=0
        )
        assert rep.estimate == 0.0
        assert rep.bound == 0.0


def test_exit_probability_tiny_start_large_ball(sir, cert05):
    rep = dj.exit_probability(
        sir, cert05, N=200, delta_prime=0.05, delta=0.7, T=0.05, reps=200, seed=1
    )
    assert rep.estimate == 0.0


def test_exit_probability_decreasing_in_N(sir, cert05):
    est = []
    for N in (50, 100, 200):
        rep = dj.exit_probability(
            sir, cert05, N=N, delta_prime=0.35, delta=0.7, T=1.0, reps=400, seed=2
        )
        est.append(rep.estimate)
        assert not rep.certified  # delta above the certified radius is flagged
    assert est[0] > est[1] > est[2]


def test_an_exit_reports_certified_flag_is_a_bool(sir, cert05):
    # a numpy delta0 made it np.False_, and the report's repr with it
    rep = dj.exit_probability(sir, cert05, 50, 0.3, 0.6, T=0.0, reps=1, seed=0)
    assert type(rep.certified) is bool


def test_exit_report_eps_prime_case_split(sir, cert05):
    # delta' >= delta/(3 - 2/e) uses (delta - delta')/(2 c1)
    r1 = dj.exit_probability(sir, cert05, 50, 0.5, 0.7, T=0.0, reps=1, seed=0)
    assert r1.eps_prime == pytest.approx((0.7 - 0.5) / (2 * cert05.c1))
    # small delta' switches to the fixed fraction of delta
    r2 = dj.exit_probability(sir, cert05, 50, 0.05, 0.7, T=0.0, reps=1, seed=0)
    expect = 0.7 * (1 - math.exp(-1)) / ((3 - 2 * math.exp(-1)) * cert05.c1)
    assert r2.eps_prime == pytest.approx(expect)


def test_zeta_bound_shape():
    z = np.array([0.5, 1.0, 2.0])
    b = dj.zeta_bound(z, N=100, T=2.0, d=2, Rstar=5.0, Jstar=math.sqrt(2.0))
    assert np.all(np.diff(b) < 0)
    assert np.all(b > 0)
