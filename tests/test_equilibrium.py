import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

import ddjump as dj
from ddjump import engine
from ddjump.equilibrium import (
    _empirical_tv_with_ci,
    build_generator,
    build_restricted_generator,
)
from ddjump.errors import CapExceededError, ConvergenceError, DomainError
from conftest import as_dict, identity_certificate


# ---------------------------------------------------------------------------
# enumerate_ball
# ---------------------------------------------------------------------------


EMPTY_BALL_MODEL = "[dimension]\n1\n[jumps]\n1 : 1\n-1 : x1\n"


def test_a_ball_with_no_lattice_state_is_a_domain_error():
    # B_M(10.5, 0.4) holds no integer point; estimate_K2 keeps its cap there
    m = dj.parse_model(EMPTY_BALL_MODEL)
    cert = identity_certificate(d=1, c=(1.05,))
    assert len(dj.enumerate_ball(10, cert, 0.04)) == 0
    for solve in (dj.stationary_exact, build_restricted_generator):
        with pytest.raises(DomainError, match="^no lattice state inside the restriction ball$"):
            solve(m, 10, cert, 0.04)
    assert dj.estimate_K2(m, dataclasses.replace(cert, delta0=0.04), 10) == 16.0 * cert.JstarM


def test_ball_euclidean_disk():
    cert = identity_certificate(d=2, c=(0.0, 0.0))
    # N delta = 2 around the origin: the 13 integer points with x^2+y^2 <= 4
    states = dj.enumerate_ball(N=2, cert=cert, delta=1.0)
    assert len(states) == 13
    assert np.all((states**2).sum(axis=1) <= 4)


def test_ball_single_state(sir, cert05):
    # radius below the lattice spacing captures only the nearest point
    N = 40
    states = dj.enumerate_ball(N, cert05, delta=0.4 * cert05.c0 / N)
    assert len(states) == 1
    assert states[0].tolist() == [20, 40]


def test_ball_count_tracks_ellipse_area(cert05):
    # lattice-point count vs ellipse area pi (N delta)^2 / sqrt(det M), 5%
    for N, delta in ((60, 0.6), (120, 0.35)):
        states = dj.enumerate_ball(N, cert05, delta)
        area = math.pi * (N * delta) ** 2 / math.sqrt(np.linalg.det(cert05.M))
        assert N * delta >= 30
        assert abs(len(states) - area) <= 0.05 * area


def test_ball_cap_enforced(sir, cert05):
    with pytest.raises(CapExceededError):
        dj.enumerate_ball(10_000, cert05, 0.7, cap=1000)


# ---------------------------------------------------------------------------
# stationary distributions
# ---------------------------------------------------------------------------


def test_stationary_single_state_point_mass(sir, cert05):
    N = 40
    pi = dj.stationary_exact(sir, N, cert05, delta=0.4 * cert05.c0 / N)
    assert len(pi) == 1
    assert pi.mass.tolist() == [1.0]


def test_birth_death_detailed_balance(birth_death):
    # restricted birth-death chain: pi(k) proportional to prod lam/(j/N * N)
    cert = dj.certify(birth_death, (2.0,), rho_fraction=0.5)
    N, delta = 50, 0.4
    pi = dj.stationary_exact(birth_death, N, cert, delta)
    ks = pi.support[:, 0]
    lo = ks.min()
    # product formula for birth rate N*lam and death rate k (per-capita x1)
    logw = np.zeros(len(ks))
    for i, k in enumerate(ks):
        logw[i] = sum(math.log(N * 1.0) - math.log(j) for j in range(lo + 1, k + 1))
    w = np.exp(logw - logw.max())
    w /= w.sum()
    assert 0.5 * np.abs(w - pi.mass).sum() <= 1e-10


def test_power_iteration_matches_direct_solve(sir, cert05):
    N, delta = 30, 0.78
    p1 = dj.stationary_exact(sir, N, cert05, delta, method="power")
    p2 = dj.stationary_exact(sir, N, cert05, delta, method="direct")
    assert len(p1) > 500
    assert dj.tv_distance(p1, p2) <= 1e-8


def test_transposed_kernel_iterates_match_row_vector_products(sir, cert05):
    # the power iteration steps with P^T built once (P^T pi); each iterate
    # equals the row-vector product pi P bit for bit
    states, Q = build_restricted_generator(sir, 30, cert05, 0.78)
    n = Q.shape[0]
    lam = float((-Q.diagonal()).max()) * (1.0 + 1e-6)
    P = sp.eye(n, format="csr") + Q / lam
    PT = P.T.tocsr()
    a = b = np.full(n, 1.0 / n)
    for _ in range(300):
        a = a @ P
        a /= a.sum()
        b = PT @ b
        b /= b.sum()
        assert np.array_equal(a, b)


def test_stationary_residual_invariant(sir, cert05):
    N, delta = 30, 0.78
    pi = dj.stationary_exact(sir, N, cert05, delta)
    states, Q = build_restricted_generator(sir, N, cert05, delta)
    assert np.array_equal(states, pi.support)
    resid = float(np.abs(pi.mass @ Q).sum())
    assert resid <= 1e-9


def test_occupation_estimate_close_to_exact(sir, cert05):
    N, delta = 30, 0.78
    pi = dj.stationary_exact(sir, N, cert05, delta)
    pe = dj.stationary_empirical(sir, N, cert05, delta, samples=200_000, seed=5)
    assert dj.tv_distance(pe, pi) <= 0.1


def test_occupation_two_seeds_consistent(sir, cert05):
    N, delta = 30, 0.78
    pi = dj.stationary_exact(sir, N, cert05, delta)
    pa = dj.stationary_empirical(sir, N, cert05, delta, samples=200_000, seed=1)
    pb = dj.stationary_empirical(sir, N, cert05, delta, samples=200_000, seed=2)
    ref = max(dj.tv_distance(pa, pi), dj.tv_distance(pb, pi))
    assert dj.tv_distance(pa, pb) <= 2.0 * ref


def test_occupation_ball_past_the_domain_raises_before_simulating(sir, cert05, monkeypatch):
    def no_paths(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(engine, "run_paths", no_paths)
    with pytest.raises(DomainError):
        dj.stationary_empirical(sir, 30, cert05, 5.0, samples=10, seed=0)


def test_occupation_absorbing_point_mass(cert05):
    m = dj.parse_model("[dimension]\n2\n[jumps]\n1 0 : 0\n0 1 : 0\n")
    cert = identity_certificate(d=2, c=(1.0, 1.0))
    pi = dj.stationary_empirical(m, 10, cert, 0.6, samples=10, seed=0)
    assert len(pi) == 1
    assert pi.mass.tolist() == [1.0]


def test_stationary_irreducibility_guard(cert05):
    # even-step walker inside the ball never mixes parity classes
    m = dj.parse_model(
        "[dimension]\n2\n[jumps]\n2 0 : 1\n-2 0 : 1\n0 2 : 1\n0 -2 : 1\n"
        "[domain]\nx1 >= -100\nx2 >= -100\n"
    )
    cert = identity_certificate(d=2, c=(0.0, 0.0))
    with pytest.raises(ConvergenceError):
        dj.stationary_exact(m, 10, cert, 0.8)


def test_a_power_iteration_failure_says_what_was_measured(sir, cert05):
    # the equilibrium sweep's N=300 ball: the step residual still falls, by
    # less than 1% of the best a check, when the iteration stops
    with pytest.raises(ConvergenceError) as err:
        dj.stationary_exact(sir, 300, cert05, 0.7)
    found = re.fullmatch(
        r"power iteration stopped after (\d+) iterations: the step residual went from (\S+) to (\S+) "
        r"over 40 checks 16 iterations apart, none 1% below the best before it \(uniformization rate (\S+)\)",
        str(err.value),
    )
    assert found, str(err.value)
    its, first, last, lam = found.groups()
    assert (its, last, lam) == ("2289", "5.81e-06", "1141.97")
    assert float(first) > float(last)


def test_stationary_counts_closed_classes():
    # the four parity classes of the even-step walker are each closed
    m = dj.parse_model(
        "[dimension]\n2\n[jumps]\n2 0 : 1\n-2 0 : 1\n0 2 : 1\n0 -2 : 1\n"
        "[domain]\nx1 >= -100\nx2 >= -100\n"
    )
    cert = identity_certificate(d=2, c=(0.0, 0.0))
    with pytest.raises(ConvergenceError, match=r"\b4 closed communicating classes"):
        dj.stationary_exact(m, 10, cert, 0.8)


@pytest.mark.parametrize("method", ["direct", "power"])
def test_both_routes_refuse_a_chain_with_two_closed_classes(method):
    # jumps of +-2 keep the parity of X: two closed classes in the ball
    m = dj.parse_model("[dimension]\n1\n[jumps]\n2 : 1\n-2 : x1\n")
    cert = identity_certificate(d=1, c=(1.0,))
    with pytest.raises(ConvergenceError, match=r"\b2 closed communicating classes"):
        dj.stationary_exact(m, 10, cert, 0.3, method=method)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_lattice_law_with_non_finite_mass_is_refused(bad):
    with pytest.raises(ValueError, match="non-finite mass"):
        dj.LatticeDistribution(np.array([[0], [1]]), np.array([bad, bad]))


def test_stationary_solves_with_a_transient_state():
    # states -1..5; the down-rate x1^2 vanishes at 0, so -1 is never entered
    # and {0, ..., 5} is the one closed class
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1\n-1 : x1 * x1\n[domain]\nx1 >= -1\n")
    cert = identity_certificate(d=1, c=(0.2,))
    states, Q = build_restricted_generator(m, 10, cert, 0.3)
    assert states[:, 0].tolist() == list(range(-1, 6))
    assert Q[1, 0] == 0.0
    pi = dj.stationary_exact(m, 10, cert, 0.3)
    assert pi.mass[0] < 1e-12
    # detailed balance on the closed class: up-rate 1 at k, down-rate (k / 10)^2 at k
    rest = pi.mass[1:]
    for k in range(5):
        assert rest[k] == pytest.approx(rest[k + 1] * ((k + 1) / 10) ** 2, rel=1e-8)


# a diagonal jump and a double step, so a held set drops jumps that do not
# just cross its edge
HOLD_MODEL = dj.parse_model(
    "[dimension]\n2\n[jumps]\n1 0 : 1 + x2\n-1 0 : x1\n0 1 : 0.5\n0 -1 : x2\n"
    "-1 1 : x1 * x2\n2 0 : 0.25\n"
)


def _dense_hold_generator(m, N, states):
    """Q[i, j] = N r_J(X_i / N) summed over the jumps J from X_i to X_j, for
    targets in ``states``, by a dict of tuples and the scalar rates."""
    index = {X: i for i, X in enumerate(map(tuple, states.tolist()))}
    Q = np.zeros((len(states), len(states)))
    for i, X in enumerate(states.tolist()):
        for J, r in zip(m.jumps, dj.eval_rates(m, np.array(X) / N)):
            j = index.get(tuple(a + b for a, b in zip(X, J)))
            if j is not None:
                Q[i, j] += N * r
    return Q - np.diag(Q.sum(axis=1))


@pytest.mark.parametrize("shape", ["box", "L"])
def test_build_generator_holds_any_state_set(shape):
    box = np.stack(np.meshgrid(np.arange(5), np.arange(5), indexing="ij"), -1).reshape(-1, 2)
    states = box if shape == "box" else box[(box < 2).any(axis=1)]  # canonical order kept
    Q = build_generator(HOLD_MODEL, 4, states).toarray()
    ref = _dense_hold_generator(HOLD_MODEL, 4, states)
    off = ~np.eye(len(states), dtype=bool)
    assert np.array_equal(Q[off], ref[off])
    assert np.abs(Q.sum(axis=1)).max() <= 1e-12 * np.abs(Q).max()
    # some jumps leave the set and are dropped, the others are kept
    assert 0 < np.count_nonzero(Q[off]) < len(HOLD_MODEL.jumps) * len(states)


# ---------------------------------------------------------------------------
# sigma^2, Sigma, discrete normal
# ---------------------------------------------------------------------------


def test_sigma2_sir_closed_form(sir, cert05):
    s2 = dj.equilibrium_sigma2(sir, cert05.c)
    assert s2.tolist() == [[2.0, -1.0], [-1.0, 2.0]]


def test_sigma2_zero_when_rates_vanish():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1\n")
    s2 = dj.equilibrium_sigma2(m, np.array([0.0]))
    assert s2.tolist() == [[0.0]]


def test_sigma2_symmetric_walk():
    m = dj.parse_model("[dimension]\n1\n[params]\nlam = 3.0\n[jumps]\n1 : lam\n-1 : lam\n")
    s2 = dj.equilibrium_sigma2(m, np.array([1.0]))
    assert s2.tolist() == [[6.0]]


def test_lyapunov_sigma_sir_closed_form(sir, cert05):
    s2 = dj.equilibrium_sigma2(sir, cert05.c)
    Sigma = dj.solve_lyapunov_sigma(cert05.A, s2)
    np.testing.assert_allclose(Sigma, [[0.75, -0.5], [-0.5, 1.5]], atol=1e-12)
    resid = np.max(np.abs(cert05.A @ Sigma + Sigma @ cert05.A.T + s2))
    assert resid <= 1e-10


def test_lyapunov_sigma_identity_balance():
    Sigma = dj.solve_lyapunov_sigma(-np.eye(2), 2.0 * np.eye(2))
    np.testing.assert_allclose(Sigma, np.eye(2), atol=1e-12)


def test_lyapunov_sigma_random_hurwitz_residual():
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        raw = rng.normal(size=(d, d))
        A = raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(d)
        G = rng.normal(size=(d, d))
        s2 = G @ G.T
        Sigma = dj.solve_lyapunov_sigma(A, s2)
        assert np.max(np.abs(A @ Sigma + Sigma @ A.T + s2)) <= 1e-10


def test_lyapunov_sigma_rejects_non_hurwitz():
    with pytest.raises(ConvergenceError):
        dj.solve_lyapunov_sigma(np.array([[0.2]]), np.array([[1.0]]))


def test_discrete_normal_weight_ratio():
    dn = dj.discrete_normal(1, np.array([0.0]), np.array([[1.0]]))
    d = as_dict(dn)
    assert d[(0,)] / d[(1,)] == pytest.approx(math.exp(0.5))


def test_discrete_normal_symmetry():
    dn = dj.discrete_normal(4, np.array([1.0]), np.array([[0.5]]))
    d = as_dict(dn)
    for k in range(1, 8):
        assert d[(4 + k,)] == pytest.approx(d[(4 - k,)])


def test_discrete_normal_tail_mass_beyond_six_sigma():
    # Gaussian tail oracle: mass outside a 6-sigma box is below 2*Phi(-6) ~ 2e-9
    Nvar = 9.0
    dn = dj.discrete_normal(9, np.array([0.0]), np.array([[1.0]]))
    x = dn.support[:, 0].astype(float)
    outside = np.abs(x) > 6.0 * math.sqrt(Nvar)
    assert dn.mass[outside].sum() < 1e-6
    assert dn.mass[outside].sum() <= 4.0 * norm.sf(6.0)


# ---------------------------------------------------------------------------
# tv_distance
# ---------------------------------------------------------------------------


def test_tv_identical_zero(sir, cert05):
    pi = dj.stationary_exact(sir, 30, cert05, 0.5)
    assert dj.tv_distance(pi, pi) == 0.0


def test_tv_disjoint_supports_is_one():
    p = dj.LatticeDistribution.point_mass((0, 0))
    q = dj.LatticeDistribution.point_mass((5, 5))
    assert dj.tv_distance(p, q) == 1.0


def test_tv_uniform_vs_point():
    p = dj.LatticeDistribution(np.array([[0], [1]]), np.array([0.5, 0.5]))
    q = dj.LatticeDistribution.point_mass((0,))
    assert dj.tv_distance(p, q) == 0.5


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
def test_tv_metric_properties(ws):
    pts = np.array([[0], [1], [2]])
    rng = np.random.default_rng(0)
    a = np.array(ws) / sum(ws)
    b = rng.dirichlet([1, 1, 1])
    c = rng.dirichlet([1, 1, 1])
    P = dj.LatticeDistribution(pts, a)
    Q = dj.LatticeDistribution(pts, b)
    R = dj.LatticeDistribution(pts, c)
    assert dj.tv_distance(P, Q) == pytest.approx(dj.tv_distance(Q, P))
    assert dj.tv_distance(P, P) == 0.0
    assert dj.tv_distance(P, R) <= dj.tv_distance(P, Q) + dj.tv_distance(Q, R) + 1e-12


# ---------------------------------------------------------------------------
# tail mass
# ---------------------------------------------------------------------------


def test_tail_mass_zero_beyond_delta(sir, cert05):
    N, delta = 30, 0.6
    pi = dj.stationary_exact(sir, N, cert05, delta)
    assert dj.tail_mass(pi, cert05, N, delta) == 0.0
    assert dj.tail_mass(pi, cert05, N, delta + 0.1) == 0.0


def test_tail_mass_at_zero_radius(sir, cert05):
    N, delta = 30, 0.6
    pi = dj.stationary_exact(sir, N, cert05, delta)
    d = as_dict(pi)
    center_mass = d.get(tuple(np.round(N * cert05.c).astype(int)), 0.0)
    got = dj.tail_mass(pi, cert05, N, 0.0)
    # only an exact lattice hit of N c would escape the strict inequality
    assert got == pytest.approx(1.0 if cert05.m_norm(np.round(N * cert05.c) - N * cert05.c) > 0 else 1.0 - center_mass)


def test_tail_mass_monotone_decreasing_in_radius(sir, cert05):
    N, delta = 30, 0.6
    pi = dj.stationary_exact(sir, N, cert05, delta)
    zs = np.linspace(0.0, delta, 7)
    tails = [dj.tail_mass(pi, cert05, N, z) for z in zs]
    assert all(b <= a for a, b in zip(tails, tails[1:]))


# ---------------------------------------------------------------------------
# profiles and moment checks (smoke scale; full runs live in acceptance)
# ---------------------------------------------------------------------------


def test_cutoff_profile_shape_and_monotonicity(sir, cert05):
    N, delta = 30, 0.7
    pi = dj.stationary_exact(sir, N, cert05, delta)
    prof = dj.cutoff_profile(
        sir, cert05, N, (1.0, 1.0), (-2.5, 0.0, 1.5, 3.0, 5.0), 3000, delta, pi, seed=17
    )
    assert np.all((prof.tv >= 0) & (prof.tv <= 1))
    assert np.all(np.diff(prof.s) > 0)
    assert prof.tv[0] >= 0.9
    # nonincreasing up to sampling noise: 0.045 is no looser than the
    # 0.0266-0.0277 wide bootstrap quantiles plus 0.02 this check once used
    for k in range(len(prof.s) - 1):
        assert prof.tv[k + 1] <= prof.tv[k] + 0.045
    assert np.all((prof.ci_lo <= prof.tv) & (prof.tv <= prof.ci_hi))
    assert prof.bias_floor == pytest.approx(math.sqrt(len(pi) / 3000))


def test_cutoff_profile_single_row(sir, cert05):
    N, delta = 30, 0.7
    pi = dj.stationary_exact(sir, N, cert05, delta)
    prof = dj.cutoff_profile(sir, cert05, N, (1.0, 1.0), (0.0,), 500, delta, pi, seed=3)
    assert len(prof.s) == 1
    assert prof.t[0] == pytest.approx(prof.t_N)


# two s-values clip to t = 0 and share one record time; the grid is unsorted
ROW_GRID = (2.0, -50.0, 0.5, -40.0, -1.0)


@pytest.fixture(scope="module")
def pi30(sir, cert05):
    return dj.stationary_exact(sir, 30, cert05, 0.7)


def _rows_profile(sir, cert05, pi, s_grid, workers=1, n_boot=200):
    return dj.cutoff_profile(
        sir, cert05, 30, (1.0, 1.0), s_grid, 400, 0.7, pi, seed=11, workers=workers, n_boot=n_boot
    )


def _columns(prof):
    return np.stack([prof.s, prof.t, prof.tv, prof.ci_lo, prof.ci_hi])


def test_cutoff_profile_is_identical_at_one_and_two_workers(sir, cert05, pi30):
    one = _rows_profile(sir, cert05, pi30, ROW_GRID, workers=1)
    two = _rows_profile(sir, cert05, pi30, ROW_GRID, workers=2)
    assert np.array_equal(_columns(one), _columns(two))
    assert (one.t_N, one.bias_floor) == (two.t_N, two.bias_floor)


def test_cutoff_profile_without_bootstrap_and_on_one_row(sir, cert05, pi30, monkeypatch):
    # n_boot is accepted and not read
    boot = _rows_profile(sir, cert05, pi30, ROW_GRID, n_boot=1000)
    bare = _rows_profile(sir, cert05, pi30, ROW_GRID, n_boot=0)
    assert np.array_equal(_columns(bare), _columns(boot))

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk profile started a process pool")

    # 400 reps are one engine chunk, and the rows are scored in process
    monkeypatch.setattr(engine, "ProcessPoolExecutor", no_pool)
    two = _rows_profile(sir, cert05, pi30, ROW_GRID, workers=2)
    assert np.array_equal(_columns(two), _columns(boot))


@pytest.mark.parametrize("law", ["same", "near", "off_support"])
@pytest.mark.parametrize("n", [20, 400, 5000])
def test_tv_interval_covers_the_exact_tv(law, n):
    # p and pi are known, so TV(p, pi) is exact; each trial draws n points
    # from p, and its interval must hold that TV in 95% of the trials
    grid = np.array([[x, y] for x in range(5) for y in range(4)])
    w = np.random.default_rng(0).random(len(grid)) + 0.05
    pi = dj.LatticeDistribution.from_points(grid, weights=w)
    if law == "same":
        p = pi
    elif law == "near":
        p = dj.LatticeDistribution.from_points(grid, weights=w * (1.0 + 0.5 * (grid[:, 0] > 2)))
    else:  # the column x = 5 lies off pi's support
        p = dj.LatticeDistribution.from_points(grid + [1, 0], weights=w)
    exact = dj.tv_distance(p, pi)
    trials = 300
    covered = 0
    for seed in range(trials):
        draw = np.random.default_rng(seed).choice(len(p), size=n, p=p.mass)
        _, (lo, hi) = _empirical_tv_with_ci(p.support[draw], pi)
        covered += lo <= exact <= hi
    assert covered >= 0.95 * trials


def test_transition_width_on_synthetic_profile():
    prof = dj.CutoffProfile(
        N=1,
        x0=(0.0,),
        t_N=1.0,
        seed=0,
        reps=1,
        s=np.array([-2.0, -1.0, 0.0, 1.0, 2.0]),
        t=np.array([-1.0, 0.0, 1.0, 2.0, 3.0]),
        tv=np.array([0.99, 0.95, 0.5, 0.12, 0.04]),
        ci_lo=np.zeros(5),
        ci_hi=np.zeros(5),
        bias_floor=0.0,
    )
    s_hi, s_lo, width = dj.transition_width(prof, hi=0.9, lo=0.1)
    assert -1.0 < s_hi < 0.0
    assert 1.0 < s_lo < 2.0
    assert width == pytest.approx(s_lo - s_hi)


def test_discrete_normal_approximation_improves_with_N(sir, cert05):
    # the restricted stationary law approaches the lattice Gaussian as N grows
    Sigma = dj.solve_lyapunov_sigma(cert05.A, dj.equilibrium_sigma2(sir, cert05.c))
    tvs = []
    for N in (30, 60):
        pi = dj.stationary_exact(sir, N, cert05, 0.7)
        tvs.append(dj.tv_distance(pi, dj.discrete_normal(N, cert05.c, Sigma)))
    assert tvs[1] < tvs[0]


def test_quasi_equilibrium_insensitive_to_delta(sir, cert05):
    # widening the restriction ball barely moves the stationary law
    pa = dj.stationary_exact(sir, 60, cert05, 0.70)
    pb = dj.stationary_exact(sir, 60, cert05, 0.78)
    assert dj.tv_distance(pa, pb) <= 0.02


def test_mean_drift_zero_at_time_zero(sir, cert05):
    rep = dj.mean_drift_check(sir, cert05, N=50, y0=(0.7, 1.1), times=(0.0,), reps=50, seed=0)
    assert rep.stat[0] <= 1e-12  # machine zero: mean(X0/N) equals the flow start


def test_mean_drift_linear_model_unbiased():
    # pure death is linear: the mean exactly follows the flow
    m = dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")
    cert = identity_certificate(d=1, c=(0.0,))
    rep = dj.mean_drift_check(m, cert, N=100, y0=(1.0,), times=(0.5, 1.0), reps=4000, seed=8)
    assert np.all(rep.stat <= 4.0 * rep.se + 1e-9)


def test_variance_check_deterministic_zero():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 0\n")
    cert = identity_certificate(d=1, c=(1.0,))
    rep = dj.variance_check(m, cert, N=20, X0=(20,), t=1.0, reps=100, direction=(1.0,), seed=0)
    assert rep.var == 0.0


def test_variance_check_clt_scale(sir, cert05):
    # past the cutoff, Var <u, X(t)> is comparable to u^T (N Sigma) u
    N, t, reps = 100, 8.0, 3000
    u = np.array([1.0, 0.0])
    rep = dj.variance_check(sir, cert05, N, np.round(N * cert05.c).astype(int), t, reps, u, seed=9)
    Sigma = dj.solve_lyapunov_sigma(cert05.A, dj.equilibrium_sigma2(sir, cert05.c))
    clt = float(u @ (N * Sigma) @ u)
    assert 0.5 * clt <= rep.var <= 2.0 * clt
