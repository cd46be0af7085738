import math

import numpy as np
import pytest

import ddjump as dj
from ddjump.dynamics import _ball_passes, _sample_ball, flow_many
from ddjump.errors import CertificateError, ConvergenceError, RateError
from ddjump.model import rate_gradients
from conftest import identity_certificate


def linear_decay_model():
    # dy/dt = -y on the nonnegative half line
    return dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")


def linear_decay_certificate(rho=0.9):
    return dj.StabilityCertificate(
        c=np.array([0.0]),
        A=np.array([[-1.0]]),
        eigenvalues=np.array([-1.0 + 0j]),
        rho_hat=1.0,
        rho=rho,
        rho_prime=0.5 * (rho + 1.0),
        M=np.array([[1.0]]),
        delta0=1.0,
        c0=1.0,
        c1=1.0,
        JstarM=1.0,
        sum_JM=1.0,
        eps=0.05,
    )


# ---------------------------------------------------------------------------
# integrate_ode
# ---------------------------------------------------------------------------


def test_flow_constant_at_fixed_point(sir):
    res = dj.integrate_ode(sir, (0.5, 1.0), T=1.0, h=1e-3)
    np.testing.assert_allclose(res.states, 0.5 * np.ones_like(res.states) * [1.0, 2.0], atol=1e-12)
    assert res.terminated_by == "horizon"


def test_flow_reaches_fixed_point(sir):
    res = dj.integrate_ode(sir, (1.0, 1.0), T=10.0, h=1e-3)
    assert np.linalg.norm(res.states[-1] - [0.5, 1.0]) < 1e-4


def test_flow_zero_horizon_returns_start(sir):
    res = dj.integrate_ode(sir, (1.0, 1.0), T=0.0, h=1e-3)
    assert len(res.times) == 1
    assert res.states[0].tolist() == [1.0, 1.0]


def test_step_halving_convergence(sir):
    # classical 4th-order accuracy: halving h moves the endpoint < 1e-8
    a = dj.integrate_ode(sir, (1.0, 1.0), T=5.0, h=1e-3).states[-1]
    b = dj.integrate_ode(sir, (1.0, 1.0), T=5.0, h=5e-4).states[-1]
    assert np.linalg.norm(a - b) < 1e-8


def test_flow_stops_at_domain_exit():
    m = dj.parse_model(
        "[dimension]\n1\n[jumps]\n1 : 1\n[domain]\nx1 >= 0\nx1 <= 2\n"
    )
    res = dj.integrate_ode(m, (1.0,), T=5.0, h=1e-3)
    assert res.terminated_by == "left_domain"
    assert res.states[-1][0] <= 2.0


# ---------------------------------------------------------------------------
# find_fixed_point
# ---------------------------------------------------------------------------


def test_newton_fixed_point_sir():
    m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    c = dj.find_fixed_point(m, (1.0, 1.0))
    np.testing.assert_allclose(c, [0.5, 1.0], atol=1e-12)
    m = dj.builtin_hamer_sir(1.0, 2.0, 1.0)
    np.testing.assert_allclose(dj.find_fixed_point(m, (1.0, 1.0)), [1.0, 2.0], atol=1e-12)


def test_newton_driftless_returns_guess():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 2\n-1 : 2\n")
    c = dj.find_fixed_point(m, (0.7,))
    assert c.tolist() == [0.7]


# ---------------------------------------------------------------------------
# construct_M
# ---------------------------------------------------------------------------


def test_construct_M_identity_case():
    M = dj.construct_M(-np.eye(2), 0.5)
    np.testing.assert_allclose(M, np.eye(2), atol=1e-12)


def test_construct_M_sir_residual(sir):
    A = dj.eval_jacobian(sir, (0.5, 1.0))
    rho = 0.5
    M = dj.construct_M(A, rho)
    B = A + rho * np.eye(2)
    resid = np.max(np.abs(B.T @ M + M @ B + np.eye(2)))
    assert resid <= 1e-10


def test_construct_M_rejects_weak_spectrum():
    A = np.array([[-0.4, 0.0], [0.0, -3.0]])
    with pytest.raises(CertificateError):
        dj.construct_M(A, 0.5)


def test_construct_M_contraction_property_random_hurwitz():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        raw = rng.normal(size=(d, d))
        shift = max(np.linalg.eigvals(raw).real.max(), 0.0)
        rho = 0.5
        A = raw - (shift + rho + rng.uniform(0.1, 1.0)) * np.eye(d)
        M = dj.construct_M(A, rho)
        X = rng.normal(size=(1000, d))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        slack = np.einsum("ni,ij,nj->n", X, M @ A, X) + rho * np.einsum(
            "ni,ij,nj->n", X, M, X
        )
        assert slack.max() <= 1e-9


def test_construct_M_eigen_cross_check(sir):
    A = dj.eval_jacobian(sir, (0.5, 1.0))
    M = dj.construct_M_eigen(A)
    w = np.linalg.eigvalsh(M)
    assert w[0] > 0
    # in the eigen metric the decay rate equals the spectral abscissa
    rng = np.random.default_rng(3)
    X = rng.normal(size=(500, 2))
    lhs = np.einsum("ni,ij,nj->n", X, M @ A, X)
    nrm = np.einsum("ni,ij,nj->n", X, M, X)
    assert np.max(lhs + (1.0 - 1e-9) * nrm) <= 1e-9


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certificate_sir_summary(cert05):
    assert cert05.rho == pytest.approx(0.5)
    assert cert05.rho_hat == pytest.approx(1.0)
    ev = np.sort_complex(cert05.eigenvalues)
    np.testing.assert_allclose(ev, [-1 - 1j, -1 + 1j], atol=1e-8)
    np.testing.assert_allclose(cert05.c, [0.5, 1.0], atol=1e-10)


def test_certificate_norm_constants_match_eigendecomposition(cert05):
    w = np.linalg.eigvalsh(cert05.M)
    assert cert05.c0 == pytest.approx(math.sqrt(w[0]))
    assert cert05.c1 == pytest.approx(math.sqrt(w[-1]))


def test_certificate_norm_equivalence_random(cert05):
    rng = np.random.default_rng(11)
    X = rng.normal(size=(100, 2))
    norms = cert05.m_norms(X)
    euclid = np.linalg.norm(X, axis=1)
    assert np.all(norms <= cert05.c1 * euclid + 1e-12)
    assert np.all(norms >= cert05.c0 * euclid - 1e-12)


def test_affine_rates_delta0_limited_by_positivity_only(birth_death):
    # gradient variation vanishes for affine rates; the radius stops at the
    # boundary where the death rate hits zero (= the domain wall)
    cert = dj.certify(birth_death, (2.0,), rho_fraction=0.5)
    cap = birth_death.domain.m_distance_to_boundary(cert.c, cert.M)
    assert cert.delta0 >= 0.9 * cap


def test_certify_requires_positive_rates_at_fixed_point():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1\n-1 : 2 * x1\n")
    # fixed point at 0 has both rates zero
    with pytest.raises((CertificateError, ConvergenceError)):
        dj.certify(m, (1.0,), rho_fraction=0.5)


def _ball_passes_pointwise(m, pts, grad_c, tol):
    # one scalar call per point, as the radius check worked before batching
    for y in pts:
        if not m.domain.contains(y):
            return False
        try:
            r = dj.eval_rates(m, y, check_domain=False)
        except RateError:
            return False
        if np.min(r) <= 0:
            return False
        if not np.linalg.norm(rate_gradients(m, y) - grad_c, axis=1).max() < tol:
            return False
    return True


def test_batched_radius_check_matches_pointwise(sir, cert05):
    division = dj.parse_model(
        "[dimension]\n2\n[params]\na = 1.3\n[jumps]\n"
        " 2 -3 : a * x1 / (1 + x2)\n-1  0 : x1^2 + 0.1\n 0  1 : 0.7 + x1*x2/(2 + x1)\n"
    )
    rng = np.random.default_rng(4)
    verdicts = set()
    for m in (sir, division):
        grad_c = rate_gradients(m, cert05.c)
        for delta in np.geomspace(1e-3, 1.2, 40):
            pts = _sample_ball(cert05.c, cert05.M, delta, 64, rng)
            verdict = _ball_passes(m, pts, grad_c, 0.05)
            assert verdict == _ball_passes_pointwise(m, pts, grad_c, 0.05)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_certificate_serialization_roundtrip(cert05, tmp_path):
    path = tmp_path / "cert.json"
    cert05.dump(path)
    c2 = dj.StabilityCertificate.load(path)
    np.testing.assert_array_equal(c2.M, cert05.M)
    assert c2.delta0 == cert05.delta0
    assert c2.rho == cert05.rho


# ---------------------------------------------------------------------------
# m_norm
# ---------------------------------------------------------------------------


def test_m_norm_zero():
    cert = identity_certificate()
    assert dj.m_norm(cert, (0.0, 0.0)) == 0.0


def test_m_norm_euclidean_for_identity():
    cert = identity_certificate()
    assert dj.m_norm(cert, (3.0, 4.0)) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# cutoff_time
# ---------------------------------------------------------------------------


def test_cutoff_time_zero_inside_ball(cert05, sir):
    x0 = cert05.c + np.array([1e-4, 0.0])
    assert dj.cutoff_time(sir, cert05, x0, N=4) == 0.0


def test_cutoff_time_linear_model_closed_form():
    m = linear_decay_model()
    cert = linear_decay_certificate()
    for N in (100, 10_000):
        t = dj.cutoff_time(m, cert, (1.0,), N)
        assert t == pytest.approx(0.5 * math.log(N), abs=1e-8)


def test_cutoff_time_log_increment(sir, cert09):
    # t_{4N} - t_N approaches log(4) / (2 rho_hat) = log 2
    t1 = dj.cutoff_time(sir, cert09, (1.0, 1.0), 10_000)
    t4 = dj.cutoff_time(sir, cert09, (1.0, 1.0), 40_000)
    assert abs((t4 - t1) - math.log(2.0)) <= 0.05 * math.log(2.0)


def test_cutoff_time_monotone_in_N(sir, cert05):
    ts = [dj.cutoff_time(sir, cert05, (1.0, 1.0), N) for N in (10, 100, 1000, 10_000)]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_cutoff_time_horizon_exceeded(sir, cert05):
    from ddjump.errors import HorizonError

    with pytest.raises(HorizonError):
        dj.cutoff_time(sir, cert05, (1.0, 1.0), 10_000, horizon=0.1)


# ---------------------------------------------------------------------------
# drift condition
# ---------------------------------------------------------------------------


def test_drift_condition_sir_smoke(sir, cert025):
    rep = dj.check_drift_condition(sir, cert025, N=10_000, sample_count=400, seed=0)
    assert not rep.failed_everywhere
    assert math.isfinite(rep.k1_empirical)
    assert rep.max_slack_above <= 0.0
    assert rep.g_max <= cert025.delta0 + 1e-12


def test_drift_condition_scan_respects_radius(sir, cert025):
    rep = dj.check_drift_condition(sir, cert025, N=10_000, sample_count=200, seed=1)
    # all sampled states inside the certified ball
    assert rep.g_max <= cert025.delta0 + 1e-12
    assert rep.g_min >= 0.05 / math.sqrt(10_000) - 1e-12


def test_drift_condition_birth_death(birth_death):
    cert = dj.certify(birth_death, (2.0,), rho_fraction=0.5)
    rep = dj.check_drift_condition(birth_death, cert, N=10_000, sample_count=300, seed=2)
    assert not rep.failed_everywhere
    assert rep.max_slack_above <= 0.0


def test_drift_condition_rejects_small_N(sir, cert05):
    with pytest.raises(ValueError):
        dj.check_drift_condition(sir, cert05, N=4, sample_count=10, k1_floor=1.0)


# ---------------------------------------------------------------------------
# contraction properties of the flow
# ---------------------------------------------------------------------------


def _ball_points(cert, n, seed):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(cert.M)
    LinvT = np.linalg.inv(L).T
    U = rng.normal(size=(n, len(cert.c)))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    radii = cert.delta0 * rng.random(n) ** 0.5
    return cert.c + radii[:, None] * (U @ LinvT.T)


def test_ode_pairwise_contraction(sir, cert05):
    # e^{rho t} ||y(t) - z(t)||_M nonincreasing for pairs in the ball
    Y0 = _ball_points(cert05, 50, seed=21)
    Z0 = _ball_points(cert05, 50, seed=22)
    h = 1e-3
    _, Ys = flow_many(sir, Y0, T=5.0, h=h, record_every=100)
    _, Zs = flow_many(sir, Z0, T=5.0, h=h, record_every=100)
    ts = np.arange(Ys.shape[0]) * (100 * h)
    Hs = cert05.m_norms(Ys - Zs) * np.exp(cert05.rho * ts)[:, None]
    ratio = Hs[1:] / np.maximum(Hs[:-1], 1e-300)
    assert np.all(ratio <= 1.0 + 1e-6)


def test_lyapunov_decay_along_flow(sir, cert05):
    Y0 = _ball_points(cert05, 50, seed=23)
    h = 1e-3
    ts, Ys = flow_many(sir, Y0, T=5.0, h=h, record_every=100)
    G = cert05.m_norms(Ys - cert05.c)
    bound = G[0][None, :] * np.exp(-cert05.rho * ts)[:, None]
    assert np.all(G <= bound * (1.0 + 1e-6))
