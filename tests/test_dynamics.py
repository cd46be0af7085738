import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ddjump as dj
import ddjump.dynamics as dynamics
from ddjump.dynamics import _ball_passes, _sample_ball, _shell_samples, m_sphere_map
from ddjump.equilibrium import _flow_at_times
from ddjump.errors import CertificateError, ConvergenceError, RateError
from ddjump.model import rate_gradients
from conftest import batch_flow, identity_certificate
from coupling_reference import _mq
from drift_reference import check_drift_reference, shell_samples_reference
from flow_reference import cutoff_time_reference, flow_at_times_reference, integrate_ode_reference


def linear_decay_model():
    # dy/dt = -y on the nonnegative half line
    return dj.parse_model("[dimension]\n1\n[jumps]\n-1 : x1\n")


def linear_decay_certificate(rho=0.9):
    return dj.StabilityCertificate(
        c=np.array([0.0]),
        A=np.array([[-1.0]]),
        rho=rho,
        M=np.array([[1.0]]),
        delta0=1.0,
        JstarM=1.0,
        sum_JM=1.0,
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


def test_construct_M_rejects_a_positive_slack_in_a_narrow_cone(monkeypatch):
    # an M whose slack form (MA + (MA)^T)/2 + rho M is -1/2 off one direction
    # e and 1e-8 (above the 1e-9 gate) along it: the slack is positive only
    # within about 1e-4 rad of +-e, which 1000 random unit vectors miss
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    rho = 0.5
    e = np.array([0.6, 0.8])
    target = -0.5 * np.eye(2) + (0.5 + 1e-8) * np.outer(e, e)
    bad_M = dynamics._lyapunov_lift((A + rho * np.eye(2)).T, 2.0 * target)
    assert np.linalg.eigvalsh(bad_M)[0] > 0
    monkeypatch.setattr(dynamics, "_lyapunov_lift", lambda B, rhs: bad_M)
    with pytest.raises(CertificateError, match="M verification failed, max slack 1e-08"):
        dj.construct_M(A, rho)


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
            pts = _sample_ball(cert05.c, m_sphere_map(cert05.M), delta, 64, rng)
            verdict = _ball_passes(m, pts, grad_c, 0.05)
            assert verdict == _ball_passes_pointwise(m, pts, grad_c, 0.05)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@st.composite
def radius_blocks(draw):
    """(model, stack, grad_c, tol): a polynomial model with one rate divided
    by (x1 - p)^2, and a stack of 1 to 8 balls about c = (1, 1), one sample
    scaled to each radius.  In half the stacks one ball gets a point with
    x1 = p exactly, so that the stack divides by zero."""
    a = [draw(st.floats(0.1, 2.0)) for _ in range(5)]
    p = draw(st.sampled_from([0.25, 0.5, 1.5, 2.0, 3.0]))
    m = dj.parse_model(
        "[dimension]\n2\n[jumps]\n"
        f" 1  0 : {a[0]} + {a[1]} * x1 * x2\n"
        f"-1  0 : {a[2]} * x1^2 / (x1 - {p})^2\n"
        f" 0 -1 : {a[3]} * x2 + {a[4]} * x1\n"
    )
    radii = 1.2 * 0.9 ** np.array(draw(st.lists(st.integers(0, 60), min_size=1, max_size=8)))
    stack = _sample_ball(np.ones(2), np.eye(2), radii, 16, np.random.default_rng(draw(st.integers(0, 2**16))))
    if draw(st.booleans()):
        stack[draw(st.integers(0, len(radii) - 1)), draw(st.integers(0, 15)), 0] = p
    return m, stack, rate_gradients(m, np.ones(2)), draw(st.floats(0.05, 20.0))


@settings(max_examples=150, deadline=None)
@given(radius_blocks())
def test_a_stack_of_balls_gets_the_verdict_of_each_ball_alone(case):
    m, stack, grad_c, tol = case
    alone = [_ball_passes(m, pts, grad_c, tol) for pts in stack]
    assert _ball_passes(m, stack, grad_c, tol).tolist() == alone
    assert alone == [_ball_passes_pointwise(m, pts, grad_c, tol) for pts in stack]


@pytest.mark.parametrize(
    "model,rho_fraction,delta0",
    [
        ("sir", 0.25, "0x1.3e5b201f118d1p-6"),
        ("sir", 0.5, "0x1.5c29207aabfb1p-7"),
        ("sir", 0.9, "0x1.c819806466cb6p-11"),
        ("birth_death", 0.5, "0x1.6a09e661e0cb1p+0"),
    ],
)
def test_delta0_is_a_grid_radius_multiplied_down_step_by_step(request, model, rho_fraction, delta0):
    # delta_max * 0.9**k rounds to another float at all three SIR fractions
    m = request.getfixturevalue(model)
    assert dj.certify(m, np.ones(m.d), rho_fraction=rho_fraction).delta0.hex() == delta0


@pytest.mark.parametrize("steps,message", [(3, r"\[1.39, 1.9\]"), (20, r"\[0.232, 1.9\]")])
def test_a_grid_with_no_passing_radius_names_its_ends(sir, monkeypatch, steps, message):
    # one radius below the last tried, as the loop over the grid had it
    monkeypatch.setattr(dynamics, "DELTA0_STEPS", steps)
    with pytest.raises(CertificateError, match=f"^no radius in {message} passes the perturbation"):
        dj.certify(sir, np.ones(2), rho_fraction=0.9)


@pytest.mark.parametrize(
    "change,message",
    [
        (dict(M=np.array([[1.0, 0.5], [0.0, 1.0]])), "M not symmetric"),
        (dict(M=np.array([[1.0, 2.0], [2.0, 1.0]])), "M not positive definite"),
        (dict(A=np.eye(2)), "eigenvalue real parts not below -rho"),
        (dict(rho=0.0), "rho and delta0 must be positive"),
        (dict(rho=-1.0), "rho and delta0 must be positive"),
        (dict(delta0=0.0), "rho and delta0 must be positive"),
        (dict(c=np.zeros(3)), r"shapes of c \(3,\), A \(2, 2\) and M \(2, 2\) do not agree"),
        (dict(c=np.zeros((2, 1))), "shapes of c"),
        (dict(A=-2.0 * np.eye(3)), "shapes of c"),
        (dict(M=np.eye(3)), "shapes of c"),
    ],
    ids=[
        "asymmetric-M", "indefinite-M", "A-identity", "rho-0", "rho-negative", "delta0-0",
        "c-of-3", "c-a-column", "A-of-3", "M-of-3",
    ],
)
def test_a_certificate_certify_could_not_build_is_refused(change, message):
    with pytest.raises(CertificateError, match=message):
        dataclasses.replace(identity_certificate(), **change)


# certificate.json of `ddjump analyze` on the SIR model (rho_fraction 0.5),
# as written when the certificate also stored its derived values
SIR_CERTIFICATE_WITH_DERIVED_VALUES = """{
 "A": [[-2.0, -1.0], [2.0, 0.0]],
 "JstarM": 2.30089496654211,
 "M": [[5.294117647058817, 3.0588235294117614], [3.0588235294117614, 3.4117647058823497]],
 "c": [0.5, 1.0],
 "c0": 1.07358985390846,
 "c1": 2.748324431089965,
 "delta0": 0.01062501989267148,
 "eigenvalues": [[-0.9999999999999998, 0.9999999999999998], [-0.9999999999999998, -0.9999999999999998]],
 "eps": 0.02171348741039991,
 "rho": 0.4999999999999999,
 "rho_hat": 0.9999999999999998,
 "rho_prime": 0.7499999999999998,
 "sum_JM": 5.756790589987394
}
"""


def test_a_certificate_file_with_derived_values_loads_to_them(cert05, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(SIR_CERTIFICATE_WITH_DERIVED_VALUES)
    cert = dj.StabilityCertificate.load(path)
    stored = json.loads(SIR_CERTIFICATE_WITH_DERIVED_VALUES)
    stored["eigenvalues"] = [complex(re, im) for re, im in stored["eigenvalues"]]
    for name, value in stored.items():
        assert np.asarray(getattr(cert, name)).tobytes() == np.asarray(value).tobytes(), name
        # certify still decides, and computes, the same bits
        assert np.asarray(getattr(cert05, name)).tobytes() == np.asarray(value).tobytes(), name


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(dj.StabilityCertificate)])
def test_a_certificate_file_without_an_entry_names_it(cert05, tmp_path, name):
    obj = cert05.to_json_dict()
    del obj[name]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(CertificateError, match=f"certificate lacks the entry '{name}'"):
        dj.StabilityCertificate.load(path)


def test_certificate_serialization_roundtrip(cert05, tmp_path):
    path = tmp_path / "cert.json"
    cert05.dump(path)
    c2 = dj.StabilityCertificate.load(path)
    names = [f.name for f in dataclasses.fields(cert05)]
    assert sorted(json.loads(path.read_text())) == sorted(names)
    for name in names:
        np.testing.assert_array_equal(getattr(c2, name), getattr(cert05, name), err_msg=name)
    c2.dump(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


# ---------------------------------------------------------------------------
# m_norm
# ---------------------------------------------------------------------------


def test_m_norm_zero():
    cert = identity_certificate()
    assert cert.m_norm((0.0, 0.0)) == 0.0


def test_m_norm_euclidean_for_identity():
    cert = identity_certificate()
    assert cert.m_norm((3.0, 4.0)) == pytest.approx(5.0)


def test_batched_m_norms_equal_the_scalar_m_norm_bit_for_bit(cert05):
    # one form for both: an einsum over the batch rounded some rows differently
    W = np.random.default_rng(5).normal(scale=30.0, size=(4000, 2))
    norms = cert05.m_norms(W)
    assert [v.hex() for v in norms.tolist()] == [cert05.m_norm(w).hex() for w in W]
    assert cert05.m_norms(W.reshape(40, 100, 2)).tobytes() == norms.tobytes()


def _certificate_with_M(M):
    cert = identity_certificate(d=len(M), c=np.ones(len(M)))
    return dataclasses.replace(cert, M=M)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=9, max_size=9),
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
)
def test_m_norm_at_d3_is_the_pair_loop_form(entries, w):
    # H(0) of a coupled pair and its loop's later H take the same arithmetic
    A = np.array(entries).reshape(3, 3)
    M = A @ A.T + np.array([[1.0, 0.4, -0.2], [0.4, 1.5, 0.3], [-0.2, 0.3, 0.8]])
    cert = _certificate_with_M(M)
    ref = math.sqrt(_mq([float(v) for v in w], M.tolist()))
    assert cert.m_norm(np.array(w)).hex() == ref.hex()


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


@pytest.mark.parametrize("N", [0, -3])
def test_cutoff_time_and_the_ball_refuse_an_N_below_1(sir, cert05, N):
    with pytest.raises(ValueError, match="^N must be a positive integer$"):
        dj.cutoff_time(sir, cert05, (1.0, 1.0), N)
    with pytest.raises(ValueError, match="^N must be a positive integer$"):
        dj.enumerate_ball(N, cert05, 0.7)


def test_cutoff_time_horizon_exceeded(sir, cert05):
    from ddjump.errors import HorizonError

    with pytest.raises(HorizonError):
        dj.cutoff_time(sir, cert05, (1.0, 1.0), 10_000, horizon=0.1)


# ---------------------------------------------------------------------------
# the shared RK4 driver against the loops it replaced (flow_reference)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cert_name", ["cert025", "cert05", "cert09"])
def test_cutoff_time_matches_reference_bitwise(request, sir, cert_name):
    cert = request.getfixturevalue(cert_name)
    unit = np.array([1.0, 0.0]) / cert.m_norm([1.0, 0.0])
    for N in (4, 50, 200, 1000):
        # the last start crosses the target ball within the first step
        starts = [(1.0, 1.0), (0.3, 2.5), (0.51, 1.0), cert.c + unit * (1.0 + 1e-7) / math.sqrt(N)]
        for x0 in starts:
            t = dj.cutoff_time(sir, cert, x0, N)
            assert type(t) is float
            assert t.hex() == cutoff_time_reference(sir, cert, x0, N).hex()


def test_flow_at_times_matches_reference_bitwise(sir):
    times = (0.0, 0.3, 1.0, 2.5, 2.5, 7.123)
    for y0, h in (((0.4, 1.7), 1e-3), ((1.0, 1.0), 0.07)):
        got = _flow_at_times(sir, np.array(y0), times, h)
        assert got.tobytes() == flow_at_times_reference(sir, np.array(y0), times, h).tobytes()


def test_integrate_ode_matches_reference():
    sir = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    bounded = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1\n[domain]\nx1 >= 0\nx1 <= 2\n")
    cases = [(sir, (1.0, 1.0), 5.0), (sir, (0.5, 1.0), 1.0), (sir, (1.0, 1.0), 0.0), (bounded, (1.0,), 5.0)]
    for m, y0, T in cases:
        res = dj.integrate_ode(m, y0, T, h=1e-3)
        times, states, terminated_by = integrate_ode_reference(m, y0, T, h=1e-3)
        assert res.terminated_by == terminated_by
        assert res.states.tobytes() == states.tobytes()
        # times are added up step by step, where the old loop took k h
        np.testing.assert_allclose(res.times, times, rtol=1e-12, atol=0.0)
    assert res.terminated_by == "left_domain"


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


@pytest.mark.parametrize(
    "cert_name,delta0",
    [("cert025", "0.019430905693547388"), ("cert05", "0.01062501989267148"), ("cert09", "0.0008699409777820552")],
)
def test_certify_delta0_is_pinned(request, cert_name, delta0):
    # the radius search draws its points from one M-sphere map built per certify
    assert repr(float(request.getfixturevalue(cert_name).delta0)) == delta0


@pytest.mark.parametrize("cert_name", ["cert025", "cert05", "cert09"])
def test_shell_samples_match_the_per_sample_draw(request, sir, cert_name):
    cert = request.getfixturevalue(cert_name)
    for N, seed in ((10_000, 0), (10_000, 1), (40_000, 5), (20_000, 9)):
        g_lo = 0.05 / math.sqrt(N)
        X = _shell_samples(sir, cert, N, 3000, seed, g_lo, cert.delta0)
        assert sorted(map(tuple, X.tolist())) == sorted(
            shell_samples_reference(sir, cert, N, 3000, seed, g_lo, cert.delta0)
        )


@st.composite
def drift_scans(draw):
    """(model, certificate, N, seed): a random SIR certificate and an N from
    400 to 20,000 whose shell [0.05 / sqrt(N), delta0] is not empty."""
    alpha, beta, gamma = (draw(st.floats(0.5, 3.0)) for _ in range(3))
    m = dj.builtin_hamer_sir(alpha, beta, gamma)
    cert = dj.certify(m, np.array([gamma / alpha, beta / gamma]), rho_fraction=draw(st.floats(0.1, 0.9)))
    n_lo = max(400, math.ceil((0.05 / cert.delta0) ** 2 * 1.01))
    assume(n_lo <= 20_000)
    return m, cert, draw(st.integers(n_lo, 20_000)), draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(drift_scans())
def test_drift_scan_matches_the_per_state_oracle(case):
    # the array pass scores in lattice units, so it rounds differently from
    # the oracle's x-units: K1 stays within 1e-12 relative; the levels within
    # 1e-12 of the point's size, since x - c cancels; and the slack within
    # 1e-12 of the generator terms N g r that cancel in it
    m, cert, N, seed = case
    rep = dj.check_drift_condition(m, cert, N, sample_count=300, seed=seed)
    n, k1, slack, g_min, g_max, X_star, levels = check_drift_reference(m, cert, N, 300, seed)
    assert rep.n_samples == n
    if n == 0:
        assert rep.failed_everywhere and math.isnan(rep.g_min) and math.isnan(rep.g_max)
        return
    size = cert.m_norm(cert.c)
    assert abs(rep.g_min - g_min) <= 1e-12 * (g_min + size)
    assert abs(rep.g_max - g_max) <= 1e-12 * (g_max + size)
    assert rep.failed_everywhere == (X_star is None)
    if X_star is None:
        return
    assert abs(rep.k1_empirical - k1) <= 1e-12 * k1
    # the same threshold sample: the oracle's only one at the scan's level
    root_n = math.sqrt(N)
    assert [X for X, g in levels.items() if abs(g * root_n - rep.k1_empirical) <= 1e-12 * k1] == [X_star]
    terms = N * g_max * float(dj.eval_rates(m, cert.c).sum())
    assert abs(rep.max_slack_above - slack) <= 1e-12 * terms


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
    _, Ys = batch_flow(sir, Y0, T=5.0, h=h, every=100)
    _, Zs = batch_flow(sir, Z0, T=5.0, h=h, every=100)
    ts = np.arange(Ys.shape[0]) * (100 * h)
    Hs = cert05.m_norms(Ys - Zs) * np.exp(cert05.rho * ts)[:, None]
    ratio = Hs[1:] / np.maximum(Hs[:-1], 1e-300)
    assert np.all(ratio <= 1.0 + 1e-6)


def test_lyapunov_decay_along_flow(sir, cert05):
    Y0 = _ball_points(cert05, 50, seed=23)
    h = 1e-3
    ts, Ys = batch_flow(sir, Y0, T=5.0, h=h, every=100)
    G = cert05.m_norms(Ys - cert05.c)
    bound = G[0][None, :] * np.exp(-cert05.rho * ts)[:, None]
    assert np.all(G <= bound * (1.0 + 1e-6))
