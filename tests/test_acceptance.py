"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line (also appended to acceptance_report.txt
at the repo root) and then asserts, so the pytest outcome mirrors the
criterion verdict.
"""

import math
import os

import numpy as np
import pytest

import ddjump as dj
from ddjump.cli import main as cli_main
from conftest import batch_flow

WORKERS = min(os.cpu_count() or 1, 4)
_REPORT_PATH = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")


@pytest.fixture(scope="session", autouse=True)
def _fresh_report():
    open(_REPORT_PATH, "w").close()
    yield


def report(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    with open(_REPORT_PATH, "a") as f:
        f.write(line + "\n")
    return ok


# ---------------------------------------------------------------------------
# 1. SIR closed forms
# ---------------------------------------------------------------------------


def test_criterion_01_sir_closed_forms(sir, cert05):
    c_err = float(np.max(np.abs(cert05.c - [0.5, 1.0])))
    A = dj.eval_jacobian(sir, cert05.c)
    jac_exact = A.tolist() == [[-2.0, -1.0], [2.0, 0.0]]
    ev = np.sort_complex(cert05.eigenvalues)
    ev_err = float(np.max(np.abs(ev - np.array([-1 - 1j, -1 + 1j]))))
    rho_hat_err = abs(cert05.rho_hat - 1.0)
    s2 = dj.equilibrium_sigma2(sir, cert05.c)
    s2_exact = s2.tolist() == [[2.0, -1.0], [-1.0, 2.0]]
    Sigma = dj.solve_lyapunov_sigma(cert05.A, s2)
    sig_err = float(np.max(np.abs(Sigma - [[0.75, -0.5], [-0.5, 1.5]])))
    resid = float(np.max(np.abs(cert05.A @ Sigma + Sigma @ cert05.A.T + s2)))
    ok = (
        c_err <= 1e-10
        and jac_exact
        and ev_err <= 1e-8
        and rho_hat_err <= 1e-10
        and s2_exact
        and sig_err <= 1e-9
        and resid <= 1e-10
    )
    report(
        1,
        "SIR closed forms",
        ok,
        f"|c-err|={c_err:.2e}, A exact={jac_exact}, |ev-err|={ev_err:.2e}, "
        f"sigma2 exact={s2_exact}, |Sigma-err|={sig_err:.2e}, lyap resid={resid:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. M-certificate contraction inequality
# ---------------------------------------------------------------------------


def test_criterion_02_m_certificate(sir):
    rho = 0.5
    A_sir = dj.eval_jacobian(sir, (0.5, 1.0))
    worst = -math.inf
    rng = np.random.default_rng(42)

    def slack_of(A, M, n=1000):
        X = rng.normal(size=(n, A.shape[0]))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        return float(
            np.max(
                np.einsum("ni,ij,nj->n", X, M @ A, X)
                + rho * np.einsum("ni,ij,nj->n", X, M, X)
            )
        )

    worst = max(worst, slack_of(A_sir, dj.construct_M(A_sir, rho)))
    for _ in range(20):
        d = int(rng.integers(2, 6))
        raw = rng.normal(size=(d, d))
        shift = max(np.linalg.eigvals(raw).real.max(), 0.0)
        A = raw - (shift + rho + rng.uniform(0.1, 1.0)) * np.eye(d)
        worst = max(worst, slack_of(A, dj.construct_M(A, rho)))
    ok = worst <= 1e-9
    report(2, "M-certificate inequality", ok, f"max slack={worst:.3e} over SIR + 20 random Hurwitz")
    assert ok


# ---------------------------------------------------------------------------
# 3. ODE contraction in the certified ball
# ---------------------------------------------------------------------------


def _ball_points(cert, n, seed):
    rng = np.random.default_rng(seed)
    L = np.linalg.cholesky(cert.M)
    LinvT = np.linalg.inv(L).T
    U = rng.normal(size=(n, len(cert.c)))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    radii = cert.delta0 * rng.random(n) ** 0.5
    return cert.c + radii[:, None] * (U @ LinvT.T)


def test_criterion_03_ode_contraction(sir, cert05):
    Y0 = _ball_points(cert05, 50, seed=101)
    Z0 = _ball_points(cert05, 50, seed=202)
    h = 1e-3
    _, Ys = batch_flow(sir, Y0, T=5.0, h=h, every=100)
    _, Zs = batch_flow(sir, Z0, T=5.0, h=h, every=100)
    ts = np.arange(Ys.shape[0]) * (100 * h)
    Hs = cert05.m_norms(Ys - Zs) * np.exp(cert05.rho * ts)[:, None]
    ratio = Hs[1:] / np.maximum(Hs[:-1], 1e-300)
    worst = float(ratio.max())
    ok = worst <= 1.0 + 1e-6
    report(3, "ODE contraction", ok, f"max step ratio of e^(rho t) H = {worst:.12f} over 50 pairs")
    assert ok


# ---------------------------------------------------------------------------
# 4. Generator drift condition
# ---------------------------------------------------------------------------


def test_criterion_04_generator_drift(sir, cert025):
    rep = dj.check_drift_condition(sir, cert025, N=10_000, sample_count=2000, seed=0)
    ok = (not rep.failed_everywhere) and math.isfinite(rep.k1_empirical) and rep.max_slack_above <= 0
    report(
        4,
        "generator drift condition",
        ok,
        f"N=1e4, rho={cert025.rho:.3g}: empirical K1={rep.k1_empirical:.3f}, "
        f"max slack above={rep.max_slack_above:.3e}, samples={rep.n_samples}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Stationary oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_05_stationary_oracles(sir, cert05):
    N, delta = 30, 0.78  # largest in-domain ball at N=30: 585 states
    p_pow = dj.stationary_exact(sir, N, cert05, delta, method="power")
    p_dir = dj.stationary_exact(sir, N, cert05, delta, method="direct")
    tv_solvers = dj.tv_distance(p_pow, p_dir)
    p_emp = dj.stationary_empirical(sir, N, cert05, delta, samples=1_000_000, seed=5)
    tv_emp = dj.tv_distance(p_emp, p_pow)
    ok = tv_solvers <= 1e-8 and tv_emp <= 0.05
    report(
        5,
        "stationary oracle equivalence",
        ok,
        f"{len(p_pow)} states: TV(power,direct)={tv_solvers:.2e}, "
        f"TV(occupation 1e6,exact)={tv_emp:.4f}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Coupling contraction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coupling_run(sir, cert05):
    N = 400
    k2 = dj.estimate_K2(sir, cert05, N, seed=3)
    Nc = N * cert05.c
    L = np.linalg.cholesky(cert05.M)
    u = np.linalg.inv(L).T @ np.array([1.0, 0.3])
    u /= cert05.m_norm(u)
    U0 = np.round(Nc + 20.0 * u).astype(np.int64)
    V0 = np.round(Nc - 20.0 * u).astype(np.int64)
    rec = tuple(np.round(np.linspace(0.0, 5.0, 11), 6))
    opts = dj.SimOptions(N=N, seed=11, horizon=20.0, record=rec)
    H, coal = dj.coupled_ensemble(
        sir, cert05, opts, U0, V0, reps=1000, k2=k2, workers=WORKERS
    )
    return np.array(rec), H, coal, float(cert05.m_norm(U0 - V0))


def test_criterion_06a_coupling_slope(coupling_run):
    ts, H, coal, h0 = coupling_run
    mean_h = H.mean(axis=0)
    slope = float(np.polyfit(ts, np.log(np.maximum(mean_h, 1e-12)), 1)[0])
    ok = slope < 0 and abs(slope) >= 0.25
    report(
        6,
        "coupling contraction slope",
        ok,
        f"N=400, H(0)={h0:.1f}, 1000 pairs: fitted slope of log mean H over [0,5] "
        f"= {slope:.3f} (need <= -0.25)",
    )
    assert ok


def test_criterion_06b_coupling_coalescence(coupling_run):
    _, _, coal, _ = coupling_run
    frac = float(np.isfinite(coal).mean())
    ok = frac >= 0.95
    report(6, "coupling coalescence", ok, f"coalesced fraction by t=20: {frac:.3f}")
    assert ok


# ---------------------------------------------------------------------------
# 7. Martingale deviation bound
# ---------------------------------------------------------------------------


def test_criterion_07_martingale_bound(sir):
    N, T, reps = 200, 2.0, 10_000
    opts = dj.SimOptions(N=N, seed=14, horizon=T + 0.5)
    z_grid = np.geomspace(0.05, 2.0, 10)
    rep = dj.martingale_deviation(
        sir, opts, np.array([N, N]), T=T, reps=reps, z_grid=z_grid, workers=WORKERS
    )
    ok = rep.violations == 0
    worst_margin = float(np.min(rep.bound - rep.tail_lcb99))
    report(
        7,
        "martingale tail bound",
        ok,
        f"N=200, T=2, 1e4 reps, 10 z-points: violations={rep.violations}, "
        f"min(bound - tail_lcb99)={worst_margin:.3g}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. Cutoff profile and window
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def profiles(sir, cert09):
    # near-adapted metric keeps the spiral wobble in t_N below the stated 15%
    delta = 1.8
    reps = 100_000
    s_grid = (-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0)
    out = {}
    for N in (50, 200):
        pi = dj.stationary_exact(sir, N, cert09, delta)
        out[N] = dj.cutoff_profile(
            sir, cert09, N, (1.0, 1.0), s_grid, reps, delta, pi, seed=700 + N,
            workers=WORKERS,
        )
    return out


def test_criterion_08a_profile_high_before_cutoff(profiles):
    tvs = {N: float(p.tv[p.s.tolist().index(-3.0)]) for N, p in profiles.items()}
    ok = all(v >= 0.8 for v in tvs.values())
    report(8, "cutoff profile: TV at s=-3/rho_hat", ok, f"TV={tvs} (need >= 0.8)")
    assert ok


def test_criterion_08b_profile_low_after_cutoff(profiles):
    vals = {}
    ok = True
    for N, p in profiles.items():
        tv6 = float(p.tv[p.s.tolist().index(6.0)])
        vals[N] = (tv6, p.bias_floor)
        ok = ok and tv6 <= p.bias_floor + 0.1
    report(
        8,
        "cutoff profile: TV at s=+6/rho_hat",
        ok,
        "; ".join(f"N={N}: TV={v:.3f} vs floor+0.1={f + 0.1:.3f}" for N, (v, f) in vals.items()),
    )
    assert ok


def test_criterion_08c_window_and_tN_growth(profiles):
    w = {}
    for N, p in profiles.items():
        _, _, width = dj.transition_width(p)  # thresholds 0.9 and bias_floor + 0.1
        w[N] = width
    growth = profiles[200].t_N - profiles[50].t_N
    target = math.log(4.0) / 2.0
    ok_width = (not math.isnan(w[50])) and (not math.isnan(w[200])) and w[200] <= 2.0 * w[50]
    ok_tn = abs(growth - target) <= 0.15 * target
    ok = ok_width and ok_tn
    report(
        8,
        "cutoff window width and t_N growth",
        ok,
        f"width(N=50)={w[50]:.3f}, width(N=200)={w[200]:.3f} (need <= 2x); "
        f"t_N growth={growth:.4f} vs log(4)/(2 rho_hat)={target:.4f} +/-15%",
    )
    assert ok


# ---------------------------------------------------------------------------
# 9. Equilibrium concentration trend
# ---------------------------------------------------------------------------


def test_criterion_09_tail_mass_trend(sir, cert05):
    delta = 0.7
    tails = []
    for N in (30, 60, 120):
        pi = dj.stationary_exact(sir, N, cert05, delta)
        tails.append(dj.tail_mass(pi, cert05, N, delta / 2))
    logs = [math.log(t) for t in tails]
    ok = logs[0] > logs[1] > logs[2]
    report(
        9,
        "equilibrium tail concentration",
        ok,
        f"log tail mass at z=delta/2 over N=30,60,120: "
        + ", ".join(f"{v:.3f}" for v in logs),
    )
    assert ok


# ---------------------------------------------------------------------------
# 10. Mean drift scaling
# ---------------------------------------------------------------------------


def test_criterion_10_mean_drift(sir, cert05):
    times = (0.5, 1.0, 2.0, 3.0)
    stats = {}
    for N in (100, 400):
        rep = dj.mean_drift_check(
            sir, cert05, N, y0=(0.7, 1.2), times=times, reps=10_000, seed=5, workers=WORKERS
        )
        stats[N] = rep.stat_max
    ratio = stats[400] / stats[100]
    ok = ratio <= 1.5
    report(
        10,
        "mean drift sqrt(N)-scaling",
        ok,
        f"sqrt(N) max_t ||mean x(t) - y(t)||_M: N=100: {stats[100]:.4f}, "
        f"N=400: {stats[400]:.4f}, ratio={ratio:.3f} (need <= 1.5)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11. Lattice trichotomy witnesses
# ---------------------------------------------------------------------------


def test_criterion_11_lattice_analysis():
    a = dj.classify_jumps([(-1, 1), (1, 0), (0, -1)])
    ok_span = a.verdict == "spanning" and all(
        tuple(np.sum(parts, axis=0)) == target for target, parts in a.decompositions.items()
    )
    b = dj.classify_jumps([(2, 0), (0, 2), (-2, 0), (0, -2)])
    basis = np.array(b.witness_basis)
    ok_sub = b.verdict == "sublattice" and abs(round(np.linalg.det(basis.astype(float)))) > 1
    c = dj.classify_jumps([(1, 0), (0, 1)])
    v = np.array(c.witness_vector)
    ok_sep = (
        c.verdict == "separated"
        and np.any(v != 0)
        and all(v @ np.array(J) >= 0 for J in [(1, 0), (0, 1)])
    )
    ok = ok_span and ok_sub and ok_sep
    report(
        11,
        "lattice trichotomy",
        ok,
        f"spanning={ok_span}, sublattice={ok_sub}, separated={ok_sep} (witnesses re-verified)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 12. Worker-count determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    model = os.path.join(os.path.dirname(__file__), "..", "models", "hamer_sir.cfg")
    args = [
        "cutoff",
        "--model",
        model,
        "--N",
        "30",
        "--x0",
        "1,1",
        "--s-grid=-1,1,3",
        "--reps",
        "2000",
        "--delta",
        "0.6",
        "--seed",
        "9",
    ]
    outs = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        assert cli_main(args + ["--workers", str(workers), "--out", out]) == 0
        with open(os.path.join(out, "cutoff_N30.csv"), "rb") as f:
            outs.append(f.read())
    ok = outs[0] == outs[1]
    report(
        12,
        "worker-count determinism",
        ok,
        f"cutoff CSV bytes identical across --workers 1/2: {ok} ({len(outs[0])} bytes)",
    )
    assert ok
