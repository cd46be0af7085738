"""Deterministic analysis: ODE flow, fixed point, contractive-norm certificate.

The certificate packages a fixed point c, the Jacobian A there, a symmetric
positive definite matrix M with <x, Ax>_M <= -rho' ||x||_M^2 (rho' halfway
between the certified rate rho and the spectral abscissa), and a sampled
radius delta0 within which the drift is rho-contractive in the M-norm and all
rates stay positive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    CertificateError,
    ConvergenceError,
    DomainError,
    HorizonError,
)
from .model import eval_drift, eval_jacobian, eval_rates, rate_gradients

HORIZON = "horizon"
CROSSING = "crossing"
LEFT_DOMAIN = "left_domain"


@dataclass(frozen=True)
class FlowResult:
    times: np.ndarray
    states: np.ndarray
    terminated_by: str
    crossing_level: float = math.nan


def default_step(rho_hat):
    return min(1e-3, 0.01 / rho_hat) if rho_hat > 0 else 1e-3


def _drift(m):
    """Validated scalar drift y -> F(y); the domain is not checked, since RK4
    stages may step outside it."""
    return partial(eval_drift, m, check_domain=False)


def _rk4_step(F, y, h):
    """One classical RK4 step of dy/dt = F(y); ``y`` may be a batch of points."""
    k1 = F(y)
    k2 = F(y + 0.5 * h * k1)
    k3 = F(y + 0.5 * h * k2)
    k4 = F(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_flow(F, y, h, n_steps, every=1, stop=None):
    """Up to ``n_steps`` RK4 steps of h from ``y`` at time 0.

    Returns (times, states, stopped): every ``every``-th state and the last
    one taken, with times added up step by step.  ``stop(t, y_new)`` sees
    each new state with the time it starts from; when it returns True, the
    flow ends before that state.
    """
    t, stopped = 0.0, False
    times, states = [t], [y]
    for k in range(1, n_steps + 1):
        y_new = _rk4_step(F, y, h)
        if stop is not None and stop(t, y_new):
            stopped = True
            break
        y, t = y_new, t + h
        if k % every == 0:
            times.append(t)
            states.append(y)
    if states[-1] is not y:
        times.append(t)
        states.append(y)
    return np.array(times), np.array(states), stopped


def integrate_ode(m, y0, T, h=1e-3):
    """Classical fixed-step RK4 flow of dy/dt = sum_J J r_J(y).

    Stops early with ``left_domain`` if a step would exit the domain (the
    last in-domain state is kept).  Raises on non-finite states.
    """
    y = np.asarray(y0, dtype=float)
    if not m.domain.contains(y):
        raise DomainError(f"initial point {y.tolist()} outside domain")
    if h <= 0:
        raise ValueError("step must be positive")

    def left(t, y_new):
        if not np.all(np.isfinite(y_new)):
            raise ConvergenceError(f"non-finite state at t={t}")
        return not m.domain.contains(y_new)

    times, states, stopped = _rk4_flow(_drift(m), y, h, max(0, int(round(T / h))), stop=left)
    return FlowResult(times, states, LEFT_DOMAIN if stopped else HORIZON)


def find_fixed_point(m, guess, tol=1e-12, max_iter=100):
    """Newton iteration for F(c) = 0 using the expression-tree Jacobian."""
    y = np.asarray(guess, dtype=float)
    if not m.domain.contains(y):
        raise DomainError(f"guess {y.tolist()} outside domain")
    for _ in range(max_iter):
        F = eval_drift(m, y, check_domain=False)
        if np.max(np.abs(F)) <= tol:
            return y
        A = eval_jacobian(m, y, check_domain=False)
        try:
            step = np.linalg.solve(A, -F)
        except np.linalg.LinAlgError:
            raise ConvergenceError(f"singular Jacobian at iterate {y.tolist()}") from None
        y = y + step
        if not np.all(np.isfinite(y)):
            raise ConvergenceError("Newton iterate diverged")
    F = eval_drift(m, y, check_domain=False)
    if np.max(np.abs(F)) <= tol:
        return y
    raise ConvergenceError(f"Newton did not converge; |F| = {np.max(np.abs(F)):.3g}")


def construct_M(A, rho):
    """SPD matrix M with <x, Ax>_M <= -rho ||x||_M^2 for all real x.

    Solves the shifted equation (A + rho I)^T M + M (A + rho I) = -I as a
    dense d^2 x d^2 linear system (Kronecker lifting) and symmetrizes.  The
    inequality then holds with slack -|x|^2/2.  Verified on 1000 random unit
    vectors before returning.
    """
    A = np.asarray(A, dtype=float)
    d = A.shape[0]
    if A.shape != (d, d):
        raise ValueError("A must be square")
    evals = np.linalg.eigvals(A)
    if np.max(evals.real) >= -rho:
        raise CertificateError(
            f"spectral precondition fails: max Re(eig) = {np.max(evals.real):.6g} >= -rho = {-rho}"
        )
    B = A + rho * np.eye(d)
    eye = np.eye(d)
    lifted = np.kron(eye, B.T) + np.kron(B.T, eye)
    try:
        vecM = np.linalg.solve(lifted, (-eye).flatten(order="F"))
    except np.linalg.LinAlgError:
        raise CertificateError("singular lifted Lyapunov system") from None
    M = vecM.reshape((d, d), order="F")
    M = 0.5 * (M + M.T)
    if np.min(np.linalg.eigvalsh(M)) <= 0:
        raise CertificateError("Lyapunov solution is not positive definite")
    X = np.random.default_rng(0).normal(size=(1000, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    slack = np.einsum("ni,ij,nj->n", X, M @ A, X) + rho * np.einsum("ni,ij,nj->n", X, M, X)
    if np.max(slack) > 1e-9:
        raise CertificateError(f"M verification failed, max slack {np.max(slack):.3g}")
    return M


@dataclass(frozen=True)
class StabilityCertificate:
    """Contractive-geometry data for a model around its fixed point."""

    c: np.ndarray
    A: np.ndarray
    eigenvalues: np.ndarray
    rho_hat: float
    rho: float
    rho_prime: float
    M: np.ndarray
    delta0: float
    c0: float
    c1: float
    JstarM: float
    sum_JM: float
    eps: float

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise CertificateError("M not symmetric to 1e-12")
        w = np.linalg.eigvalsh(M)
        if w[0] <= 0:
            raise CertificateError("M not positive definite")
        if abs(self.c0 - math.sqrt(w[0])) > 1e-9 * max(1.0, self.c0) or abs(
            self.c1 - math.sqrt(w[-1])
        ) > 1e-9 * max(1.0, self.c1):
            raise CertificateError("c0/c1 do not match extreme eigenvalues of M")
        if np.max(np.asarray(self.eigenvalues).real) >= -self.rho:
            raise CertificateError("eigenvalue real parts not below -rho")

    def m_norm(self, x):
        x = np.asarray(x, dtype=float)
        return float(np.sqrt(np.einsum("...i,ij,...j->...", x, self.M, x)))

    def m_norms(self, X):
        X = np.asarray(X, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", X, self.M, X))

    def to_json_dict(self):
        return {
            "c": self.c.tolist(),
            "A": self.A.tolist(),
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "rho_hat": self.rho_hat,
            "rho": self.rho,
            "rho_prime": self.rho_prime,
            "M": self.M.tolist(),
            "delta0": self.delta0,
            "c0": self.c0,
            "c1": self.c1,
            "JstarM": self.JstarM,
            "sum_JM": self.sum_JM,
            "eps": self.eps,
        }

    @staticmethod
    def from_json_dict(obj):
        return StabilityCertificate(
            c=np.array(obj["c"], dtype=float),
            A=np.array(obj["A"], dtype=float),
            eigenvalues=np.array([complex(re, im) for re, im in obj["eigenvalues"]]),
            rho_hat=float(obj["rho_hat"]),
            rho=float(obj["rho"]),
            rho_prime=float(obj["rho_prime"]),
            M=np.array(obj["M"], dtype=float),
            delta0=float(obj["delta0"]),
            c0=float(obj["c0"]),
            c1=float(obj["c1"]),
            JstarM=float(obj["JstarM"]),
            sum_JM=float(obj["sum_JM"]),
            eps=float(obj["eps"]),
        )

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path):
        with open(path) as f:
            return StabilityCertificate.from_json_dict(json.load(f))


@dataclass(frozen=True)
class CertGrid:
    """Sampling spec for the delta0 search."""

    delta_max: float = None  # default: distance from c to the domain boundary, capped at 8
    n_deltas: int = 140
    factor: float = 0.9
    samples: int = 256
    seed: int = 0


def _sample_ball(c, M, delta, n, rng):
    """Points of B_M(c, delta): half on the boundary sphere, half interior."""
    d = len(c)
    L = np.linalg.cholesky(M)
    Linv_T = np.linalg.inv(L).T  # ||Linv_T u||_M = |u|
    U = rng.normal(size=(n, d))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    radii = np.ones(n)
    half = n // 2
    radii[:half] = rng.random(half) ** (1.0 / d)
    return c + delta * radii[:, None] * (U @ Linv_T.T)


def _ball_passes(m, pts, grad_c, tol):
    """True when every point lies in the domain, every rate there is finite
    and strictly positive, and every rate gradient lies within ``tol`` of
    ``grad_c``.  One array call covers all points; a division by zero at any
    point fails them all."""
    if not np.all((pts >= m.domain.lower) & (pts <= m.domain.upper)):
        return False
    try:
        with np.errstate(divide="raise", invalid="ignore", over="ignore"):
            R = m.kernel.rates_array(pts)
            G = m.kernel.grads_array(pts)
    except FloatingPointError:
        return False
    if not (np.isfinite(R).all() and (R > 0).all()):
        return False
    return bool((np.linalg.norm(G - grad_c, axis=-1) < tol).all())


def certify(m, guess, rho_fraction=0.9, grid=None):
    """Build the full stability certificate.

    rho = rho_fraction * rho_hat; rho' is the midpoint of (rho, rho_hat); M
    solves the shifted Lyapunov equation at rho'; eps satisfies
    eps * sum_J ||J||_M = (rho' - rho)/2; delta0 is the largest radius on a
    geometric grid such that, on sampled points of B_M(c, delta0), every rate
    is strictly positive and max_J |grad r_J(y) - grad r_J(c)| < eps/c0.
    """
    if not (0 < rho_fraction < 1):
        raise ValueError("rho_fraction must lie in (0,1)")
    grid = grid or CertGrid()
    c = find_fixed_point(m, guess)
    if not m.domain.contains(c):
        raise CertificateError(f"fixed point {c.tolist()} outside domain")
    rates_c = eval_rates(m, c)
    if np.min(rates_c) <= 0:
        k = int(np.argmin(rates_c))
        raise CertificateError(
            f"rate for jump {m.jumps[k]} is {rates_c[k]:.3g} at the fixed point; "
            "all rates must be strictly positive there"
        )
    A = eval_jacobian(m, c)
    eigenvalues = np.linalg.eigvals(A)
    rho_hat = -float(np.max(eigenvalues.real))
    if rho_hat <= 0:
        raise CertificateError(f"fixed point not attracting: spectral abscissa {-rho_hat:.6g}")
    rho = rho_fraction * rho_hat
    rho_prime = 0.5 * (rho + rho_hat)
    M = construct_M(A, rho_prime)
    w = np.linalg.eigvalsh(M)
    c0, c1 = math.sqrt(w[0]), math.sqrt(w[-1])
    Jm = m.jump_array.astype(float)
    JM = np.sqrt(np.einsum("ji,ik,jk->j", Jm, M, Jm))
    sum_JM = float(JM.sum())
    JstarM = float(JM.max())
    eps = 0.5 * (rho_prime - rho) / sum_JM

    grad_c = rate_gradients(m, c)
    delta_cap = m.domain.m_distance_to_boundary(c, M)
    delta_max = grid.delta_max
    if delta_max is None:
        delta_max = min(delta_cap * (1 - 1e-9), 8.0) if math.isfinite(delta_cap) else 8.0
    else:
        delta_max = min(delta_max, delta_cap * (1 - 1e-9))
    if delta_max <= 0:
        raise CertificateError("fixed point sits on the domain boundary")

    rng = np.random.default_rng(grid.seed)
    delta0 = None
    delta = delta_max
    for _ in range(grid.n_deltas):
        pts = _sample_ball(c, M, delta, grid.samples, rng)
        if _ball_passes(m, pts, grad_c, eps / c0):
            delta0 = delta
            break
        delta *= grid.factor
    if delta0 is None:
        raise CertificateError(
            f"no radius in [{delta:.3g}, {delta_max:.3g}] passes the perturbation "
            "and positivity checks"
        )

    return StabilityCertificate(
        c=c,
        A=A,
        eigenvalues=eigenvalues,
        rho_hat=rho_hat,
        rho=rho,
        rho_prime=rho_prime,
        M=M,
        delta0=delta0,
        c0=c0,
        c1=c1,
        JstarM=JstarM,
        sum_JM=sum_JM,
        eps=eps,
    )


def cutoff_time(m, cert, x0, N, horizon=None, h=None, time_tol=1e-10):
    """First time the ODE flow from x0 satisfies ||y(t) - c||_M = N^(-1/2).

    Returns 0 when x0 is already inside the target ball.  Integration uses
    fixed-step RK4; the bracketing step is refined by bisection to
    ``time_tol``.  Raises HorizonError when no crossing occurs by the
    horizon (x0 outside the basin, or N too large for the horizon).
    """
    x0 = np.asarray(x0, dtype=float)
    target = 1.0 / math.sqrt(N)
    g = cert.m_norm(x0 - cert.c)
    if g <= target:
        return 0.0
    if h is None:
        h = default_step(cert.rho_hat)
    if horizon is None:
        # distance decays like e^{-rho t} once near c; generous default
        horizon = 10.0 + 3.0 * (math.log(max(N, 2.0)) / (2 * cert.rho) + math.log(1 + g) / cert.rho)
    F = _drift(m)
    n_steps = int(math.ceil(horizon / h))

    def crossed(t, y_new):
        return cert.m_norm(y_new - cert.c) <= target

    times, states, stopped = _rk4_flow(F, x0, h, n_steps, every=max(1, n_steps), stop=crossed)
    if not stopped:
        raise HorizonError(f"no crossing of radius {target:.3g} within horizon {horizon:.3g}")
    t, y = float(times[-1]), states[-1]
    lo, hi = 0.0, h
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        if cert.m_norm(_rk4_step(F, y, mid) - cert.c) <= target:
            hi = mid
        else:
            lo = mid
    return t + hi


@dataclass(frozen=True)
class DriftConditionReport:
    """Exact-generator drift scan over lattice shell states."""

    N: int
    rho: float
    n_samples: int
    k1_empirical: float  # smallest threshold above which the condition held on all samples
    max_slack_above: float  # max of Q^N G + rho G over samples above the threshold
    failed_everywhere: bool
    g_min: float
    g_max: float


def generator_apply_G(m, cert, X, N):
    """Exact Q^N G at lattice state X: sum_J N r_J(x) [G(x + J/N) - G(x)]."""
    x = np.asarray(X, dtype=float) / N
    r = eval_rates(m, x)
    g = cert.m_norm(x - cert.c)
    total = 0.0
    for J, rj in zip(m.jump_array, r):
        total += N * rj * (cert.m_norm(x + J / N - cert.c) - g)
    return total, g


def check_drift_condition(m, cert, N, sample_count=2000, seed=0, k1_floor=0.05):
    """Scan lattice states with G in [k1_floor/sqrt(N), delta0] and find the
    smallest K1 such that Q^N G <= -rho G holds on every sample above it.
    """
    rng = np.random.default_rng(seed)
    d = m.d
    L = np.linalg.cholesky(cert.M)
    Linv_T = np.linalg.inv(L).T
    g_lo = k1_floor / math.sqrt(N)
    g_hi = cert.delta0
    if g_lo >= g_hi:
        raise ValueError("k1 floor exceeds delta0; N too small for the scan")
    samples = []
    attempts = 0
    while len(samples) < sample_count and attempts < 50 * sample_count:
        attempts += 1
        radius = g_lo * (g_hi / g_lo) ** rng.random()
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        x = cert.c + radius * (Linv_T @ u)
        X = np.round(N * x).astype(np.int64)
        g = cert.m_norm(X / N - cert.c)
        if g_lo <= g <= g_hi and m.domain.contains(X / N):
            samples.append(tuple(X))
    seen = sorted(set(samples))
    rows = []
    for X in seen:
        q, g = generator_apply_G(m, cert, np.array(X), N)
        rows.append((g, q + cert.rho * g))
    rows.sort()
    gs = np.array([r[0] for r in rows])
    slack = np.array([r[1] for r in rows])
    # smallest threshold g* with slack <= 0 for every sample at g >= g*
    bad = slack > 0
    if bad.any():
        g_star_idx = int(np.flatnonzero(bad)[-1]) + 1
    else:
        g_star_idx = 0
    if g_star_idx >= len(rows):
        return DriftConditionReport(
            N=N,
            rho=cert.rho,
            n_samples=len(rows),
            k1_empirical=math.inf,
            max_slack_above=math.nan,
            failed_everywhere=True,
            g_min=float(gs[0]) if len(rows) else math.nan,
            g_max=float(gs[-1]) if len(rows) else math.nan,
        )
    g_star = gs[g_star_idx]
    return DriftConditionReport(
        N=N,
        rho=cert.rho,
        n_samples=len(rows),
        k1_empirical=float(g_star * math.sqrt(N)),
        max_slack_above=float(slack[g_star_idx:].max()),
        failed_everywhere=False,
        g_min=float(gs[0]),
        g_max=float(gs[-1]),
    )
