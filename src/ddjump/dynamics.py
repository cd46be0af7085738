"""Deterministic analysis: ODE flow, fixed point, contractive-norm certificate.

The certificate packages a fixed point c, the Jacobian A there, a symmetric
positive definite matrix M with <x, Ax>_M <= -rho' ||x||_M^2 (rho' halfway
between the certified rate rho and the spectral abscissa), and a sampled
radius delta0 within which the drift is rho-contractive in the M-norm and all
rates stay positive.

The certified ball's drift arithmetic lives here once: ``_m_directions``
draws the M-sphere directions of every ball sampler, and ``_drift_slack``
scores A ||.||_M + rho ||.||_M for both the chain's K1 scan and the coupled
pair's K2 (``simulate.estimate_K2``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .engine import Restriction
from .errors import (
    CertificateError,
    ConvergenceError,
    DomainError,
    HorizonError,
    RateError,
)
from .model import eval_drift, eval_jacobian, eval_rates, rate_gradients

HORIZON = "horizon"
LEFT_DOMAIN = "left_domain"

NEWTON_TOL = 1e-12  # max |F| accepted at the fixed point
NEWTON_MAX_ITER = 100
# delta0 search: up to 140 radii, each 0.9 times the last, every one checked
# on 256 sampled points of its ball, drawn from seed 0
DELTA0_STEPS = 140
DELTA0_FACTOR = 0.9
DELTA0_SAMPLES = 256
DELTA0_SEED = 0
CUTOFF_TIME_TOL = 1e-10  # bisection width of the crossing time


@dataclass(frozen=True)
class FlowResult:
    times: np.ndarray
    states: np.ndarray
    terminated_by: str


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


def find_fixed_point(m, guess):
    """Newton iteration for F(c) = 0 using the expression-tree Jacobian."""
    y = np.asarray(guess, dtype=float)
    if not m.domain.contains(y):
        raise DomainError(f"guess {y.tolist()} outside domain")
    for _ in range(NEWTON_MAX_ITER):
        F = eval_drift(m, y, check_domain=False)
        if np.max(np.abs(F)) <= NEWTON_TOL:
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
    if np.max(np.abs(F)) <= NEWTON_TOL:
        return y
    raise ConvergenceError(f"Newton did not converge; |F| = {np.max(np.abs(F)):.3g}")


def _lyapunov_lift(B, rhs):
    """The symmetrized X with B X + X B^T = rhs, solved as a dense d^2 x d^2
    linear system on the column-major vector of X (Kronecker lifting)."""
    eye = np.eye(len(B))
    vec = np.linalg.solve(np.kron(eye, B) + np.kron(B, eye), rhs.flatten(order="F"))
    X = vec.reshape(rhs.shape, order="F")
    return 0.5 * (X + X.T)


def m_sphere_map(M):
    """``inv(cholesky(M)).T``, which maps the Euclidean unit sphere onto the
    M-unit sphere: ||m_sphere_map(M) u||_M = |u|."""
    return np.linalg.inv(np.linalg.cholesky(M)).T


def _m_directions(rng, n, L):
    """``n`` rows on the M-unit sphere: ``n`` standard normal rows drawn from
    ``rng``, normalized and mapped by ``L = m_sphere_map(M)``."""
    U = rng.normal(size=(n, len(L)))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    return U @ L.T


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
    try:
        M = _lyapunov_lift((A + rho * np.eye(d)).T, -np.eye(d))
    except np.linalg.LinAlgError:
        raise CertificateError("singular lifted Lyapunov system") from None
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
        return float(self.m_norms(x))

    def m_norms(self, X):
        X = np.asarray(X, dtype=float)
        return np.sqrt(np.einsum("...i,ij,...j->...", X, self.M, X))

    def ball(self, N, delta):
        """The lattice ball B_M(N c, N delta)."""
        return Restriction(M=self.M, center=N * self.c, radius=N * delta)

    def to_json_dict(self):
        obj = {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
        obj["eigenvalues"] = [[z.real, z.imag] for z in self.eigenvalues]
        return obj

    @staticmethod
    def from_json_dict(obj):
        kw = {f.name: obj[f.name] for f in fields(StabilityCertificate)}
        kw = {name: np.array(v, dtype=float) if isinstance(v, list) else float(v) for name, v in kw.items()}
        kw["eigenvalues"] = np.array([complex(re, im) for re, im in obj["eigenvalues"]])
        return StabilityCertificate(**kw)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path):
        with open(path) as f:
            return StabilityCertificate.from_json_dict(json.load(f))


def _sample_ball(c, L, delta, n, rng):
    """Points of B_M(c, delta), ``L = m_sphere_map(M)``: half on the boundary
    sphere, half interior."""
    V = _m_directions(rng, n, L)
    radii = np.ones(n)
    half = n // 2
    radii[:half] = rng.random(half) ** (1.0 / len(c))
    return c + delta * radii[:, None] * V


def _ball_passes(m, pts, grad_c, tol):
    """True when every point lies in the domain, every rate there is finite
    and strictly positive, and every rate gradient lies within ``tol`` of
    ``grad_c``.  One array call covers all points; a division by zero at any
    point fails them all."""
    if not m.domain._inside(pts).all():
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


def certify(m, guess, rho_fraction=0.9):
    """Build the full stability certificate.

    rho = rho_fraction * rho_hat; rho' is the midpoint of (rho, rho_hat); M
    solves the shifted Lyapunov equation at rho'; eps satisfies
    eps * sum_J ||J||_M = (rho' - rho)/2; delta0 is the largest radius on a
    geometric grid (``DELTA0_*``, down from the distance to the domain
    boundary capped at 8) such that, on sampled points of B_M(c, delta0),
    every rate is strictly positive and max_J |grad r_J(y) - grad r_J(c)| <
    eps/c0.
    """
    if not (0 < rho_fraction < 1):
        raise ValueError("rho_fraction must lie in (0,1)")
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
    delta_max = min(delta_cap * (1 - 1e-9), 8.0) if math.isfinite(delta_cap) else 8.0
    if delta_max <= 0:
        raise CertificateError("fixed point sits on the domain boundary")

    rng = np.random.default_rng(DELTA0_SEED)
    L = m_sphere_map(M)
    delta0 = None
    delta = delta_max
    for _ in range(DELTA0_STEPS):
        pts = _sample_ball(c, L, delta, DELTA0_SAMPLES, rng)
        if _ball_passes(m, pts, grad_c, eps / c0):
            delta0 = delta
            break
        delta *= DELTA0_FACTOR
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


def cutoff_time(m, cert, x0, N, horizon=None):
    """First time the ODE flow from x0 satisfies ||y(t) - c||_M = N^(-1/2).

    Returns 0 when x0 is already inside the target ball.  Integration uses
    fixed-step RK4 at ``default_step``; the bracketing step is refined by
    bisection to ``CUTOFF_TIME_TOL``.  Raises HorizonError when no crossing
    occurs by the horizon (x0 outside the basin, or N too large for it).
    """
    x0 = np.asarray(x0, dtype=float)
    target = 1.0 / math.sqrt(N)
    g = cert.m_norm(x0 - cert.c)
    if g <= target:
        return 0.0
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
    while hi - lo > CUTOFF_TIME_TOL:
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


def _slack_threshold(levels, slack):
    """Sort the samples by level, then slack; return the sorted levels and
    slacks, and the index of the first sample from which on no slack is
    positive (``len(levels)`` when the last one is)."""
    order = np.lexsort((slack, levels))
    levels, slack = np.asarray(levels)[order], np.asarray(slack)[order]
    bad = np.flatnonzero(slack > 0)
    return levels, slack, int(bad[-1]) + 1 if len(bad) else 0


def _lattice_rates(m, X, N):
    """The rates r_J(X / N) at the lattice points ``X``, one row each; raises
    RateError at the first point with a rate that is not finite and >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        R = m.kernel.rates_array(X / N)
    bad = ~(np.isfinite(R) & (R >= 0.0)).all(axis=1)
    if bad.any():
        raise RateError(f"invalid rate at lattice point {X[bad][0].tolist()} (N={N})")
    return R


def _drift_slack(ball, J, W, R, N, rho):
    """H = ||W||_M and the slack A H + rho H for the columns of ``W`` (shape
    (d, n), lattice units) under the generator A in which jump k moves W by
    +J[k] at rate N R[:, k] where R[:, k] >= 0, and by -J[k] at rate
    -N R[:, k] elsewhere.

    The jumps are added left to right and the norms take ``ball.form``
    (only the ball's M is read), the scalar ``m_norm``'s order at d <= 2.
    """
    H = np.sqrt(ball.form(W))
    AH = np.zeros(W.shape[1])
    for k, Jk in enumerate(J):
        r = R[:, k]
        up = r >= 0.0
        T = np.where(up, W + Jk[:, None], W - Jk[:, None])
        AH += (np.sqrt(ball.form(T)) - H) * N * np.abs(r)
    return H, AH + rho * H


def _shell_samples(m, cert, N, sample_count, seed, g_lo, g_hi):
    """The distinct lattice points X, sorted, of up to ``sample_count``
    accepted draws with ||X/N - c||_M in [g_lo, g_hi] and X/N in the domain.

    Each of at most 50 * sample_count attempts draws a log-uniform radius,
    then one M-sphere direction, from the generator of ``seed``, and rounds
    the point N (c + radius * direction) to the lattice.
    """
    rng = np.random.default_rng(seed)
    L = m_sphere_map(cert.M)
    samples = []
    attempts = 0
    while len(samples) < sample_count and attempts < 50 * sample_count:
        attempts += 1
        radius = g_lo * (g_hi / g_lo) ** rng.random()
        X = np.round(N * (cert.c + radius * _m_directions(rng, 1, L)[0])).astype(np.int64)
        g = cert.m_norm(X / N - cert.c)
        if g_lo <= g <= g_hi and m.domain.contains(X / N):
            samples.append(X)
    return np.unique(np.array(samples, dtype=np.int64).reshape(-1, m.d), axis=0)


def check_drift_condition(m, cert, N, sample_count=2000, seed=0, k1_floor=0.05):
    """Scan lattice states with G in [k1_floor/sqrt(N), delta0] and find the
    smallest K1 such that Q^N G <= -rho G holds on every sample above it.

    Q^N G is exact: jump J moves W = X - N c by +J at rate N r_J(X/N), so
    with H = ||W||_M the level is G = H/N and the slack Q^N G + rho G is
    (A H + rho H)/N, scored by ``_drift_slack`` on every distinct sample at
    once.
    """
    g_lo = k1_floor / math.sqrt(N)
    g_hi = cert.delta0
    if g_lo >= g_hi:
        raise ValueError("k1 floor exceeds delta0; N too small for the scan")
    X = _shell_samples(m, cert, N, sample_count, seed, g_lo, g_hi)
    ball = cert.ball(N, g_hi)
    R = _lattice_rates(m, X, N)
    H, slack = _drift_slack(ball, m.kernel.J, (X - ball.center).T, R, N, cert.rho)
    gs, slack, g_star_idx = _slack_threshold(H / N, slack / N)
    n, failed = len(gs), g_star_idx >= len(gs)
    return DriftConditionReport(
        N=N,
        rho=cert.rho,
        n_samples=n,
        k1_empirical=math.inf if failed else float(gs[g_star_idx] * math.sqrt(N)),
        max_slack_above=math.nan if failed else float(slack[g_star_idx:].max()),
        failed_everywhere=failed,
        g_min=float(gs[0]) if n else math.nan,
        g_max=float(gs[-1]) if n else math.nan,
    )
