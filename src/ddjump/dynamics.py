"""Deterministic analysis: ODE flow, fixed point, contractive-norm certificate.

The certificate packages a fixed point c, the Jacobian A there, a symmetric
positive definite matrix M with <x, Ax>_M <= -rho' ||x||_M^2 (rho' halfway
between the certified rate rho and the spectral abscissa), and a sampled
radius delta0 within which the drift is rho-contractive in the M-norm and all
rates stay positive.  It stores what ``certify`` decides: c, A, rho, M,
delta0, the largest jump norm J*_M and the sum of jump norms sum_J ||J||_M.
It computes the rest on each read, with the expressions ``certify`` takes:
the eigenvalues of A and its spectral gap rho_hat, rho', the gradient
tolerance eps = (rho' - rho) / (2 sum_J ||J||_M), and c0 <= c1, the square
roots of M's extreme eigenvalues.  A certificate ``certify`` could not have
built (shapes that disagree, rho or delta0 not positive, M not symmetric
positive definite, an eigenvalue of A not below -rho) is refused.

``certify`` finds delta0 on one sample of the unit M-ball
(``_unit_ball_sample``), drawn once and scaled to every radius of its grid
(``_scaled_ball``), and scores the grid a block of radii at a time, one
array call for the rates and one for the gradients of a block
(``_ball_passes``).

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

from .engine import Restriction, check_N, lattice_rates, m_form
from .errors import CertificateError, ConvergenceError, DomainError, HorizonError
from .model import eval_drift, eval_jacobian, eval_rates, rate_gradients

HORIZON = "horizon"
LEFT_DOMAIN = "left_domain"

NEWTON_TOL = 1e-12  # max |F| accepted at the fixed point
NEWTON_MAX_ITER = 100
# delta0 search: up to 140 radii, each 0.9 times the last, every one checked
# on the same 256 points of the unit ball, drawn from seed 0 and scaled to
# the radius, 8 radii to an array call
DELTA0_STEPS = 140
DELTA0_FACTOR = 0.9
DELTA0_SAMPLES = 256
DELTA0_SEED = 0
DELTA0_BLOCK = 8
CUTOFF_TIME_TOL = 1e-10  # bisection width of the crossing time
# how far a given certificate's c may sit from a zero of the model's drift
# (max |F(c)|), and its A from the model's Jacobian there (max entry, relative
# to the Jacobian's largest, or 1)
CERT_MODEL_TOL = 1e-9


@dataclass(frozen=True)
class FlowResult:
    times: np.ndarray
    states: np.ndarray
    terminated_by: str


def default_step(rho_hat):
    """The RK4 step at spectral gap ``rho_hat`` (positive in every certificate)."""
    return min(1e-3, 0.01 / rho_hat)


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
    inequality then holds with slack -|x|^2/2.  Verified before returning:
    the largest eigenvalue of (MA + (MA)^T)/2 + rho M is the largest slack
    <x, Ax>_M + rho ||x||_M^2 over all unit vectors x.
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
    MA = M @ A
    slack = np.linalg.eigvalsh(0.5 * (MA + MA.T) + rho * M)[-1]
    if slack > 1e-9:
        raise CertificateError(f"M verification failed, max slack {slack:.3g}")
    return M


@dataclass(frozen=True)
class StabilityCertificate:
    """Contractive-geometry data for a model around its fixed point: the seven
    numbers ``certify`` decides; the rest is computed from them on each read."""

    c: np.ndarray
    A: np.ndarray
    rho: float
    M: np.ndarray
    delta0: float
    JstarM: float
    sum_JM: float

    def __post_init__(self):
        for name in ("rho", "delta0", "JstarM", "sum_JM"):
            object.__setattr__(self, name, float(getattr(self, name)))
        c_shape, A_shape, M_shape = np.shape(self.c), np.shape(self.A), np.shape(self.M)
        if len(c_shape) != 1 or A_shape != 2 * c_shape or M_shape != 2 * c_shape:
            raise CertificateError(
                f"shapes of c {c_shape}, A {A_shape} and M {M_shape} do not agree: "
                "need (d,), (d, d) and (d, d)"
            )
        if not (self.rho > 0 and self.delta0 > 0):
            raise CertificateError(f"rho and delta0 must be positive, got {self.rho} and {self.delta0}")
        M = np.asarray(self.M, dtype=float)
        if np.max(np.abs(M - M.T)) > 1e-12:
            raise CertificateError("M not symmetric to 1e-12")
        if np.linalg.eigvalsh(M)[0] <= 0:
            raise CertificateError("M not positive definite")
        if np.max(self.eigenvalues.real) >= -self.rho:
            raise CertificateError("eigenvalue real parts not below -rho")

    @property
    def eigenvalues(self):
        return np.linalg.eigvals(self.A)

    @property
    def rho_hat(self):
        return -float(np.max(self.eigenvalues.real))

    @property
    def rho_prime(self):
        return 0.5 * (self.rho + self.rho_hat)

    @property
    def eps(self):
        return 0.5 * (self.rho_prime - self.rho) / self.sum_JM

    @property
    def c0(self):
        return math.sqrt(np.linalg.eigvalsh(self.M)[0])

    @property
    def c1(self):
        return math.sqrt(np.linalg.eigvalsh(self.M)[-1])

    def m_norm(self, x):
        return float(self.m_norms(x))

    def m_norms(self, X):
        X = np.asarray(X, dtype=float)
        return np.sqrt(m_form(self.M, np.moveaxis(X, -1, 0)))

    def ball(self, N, delta):
        """The lattice ball B_M(N c, N delta), for N >= 1."""
        check_N(N)
        return Restriction(M=self.M, center=N * self.c, radius=N * delta)

    def to_json_dict(self):
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}

    @staticmethod
    def from_json_dict(obj):
        """The certificate of a ``to_json_dict`` object; any other entry is ignored."""
        kw = {}
        for f in fields(StabilityCertificate):
            if f.name not in obj:
                raise CertificateError(f"certificate lacks the entry {f.name!r}")
            v = obj[f.name]
            kw[f.name] = np.array(v, dtype=float) if isinstance(v, list) else v
        return StabilityCertificate(**kw)

    def dump(self, path):
        with open(path, "w") as f:
            json.dump(self.to_json_dict(), f, indent=1, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path):
        with open(path) as f:
            return StabilityCertificate.from_json_dict(json.load(f))


def check_certificate(m, cert):
    """Refuse a certificate that is not one of the model ``m``: c must have
    the model's dimension, the drift must vanish at c and A must be the
    model's Jacobian there, both to ``CERT_MODEL_TOL``."""
    if cert.c.shape != (m.d,):
        raise CertificateError(f"certificate dimension {len(cert.c)} does not match model dimension {m.d}")
    F = float(np.max(np.abs(eval_drift(m, cert.c, check_domain=False))))
    if not F <= CERT_MODEL_TOL:
        raise CertificateError(
            f"certificate is not one of this model: the drift at its c is {F:.3g} "
            f"(a fixed point needs at most {CERT_MODEL_TOL:g})"
        )
    J = eval_jacobian(m, cert.c, check_domain=False)
    gap = float(np.max(np.abs(cert.A - J)))
    if not gap <= CERT_MODEL_TOL * max(1.0, float(np.max(np.abs(J)))):
        raise CertificateError(
            f"certificate is not one of this model: its A differs from the Jacobian at c by {gap:.3g} "
            f"(at most {CERT_MODEL_TOL:g} of its largest entry is allowed)"
        )


def _unit_ball_sample(L, n, rng):
    """``n`` points of the unit M-ball, ``L = m_sphere_map(M)``, half on its
    sphere and half inside: their radii (n,) and their M-unit directions,
    stored coordinate by coordinate (d, n)."""
    V = np.ascontiguousarray(_m_directions(rng, n, L).T)
    radii = np.ones(n)
    half = n // 2
    radii[:half] = rng.random(half) ** (1.0 / len(L))
    return radii, V


def _scaled_ball(c, sample, delta):
    """The points c + delta * radius * direction of a ``_unit_ball_sample``,
    shape (n, d), or (r, n, d) for radii ``delta`` of shape (r,); each
    coordinate of them is one contiguous block."""
    radii, V = sample
    ones = (1,) * np.ndim(delta)  # the radius axis, if any
    pts = np.reshape(c, (-1, *ones, 1)) + np.multiply.outer(delta, radii) * V.reshape(len(V), *ones, -1)
    return np.moveaxis(pts, 0, -1)


def _sample_ball(c, L, delta, n, rng):
    """``n`` points of B_M(c, delta), ``L = m_sphere_map(M)``: half on the
    boundary sphere, half interior."""
    return _scaled_ball(c, _unit_ball_sample(L, n, rng), delta)


def _ball_passes(m, pts, grad_c, tol):
    """Whether every point of a ball lies in the domain, every rate there is
    finite and strictly positive, and every rate gradient lies within ``tol``
    of ``grad_c``.

    ``pts`` is one ball's points (n, d), which get one bool, or a stack of
    balls (b, n, d), which get one bool each from one array call for the
    rates and one for the gradients.  A division by zero at any point fails
    its ball; in a stack, the balls are then scored one at a time, so each
    gets the verdict it gets alone."""
    inside = m.domain._inside(pts).all(axis=-1)
    if pts.ndim == 2 and not inside:
        return False
    try:
        with np.errstate(divide="raise", invalid="ignore", over="ignore"):
            R = m.kernel.rates_array(pts)
            G = m.kernel.grads_array(pts)
    except FloatingPointError:
        return False if pts.ndim == 2 else np.array([_ball_passes(m, p, grad_c, tol) for p in pts])
    rates_ok = (np.isfinite(R) & (R > 0)).all(axis=(-2, -1))
    grads_ok = (np.linalg.norm(G - grad_c, axis=-1) < tol).all(axis=(-2, -1))
    passes = inside & rates_ok & grads_ok
    return bool(passes) if pts.ndim == 2 else passes


def certify(m, guess, rho_fraction=0.9):
    """Build the full stability certificate.

    rho = rho_fraction * rho_hat; rho' is the midpoint of (rho, rho_hat); M
    solves the shifted Lyapunov equation at rho'; eps satisfies
    eps * sum_J ||J||_M = (rho' - rho)/2; delta0 is the largest radius on a
    geometric grid (``DELTA0_*``, down from the distance to the domain
    boundary capped at 8, each radius 0.9 times the last) such that, on
    sampled points of B_M(c, delta0), every rate is strictly positive and
    max_J |grad r_J(y) - grad r_J(c)| < eps/c0.  One sample of the unit
    M-ball is drawn and scaled to every radius, and the grid is scored
    ``DELTA0_BLOCK`` radii at a time from the top (``_ball_passes``).
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
    c0 = math.sqrt(np.linalg.eigvalsh(M)[0])
    Jm = m.jump_array.astype(float)
    JM = np.sqrt(m_form(M, Jm.T))
    sum_JM = float(JM.sum())
    JstarM = float(JM.max())
    eps = 0.5 * (rho_prime - rho) / sum_JM

    grad_c = rate_gradients(m, c)
    delta_cap = m.domain.m_distance_to_boundary(c, M)
    delta_max = min(delta_cap * (1 - 1e-9), 8.0) if math.isfinite(delta_cap) else 8.0
    if delta_max <= 0:
        raise CertificateError("fixed point sits on the domain boundary")

    # the radius multiplied down step by step: delta_max * 0.9**k rounds otherwise
    radii = np.cumprod([delta_max] + [DELTA0_FACTOR] * (DELTA0_STEPS - 1))
    sample = _unit_ball_sample(m_sphere_map(M), DELTA0_SAMPLES, np.random.default_rng(DELTA0_SEED))
    for top in range(0, DELTA0_STEPS, DELTA0_BLOCK):
        pts = _scaled_ball(c, sample, radii[top : top + DELTA0_BLOCK])
        passed = np.flatnonzero(_ball_passes(m, pts, grad_c, eps / c0))
        if len(passed):
            delta0 = radii[top + passed[0]]
            break
    else:
        raise CertificateError(
            f"no radius in [{radii[-1]:.3g}, {delta_max:.3g}] passes the perturbation "
            "and positivity checks"
        )

    return StabilityCertificate(c=c, A=A, rho=rho, M=M, delta0=delta0, JstarM=JstarM, sum_JM=sum_JM)


def cutoff_time(m, cert, x0, N, horizon=None):
    """First time the ODE flow from x0 satisfies ||y(t) - c||_M = N^(-1/2).

    N must be at least 1 (``engine.check_N``).  Returns 0 when x0 is
    already inside the target ball.  Integration uses fixed-step RK4 at
    ``default_step``; the bracketing step is refined by bisection to
    ``CUTOFF_TIME_TOL``.  Raises HorizonError when no crossing occurs by the
    horizon (x0 outside the basin, or N too large for it).
    """
    check_N(N)
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


def _drift_slack(M, J, W, R, N, rho):
    """H = ||W||_M and the slack A H + rho H for the columns of ``W`` (shape
    (d, n), lattice units) under the generator A in which jump k moves W by
    +J[k] at rate N R[:, k] where R[:, k] >= 0, and by -J[k] at rate
    -N R[:, k] elsewhere.

    The jumps are added left to right and the norms take ``m_form``.
    """
    H = np.sqrt(m_form(M, W))
    AH = np.zeros(W.shape[1])
    for k, Jk in enumerate(J):
        r = R[:, k]
        up = r >= 0.0
        T = np.where(up, W + Jk[:, None], W - Jk[:, None])
        AH += (np.sqrt(m_form(M, T)) - H) * N * np.abs(r)
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
    once, with the rates of ``engine.lattice_rates``.
    """
    g_lo = k1_floor / math.sqrt(N)
    g_hi = cert.delta0
    if g_lo >= g_hi:
        raise ValueError("k1 floor exceeds delta0; N too small for the scan")
    X = _shell_samples(m, cert, N, sample_count, seed, g_lo, g_hi)
    R = lattice_rates(m, X, N)
    H, slack = _drift_slack(cert.M, m.kernel.J, (X - N * cert.c).T, R, N, cert.rho)
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
