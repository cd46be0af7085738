"""Quasi-equilibrium of the ball-restricted chain (on the engine's ball
enumeration, also reachable here as ``enumerate_ball``), discrete-normal
comparison, total variation, and the cutoff-profile experiments.

scipy.sparse is imported inside the generator and solver functions, so a
process that only simulates does not load it."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine
from .dist import LatticeDistribution, LatticeKeys
from .dynamics import _drift, _lyapunov_lift, _rk4_flow, _rk4_step, cutoff_time, default_step
from .engine import STATE_CAP, enumerate_ball
from .errors import ConvergenceError, DdjumpError, DomainError
from .model import eval_rates

POWER_MAX_ITERS = 2_000_000
OCCUPATION_REPS = 128  # paths behind one stationary_empirical estimate
BURNIN_RELAXATIONS = 10  # its burn-in, in relaxation times 1/rho_hat
TV_ALPHA = 0.05  # a cutoff row's interval misses its true TV with probability at most this


def build_generator(m, N, states):
    """Sparse generator Q of the chain held in ``states`` (distinct lattice
    points in canonical order): jump J from X is kept iff X + J is one of the
    states, and every other jump is deleted.  Rates are evaluated at X/N and
    must be valid there, kept or not."""
    import scipy.sparse as sp

    n, k = len(states), len(m.jump_array)
    r = engine.lattice_rates(m, states, N)
    targets = (m.jump_array[:, None, :] + states[None, :, :]).reshape(-1, m.d)  # jump-major
    codec = LatticeKeys(states, targets)
    keys = codec.encode(states)  # ascending: the states are in canonical order
    target_keys = codec.encode(targets)
    cols = np.searchsorted(keys, target_keys)
    kept = keys[np.minimum(cols, n - 1)] == target_keys
    rows = np.tile(np.arange(n), k)[kept]
    Q = sp.coo_matrix(((N * r.T).ravel()[kept], (rows, cols[kept])), shape=(n, n)).tocsr()
    return (Q - sp.diags(np.asarray(Q.sum(axis=1)).ravel())).tocsr()


def build_restricted_generator(m, N, cert, delta, cap=STATE_CAP):
    """States of the ball B_M(N c, N delta) and the generator of the chain
    held in it (``build_generator``)."""
    states = enumerate_ball(N, cert, delta, cap=cap)
    if not len(states):
        raise DomainError("no lattice state inside the restriction ball")
    out = ~m.domain._inside(states / N)
    if out.any():
        state = states[out][0].tolist()
        raise DomainError(f"restriction ball leaves the domain at {state}; shrink delta")
    return states, build_generator(m, N, states)


def _pi_direct(Q):
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = Q.shape[0]
    # pi Q = 0 with its first equation replaced by sum(pi) = 1
    A = sp.vstack([sp.csr_matrix(np.ones((1, n))), Q.T.tocsr()[1:]], format="csr")
    b = np.zeros(n)
    b[0] = 1.0
    pi = spla.spsolve(A, b)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _closed_classes(Q):
    """Number of closed communicating classes of the chain with generator Q:
    strongly connected components of its positive-rate graph that no
    positive rate leaves (Tarjan 1972)."""
    import scipy.sparse.csgraph as csgraph

    G = (Q > 0).tocoo()
    n_scc, label = csgraph.connected_components(G, directed=True, connection="strong")
    leaving = label[G.row] != label[G.col]
    return n_scc - len(np.unique(label[G.row[leaving]]))


def _pi_power(Q, pi0=None):
    import scipy.sparse as sp

    n = Q.shape[0]
    diag = -Q.diagonal()
    lam = float(diag.max())
    if lam <= 0:
        pi = np.zeros(n)
        pi[0] = 1.0
        return pi
    lam *= 1.0 + 1e-6  # strictly positive self-loops keep the kernel aperiodic
    # the kernel P = I + Q/lam, transposed once: each step is pi P = P^T pi
    PT = (sp.eye(n, format="csr") + Q / lam).T.tocsr()
    pi = np.full(n, 1.0 / n) if pi0 is None else pi0 / pi0.sum()
    # aim at a step residual far below what the callers need; after 40 checks
    # in a row that come no 1% below the best, accept the floating-point floor
    # or raise with the residuals of that streak
    target = min(0.05e-9 / lam, 1e-12)
    best = math.inf
    stall = 0
    for it in range(POWER_MAX_ITERS):
        new = PT @ pi
        s = new.sum()
        new /= s
        if it % 16 == 0:
            resid = float(np.abs(new - pi).sum())
            if resid <= target:
                return new
            if resid >= best * 0.99:
                if stall == 0:
                    first = resid
                stall += 1
                if stall >= 40:
                    if best <= 1e-8:  # converged to the floating-point floor
                        return new
                    raise ConvergenceError(
                        f"power iteration stopped after {it + 1} iterations: the step residual "
                        f"went from {first:.3g} to {resid:.3g} over 40 checks 16 iterations apart, "
                        f"none 1% below the best before it (uniformization rate {lam:.6g})"
                    )
            else:
                stall = 0
            best = min(best, resid)
        pi = new
    raise ConvergenceError(f"power iteration hit max_iters={POWER_MAX_ITERS}")


def stationary_exact(m, N, cert, delta, cap=STATE_CAP, method="power"):
    """Stationary law of the restricted chain, solved on the enumerated ball.

    Power iteration on the uniformized kernel P = I + Q/Lambda is the
    primary route, warm-started from the discrete-normal weights; a sparse
    direct solve cross-checks it (TV <= 1e-8) when the ball holds at most
    5000 states.
    """
    states, Q = build_restricted_generator(m, N, cert, delta, cap=cap)
    closed = _closed_classes(Q)
    if closed > 1:
        raise ConvergenceError(
            f"the restricted chain has {closed} closed communicating classes, "
            "so its stationary law is not unique"
        )
    if method == "direct":
        pi = _pi_direct(Q)
    else:
        try:
            Sigma = solve_lyapunov_sigma(cert.A, equilibrium_sigma2(m, cert.c))
            pi0 = _normal_weights(states, N, cert.c, Sigma)
        except (DdjumpError, np.linalg.LinAlgError):
            pi0 = None
        pi = _pi_power(Q, pi0=pi0)
        if Q.shape[0] <= 5000:
            ref = _pi_direct(Q)
            tv = 0.5 * float(np.abs(pi - ref).sum())
            if tv > 1e-8:
                raise ConvergenceError(
                    f"power-iteration and direct solves disagree: TV = {tv:.3g}"
                )
    return LatticeDistribution(states, pi / pi.sum())


def stationary_empirical(m, N, cert, delta, samples, seed):
    """Sampled estimate of the restricted stationary law.

    ``OCCUPATION_REPS`` paths of the chain restricted to B_M(N c, N delta),
    each on its own (seed, r, PATH) stream, start at the lattice point
    nearest N c and burn in for ``BURNIN_RELAXATIONS`` relaxation times
    1/rho_hat of the linearised drift.  Each then records its state every
    1/lambda, lambda = N sum_J r_J(c) being the event rate at the centre
    (all at the burn-in time when lambda is 0); the estimate is the
    empirical law of the first ``samples`` records, in time order.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if m.domain.m_distance_to_boundary(cert.c, cert.M) < delta:
        raise DomainError("restriction ball leaves the domain; shrink delta")
    ball = cert.ball(N, delta)
    X0 = np.round(ball.center).astype(np.int64)
    if not ball.contains(X0):
        raise DomainError("no lattice state inside the restriction ball")
    per_rep = -(-samples // OCCUPATION_REPS)
    lam = N * float(eval_rates(m, cert.c).sum())
    gap = 1.0 / lam if lam > 0 else 0.0
    times = BURNIN_RELAXATIONS / cert.rho_hat + gap * np.arange(per_rep)
    out = engine.run_paths(
        m, N, X0, seed, OCCUPATION_REPS, mode=engine.RECORDS, record_times=times, restriction=ball
    )
    points = out["records"].transpose(1, 0, 2).reshape(-1, m.d)[:samples]
    return LatticeDistribution.from_points(points)


def equilibrium_sigma2(m, c):
    """Innovations matrix sum_J J J^T r_J(c); symmetric PSD by construction."""
    r = eval_rates(m, c)
    J = m.jump_array.astype(float)
    return (J.T * r) @ J


def solve_lyapunov_sigma(A, sigma2):
    """Solve A Sigma + Sigma A^T + sigma2 = 0 by dense Kronecker lifting."""
    A = np.asarray(A, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    evals = np.linalg.eigvals(A)
    if np.max(evals.real) >= 0:
        raise ConvergenceError("A is not Hurwitz")
    Sigma = _lyapunov_lift(A, -sigma2)
    resid = np.max(np.abs(A @ Sigma + Sigma @ A.T + sigma2))
    if resid > 1e-10:
        raise ConvergenceError(f"Lyapunov residual {resid:.3g} exceeds 1e-10")
    return Sigma


def _normal_weights(X, N, c, Sigma):
    """Unnormalized N(Nc, N Sigma) density at ``X``; the form is capped at 1400, so none is 0."""
    W = X.astype(float) - N * c
    q = np.einsum("ni,ij,nj->n", W, np.linalg.inv(N * Sigma), W)
    return np.exp(-0.5 * np.minimum(q, 1400.0))


def discrete_normal(N, c, Sigma):
    """Lattice Gaussian: mass(X) proportional to the N(Nc, N Sigma) density.

    The support box spans 8 standard deviations per axis, which contains the
    8-sigma principal ellipsoid.
    """
    c = np.asarray(c, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    d = len(c)
    w = np.linalg.eigvalsh(Sigma)
    if w[0] <= 0:
        raise np.linalg.LinAlgError("Sigma must be positive definite")
    mean = N * c
    half = np.ceil(8.0 * np.sqrt(np.diag(N * Sigma))).astype(int)
    lo = np.floor(mean).astype(int) - half
    hi = np.ceil(mean).astype(int) + half
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    mass = _normal_weights(grid, N, c, Sigma)
    # the "ij" scan lists the grid in canonical order (first coordinate major)
    return LatticeDistribution(grid.astype(np.int64), mass / mass.sum())


def _tv_on_keys(p_keys, p_mass, q_keys, q_mass):
    """Total variation of two laws on distinct lattice keys: half the L1
    distance on the sorted union of the keys, clipped to 1 (disjoint
    supports can add up to one ulp above it)."""
    keys = np.union1d(p_keys, q_keys)
    p, q = np.zeros((2, len(keys)))
    p[np.searchsorted(keys, p_keys)] = p_mass
    q[np.searchsorted(keys, q_keys)] = q_mass
    return min(1.0, 0.5 * float(np.abs(p - q).sum()))


def tv_distance(p, q):
    """Total variation over the union support (``_tv_on_keys``)."""
    codec = LatticeKeys(p.support, q.support)
    return _tv_on_keys(codec.encode(p.support), p.mass, codec.encode(q.support), q.mass)


def plugin_floor(states, n):
    """The plug-in TV's bias scale, ``n`` samples against a law on ``states`` points."""
    return math.sqrt(states / n)


def tail_mass(pi, cert, N, z):
    """Mass of ``pi`` outside the closed ball B_M(N c, N z)."""
    return float(pi.mass[~cert.ball(N, z).contains(pi.support)].sum())


@dataclass(frozen=True)
class CutoffProfile:
    """TV-to-quasi-equilibrium profile around the cutoff time.

    ``ci_lo`` and ``ci_hi`` bound each row's true TV(law(X(t)), pi) with
    probability at least 1 - TV_ALPHA (see ``_empirical_tv_with_ci``).  The
    interval is closed-form and conservative: its half-width is at least
    ``bias_floor / 2``, so at few reps it is wide, and says how little the
    plug-in ``tv`` resolves there.
    """

    N: int
    x0: tuple
    t_N: float
    seed: int
    reps: int
    s: np.ndarray
    t: np.ndarray
    tv: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    bias_floor: float

    def rows(self):
        for k in range(len(self.s)):
            yield (
                float(self.s[k]),
                float(self.t[k]),
                float(self.tv[k]),
                float(self.ci_lo[k]),
                float(self.ci_hi[k]),
            )


def _empirical_tv_with_ci(points, pi):
    """Plug-in TV of the sample ``points`` (n rows, drawn i.i.d. from an
    unknown law p) against ``pi``, and an interval that holds TV(p, pi) with
    probability at least 1 - TV_ALPHA.

    The interval is tv -+ w, clipped to [0, 1], with
    w = 1/2 sqrt(|supp pi| / n) + p_off + 2 sqrt(ln(2 / TV_ALPHA) / (2 n)),
    p_off the fraction of the sample off pi's support S.  Why it holds:
    |TV(p_hat, pi) - TV(p, pi)| <= TV(p_hat, p) by the triangle inequality;
    E TV(p_hat, p) <= 1/2 sqrt(|S| / n) + p(S^c) by Cauchy-Schwarz over S;
    one sample moves TV(p_hat, p) by at most 1/n, so it exceeds its mean by
    the last term's half with probability at most TV_ALPHA / 2 (McDiarmid
    1989), and p(S^c) exceeds p_off by the same amount with probability at
    most TV_ALPHA / 2 (Hoeffding 1963).
    """
    n = len(points)
    codec = LatticeKeys(points, pi.support)
    sample_keys, counts = np.unique(codec.encode(points), return_counts=True)
    pi_keys = codec.encode(pi.support)
    tv = _tv_on_keys(sample_keys, counts / n, pi_keys, pi.mass)
    p_off = int(counts[~np.isin(sample_keys, pi_keys)].sum()) / n
    dev = math.sqrt(math.log(2 / TV_ALPHA) / (2 * n))
    w = 0.5 * plugin_floor(len(pi), n) + p_off + 2 * dev
    return tv, (max(0.0, tv - w), min(1.0, tv + w))


def cutoff_profile(
    m,
    cert,
    N,
    x0,
    s_grid,
    reps,
    delta,
    pi,
    seed,
    workers=1,
    n_boot=1000,
):
    """TV between the law of the free chain at t_N(x0)+s and ``pi``.

    One batch of paths serves every s (each row's marginal is exact; rows
    share replicates), simulated over ``workers`` processes.  Each row
    carries the plug-in TV, a closed-form interval for the true TV at level
    1 - TV_ALPHA (see ``_empirical_tv_with_ci``) and the sampling-bias floor
    sqrt(|support(pi)| / reps).  The rows are scored in this process; a row
    depends only on its own records.

    ``delta`` and ``n_boot`` are not read: the restriction radius is carried
    by ``pi``, and no row is resampled.  They are accepted so that existing
    callers keep working.
    """
    x0 = np.asarray(x0, dtype=float)
    s_grid = np.asarray(sorted(float(s) for s in s_grid))
    if not len(s_grid):
        raise ValueError("the s-grid is empty")
    t_N = cutoff_time(m, cert, x0, N)
    times = np.maximum(t_N + s_grid, 0.0)
    uniq, col = np.unique(times, return_inverse=True)
    X0 = np.round(N * x0).astype(np.int64)
    out = engine.run_paths(m, N, X0, seed, reps, workers=workers, mode=engine.RECORDS, record_times=uniq)
    tvs, cis = zip(*(_empirical_tv_with_ci(out["records"][:, k], pi) for k in col))
    clo, chi = np.array(cis).T
    return CutoffProfile(
        N=N,
        x0=tuple(float(v) for v in x0),
        t_N=t_N,
        seed=seed,
        reps=reps,
        s=s_grid,
        t=times,
        tv=np.array(tvs),
        ci_lo=clo,
        ci_hi=chi,
        bias_floor=plugin_floor(len(pi), reps),
    )


def transition_width(profile, hi=0.9, lo=None):
    """s-width of the TV transition from ``hi`` down to ``lo``.

    ``lo`` defaults to bias_floor + 0.1.  Crossings are linearly
    interpolated; returns (s_hi, s_lo, width), nan-filled when the profile
    does not bracket a threshold.
    """
    if lo is None:
        lo = profile.bias_floor + 0.1
    s = profile.s
    tv = profile.tv

    def cross(level):
        above = tv >= level
        if above.all() or not above.any():
            return math.nan
        k = int(np.flatnonzero(above)[-1])
        if k + 1 >= len(s):
            return math.nan
        t0, t1 = tv[k], tv[k + 1]
        if t0 == t1:
            return float(s[k])
        frac = (t0 - level) / (t0 - t1)
        return float(s[k] + frac * (s[k + 1] - s[k]))

    s_hi = cross(hi)
    s_lo = cross(lo)
    width = s_lo - s_hi if not (math.isnan(s_hi) or math.isnan(s_lo)) else math.nan
    return s_hi, s_lo, width


def _flow_at_times(m, y0, times, h):
    """RK4 states at exact times (whole steps of h plus one partial step)."""
    F = _drift(m)
    out = np.empty((len(times), len(y0)))
    y = np.asarray(y0, dtype=float)
    t = 0.0
    for k, T in enumerate(times):
        span = T - t
        n = int(math.floor(span / h))
        y = _rk4_flow(F, y, h, n, every=max(1, n))[1][-1]
        rem = span - n * h
        if rem > 1e-15:
            y = _rk4_step(F, y, rem)
        t = T
        out[k] = y
    return out


@dataclass(frozen=True)
class MeanDriftReport:
    N: int
    reps: int
    times: np.ndarray
    stat: np.ndarray  # sqrt(N) ||mean x(t) - y(t)||_M per time
    stat_max: float
    se: np.ndarray  # Monte Carlo scale of each statistic


def mean_drift_check(m, cert, N, y0, times, reps, seed, workers=1):
    """sqrt(N) max_t || mean(X(t)/N) - y(t) ||_M with y the drift flow from
    the realized lattice start X0/N."""
    times = tuple(float(t) for t in times)
    X0 = np.round(N * np.asarray(y0, dtype=float)).astype(np.int64)
    out = engine.run_paths(m, N, X0, seed, reps, workers=workers, mode=engine.RECORDS, record_times=times)
    flow = _flow_at_times(m, X0.astype(float) / N, times, default_step(cert.rho_hat))
    stat = np.empty(len(times))
    se = np.empty(len(times))
    for k in range(len(times)):
        xs = out["records"][:, k, :].astype(float) / N
        mean_x = xs.mean(axis=0)
        stat[k] = math.sqrt(N) * cert.m_norm(mean_x - flow[k])
        C = np.cov(xs.T) if reps > 1 else np.zeros((m.d, m.d))
        se[k] = math.sqrt(max(N * float(np.trace(cert.M @ np.atleast_2d(C))) / reps, 0.0))
    return MeanDriftReport(
        N=N, reps=reps, times=np.array(times), stat=stat, stat_max=float(stat.max()), se=se
    )


@dataclass(frozen=True)
class VarianceReport:
    N: int
    reps: int
    t: float
    direction: tuple
    var: float
    lipschitz: float
    normalized: float  # Var / (N L^2)


def variance_check(m, cert, N, X0, t, reps, direction, seed, workers=1):
    """Variance of <direction, X(t)> and its concentration-normalized ratio.

    A linear f(X) = <u, X> has M-Lipschitz constant |u| / c0, so the bound
    shape is Var <= N v L^2 with L = |direction| / c0.
    """
    direction = np.asarray(direction, dtype=float)
    out = engine.run_paths(m, N, X0, seed, reps, workers=workers, mode=engine.RECORDS, record_times=(t,))
    v = out["records"][:, 0, :].astype(float) @ direction
    var = float(v.var(ddof=1))
    L = float(np.linalg.norm(direction)) / cert.c0
    return VarianceReport(
        N=N,
        reps=reps,
        t=t,
        direction=tuple(float(x) for x in direction),
        var=var,
        lipschitz=L,
        normalized=var / (N * L**2),
    )
