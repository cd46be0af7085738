"""Quasi-equilibrium of the ball-restricted chain, discrete-normal
comparison, total variation, and the cutoff-profile experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from . import engine, rng as _rng
from .dist import LatticeDistribution, LatticeKeys, canonical_order
from .dynamics import _drift, _rk4_flow, _rk4_step, cutoff_time, default_step
from .errors import CapExceededError, ConvergenceError, DdjumpError, DomainError
from .simulate import sample_states

STATE_CAP = 200_000


def enumerate_ball(N, cert, delta, cap=STATE_CAP):
    """All lattice points X with ||X - N c||_M <= N delta.

    Bounding-box scan with half-width N delta / c0 (norm equivalence), then
    exact quadratic-form filter.  Errors out when the expected state count
    (ellipsoid volume) exceeds ``cap``.
    """
    d = len(cert.c)
    radius = N * delta
    expected = (
        math.pi ** (d / 2.0)
        / math.gamma(d / 2.0 + 1.0)
        * radius**d
        / math.sqrt(np.linalg.det(cert.M))
    )
    if expected > cap:
        raise CapExceededError(f"expected {expected:.3g} states exceeds cap {cap}")
    center = N * cert.c
    hw = int(math.ceil(radius / cert.c0))
    axes = [
        np.arange(int(math.floor(center[i])) - hw, int(math.ceil(center[i])) + hw + 1)
        for i in range(d)
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    W = grid.astype(float) - center
    q = np.einsum("ni,ij,nj->n", W, cert.M, W)
    states = grid[q <= radius**2]
    if len(states) > cap:
        raise CapExceededError(f"{len(states)} states exceeds cap {cap}")
    return states[canonical_order(states)].astype(np.int64)


def build_restricted_generator(m, N, cert, delta, cap=STATE_CAP):
    """States of the ball and the sparse generator Q with out-of-ball
    transitions deleted.  Rates are evaluated at X/N and must be valid there."""
    states = enumerate_ball(N, cert, delta, cap=cap)
    n = len(states)
    for i in range(m.d):
        lo, hi = states[:, i].min() / N, states[:, i].max() / N
        if lo < m.domain.lower[i] or hi > m.domain.upper[i]:
            raise DomainError(
                f"restriction ball leaves the domain along axis {i + 1}; shrink delta"
            )
    rates_fn = engine.compile_rates(m)
    r = rates_fn(states.astype(float) / N)
    engine._validate_rates(r, states, N)
    rows, targets, vals = [], [], []
    for k, J in enumerate(m.jump_array):
        W = (states + J).astype(float) - N * cert.c
        q = np.einsum("ni,ij,nj->n", W, cert.M, W)
        ok = np.flatnonzero(q <= (N * delta) ** 2)
        rows.append(ok)
        targets.append(states[ok] + J)
        vals.append(N * r[ok, k])
    codec = LatticeKeys(states, *targets)
    keys = codec.encode(states)  # ascending: the states are in canonical order
    target_keys = codec.encode(np.concatenate(targets))
    cols = np.searchsorted(keys, target_keys)
    if not np.array_equal(keys[np.minimum(cols, n - 1)], target_keys):
        raise DdjumpError("a transition target inside the ball is missing from its enumeration")
    Q = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), cols)), shape=(n, n)
    ).tocsr()
    diag = np.asarray(Q.sum(axis=1)).ravel()
    Q = Q - sp.diags(diag)
    return states, Q.tocsr()


def _pi_direct(Q):
    n = Q.shape[0]
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(n)
    b[0] = 1.0
    pi = spla.spsolve(A.tocsr(), b)
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _closed_classes(Q):
    """Number of closed communicating classes of the chain with generator Q:
    strongly connected components of its positive-rate graph that no
    positive rate leaves (Tarjan 1972)."""
    G = (Q > 0).tocoo()
    n_scc, label = csgraph.connected_components(G, directed=True, connection="strong")
    leaving = label[G.row] != label[G.col]
    return n_scc - len(np.unique(label[G.row[leaving]]))


def _pi_power(Q, tol, max_iters, pi0=None):
    n = Q.shape[0]
    closed = _closed_classes(Q)
    if closed > 1:
        raise ConvergenceError(
            f"the restricted chain has {closed} closed communicating classes, "
            "so its stationary law is not unique"
        )
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
    # aim well below the requested tolerance; the stall branch accepts the
    # floating-point floor when the target is unreachable
    target = min(tol, 0.05e-9 / lam, 1e-12)
    best = math.inf
    stall = 0
    for it in range(max_iters):
        new = PT @ pi
        s = new.sum()
        new /= s
        if it % 16 == 0:
            resid = float(np.abs(new - pi).sum())
            if resid <= target:
                return new
            if resid >= best * 0.99:
                stall += 1
                if stall >= 40:
                    if best <= 1e-8:  # converged to the floating-point floor
                        return new
                    raise ConvergenceError(
                        f"power iteration stalled at residual {resid:.3g} after {it + 1} "
                        "iterations; the restricted chain has one closed class, so its "
                        "stationary law is unique"
                    )
            else:
                stall = 0
            best = min(best, resid)
        pi = new
    raise ConvergenceError(f"power iteration hit max_iters={max_iters}")


def stationary_exact(
    m,
    N,
    cert,
    delta,
    cap=STATE_CAP,
    tol=1e-10,
    max_iters=2_000_000,
    method="power",
):
    """Stationary law of the restricted chain, solved on the enumerated ball.

    Power iteration on the uniformized kernel P = I + Q/Lambda is the
    primary route, warm-started from the discrete-normal approximation; a
    sparse direct solve cross-checks it (TV <= 1e-8) when the ball holds at
    most 5000 states.
    """
    states, Q = build_restricted_generator(m, N, cert, delta, cap=cap)
    if method == "direct":
        pi = _pi_direct(Q)
    else:
        try:
            Sigma = solve_lyapunov_sigma(cert.A, equilibrium_sigma2(m, cert.c))
            W = states.astype(float) - N * cert.c
            qf = np.einsum("ni,ij,nj->n", W, np.linalg.inv(N * Sigma), W)
            pi0 = np.exp(-0.5 * np.minimum(qf, 700.0))
        except (DdjumpError, np.linalg.LinAlgError):
            pi0 = None
        pi = _pi_power(Q, tol, max_iters, pi0=pi0)
        if Q.shape[0] <= 5000:
            ref = _pi_direct(Q)
            tv = 0.5 * float(np.abs(pi - ref).sum())
            if tv > 1e-8:
                raise ConvergenceError(
                    f"power-iteration and direct solves disagree: TV = {tv:.3g}"
                )
    return LatticeDistribution(states, pi / pi.sum())


def stationary_empirical(m, N, cert, delta, burnin, samples, seed):
    """Occupation-time estimate of the restricted stationary law.

    Single long path of the restricted chain started at the lattice point
    nearest N c; after ``burnin`` jump events, each of the ``samples``
    subsequent visits adds its expected holding time 1/q(x) to the visited
    state (time-weighted occupation).
    """
    if burnin < 0 or samples < 1:
        raise ValueError("need burnin >= 0 and samples >= 1")
    center = N * cert.c
    radius = N * delta
    X = tuple(int(v) for v in np.round(center))
    if cert.m_norm(np.array(X) - center) > radius:
        raise DomainError("no lattice state inside the restriction ball")
    rates_fn = engine.compile_rates(m)
    jumps = [tuple(int(v) for v in J) for J in m.jumps]
    M = cert.M

    cache = {}

    def row(x):
        entry = cache.get(x)
        if entry is None:
            y = np.array(x, dtype=float) / N
            if not m.domain.contains(y):
                raise DomainError(f"state {x} outside domain; shrink delta")
            r = rates_fn(y)
            engine._validate_rates(r[None, :], np.array([x]), N)
            targets = []
            vals = []
            for J, rj in zip(jumps, r):
                if rj <= 0:
                    continue
                tgt = tuple(a + b for a, b in zip(x, J))
                w = np.array(tgt, dtype=float) - center
                if w @ M @ w <= radius**2:
                    targets.append(tgt)
                    vals.append(N * rj)
            if targets:
                cum = np.cumsum(vals)
                entry = (targets, cum, float(cum[-1]))
            else:
                entry = ((), None, 0.0)
            cache[x] = entry
        return entry

    ub = _rng.UniformBlocks(seed, 0, _rng.OCCUPATION)
    occ = {}
    for step in range(burnin + samples):
        targets, cum, total = row(X)
        if total <= 0.0:
            # absorbing: all remaining weight sits here
            occ = {X: 1.0}
            break
        if step >= burnin:
            occ[X] = occ.get(X, 0.0) + 1.0 / total
        u = ub.next()
        j = int(np.searchsorted(cum, u * total))
        X = targets[min(j, len(targets) - 1)]
    pts = np.array(sorted(occ), dtype=np.int64)
    w = np.array([occ[tuple(p)] for p in pts])
    return LatticeDistribution.from_points(pts, weights=w)


def equilibrium_sigma2(m, c):
    """Innovations matrix sum_J J J^T r_J(c); symmetric PSD by construction."""
    from .model import eval_rates

    r = eval_rates(m, c)
    J = m.jump_array.astype(float)
    return (J.T * r) @ J


def solve_lyapunov_sigma(A, sigma2):
    """Solve A Sigma + Sigma A^T + sigma2 = 0 by dense Kronecker lifting."""
    A = np.asarray(A, dtype=float)
    sigma2 = np.asarray(sigma2, dtype=float)
    d = A.shape[0]
    evals = np.linalg.eigvals(A)
    if np.max(evals.real) >= 0:
        raise ConvergenceError("A is not Hurwitz")
    eye = np.eye(d)
    lifted = np.kron(eye, A) + np.kron(A, eye)
    vec = np.linalg.solve(lifted, (-sigma2).flatten(order="F"))
    Sigma = vec.reshape((d, d), order="F")
    Sigma = 0.5 * (Sigma + Sigma.T)
    resid = np.max(np.abs(A @ Sigma + Sigma @ A.T + sigma2))
    if resid > 1e-10:
        raise ConvergenceError(f"Lyapunov residual {resid:.3g} exceeds 1e-10")
    return Sigma


def discrete_normal(N, c, Sigma, support_box=None):
    """Lattice Gaussian: mass(X) proportional to the N(Nc, N Sigma) density.

    The default box spans 8 standard deviations per axis, which contains the
    8-sigma principal ellipsoid.
    """
    c = np.asarray(c, dtype=float)
    Sigma = np.asarray(Sigma, dtype=float)
    d = len(c)
    w = np.linalg.eigvalsh(Sigma)
    if w[0] <= 0:
        raise np.linalg.LinAlgError("Sigma must be positive definite")
    mean = N * c
    cov = N * Sigma
    if support_box is None:
        half = np.ceil(8.0 * np.sqrt(np.diag(cov))).astype(int)
        lo = np.floor(mean).astype(int) - half
        hi = np.ceil(mean).astype(int) + half
    else:
        lo = np.asarray(support_box[0], dtype=int)
        hi = np.asarray(support_box[1], dtype=int)
    axes = [np.arange(lo[i], hi[i] + 1) for i in range(d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    W = grid.astype(float) - mean
    q = np.einsum("ni,ij,nj->n", W, np.linalg.inv(cov), W)
    mass = np.exp(-0.5 * np.minimum(q, 1400.0))
    keep = mass > 0.0
    grid, mass = grid[keep], mass[keep]
    mass = mass / mass.sum()
    order = canonical_order(grid)
    return LatticeDistribution(grid[order].astype(np.int64), mass[order])


def tv_distance(p, q):
    """Total variation: half the L1 distance over the union support, with
    both laws laid out on the sorted lattice keys of that support."""
    codec = LatticeKeys(p.support, q.support)
    p_keys, q_keys = codec.encode(p.support), codec.encode(q.support)
    keys = np.union1d(p_keys, q_keys)
    p_mass = np.zeros(len(keys))
    p_mass[np.searchsorted(keys, p_keys)] = p.mass
    q_mass = np.zeros(len(keys))
    q_mass[np.searchsorted(keys, q_keys)] = q.mass
    return 0.5 * float(np.abs(p_mass - q_mass).sum())


def tail_mass(pi, cert, N, z):
    """Mass of ``pi`` outside the closed ball B_M(N c, N z)."""
    W = pi.support.astype(float) - N * cert.c
    g = np.sqrt(np.einsum("ni,ij,nj->n", W, cert.M, W))
    return float(pi.mass[g > N * z].sum())


@dataclass(frozen=True)
class CutoffProfile:
    """TV-to-quasi-equilibrium profile around the cutoff time."""

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


def _empirical_tv_with_ci(points, pi, reps, rng, n_boot=1000):
    """Plug-in TV of an empirical sample against ``pi`` with a multinomial
    bootstrap CI, computed on the union support.

    Each bootstrap draw is a multinomial over only the union points the
    sample hits, plus the last union point.  numpy draws a multinomial as a
    chain of binomials, one per category but the last, which takes the
    remainder; a binomial with p = 0 returns 0 without using the generator,
    and leaves the running probability total unchanged.  So the dropped
    zero-mass categories cost no random numbers, and the counts and the
    generator state after the call are those of a draw over the whole union.
    Each draw is still scored over the whole union, so that every TV sum
    runs over the same terms in the same order.
    """
    codec = LatticeKeys(points, pi.support)
    sample_keys, counts = np.unique(codec.encode(points), return_counts=True)
    pi_keys = codec.encode(pi.support)
    keys = np.union1d(sample_keys, pi_keys)
    hit = np.searchsorted(keys, sample_keys)
    p_hat = np.zeros(len(keys))
    p_hat[hit] = counts / len(points)
    p_ref = np.zeros(len(keys))
    p_ref[np.searchsorted(keys, pi_keys)] = pi.mass
    tv = 0.5 * float(np.abs(p_hat - p_ref).sum())
    if n_boot <= 0:
        return tv, (tv, tv)
    cats = hit if hit[-1] == len(keys) - 1 else np.append(hit, len(keys) - 1)
    p_cat, ref_cat = p_hat[cats], p_ref[cats]
    absent = np.abs(0.0 - p_ref)  # the score terms of categories a draw leaves empty
    chunk = max(1, min(n_boot, 2**20 // len(keys)))
    block = np.empty((chunk, len(keys)))
    tvs = np.empty(n_boot)
    for done in range(0, n_boot, chunk):
        b = min(chunk, n_boot - done)
        rows = block[:b]
        rows[:] = absent
        rows[:, cats] = np.abs(rng.multinomial(reps, p_cat, size=b) / reps - ref_cat)
        tvs[done : done + b] = 0.5 * rows.sum(axis=1)
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return tv, (float(lo), float(hi))


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
    share replicates).  Rows carry bootstrap CIs and the sampling-bias floor
    sqrt(|support(pi)| / reps).
    """
    x0 = np.asarray(x0, dtype=float)
    s_grid = np.asarray(sorted(float(s) for s in s_grid))
    t_N = cutoff_time(m, cert, x0, N)
    times = np.maximum(t_N + s_grid, 0.0)
    uniq = sorted(set(times.tolist()))
    from .simulate import SimOptions

    opts = SimOptions(N=N, seed=seed, horizon=uniq[-1] + 1.0, record=tuple(uniq))
    X0 = np.round(N * x0).astype(np.int64)
    rec = sample_states(m, opts, X0, tuple(uniq), reps, workers=workers)
    pos = {t: k for k, t in enumerate(uniq)}
    rng = _rng.substream(seed, 0, _rng.BOOTSTRAP)
    tvs = np.empty(len(s_grid))
    clo = np.empty(len(s_grid))
    chi = np.empty(len(s_grid))
    for k, t in enumerate(times):
        pts = rec[:, pos[t], :]
        tv, (lo, hi) = _empirical_tv_with_ci(pts, pi, reps, rng, n_boot=n_boot)
        tvs[k], clo[k], chi[k] = tv, lo, hi
    return CutoffProfile(
        N=N,
        x0=tuple(float(v) for v in x0),
        t_N=t_N,
        seed=seed,
        reps=reps,
        s=s_grid,
        t=times,
        tv=tvs,
        ci_lo=clo,
        ci_hi=chi,
        bias_floor=math.sqrt(len(pi) / reps),
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


def mean_drift_check(m, cert, N, y0, times, reps, seed, workers=1, delta=None):
    """sqrt(N) max_t || mean(X(t)/N) - y(t) ||_M with y the drift flow from
    the realized lattice start X0/N."""
    from .simulate import SimOptions

    times = tuple(float(t) for t in times)
    X0 = np.round(N * np.asarray(y0, dtype=float)).astype(np.int64)
    restriction = None if delta is None else (cert, delta)
    opts = SimOptions(
        N=N, seed=seed, horizon=max(times) + 1.0, record=times, restriction=restriction
    )
    rec = sample_states(m, opts, X0, times, reps, workers=workers)
    flow = _flow_at_times(m, X0.astype(float) / N, times, default_step(cert.rho_hat))
    stat = np.empty(len(times))
    se = np.empty(len(times))
    for k in range(len(times)):
        xs = rec[:, k, :].astype(float) / N
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


def variance_check(m, cert, N, X0, t, reps, direction, seed, workers=1, delta=None):
    """Variance of <direction, X(t)> and its concentration-normalized ratio.

    A linear f(X) = <u, X> has M-Lipschitz constant |u| / c0, so the bound
    shape is Var <= N v L^2 with L = |direction| / c0.
    """
    from .simulate import SimOptions

    direction = np.asarray(direction, dtype=float)
    restriction = None if delta is None else (cert, delta)
    opts = SimOptions(N=N, seed=seed, horizon=t + 1.0, record=(t,), restriction=restriction)
    rec = sample_states(m, opts, np.asarray(X0, dtype=np.int64), (t,), reps, workers=workers)
    v = rec[:, 0, :].astype(float) @ direction
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
