"""Exact stochastic simulation: free/restricted paths, the two-phase
coupling, and the martingale / exit-time deviation experiments.

The coupled pairs run one loop per model, generated as Python source on the
model's first coupled use: the coordinates and jumps are unrolled, the rates
are the kernel's source expressions inlined, and every quantity is a Python
int or float.  Batching pairs in numpy pays only at hundreds of pairs per
batch, far above the chunks the ensembles use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine, rng as _rng
from .dist import LatticeDistribution
from .dynamics import _drift_slack, _lattice_rates, _m_directions, _sample_ball, _slack_threshold
from .dynamics import integrate_ode, m_sphere_map
from .engine import _draw_ball_points, enumerate_ball
from .errors import CapExceededError, DomainError, SimulationError
from .lattice import classify_jumps
from .model import eval_jacobian

CONTRACTIVE = "contractive"
INDEPENDENT = "independent"
COALESCED = "coalesced"

_PHASE_CODE = {CONTRACTIVE: 0, INDEPENDENT: 1, COALESCED: 2}

K2_CAP_FACTOR = 16.0  # estimate_K2 is at most this many JstarM
# estimate_K2 scores every pair of a ball of at most this many lattice points
# (523,776 pairs at the cap) and samples pairs of a larger one
K2_EXACT_POINTS = 1024
K2_PAIR_BLOCK = 65536  # estimate_K2 scores this many pairs at a time
BALL_SUP_SAMPLES, BALL_SUP_SEED = 512, 1  # points of B_M(c, delta0) the exit bound's sups see
SUP_RATE_MESH = 9  # grid points per axis of the box the martingale bound's rate sup sees
DRIFT_BOX_MARGIN = 0.25  # the compact set K reaches this far past the drift path, per span


@dataclass(frozen=True)
class SimOptions:
    """Simulation options; immutable and shareable across workers.

    ``restriction`` is an optional (certificate, delta) pair switching off
    every jump that would leave B_M(N c, N delta); delta must not exceed the
    certified radius delta0.
    """

    N: int
    seed: int
    horizon: float
    restriction: tuple = None  # (StabilityCertificate, delta)
    record: tuple = ()

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        rec = tuple(float(t) for t in self.record)
        if any(b < a for a, b in zip(rec, rec[1:])):
            raise ValueError("record times must be sorted")
        if rec and (rec[0] < 0 or rec[-1] > self.horizon or not all(map(math.isfinite, rec))):
            raise ValueError("record times must be finite and lie within [0, horizon]")
        object.__setattr__(self, "record", rec)
        if self.restriction is not None:
            cert, delta = self.restriction
            if not (0 < delta <= cert.delta0):
                raise ValueError(
                    f"restriction delta {delta} must lie in (0, delta0={cert.delta0:.6g}]"
                )

    def engine_restriction(self):
        if self.restriction is None:
            return None
        cert, delta = self.restriction
        return cert.ball(self.N, delta)


@dataclass(frozen=True)
class Trajectory:
    """One SSA path: every event plus the states at the requested record times."""

    times: np.ndarray  # event times, starting at 0
    states: np.ndarray  # (n_events+1, d) int64
    record_times: tuple
    recorded: np.ndarray  # (n_record, d) int64
    absorbed: bool


def _check_start(m, opts, X0):
    X0 = np.asarray(X0, dtype=np.int64)
    if X0.shape != (m.d,):
        raise ValueError(f"X0 has shape {X0.shape}, expected ({m.d},)")
    if not m.domain.contains(X0 / opts.N):
        raise DomainError(f"start {X0.tolist()} outside domain at N={opts.N}")
    restr = opts.engine_restriction()
    if restr is not None and not restr.contains(X0):
        raise DomainError(f"start {X0.tolist()} outside the restriction ball")
    return X0


def simulate_path(m, opts, X0, replicate=0):
    """Exact Gillespie path, deterministic given (seed, replicate, X0, opts).

    Replicate ``replicate`` of the engine's ``events`` mode: two uniforms
    per event (waiting time, jump pick) from the stream (seed, replicate,
    PATH).  A state with zero total rate is held to the horizon and flagged
    absorbed.
    """
    X0 = _check_start(m, opts, X0)
    out = engine.simulate_chunk(
        m, opts.N, X0, opts.seed, rep_lo=replicate, rep_hi=replicate + 1, mode=engine.EVENTS,
        record_times=opts.record, horizon=opts.horizon, restriction=opts.engine_restriction(),
    )
    return Trajectory(
        times=np.concatenate([[0.0], out["event_t"]]),
        states=np.concatenate([X0[None, :], out["event_X"]]),
        record_times=opts.record,
        recorded=out["records"][0],
        absorbed=bool(out["absorbed"][0]),
    )


def sample_states(m, opts, X0, reps, workers=1):
    """States of ``reps`` independent replicates at each of the record times
    ``opts.record``, (reps, n_t, d).

    Replicate r uses the stream (seed, r, PATH); outputs are independent of
    worker count and chunking.
    """
    X0 = _check_start(m, opts, X0)
    out = engine.run_paths(
        m,
        opts.N,
        X0,
        opts.seed,
        reps,
        workers=workers,
        mode=engine.RECORDS,
        record_times=opts.record,
        restriction=opts.engine_restriction(),
    )
    return out["records"]


def sample_at(m, opts, X0, t, reps, workers=1):
    """Empirical law of X(t) from ``reps`` replicates."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rec = sample_states(m, replace(opts, record=(t,)), X0, reps, workers=workers)
    return LatticeDistribution.from_points(rec[:, 0, :])


# ---------------------------------------------------------------------------
# Two-phase Markovian coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledTrace:
    """H(t) = ||U(t)-V(t)||_M along one coupled pair, with phase markers."""

    record_times: tuple
    H: np.ndarray
    phases: np.ndarray  # int8 codes 0/1/2 at record times
    coalesce_time: float  # inf when the pair never coalesced
    K3: float
    nuK3: float
    U: np.ndarray = None  # optional (n_rec, d) states
    V: np.ndarray = None


def _pair_slack(m, cert, ball, N, pts, i, j):
    """H = ||U - V||_M and the slack A H + rho H of the exact coupling
    generator, for the pairs U = pts[i], V = pts[j].

    Jump J moves the pair by +J at rate N (r_J(U) - r_J(V)) when r_J(U) >=
    r_J(V), and by -J at rate N (r_J(V) - r_J(U)) otherwise: ``_drift_slack``
    with the rate differences.  The slack is symmetric in U and V.  The
    pairs are scored K2_PAIR_BLOCK at a time, which bounds the memory of a
    large ball; each pair's values do not depend on the blocks.
    """
    R = _lattice_rates(m, pts, N)
    H, slack = np.empty(len(i)), np.empty(len(i))
    for lo in range(0, len(i), K2_PAIR_BLOCK):
        b = slice(lo, lo + K2_PAIR_BLOCK)
        ib, jb = i[b], j[b]
        W = (pts[ib] - pts[jb]).astype(float).T
        H[b], slack[b] = _drift_slack(ball, m.kernel.J, W, R[ib] - R[jb], N, cert.rho)
    return H, slack


def estimate_K2(m, cert, N, samples=4000, seed=0):
    """Contractive-phase threshold over the lattice ball B_M(N c, N delta0).

    The smallest H above which the exact coupling generator satisfies
    A H <= -rho H on every scored pair of distinct in-domain ball points,
    capped at K2_CAP_FACTOR * JstarM; the cap is also the fallback when no
    threshold works or no pair exists.

    A ball of at most K2_EXACT_POINTS lattice points has every unordered pair
    scored, so the result is exact and ignores ``samples`` and ``seed``.  A
    larger ball is scored on ``samples`` pairs of points drawn with ``seed``,
    uniformly from its in-domain lattice points.
    """
    ball = cert.ball(N, cert.delta0)
    try:
        pts = enumerate_ball(N, cert, cert.delta0, cap=K2_EXACT_POINTS)
        pts = pts[m.domain._inside(pts / N)]
        i, j = np.triu_indices(len(pts), k=1)
    except CapExceededError:
        pts = _draw_ball_points(m, cert, ball, N, 2 * samples, np.random.default_rng(seed))
        i, j = np.arange(0, 2 * samples, 2), np.arange(1, 2 * samples, 2)
        distinct = (pts[i] != pts[j]).any(axis=1)
        i, j = i[distinct], j[distinct]
    hs, _, k = _slack_threshold(*_pair_slack(m, cert, ball, N, pts, i, j))
    cap = K2_CAP_FACTOR * cert.JstarM
    return float(min(hs[k], cap)) if k < len(hs) else cap


def _default_k2_nu(m, cert, N, seed, k2, nu):
    """``k2`` and ``nu``, where None stands for ``estimate_K2`` at ``seed``
    and for the jump analysis's nu; nu is kept above 1."""
    if k2 is None:
        k2 = estimate_K2(m, cert, N, seed=seed)
    if nu is None:
        nu = classify_jumps(m.jumps, norm_matrix=cert.M).nu
    return k2, max(nu, 1.0 + 1e-9)


def _bad_rate(name, rates, Z):
    for v in rates:
        if not (v >= 0.0) or math.isinf(v):
            raise SimulationError(f"invalid rate {v} for chain {name} at {list(Z)}")


def _pair_loop(m):
    """The model's coupled-pair loop, generated on first use and kept on the
    model outside its fields, so it is not pickled.

    The loop runs on Python ints and floats, with the coordinates and jumps
    unrolled and the kernel's rate expressions inlined.  H and the ball
    check both take ``sum_i (sum_j (w_i M_ij) w_j)``, added left to right:
    the scalar twin of ``engine.Restriction.form``, on the targets
    ``(z + J) - center`` that ``Restriction.keeps`` forms.
    Rates that divide by zero on floats are evaluated again on numpy
    scalars; the ball then zeroes the jumps leaving it, and any inf, nan or
    negative rate left raises.  Phases are coded as in ``_PHASE_CODE``.
    """
    loop = m.__dict__.get("pair_loop")
    if loop is not None:
        return loop
    d, n = m.d, len(m.jumps)
    u, v, w, e, c, j = ([f"{p}{i}" for i in range(d)] for p in "uvwecj")
    a, b, x = ([f"{p}{k}" for k in range(n)] for p in "abx")

    def tup(names):
        return "(" + "".join(f"{s}, " for s in names) + ")"

    def ind(lines, k=1):
        return ["    " * k + s for s in lines]

    def mq(w, M):
        rows = (" + ".join(f"{w[i]} * {M}{i}_{k} * {w[k]}" for k in range(d)) for i in range(d))
        return " + ".join(f"({r})" for r in rows)

    def rates_of(z, r):  # rates at z / N into r, then the ball restriction
        lines = ["try:", *ind(f"y{i} = {z[i]} / N" for i in range(d))]
        lines += ind(f"{rk} = {src}" for rk, src in zip(r, m.kernel.rate_src))
        fallback = f"{tup(r)} = rates(*[np.float64(y / N) for y in {tup(z)}])"
        lines += ["except ZeroDivisionError:", *ind([fallback])]
        lines.append("if ball:")
        for k, J in enumerate(m.jumps):
            lines += ind(f"{e[i]} = ({z[i]} + {J[i]}) - {c[i]}" for i in range(d))
            lines += ind([f"if {mq(e, 'B')} > r2:", f"    {r[k]} = 0.0"])
        return lines

    def valid(name, z, r):
        ok = " and ".join(f"0.0 <= {rk} < inf" for rk in r)
        return [f"if not ({ok}):", f"    _bad_rate({name!r}, {tup(r)}, {tup(z)})"]

    def pick(r, body):  # body(k) for the first k whose running sum of r reaches acc
        lines = []
        for k in range(n - 1):
            run = r[0] if k == 0 else f"run + {r[k]}"
            lines += [f"{'elif' if k else 'if'} not ((run := {run}) < acc):", *ind(body(k))]
        return lines + (["else:", *ind(body(n - 1))] if n > 1 else body(0))

    def jump(k):
        return [f"{tup(j)} = {tup(m.jumps[k])}"]

    def move(z):
        return [f"{z[i]} += {j[i]}" for i in range(d)]

    def flush(t_next):
        return [
            f"while nxt < {t_next}:",
            "    Hs.append(H)",
            "    Ps.append(phase)",
            "    if trace:",
            f"        Us.append({tup(u)})",
            f"        Vs.append({tup(v)})",
            "    i += 1",
            "    nxt = rec[i] if i < len(rec) else inf",
        ]

    hnorm = [f"{w[i]} = {u[i]} - {v[i]}" for i in range(d)]
    hnorm += [f"qf = {mq(w, 'M')}", "H = sqrt(qf) if qf > 0.0 else 0.0"]
    ij = [f"{i}_{k}" for i in range(d) for k in range(d)]
    src = [
        "def pair_loop(draw, N, U, V, H, K3, nuK3, horizon, rec, trace, past, M, ball):",
        f"    {tup(u)} = U",
        f"    {tup(v)} = V",
        f"    {tup('M' + s for s in ij)} = M",
        "    if ball:",
        f"        {tup(c + ['r2'] + ['B' + s for s in ij])} = ball",
        "    phase = 2 if H == 0.0 else (1 if H <= K3 else 0)",
        "    coal = 0.0 if phase == 2 else inf",
        "    t = 0.0",
        "    Hs, Ps, Us, Vs = [], [], [], []",
        "    i = 0",
        "    nxt = rec[0] if rec else inf",
        "    while t < horizon:",
        "        if phase == 2 and not (trace or past):",
        "            break",
        *ind(rates_of(u, a) + rates_of(v, b) + valid("U", u, a) + valid("V", v, b), 2),
        "        if phase == 0:",
        *ind((f"{x[k]} = {a[k]} if {a[k]} >= {b[k]} else {b[k]}" for k in range(n)), 3),
        f"            tot = {' + '.join(x)}",
        "        elif phase == 1:",
        f"            su = {' + '.join(a)}",
        f"            tot = su + ({' + '.join(b)})",
        "        else:",
        f"            tot = {' + '.join(a)}",
        "        if tot <= 0.0:",
        "            break",
        "        t_next = t + -log(draw()) / (N * tot)",
        "        acc = draw() * tot",
        "        if phase == 0:",
        "            g3 = draw()",
        *ind(flush("t_next"), 2),
        "        if t_next >= horizon:",
        "            break",
        "        t = t_next",
        "        if phase == 0:",
        *ind(pick(x, lambda k: [f"pa, pb, px = {a[k]}, {b[k]}, {x[k]}", *jump(k)]), 3),
        "            if g3 * px < (pa if pa < pb else pb):",
        *ind(move(u) + move(v), 4),
        "            elif pa >= pb:",
        *ind(move(u) + hnorm, 4),
        "            else:",
        *ind(move(v) + hnorm, 4),
        "            if H <= K3:",
        "                phase = 2 if H == 0.0 else 1",
        "                if phase == 2 and coal == inf:",
        "                    coal = t",
        "        elif phase == 1:",
        "            if acc < su:",
        *ind(pick(a, jump) + move(u), 4),
        "            else:",
        "                acc -= su",
        *ind(pick(b, jump) + move(v), 4),
        *ind(hnorm, 3),
        "            if H == 0.0:",
        "                phase = 2",
        "                if coal == inf:",
        "                    coal = t",
        "            elif H >= nuK3:",
        "                phase = 0",
        "        else:",
        *ind(pick(a, jump) + move(u) + [f"{v[i]} = {u[i]}" for i in range(d)], 3),
        *ind(flush("inf")),
        "    return Hs, Ps, coal, Us, Vs",
    ]
    ns = {"np": np, "inf": math.inf, "nan": math.nan, "log": math.log, "sqrt": math.sqrt}
    ns.update(rates=m.kernel.rates, _bad_rate=_bad_rate)
    exec("\n".join(src), ns)  # noqa: S102 - source generated from the model's kernel
    object.__setattr__(m, "pair_loop", ns["pair_loop"])
    return ns["pair_loop"]


def simulate_coupled(
    m,
    cert,
    opts,
    U0,
    V0,
    k2=None,
    nu=None,
    replicate=0,
    trace_states=False,
    run_past_coalescence=False,
):
    """One trajectory of the two-phase coupling of a pair of copies.

    Contractive phase: each jump fires jointly at rate N min(r_J(u), r_J(v))
    and unilaterally (larger-rate chain only) at rate N |r_J(u) - r_J(v)|,
    via max-rate thinning of a single clock.  The pair enters the
    independent phase when H <= K3 = max(K2, 8 JstarM); independent copies
    run until they are equal (coalesced, identical transitions thereafter)
    or H >= nu K3 (back to contractive).  With the partner marginalized out,
    each leg is a copy of the free chain.

    Pair ``replicate`` draws from the stream (seed, replicate, COUPLED):
    three uniforms per contractive event and two otherwise.  H(0) is
    ``cert.m_norm(U0 - V0)``.
    """
    N = opts.N
    U = np.asarray(U0, dtype=np.int64)
    V = np.asarray(V0, dtype=np.int64)
    for name, Z in (("U0", U), ("V0", V)):
        if not m.domain.contains(Z / N):
            raise DomainError(f"{name} outside domain")
    restr = opts.engine_restriction()
    ball = None
    if restr is not None:
        for name, Z in (("U0", U), ("V0", V)):
            if not restr.contains(Z):
                raise DomainError(f"{name} outside the restriction ball")
        ball = (*restr.center.tolist(), restr.radius**2, *restr.M.ravel().tolist())
    k2, nu = _default_k2_nu(m, cert, N, opts.seed, k2, nu)
    K3 = max(k2, 8.0 * cert.JstarM)
    nuK3 = nu * K3

    draw = _rng.uniforms(opts.seed, replicate, _rng.COUPLED)
    H, phases, coal, Us, Vs = _pair_loop(m)(
        draw, N, U.tolist(), V.tolist(), cert.m_norm(U - V), K3, nuK3, opts.horizon,
        opts.record, trace_states, run_past_coalescence, cert.M.ravel().tolist(), ball,
    )
    shape = (len(opts.record), m.d)
    return CoupledTrace(
        record_times=opts.record,
        H=np.array(H, dtype=float),
        phases=np.array(phases, dtype=np.int8),
        coalesce_time=coal,
        K3=K3,
        nuK3=nuK3,
        U=np.array(Us, dtype=np.int64).reshape(shape) if trace_states else None,
        V=np.array(Vs, dtype=np.int64).reshape(shape) if trace_states else None,
    )


def _coupled_chunk(shared, lo, hi):
    m, cert, opts, U0, V0, k2, nu = shared
    H = np.zeros((hi - lo, len(opts.record)))
    coal = np.zeros(hi - lo)
    for i in range(lo, hi):
        tr = simulate_coupled(m, cert, opts, U0, V0, k2=k2, nu=nu, replicate=i)
        H[i - lo] = tr.H
        coal[i - lo] = tr.coalesce_time
    return H, coal


def coupled_ensemble(m, cert, opts, U0, V0, reps, k2=None, nu=None, workers=1, chunk=64):
    """H(t) samples and coalescence times over ``reps`` coupled pairs.

    Pair r is ``simulate_coupled`` at replicate r, so the results do not
    depend on ``chunk`` or ``workers``.
    """
    k2, nu = _default_k2_nu(m, cert, opts.N, opts.seed, k2, nu)
    shared = (m, cert, opts, U0, V0, k2, nu)
    parts = engine.map_chunks(_coupled_chunk, shared, reps, chunk, workers)
    H = np.concatenate([p[0] for p in parts], axis=0)
    coal = np.concatenate([p[1] for p in parts], axis=0)
    return H, coal


# ---------------------------------------------------------------------------
# Martingale deviation bound
# ---------------------------------------------------------------------------


def zeta_bound(z, N, T, d, Rstar, Jstar):
    """Closed-form tail bound for sup_t |m(t)|:
    2 d exp(-(N z / 2 d J*) min(1, z / (d e T R* J*)))."""
    z = np.asarray(z, dtype=float)
    lin = N * z / (2.0 * d * Jstar)
    denom = d * math.e * T * Rstar * Jstar
    quad = z / denom if denom > 0 else np.full_like(z, np.inf)
    return 2.0 * d * np.exp(-lin * np.minimum(1.0, quad))


def _sup_total_rate(m, box):
    """Sampled sup of sum_J r_J over an axis box (exact at the corners for
    coordinate-monotone rates)."""
    lo, hi = box
    axes = [np.linspace(lo[i], hi[i], SUP_RATE_MESH) for i in range(m.d)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m.d)
    rates_fn = engine.compile_rates(m)
    return float(rates_fn(grid).sum(axis=1).max())


def _drift_box(m, N, X0, T):
    """Compact box K around the drift path from X0/N, clipped to the domain."""
    y0 = np.asarray(X0, dtype=float) / N
    flow = integrate_ode(m, y0, T, h=min(1e-2, T / 10) if T > 0 else 1e-2)
    lo = flow.states.min(axis=0)
    hi = flow.states.max(axis=0)
    span = np.maximum(hi - lo, 1.0)
    lo = np.maximum(lo - DRIFT_BOX_MARGIN * span, m.domain.lower)
    hi = np.minimum(hi + DRIFT_BOX_MARGIN * span, m.domain.upper)
    return lo, hi


@dataclass(frozen=True)
class MartingaleReport:
    N: int
    T: int
    reps: int
    z_grid: np.ndarray
    tail: np.ndarray  # empirical P[sup |m| >= z]
    tail_lcb99: np.ndarray  # one-sided lower 99% confidence bound
    bound: np.ndarray  # zeta_{N,T,K}(z)
    violations: int  # grid points where lcb99 exceeds the bound
    mean_final: np.ndarray
    se_final: np.ndarray
    Rstar: float
    Jstar: float
    exited: int


def martingale_deviation(m, opts, X0, T, reps, z_grid, workers=1):
    """Empirical tail of sup_{t <= T ^ tau_K} |m(t)| against the closed-form
    bound, plus the componentwise mean of m(T) (zero for a martingale).
    K is the box ``_drift_box`` draws around the drift path from X0/N."""
    X0 = _check_start(m, opts, X0)
    if T > opts.horizon:
        raise ValueError("T must not exceed the horizon")
    box = _drift_box(m, opts.N, X0, T)
    Rstar = _sup_total_rate(m, box)
    Jstar = float(np.max(np.linalg.norm(m.jump_array.astype(float), axis=1)))
    out = engine.run_paths(
        m,
        opts.N,
        X0,
        opts.seed,
        reps,
        workers=workers,
        mode=engine.MARTINGALE,
        horizon=T,
        stop_box=box,
    )
    sup_m = out["sup_m"]
    final = out["final_m"]
    z_grid = np.asarray(z_grid, dtype=float)
    counts = (sup_m[None, :] >= z_grid[:, None]).sum(axis=1)
    tail = counts / reps
    from scipy.stats import beta

    lcb = np.where(counts > 0, beta.ppf(0.01, np.maximum(counts, 1), reps - np.maximum(counts, 1) + 1), 0.0)
    bound = zeta_bound(z_grid, opts.N, T, m.d, Rstar, Jstar)
    violations = int((lcb > bound).sum())
    return MartingaleReport(
        N=opts.N,
        T=T,
        reps=reps,
        z_grid=z_grid,
        tail=tail,
        tail_lcb99=lcb,
        bound=bound,
        violations=violations,
        mean_final=final.mean(axis=0),
        se_final=final.std(axis=0, ddof=1) / math.sqrt(reps),
        Rstar=Rstar,
        Jstar=Jstar,
        exited=int(out["exited"].sum()),
    )


# ---------------------------------------------------------------------------
# Exit probability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExitReport:
    N: int
    delta_prime: float
    delta: float
    T: float
    reps: int
    estimate: float
    ci95: tuple
    bound: float
    eps_prime: float
    certified: bool  # delta within the certified radius


def _ball_sup_constants(m, cert):
    """Sampled sups of sum_J r_J and |DF| over B_M(c, delta0)."""
    rng = np.random.default_rng(BALL_SUP_SEED)
    pts = _sample_ball(cert.c, m_sphere_map(cert.M), cert.delta0, BALL_SUP_SAMPLES, rng)
    pts = pts[m.domain._inside(pts)]
    rates_fn = engine.compile_rates(m)
    Rstar = float(rates_fn(pts).sum(axis=1).max())
    L = max(float(np.linalg.norm(eval_jacobian(m, p, check_domain=False), 2)) for p in pts[:128])
    return Rstar, L


def _exit_starts(start_ball, Linv_T, reps, seed):
    """``reps`` lattice starts near the sphere of ``start_ball``.

    Start i rounds the point of the sphere along the M-unit direction
    ``Linv_T @ u_i``, u_i a normalized standard normal row; a start rounded
    out of the ball is pulled in along its direction, 0.05 of the radius at
    a time.  The rows come from one normal draw on the stream
    (seed, 0, EXIT_START).
    """
    Nc, rad_p = start_ball.center, start_ball.radius
    V = _m_directions(_rng.substream(seed, 0, _rng.EXIT_START), reps, Linv_T)
    starts = np.round(Nc + rad_p * V).astype(np.int64)
    out = np.flatnonzero(~start_ball.contains(starts))
    scale = 1.0
    while out.size and scale > 0.0:
        scale -= 0.05
        starts[out] = np.round(Nc + scale * rad_p * V[out]).astype(np.int64)
        out = out[~start_ball.contains(starts[out])]
    return starts


def exit_probability(m, cert, N, delta_prime, delta, T, reps, seed, workers=1):
    """Empirical P[tau_1(delta) <= T] from lattice starts near the sphere of
    M-radius N delta_prime, reported alongside ceil(rho T) z_N(eps')."""
    if not (0 < delta_prime < delta):
        raise ValueError("need 0 < delta_prime < delta")
    d = m.d
    starts = _exit_starts(cert.ball(N, delta_prime), m_sphere_map(cert.M), reps, seed)
    if T > 0:
        out = engine.run_paths(
            m,
            N,
            starts,
            seed,
            reps,
            workers=workers,
            mode=engine.EXIT,
            horizon=T,
            exit_ball=cert.ball(N, delta),
        )
        hits = (out["exited"]) & (out["exit_time"] <= T)
        p = float(hits.mean())
    else:
        p = 0.0
    se = math.sqrt(max(p * (1 - p), 1e-12) / reps)
    ci = (max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se))

    # bound from the exit proposition, with the stated eps' case split
    c1 = cert.c1
    if delta_prime >= delta / (3.0 - 2.0 * math.exp(-1)):
        eps_prime = (delta - delta_prime) / (2.0 * c1)
    else:
        eps_prime = delta * (1.0 - math.exp(-1)) / ((3.0 - 2.0 * math.exp(-1)) * c1)
    Rstar, Lip = _ball_sup_constants(m, cert)
    Jstar = float(np.max(np.linalg.norm(m.jump_array.astype(float), axis=1)))
    z_hat = float(
        zeta_bound(
            eps_prime * math.exp(-Lip / cert.rho), N, 1.0 / cert.rho, d, Rstar, Jstar
        )
    )
    bound = math.ceil(cert.rho * T) * z_hat if T > 0 else 0.0
    return ExitReport(
        N=N,
        delta_prime=delta_prime,
        delta=delta,
        T=T,
        reps=reps,
        estimate=p,
        ci95=ci,
        bound=min(bound, 1.0) if T > 0 else 0.0,
        eps_prime=eps_prime,
        certified=delta <= cert.delta0,
    )
