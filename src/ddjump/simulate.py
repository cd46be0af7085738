"""Exact stochastic simulation: free paths (``simulate_path`` also restricted),
the two-phase coupling, and the martingale / exit-time deviation experiments.

The coupled pairs run one loop per model, generated as Python source on the
model's first coupled use: the coordinates and jumps are unrolled, the rates
are the kernel's source expressions inlined, and every quantity is a Python
int or float.  SIR at N=400 to t=5, one core: 16 pairs take 0.20-0.24 s
against 0.26-0.28 s for an engine chunk of 16 single chains, 64 pairs 0.73
against 0.31 s, 384 pairs 3.8-4.4 against 0.38-0.51 s.  The ensembles use
chunks of 16 to 64 pairs, and a batch lasts until its longest pair.

A run's horizon and record grid are checked once, by ``engine.check_times``:
``SimOptions`` calls it for the path and the coupled pairs, the engine for
every chunk.  N is checked once too, with the starts, by
``engine.check_starts``.  The martingale and exit experiments check T, and
the exit experiment its reps, before using them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine, rng as _rng
from .dist import LatticeDistribution
from .dynamics import _drift_slack, _m_directions, _sample_ball, _slack_threshold
from .dynamics import integrate_ode, m_sphere_map
from .engine import _draw_ball_points, enumerate_ball
from .errors import CapExceededError, RateError, SimulationError
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
    """Run settings of the free chain; immutable and shareable across workers.
    ``engine.check_times`` checks the horizon and the record grid here;
    N is checked by ``engine.check_starts``, which every run meets first."""

    N: int
    seed: int
    horizon: float
    record: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "record", engine.check_times(self.record, self.horizon))


@dataclass(frozen=True)
class Trajectory:
    """One SSA path: every event plus the states at the requested record times."""

    times: np.ndarray  # event times, starting at 0
    states: np.ndarray  # (n_events+1, d) int64
    record_times: tuple
    recorded: np.ndarray  # (n_record, d) int64
    absorbed: bool


def simulate_path(m, opts, X0, replicate=0, restriction=None):
    """Exact Gillespie path, deterministic given (seed, replicate, X0, opts).

    Replicate ``replicate`` of the engine's ``events`` mode: two uniforms
    per event (waiting time, jump pick) from the stream (seed, replicate,
    PATH).  A state with zero total rate is held to the horizon and flagged
    absorbed.  ``restriction``, a ball such as ``cert.ball(N, delta)``,
    switches off every jump that would leave it.  ``engine.check_start``
    checks the start: one start (d,), in the domain and in the ball.  The
    record at time s is the state after every event at or before s.
    """
    X0 = engine.check_start(m, opts.N, X0, restriction)
    out = engine.simulate_chunk(
        m, opts.N, X0, opts.seed, rep_lo=replicate, rep_hi=replicate + 1, mode=engine.EVENTS,
        horizon=opts.horizon, restriction=restriction,
    )
    times = np.concatenate([[0.0], out["event_t"]])
    states = np.concatenate([X0[None, :], out["event_X"]])
    return Trajectory(
        times=times,
        states=states,
        record_times=opts.record,
        recorded=states[np.searchsorted(times, opts.record, side="right") - 1],
        absorbed=bool(out["absorbed"][0]),
    )


def sample_states(m, opts, X0, reps, workers=1):
    """States of ``reps`` independent replicates at each of the record times
    ``opts.record``, (reps, n_t, d).

    Replicate r uses the stream (seed, r, PATH); outputs are independent of
    worker count and chunking.
    """
    out = engine.run_paths(
        m, opts.N, X0, opts.seed, reps, workers=workers, mode=engine.RECORDS, record_times=opts.record
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


def _pair_slack(m, cert, N, pts, i, j):
    """H = ||U - V||_M and the slack A H + rho H of the exact coupling
    generator, for the pairs U = pts[i], V = pts[j].

    Jump J moves the pair by +J at rate N (r_J(U) - r_J(V)) when r_J(U) >=
    r_J(V), and by -J at rate N (r_J(V) - r_J(U)) otherwise: ``_drift_slack``
    with the rate differences.  The slack is symmetric in U and V.  The
    pairs are scored K2_PAIR_BLOCK at a time, which bounds the memory of a
    large ball; each pair's values do not depend on the blocks.  The rates
    are ``engine.lattice_rates``.
    """
    R = engine.lattice_rates(m, pts, N)
    H, slack = np.empty(len(i)), np.empty(len(i))
    for lo in range(0, len(i), K2_PAIR_BLOCK):
        b = slice(lo, lo + K2_PAIR_BLOCK)
        ib, jb = i[b], j[b]
        W = (pts[ib] - pts[jb]).astype(float).T
        H[b], slack[b] = _drift_slack(cert.M, m.kernel.J, W, R[ib] - R[jb], N, cert.rho)
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
    uniformly from its in-domain lattice points.  ``samples`` must be >= 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    try:
        pts = enumerate_ball(N, cert, cert.delta0, cap=K2_EXACT_POINTS)
        pts = pts[m.domain._inside(pts / N)]
        i, j = np.triu_indices(len(pts), k=1)
    except CapExceededError:
        ball = cert.ball(N, cert.delta0)
        pts = _draw_ball_points(m, ball, N, 2 * samples, np.random.default_rng(seed))
        i, j = np.arange(0, 2 * samples, 2), np.arange(1, 2 * samples, 2)
        distinct = (pts[i] != pts[j]).any(axis=1)
        i, j = i[distinct], j[distinct]
    hs, _, k = _slack_threshold(*_pair_slack(m, cert, N, pts, i, j))
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

    The loop runs free chains on Python ints and floats, with the coordinates
    and jumps unrolled and the kernel's rate expressions inlined.  H takes
    ``sum_i (sum_j (w_i M_ij) w_j)``, added left to right: the twin of
    ``engine.m_form``.  Rates that divide by zero on floats are evaluated
    again on numpy scalars.  Each chain's rates are checked as evaluated, so
    any inf, nan or negative rate raises.  Phases are coded as in
    ``_PHASE_CODE``.
    """
    loop = m.__dict__.get("pair_loop")
    if loop is not None:
        return loop
    d, n = m.d, len(m.jumps)
    u, v, w, j = ([f"{p}{i}" for i in range(d)] for p in "uvwj")
    a, b, x = ([f"{p}{k}" for k in range(n)] for p in "abx")

    def tup(names):
        return "(" + "".join(f"{s}, " for s in names) + ")"

    def ind(lines, k=1):
        return ["    " * k + s for s in lines]

    def mq(w):
        rows = (" + ".join(f"{w[i]} * M{i}_{k} * {w[k]}" for k in range(d)) for i in range(d))
        return " + ".join(f"({r})" for r in rows)

    def rates_of(name, z, r):  # rates at z / N into r, checked
        lines = ["try:", *ind(f"y{i} = {z[i]} / N" for i in range(d))]
        lines += ind(f"{rk} = {src}" for rk, src in zip(r, m.kernel.rate_src))
        ys = f"ys = [np.float64(y / N) for y in {tup(z)}]"
        lines += ["except ZeroDivisionError:", *ind([ys, f"{tup(r)} = [f(*ys) for f in rate_entries]"])]
        ok = " and ".join(f"0.0 <= {rk} < inf" for rk in r)
        return lines + [f"if not ({ok}):", f"    _bad_rate({name!r}, {tup(r)}, {tup(z)})"]

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
    hnorm += [f"qf = {mq(w)}", "H = sqrt(qf) if qf > 0.0 else 0.0"]
    ij = [f"{i}_{k}" for i in range(d) for k in range(d)]
    src = [
        "def pair_loop(draw, N, U, V, H, K3, nuK3, horizon, rec, trace, M):",
        f"    {tup(u)} = U",
        f"    {tup(v)} = V",
        f"    {tup('M' + s for s in ij)} = M",
        "    phase = 2 if H == 0.0 else (1 if H <= K3 else 0)",
        "    coal = 0.0 if phase == 2 else inf",
        "    t = 0.0",
        "    Hs, Ps, Us, Vs = [], [], [], []",
        "    i = 0",
        "    nxt = rec[0] if rec else inf",
        "    while t < horizon:",
        "        if phase == 2 and not trace:",
        "            break",
        *ind(rates_of("U", u, a) + rates_of("V", v, b), 2),
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
    ns.update(rate_entries=m.kernel.rate_entries, _bad_rate=_bad_rate)
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
    U = engine.check_start(m, N, U0)
    V = engine.check_start(m, N, V0)
    k2, nu = _default_k2_nu(m, cert, N, opts.seed, k2, nu)
    K3 = max(k2, 8.0 * cert.JstarM)
    nuK3 = nu * K3

    draw = _rng.uniforms(opts.seed, replicate, _rng.COUPLED)
    H, phases, coal, Us, Vs = _pair_loop(m)(
        draw, N, U.tolist(), V.tolist(), cert.m_norm(U - V), K3, nuK3, opts.horizon,
        opts.record, trace_states, cert.M.ravel().tolist(),
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
    U0, V0 = engine.check_start(m, opts.N, U0), engine.check_start(m, opts.N, V0)
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


def _sup_total_rate(m, pts):
    """max of sum_J r_J over the model-space points ``pts``, one row each;
    raises RateError naming a point where a rate is not finite and >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        R = engine.compile_rates(m)(pts)
    bad = ~(np.isfinite(R) & (R >= 0.0))
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise RateError(f"invalid rate {R[i, k]} for jump {m.jumps[k]} at {pts[i].tolist()}")
    return float(R.sum(axis=1).max())


def _box_mesh(box):
    """The ``SUP_RATE_MESH``-point-per-axis grid of an axis box: the points
    where the martingale bound samples its rate sup (exact at the corners for
    coordinate-monotone rates)."""
    lo, hi = box
    axes = [np.linspace(a, b, SUP_RATE_MESH) for a, b in zip(lo, hi)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo))


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
    T: float
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


_LD = np.longdouble
# stirlerr(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi) for k = 1..15 (0
# holds k = 0's place), and the coefficients of its series in 1/k above 15
# (Loader, "Fast and accurate computation of binomial probabilities", 2000)
_STIRLERR = np.array([_LD(s) for s in (
    "0", "0.08106146679532725821967026", "0.04134069595540929409382208",
    "0.02767792568499833914878929", "0.02079067210376509311152277", "0.01664469118982119216319487",
    "0.01387612882307074799874573", "0.01189670994589177009505572", "0.01041126526197209649747857",
    "0.009255462182712732917728637", "0.008330563433362871256469319", "0.007573675487951840794972024",
    "0.006942840107209529865664153", "0.006408994188004207068439631", "0.005951370112758847735624416",
    "0.00555473355196280137103869",
)])
_STIRLING = [_LD(a) / b for a, b in ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
                                     (1, 156), (-3617, 122400))]
_TWO_PI = _LD("6.28318530717958647692528676656")
_HUNDREDTH = _LD(1) / 100


def _stirlerr(k):
    """``log k! - (k + 1/2) log k + k - log sqrt(2 pi)``: the table to 15,
    the series above."""
    inv2 = 1 / (k * k)
    series = _STIRLING[-1]
    for a in _STIRLING[-2::-1]:
        series = a + series * inv2
    return np.where(k > 15, series / k, _STIRLERR[np.minimum(k, 15).astype(np.intp)])


def _bd0(x, m):
    """``x log(x / m) + m - x``, by its series in ``v = (x - m) / (x + m)``
    where x lies within 10% of m."""
    near = np.abs(x - m) < 0.1 * (x + m)
    v = (x - m) / (x + m)
    s, term, v2 = (x - m) * v, 2 * x * v, v * v
    for j in range(3, 99, 2):
        term = term * v2
        s, last = s + term / j, s
        if np.array_equal(s[near], last[near]):
            break
    return np.where(near, s, x * np.log(x / m) + m - x)


@np.errstate(all="ignore")  # the lead's formula is not finite at c = n, which takes x**n
def _upper_tails(c, n, x):
    """``P(Bin(n, x) >= c)`` and its lead term ``P(Bin(n, x) = c)`` in long
    double, for counts ``c`` >= 1 with ``n x <= c``.  The lead term takes
    Loader's saddle-point form; from it the terms fall, each the last times
    its ratio, and the window of ``5 sqrt(n) + 16`` of them (ten standard
    deviations at the widest) holds every term that moves the sum."""
    k = np.minimum(c, n - 1)  # finite at c = n, whose term is x**n
    lc = _stirlerr(_LD(n)) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * x) - _bd0(n - k, n * (1 - x))
    lead = np.where(c == n, x**n, np.exp(lc) * np.sqrt(n / (_TWO_PI * k * (n - k))))
    j = c[:, None] + np.arange(int(5 * math.sqrt(n)) + 16, dtype=_LD)
    ratio = np.where(j < n, (n - j) / (j + 1) * (x / (1 - x))[:, None], 0)  # x = 1 only at c = n
    return lead * (1 + np.cumprod(ratio, axis=1).sum(axis=1)), lead


def _tail_lcb99(counts, reps):
    """One-sided lower 99% Clopper-Pearson bound on a probability seen
    ``counts`` times in ``reps`` draws: the x where ``P(Bin(reps, x) >=
    counts) = 0.01`` (the 0.01 quantile of Beta(counts, reps - counts + 1)),
    and 0 where counts is 0.

    A search on the doubles in [0, counts / reps] keeps a bracket whose lower
    end has the tail below 0.01 and upper end at or above it; it takes Newton
    steps in log x (d tail / d log x = counts times the lead term), and a
    bisection of the bracket where a step leaves it, until the ends are
    adjacent.  The nearer end is returned.  The tails are summed in long
    double: where the tail is about proportional to x, double precision alone
    cannot tell the last ulp.  On a platform whose long double is a double,
    the bound can move by an ulp or two."""
    counts = np.asarray(counts)
    c = np.maximum(counts, 1).astype(_LD)
    lo = np.zeros(len(c), dtype=np.int64)  # the bits of 0.0: tail 0
    hi = (c / reps).astype(np.float64).view(np.int64)  # tail >= 1/2 at x = c / reps
    f_lo, f_hi = np.zeros(len(c), dtype=_LD), np.ones(len(c), dtype=_LD)
    at = hi
    for it in range(200):
        x = at.view(np.float64).astype(_LD)
        f, lead = _upper_tails(c, reps, x)
        up = f >= _HUNDREDTH
        lo, f_lo = np.where(up, lo, at), np.where(up, f_lo, f)
        hi, f_hi = np.where(up, at, hi), np.where(up, f, f_hi)
        if (hi - lo <= 1).all():
            break
        with np.errstate(all="ignore"):  # a tail of 0 gives no step
            newton = (x * np.exp((np.log(_HUNDREDTH) - np.log(f)) * f / (c * lead))).astype(np.float64)
        newton = newton.view(np.int64)
        inside = (lo <= newton) & (newton <= hi) & (it < 60)  # then bisection alone, to the end
        at = np.where(inside, np.clip(newton, lo + 1, hi - 1), lo + (hi - lo) // 2)
        at = np.where(hi - lo > 1, at, hi)
    x = np.where(_HUNDREDTH - f_lo < f_hi - _HUNDREDTH, lo, hi).view(np.float64)
    return np.where(counts > 0, x, 0.0)


def martingale_deviation(m, opts, X0, T, reps, z_grid, workers=1):
    """Empirical tail of sup_{t <= T ^ tau_K} |m(t)| against the closed-form
    bound, plus the componentwise mean of m(T) (zero for a martingale).
    K is the box ``_drift_box`` draws around the drift path from X0/N.
    T lies in (0, horizon]."""
    X0 = engine.check_start(m, opts.N, X0)
    if not (0 < T <= opts.horizon):
        raise ValueError(f"T must lie in (0, horizon={opts.horizon}], got T={T}")
    box = _drift_box(m, opts.N, X0, T)
    Rstar = _sup_total_rate(m, _box_mesh(box))
    Jstar = float(np.max(np.linalg.norm(m.jump_array.astype(float), axis=1)))
    out = engine.run_paths(
        m, opts.N, X0, opts.seed, reps, workers=workers, mode=engine.MARTINGALE, horizon=T, stop_box=box
    )
    sup_m = out["sup_m"]
    final = out["final_m"]
    z_grid = np.asarray(z_grid, dtype=float)
    counts = (sup_m[None, :] >= z_grid[:, None]).sum(axis=1)
    tail = counts / reps
    lcb = _tail_lcb99(counts, reps)
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
    Rstar = _sup_total_rate(m, pts)
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
    M-radius N delta_prime, reported alongside ceil(rho T) z_N(eps').  The
    starts can reach past the domain; they are checked before any path runs,
    so also at T <= 0, where none does and the estimate is 0.  T must be
    finite and ``reps`` at least 1."""
    if not (0 < delta_prime < delta):
        raise ValueError("need 0 < delta_prime < delta")
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got T={T}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    d = m.d
    starts = engine.check_starts(m, N, _exit_starts(cert.ball(N, delta_prime), m_sphere_map(cert.M), reps, seed))
    if T > 0:
        out = engine.run_paths(
            m, N, starts, seed, reps, workers=workers, mode=engine.EXIT, horizon=T, exit_ball=cert.ball(N, delta)
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
