"""Vectorized exact-SSA engine.

Paths are simulated replicate-batched: one numpy step advances every live
replicate by one jump event.  Each replicate consumes uniforms from its own
counter-based stream (two per event: waiting time, jump pick), so results
depend only on (seed, replicate), never on chunking or worker count.  A
chunk builds the streams of its replicates together (``rng.substreams``),
each the stream ``rng.substream`` builds alone.  A single path
(``simulate.simulate_path``) is the ``events`` mode run on one.

A step costs a few contiguous array operations.  The live replicates sit in
compacted arrays, in row order, replicate axis last (state (d, n), rates
(k, n)), so each operation runs along whole replicate rows; the arrays are
compacted only at the end of a step where some replicate retires, and a
draw is one row of uniforms gathered by the live columns.  An absorbed
replicate (total rate 0) has its next event at t = inf, so it retires as
at a horizon, by the one rule of every mode.  Sums over the jumps or the
coordinates add whole rows left to right, as ``np.cumsum`` on axis 0 does:
``np.add.reduce`` adds pairwise along a contiguous axis (one live replicate's
(k, 1) rates) and from 8 terms on moved the last bit in 60-200 of 200 cases.

Every start and every run's times are checked here: ``simulate_chunk``
checks the starts of its chunk with ``check_starts``, which only callers
using a start outside the engine call themselves; a function that takes one
start checks it with ``check_start``, which also refuses a row of starts.
``check_N`` is the one check of N >= 1: every run meets it in
``check_starts`` before it uses N, and every lattice ball and cutoff time
before they are built.  ``check_times`` checks a record grid and the horizon a
run stops at, in every chunk and in ``simulate.SimOptions``, for the path
and the pairs.

The M-form ``m_form`` and the lattice ball ``Restriction`` sit here, below
every module using them, with the ball's enumeration (a row scan over the
ball's projections, in O(states) memory) and its uniform point draw (by
rejection from the ball's box).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import CapExceededError, DomainError, SimulationError

RECORDS = "records"
EVENTS = "events"
MARTINGALE = "martingale"
EXIT = "exit"

STATE_CAP = 200_000  # default cap on the states of an enumerated ball
BLOCK = 1024  # uniforms drawn per replicate at each refill of a chunk


def compile_rates(model):
    """The model's vectorized rate function, ``f(Y)[..., k] = r_k(Y[..., :])``
    for float array Y (the array form of its compiled kernel)."""
    return model.kernel.rates_array


def m_form(M, W):
    """``sum_i (sum_k (w_i M_ik) w_k)`` over the first axis of ``W``, each sum
    added left to right: the package's one M-quadratic form, and the coupled-pair
    loop's H, term for term."""
    W2 = W.reshape(len(W), -1)
    T = W2[:, None] * M[:, :, None]
    T *= W2  # T[i, k] = (w_i M_ik) w_k
    S = _running_sums(T.swapaxes(0, 1))[-1]  # S[i] = sum_k T[i, k]
    return _running_sums(S)[-1].reshape(W.shape[1:])


@dataclass(frozen=True)
class Restriction:
    """The ball B_M(center, radius) of lattice points; a restricted chain
    switches off every jump that leaves it.

    Membership is ``m_form``.  Only the engine step calls ``keeps``, for
    ``simulate.simulate_path`` and ``equilibrium.stationary_empirical``; the
    generator keeps a jump whose target is one of the ball's states.
    """

    M: np.ndarray
    center: np.ndarray  # in lattice units (N c)
    radius: float  # in lattice units (N delta)

    def contains(self, X):
        """Whether the lattice point ``X`` (shape (d,)), or each row of ``X``
        (shape (n, d)), lies in the ball; a transposed (d, n) array is read by rows."""
        return m_form(self.M, (np.asarray(X) - self.center).T) <= self.radius**2

    def keeps(self, X, jumps):
        """``keeps(X, jumps)[n, k]``: jump k from the lattice point ``X[n]`` lands
        in the ball; stored (jump, row), and a transposed (d, n) X is read by rows."""
        # the targets (X + J) - center, integer add first, laid out (coordinate,
        # jump, row) so that every product runs over all jumps and rows at once
        W = np.add(X.T[:, None, :], jumps.T[:, :, None], order="C") - self.center[:, None, None]
        return (m_form(self.M, W) <= self.radius**2).T


def ball_box(ball):
    """The lattice box ``lo <= X <= hi`` (int64 arrays) that holds ``ball``:
    half-width radius / c0 (norm equivalence, c0 the square root of the
    smallest eigenvalue of M) about the rounded-out centre."""
    hw = math.ceil(ball.radius / math.sqrt(np.linalg.eigvalsh(ball.M)[0]))
    return np.floor(ball.center).astype(np.int64) - hw, np.ceil(ball.center).astype(np.int64) + hw


def enumerate_ball(N, cert, delta, cap=STATE_CAP):
    """All lattice points X with ||X - N c||_M <= N delta, in canonical order.

    A row scan: the prefixes (x1 ... x_j) of the ball's points are the lattice
    points of its projection onto the first j coordinates, an ellipse whose
    form is a Schur complement of M.  Each prefix takes its x_(j+1) interval
    from that form's quadratic, widened by one lattice step on each side, so
    rounding cannot drop a point; ``Restriction.contains`` then decides
    membership.  Memory is O(states).  Errors out when the expected state
    count (ellipsoid volume) exceeds ``cap``.
    """
    d = len(cert.c)
    ball = cert.ball(N, delta)
    volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * ball.radius**d
    expected = volume / math.sqrt(np.linalg.det(cert.M))
    if expected > cap:
        raise CapExceededError(f"expected {expected:.3g} states exceeds cap {cap}")
    Minv = np.linalg.inv(ball.M)
    rows = np.zeros((1, 0), dtype=np.int64)
    for j in range(d):
        S = np.linalg.inv(Minv[: j + 1, : j + 1])  # the projection's form
        U = rows - ball.center[:j]
        b = U @ S[:j, j]
        excess = np.einsum("ni,ij,nj->n", U, S[:j, :j], U) - ball.radius**2
        # x_j - center_j between the roots of S_jj t^2 + 2 b t + excess; a
        # prefix just outside has none, and is given the vertex of the parabola
        half = np.sqrt(np.maximum(b * b - S[j, j] * excess, 0.0))
        lo = np.ceil(ball.center[j] - (b + half) / S[j, j]).astype(np.int64) - 1
        hi = np.floor(ball.center[j] - (b - half) / S[j, j]).astype(np.int64) + 1
        count = hi - lo + 1
        step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        rows = np.column_stack([np.repeat(rows, count, axis=0), np.repeat(lo, count) + step])
    states = rows[ball.contains(rows)]
    if len(states) > cap:
        raise CapExceededError(f"{len(states)} states exceeds cap {cap}")
    return states


def _draw_ball_points(m, ball, N, n, rng):
    """``n`` lattice points drawn uniformly from the in-domain points of
    ``ball``: uniform points of its ``ball_box``, kept when they lie in the
    ball, drawn in batches until ``n`` are kept."""
    lo, hi = ball_box(ball)
    kept, have = [], 0
    while have < n:
        X = rng.integers(lo, hi + 1, size=(2 * n, len(lo)))
        X = X[ball.contains(X) & m.domain._inside(X / N)]
        kept.append(X)
        have += len(X)
    return np.concatenate(kept)[:n]


def check_N(N):
    """Refuse a system size N below 1."""
    if N < 1:
        raise ValueError("N must be a positive integer")


def check_starts(model, N, X, restriction=None):
    """The start ``X`` (shape (d,)), or the starts in the rows of ``X`` (shape
    (n, d)), as int64, after the one start check: N >= 1 (``check_N``), the
    shape, the domain at ``N`` and, given a ``restriction``, its ball.  Of
    several bad starts the lowest-index one is named, whatever the chunking."""
    check_N(N)
    X = np.asarray(X, dtype=np.int64)
    d = model.d
    if X.ndim not in (1, 2) or X.shape[-1] != d:
        raise ValueError(f"start has shape {X.shape}, expected {(d,) if X.ndim != 2 else (len(X), d)}")
    rows = X.reshape(-1, d)
    inside = model.domain._inside(rows / N)
    held = inside if restriction is None else inside & restriction.contains(rows)
    if not held.all():
        i = int(np.argmin(held))
        where = f"domain at N={N}" if not inside[i] else "the restriction ball"
        raise DomainError(f"start {rows[i].tolist()} outside {where}")
    return X


def check_start(model, N, X, restriction=None):
    """The one start ``X`` of a function that takes one, shape (d,), as int64,
    after ``check_starts``: a row of starts (n, d) is no start here."""
    X = np.asarray(X, dtype=np.int64)
    if X.ndim != 1:
        raise ValueError(f"start has shape {X.shape}, expected {(model.d,)}")
    return check_starts(model, N, X, restriction)


def check_times(record_times=(), horizon=None):
    """The record grid ``record_times`` as a tuple of floats, after the one
    check of a run's times: the grid sorted, finite and within [0, horizon];
    the ``horizon``, where a run stops at it, positive and finite.  None
    stands for a run that stops at its last record time."""
    rec = tuple(float(t) for t in record_times)
    if horizon is not None and horizon <= 0:
        raise ValueError("horizon must be positive")
    if any(b < a for a, b in zip(rec, rec[1:])):
        raise ValueError("record times must be sorted")
    end = math.inf if horizon is None else horizon
    if rec and (rec[0] < 0 or rec[-1] > end or not all(map(math.isfinite, rec))):
        raise ValueError("record times must be finite and lie within [0, horizon]")
    if horizon is not None and not math.isfinite(horizon):
        raise ValueError("horizon must be finite")
    return rec


def lattice_rates(model, X, N):
    """``r[n, k] = r_k(X[n] / N)`` at the lattice states ``X``, checked like the
    step's rates: the one source of lattice rate arrays outside the step."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = compile_rates(model)(X / N)
    _validate_rates(r, X, N)
    return r


def _validate_rates(r, X, N):
    # two reductions clear the common case; the element-wise checks name the state
    if r.size == 0 or (r.min() >= 0.0 and r.max() < math.inf):
        return
    if not np.all(np.isfinite(r)):
        i = int(np.argwhere(~np.isfinite(r))[0][0])
        raise SimulationError(f"non-finite rate at state {X[i].tolist()} (N={N})")
    if np.any(r < 0):
        i = int(np.argwhere(r < 0)[0][0])
        raise SimulationError(f"negative rate at state {X[i].tolist()} (N={N})")


def _running_sums(r):
    """Running sums of ``r`` over its first axis, one whole row per add, left
    to right: entry k is ``r[0] + ... + r[k]`` and the last entry is the total."""
    cum = [r[0]]
    for k in range(1, len(r)):
        cum.append(cum[-1] + r[k])
    return cum


def _drift(r, J):
    """``F[:, n] = sum_k r[k, n] J[k]``, added left to right (a matrix product's
    order can depend on its row count, which would tie F to the chunking)."""
    return _running_sums(r[:, None] * J[:, :, None])[-1]


def _norm(m):
    """The Euclidean norm of each column of ``m``, squares added left to right."""
    return np.sqrt(_running_sums(m * m)[-1])


def _draw_blocks(bufs, gens, row):
    """Put the next ``len(bufs)`` uniforms of replicate ``row[k]`` in column
    k of ``bufs`` and return those columns.

    Each 128 replicates draw into the rows of one tile, written into
    ``bufs`` transposed in one slice copy.
    """
    tile = np.empty((128, len(bufs)))
    for a in range(0, len(row), 128):
        part = row[a : a + 128]
        for j, i in enumerate(part):
            gens[i].random(out=tile[j])
        bufs[:, a : a + len(part)] = tile[: len(part)].T
    return np.arange(len(row))


def _m_at(live, cols, N):
    """The martingale (X - X_start) / N - integral at the live columns ``cols``."""
    X, start, integral = (live[name].take(cols, axis=1) for name in ("X", "X_start", "integral"))
    return (X - start) / N - integral


def _keep(live, keep):
    return {name: a.take(keep, axis=-1) for name, a in live.items()}


def simulate_chunk(
    model,
    N,
    X0,
    seed,
    rep_lo,
    rep_hi,
    mode=RECORDS,
    record_times=(),
    horizon=math.inf,
    restriction=None,
    stop_box=None,
    exit_ball=None,
):
    """Advance replicates [rep_lo, rep_hi) and collect per-mode statistics.

    mode "records": states at the sorted ``record_times`` (cadlag value).
    mode "events": every event before ``horizon`` as flat ``event_rep``
        (replicate index), ``event_t`` and ``event_X`` (post-jump state)
        arrays in replicate and time order; ``record_times`` is not read.
    mode "martingale": sup_{t <= T ^ tau_K} |m(t)| for the scaled compensated
        jump martingale m(t) = (X(t)-X(0))/N - int F, plus its final value;
        ``stop_box`` is the compact set K as an (lo, hi) box in x-coords and
        ``horizon`` plays the role of T.
    mode "exit": first time ||X - center||_M exceeds the exit_ball radius.
        Not censored: a replicate stops at its first event that exits or
        falls at or past ``horizon``, so ``exit_time`` can pass the horizon.
    An absorbed replicate takes no event, so it never exits.
    ``X0`` is one start (d,) or one per replicate (reps, d); ``check_starts``
    checks the chunk's starts, and ``check_times`` the record grid of the
    records mode and the horizon of the others, where each run stops.
    """
    if mode not in (RECORDS, EVENTS, MARTINGALE, EXIT):
        raise ValueError(f"unknown mode {mode!r}")
    n = rep_hi - rep_lo
    d = model.d
    jumps = model.jump_array
    J = model.kernel.J
    rates_fn = compile_rates(model)

    X0 = np.asarray(X0, dtype=np.int64)
    X0 = check_starts(model, N, X0[rep_lo:rep_hi] if X0.ndim == 2 else X0, restriction)
    record_times = check_times(record_times) if mode == RECORDS else check_times(horizon=horizon)
    X = np.repeat(X0[:, None], n, axis=1) if X0.ndim == 1 else X0.T.copy()
    # the live replicates, in row order; compacted on the steps where some retire
    live = {"X": X, "t": np.zeros(n), "row": np.arange(n)}
    # the chunk's output: each mode's arrays enter it where they are allocated
    result = {}
    absorbed = result["absorbed"] = np.zeros(n, dtype=bool)

    if mode == RECORDS:
        records = result["records"] = np.zeros((n, len(record_times), d), dtype=np.int64)
        if not len(record_times):
            return result
        # next record index and time; the time is inf once every record is taken
        rec_next = np.append(np.asarray(record_times, dtype=float), math.inf)
        live["k"] = np.zeros(n, dtype=np.int64)
        live["due_t"] = np.full(n, rec_next[0])
    if mode == EVENTS:
        events = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty((0, d), dtype=np.int64))]
    if mode == MARTINGALE:
        live["X_start"] = X.astype(float)
        live["integral"] = np.zeros((d, n))
        live["sup"] = np.zeros(n)
        sup_m = result["sup_m"] = np.zeros(n)
        final_m = result["final_m"] = np.zeros((n, d))
        box = np.asarray(stop_box, dtype=float)[:, :, None]  # (lo, hi), one column each
    if mode in (MARTINGALE, EXIT):
        exited = result["exited"] = np.zeros(n, dtype=bool)
        exit_time = result["exit_time"] = np.full(n, math.inf)

    # uniforms stored (draw, replicate): a draw is one row of ``bufs``, gathered
    # by the live replicates' columns ("slot")
    gens = _rng.substreams(seed, rep_lo, rep_hi, _rng.PATH)
    bufs = np.empty((BLOCK, n))
    live["slot"] = _draw_blocks(bufs, gens, live["row"])
    col = 0

    while live["row"].size:
        row = live["row"]
        if col + 2 > BLOCK:
            live["slot"] = _draw_blocks(bufs, gens, row)
            col = 0
        X, t = live["X"], live["t"]
        r = rates_fn((X / N).T).T
        _validate_rates(r.T, X.T, N)
        if restriction is not None:
            r = np.where(restriction.keeps(X.T, jumps).T, r, 0.0)
        cum = _running_sums(r)
        tot = cum[-1]
        dead = tot <= 0.0
        absorbing = dead.any()
        if absorbing:  # any positive total draws for an absorbed replicate
            tot = np.where(dead, 1.0, tot)
        u2 = bufs[col + 1].take(live["slot"])
        dt = -np.log(bufs[col].take(live["slot"])) / (N * tot)
        col += 2
        t_next = t + dt
        pick = u2 * tot
        j = np.zeros(row.size, dtype=np.intp)
        for c in cum[:-1]:
            j += c < pick
        step = jumps.T.take(j, axis=1)
        if absorbing:  # its next event is at t = inf, and it stays put
            absorbed[row[dead]] = True
            t_next[dead] = math.inf
            step[:, dead] = 0

        gone = None
        if mode == RECORDS:
            k, due_t = live["k"], live["due_t"]
            due = due_t < t_next
            if due.any():  # most steps take no record, and one reduction clears them
                due = np.flatnonzero(due)
                while due.size:
                    records[row[due], k[due]] = X.take(due, axis=1).T
                    k[due] += 1
                    due_t[due] = rec_next[k[due]]
                    due = due[due_t[due] < t_next[due]]
                gone = due_t == math.inf

        if mode == MARTINGALE:
            F = _drift(r, J)
            over = t_next >= horizon
            if over.any():
                o = np.flatnonzero(over)
                m_T = _m_at(live, o, N) - F.take(o, axis=1) * (horizon - t[o])
                sup_m[row[o]] = np.maximum(live["sup"][o], _norm(m_T))
                final_m[row[o]] = m_T.T
            Fdt = F * dt
            m_pre = (X - live["X_start"]) / N - live["integral"] - Fdt
            sup = np.maximum(live["sup"], _norm(m_pre))
            m_post = m_pre + step / N
            live["sup"] = np.maximum(sup, _norm(m_post))
            live["integral"] += Fdt

        X += step
        live["t"] = t_next
        if mode == EVENTS:
            gone = t_next >= horizon
            stay = ~gone
            events.append((row[stay], t_next[stay], X[:, stay].T))

        if mode == MARTINGALE:
            y = X / N
            out = ((y < box[0]) | (y > box[1])).any(axis=0) & ~over
            if out.any():
                rows = row[out]
                exited[rows] = True
                exit_time[rows] = t_next[out]
                final_m[rows] = _m_at(live, np.flatnonzero(out), N).T
                sup_m[rows] = live["sup"][out]
            gone = out | over

        if mode == EXIT:
            out = ~exit_ball.contains(X.T)
            if absorbing:  # no event, so no exit
                out &= ~dead
            exited[row[out]] = True
            exit_time[row[out]] = t_next[out]
            gone = out | (t_next >= horizon)

        if gone is not None and gone.any():
            live = _keep(live, np.flatnonzero(~gone))

    if mode == EVENTS:
        ev_rep, ev_t, ev_X = (np.concatenate(a) for a in zip(*events))
        order = np.argsort(ev_rep, kind="stable")  # each replicate's events stay in time order
        result.update(event_rep=rep_lo + ev_rep[order], event_t=ev_t[order], event_X=ev_X[order])
    return result


_shared = None


def _share(shared):
    global _shared
    _shared = shared


def _run_chunk(task):
    fn, lo, hi = task
    return fn(_shared, lo, hi)


def map_chunks(fn, shared, reps, chunk, workers):
    """``fn(shared, lo, hi)`` over the chunks [lo, hi) of ``range(reps)``,
    ``chunk`` replicates each but the last, optionally parallel.

    The chunk layout is a pure function of ``reps`` and ``chunk``.  With more
    than one worker and chunk, a process pool runs the chunks and each worker
    process receives ``shared`` once, through the pool's initializer.
    ``fn`` is sent by name, so it must be a module-level function.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    if workers > 1 and len(bounds) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share, initargs=(shared,)) as pool:
            return list(pool.map(_run_chunk, [(fn, lo, hi) for lo, hi in bounds]))
    return [fn(shared, lo, hi) for lo, hi in bounds]


def _chunk_task(kwargs, lo, hi):
    return simulate_chunk(rep_lo=lo, rep_hi=hi, **kwargs)


def run_paths(model, N, X0, seed, reps, workers=1, chunk=4096, **kwargs):
    """Run ``reps`` replicates, split into fixed chunks, optionally parallel.

    Worker count only distributes the chunks, so outputs are identical for
    any value.
    """
    kwargs = dict(model=model, N=N, X0=X0, seed=seed, **kwargs)
    parts = map_chunks(_chunk_task, kwargs, reps, chunk, workers)
    return {key: np.concatenate([p[key] for p in parts], axis=0) for key in parts[0]}
