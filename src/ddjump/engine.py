"""Vectorized exact-SSA engine.

Paths are simulated replicate-batched: one numpy step advances every live
replicate by one jump event.  Each replicate consumes uniforms from its own
counter-based stream (two per event: waiting time, jump pick), so results
depend only on (seed, replicate), never on chunking or worker count.  A
single path (``simulate.simulate_path``) is the ``events`` mode run on one.

A step costs a few contiguous array operations.  The live replicates sit in
compacted arrays, in row order: state, time, original row, the column of
their uniforms, and each mode's own per-replicate state.  The arrays are
compacted only on the steps where some replicate retires.  Uniforms are
stored one row per draw, so a draw is one row gathered by the live columns.
The total rate, the running sums that pick the jump and the martingale drift
are added jump by jump, left to right, so no sum depends on the chunk layout.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import SimulationError

RECORDS = "records"
EVENTS = "events"
MARTINGALE = "martingale"
EXIT = "exit"


def compile_rates(model):
    """The model's vectorized rate function, ``f(Y)[..., k] = r_k(Y[..., :])``
    for float array Y (the array form of its compiled kernel)."""
    return model.kernel.rates_array


@dataclass(frozen=True)
class Restriction:
    """Ball restriction: jumps leaving B_M(center, radius) are switched off."""

    M: np.ndarray
    center: np.ndarray  # in lattice units (N c)
    radius: float  # in lattice units (N delta)


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


def _restriction_mask(restr, jumps):
    """``mask(X)[n, k]``: jump k from state ``X[n]`` stays in the ball.

    The terms that depend only on the jumps are computed here, once.
    """
    MJt = restr.M @ jumps.T.astype(float)
    JMJ = np.einsum("ji,ij->j", jumps.astype(float), MJt)
    r2 = restr.radius**2

    def mask(X):
        W = X.astype(float) - restr.center
        base = np.einsum("ni,ij,nj->n", W, restr.M, W)
        q = base[:, None] + 2.0 * (W @ MJt) + JMJ[None, :]
        return q <= r2

    return mask


def _running_sums(r):
    """Running sums of ``r`` over its last axis, added left to right: entry
    k is ``r[..., 0] + ... + r[..., k]`` and the last entry is the total.

    The engine takes the total rate and the jump pick from these.  (numpy's
    ``sum`` adds 8 or more terms pairwise, so it can differ from the running
    sum in the last bit from 8 jumps on.)
    """
    cum = [r[..., 0]]
    for k in range(1, r.shape[-1]):
        cum.append(cum[-1] + r[..., k])
    return cum


def _drift(r, J):
    """``sum_k r[..., k] J[k]``, added left to right.

    A matrix product adds in an order that can depend on how many rows it
    is given, which would tie the martingale to the chunk layout.
    """
    F = r[..., 0, None] * J[0]
    for k in range(1, len(J)):
        F = F + r[..., k, None] * J[k]
    return F


def _draw_blocks(bufs, gens, row):
    """Put the next ``len(bufs)`` uniforms of replicate ``row[k]`` in column
    k of ``bufs`` and return those columns.

    The transposed writes go 64 by 64 replicates, so each tile stays in cache.
    """
    block = len(bufs)
    for a in range(0, len(row), 64):
        fresh = np.array([gens[i].random(block) for i in row[a : a + 64]])
        for b in range(0, block, 64):
            bufs[b : b + 64, a : a + len(fresh)] = fresh[:, b : b + 64].T
    return np.arange(len(row))


def _keep(live, keep):
    return {name: a[keep] for name, a in live.items()}


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
    block=1024,
):
    """Advance replicates [rep_lo, rep_hi) and collect per-mode statistics.

    mode "records": states at the sorted ``record_times`` (cadlag value).
    mode "events": records, plus every event before ``horizon`` as flat
        ``event_rep`` (replicate index), ``event_t`` and ``event_X``
        (post-jump state) arrays in replicate and time order; a replicate
        runs to the horizon, not to its last record.
    mode "martingale": sup_{t <= T ^ tau_K} |m(t)| for the scaled compensated
        jump martingale m(t) = (X(t)-X(0))/N - int F, plus its final value;
        ``stop_box`` is the compact set K as an (lo, hi) box in x-coords and
        ``horizon`` plays the role of T.
    mode "exit": first time ||X - center||_M exceeds the exit_ball radius,
        censored at ``horizon``.
    """
    if mode not in (RECORDS, EVENTS, MARTINGALE, EXIT):
        raise ValueError(f"unknown mode {mode!r}")
    n = rep_hi - rep_lo
    d = model.d
    jumps = model.jump_array
    J = model.kernel.J
    rates_fn = compile_rates(model)
    mask = None if restriction is None else _restriction_mask(restriction, jumps)

    X0 = np.asarray(X0, dtype=np.int64)
    X = np.tile(X0, (n, 1)) if X0.ndim == 1 else X0[rep_lo:rep_hi].copy()
    # the live replicates, in row order; compacted on the steps where some retire
    live = {"X": X, "t": np.zeros(n), "row": np.arange(n)}
    absorbed = np.zeros(n, dtype=bool)

    record_times = np.asarray(record_times, dtype=float)
    n_rec = len(record_times)
    if mode in (RECORDS, EVENTS):
        records = np.zeros((n, n_rec, d), dtype=np.int64)
        if mode == RECORDS and not n_rec:
            return {"records": records, "absorbed": absorbed}
        # next record index and time; the time is inf once every record is taken
        rec_next = np.append(record_times, math.inf)
        live["k"] = np.zeros(n, dtype=np.int64)
        live["due_t"] = np.full(n, rec_next[0])
    if mode == EVENTS:
        events = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty((0, d), dtype=np.int64))]
    if mode == MARTINGALE:
        live["X_start"] = X.astype(float)
        live["integral"] = np.zeros((n, d))
        live["sup"] = np.zeros(n)
        sup_m = np.zeros(n)
        final_m = np.zeros((n, d))
        box_lo = np.asarray(stop_box[0], dtype=float)
        box_hi = np.asarray(stop_box[1], dtype=float)
    if mode in (MARTINGALE, EXIT):
        exited = np.zeros(n, dtype=bool)
        exit_time = np.full(n, math.inf)

    # uniforms stored (draw, replicate): a draw is one row of ``bufs``, gathered
    # by the live replicates' columns ("slot")
    gens = [_rng.substream(seed, rep_lo + i, _rng.PATH) for i in range(n)]
    bufs = np.empty((block, n))
    live["slot"] = _draw_blocks(bufs, gens, live["row"])
    col = 0

    while live["row"].size:
        row = live["row"]
        if col + 2 > block:
            live["slot"] = _draw_blocks(bufs, gens, row)
            col = 0
        X = live["X"]
        r = rates_fn(X / N)
        _validate_rates(r, X, N)
        if mask is not None:
            r = np.where(mask(X), r, 0.0)
        cum = _running_sums(r)

        dead = cum[-1] <= 0.0
        if dead.any():
            absorbed[row[dead]] = True
            for i in np.flatnonzero(dead):
                if mode in (RECORDS, EVENTS):
                    # an absorbing state holds its value through every remaining record
                    records[row[i], live["k"][i] :] = X[i]
                if mode == MARTINGALE:
                    # state frozen: m drifts by -F (=0 if all rates vanish) to T
                    seg = max(0.0, horizon - live["t"][i])
                    f_row = _drift(rates_fn(X[i] / N), J)
                    m_T = (X[i] - live["X_start"][i]) / N - live["integral"][i] - f_row * seg
                    sup_m[row[i]] = max(live["sup"][i], float(np.linalg.norm(m_T)))
                    final_m[row[i]] = m_T
            keep = ~dead
            live = _keep(live, keep)
            if not live["row"].size:
                break
            row, X, r = live["row"], live["X"], r[keep]
            cum = [c[keep] for c in cum]

        t = live["t"]
        tot = cum[-1]
        u2 = bufs[col + 1].take(live["slot"])
        dt = -np.log(bufs[col].take(live["slot"])) / (N * tot)
        col += 2
        t_next = t + dt
        pick = u2 * tot
        j = np.zeros(row.size, dtype=np.intp)
        for c in cum[:-1]:
            j += c < pick
        step = jumps.take(j, axis=0)

        gone = None
        if mode in (RECORDS, EVENTS):
            k, due_t = live["k"], live["due_t"]
            due = np.flatnonzero(due_t < t_next)
            if due.size:
                while due.size:
                    records[row[due], k[due]] = X[due]
                    k[due] += 1
                    due_t[due] = rec_next[k[due]]
                    due = due[due_t[due] < t_next[due]]
                if mode == RECORDS:
                    gone = due_t == math.inf
        if mode == EVENTS:
            gone = t_next >= horizon
            for i in np.flatnonzero(gone):
                records[row[i], k[i] :] = X[i]

        if mode == MARTINGALE:
            F = _drift(r, J)
            over = t_next >= horizon
            if over.any():
                seg = horizon - t[over]
                m_T = (
                    (X[over] - live["X_start"][over]) / N
                    - live["integral"][over]
                    - F[over] * seg[:, None]
                )
                sup_m[row[over]] = np.maximum(live["sup"][over], np.linalg.norm(m_T, axis=1))
                final_m[row[over]] = m_T
                keep = ~over
                live = _keep(live, keep)
                if not live["row"].size:
                    break
                row, X = live["row"], live["X"]
                dt, t_next, F, step = dt[keep], t_next[keep], F[keep], step[keep]
            Fdt = F * dt[:, None]
            m_pre = (X - live["X_start"]) / N - live["integral"] - Fdt
            sup = np.maximum(live["sup"], np.linalg.norm(m_pre, axis=1))
            m_post = m_pre + step / N
            live["sup"] = np.maximum(sup, np.linalg.norm(m_post, axis=1))
            live["integral"] += Fdt

        X += step
        live["t"] = t_next
        if mode == EVENTS:
            events.append((row[~gone], t_next[~gone], X[~gone]))

        if mode == MARTINGALE:
            y = X / N
            gone = np.any((y < box_lo) | (y > box_hi), axis=1)
            if gone.any():
                rows = row[gone]
                exited[rows] = True
                exit_time[rows] = t_next[gone]
                final_m[rows] = (X[gone] - live["X_start"][gone]) / N - live["integral"][gone]
                sup_m[rows] = live["sup"][gone]

        if mode == EXIT:
            W = X.astype(float) - exit_ball.center
            out = np.einsum("ni,ij,nj->n", W, exit_ball.M, W) > exit_ball.radius**2
            exited[row[out]] = True
            exit_time[row[out]] = t_next[out]
            gone = out | (t_next >= horizon)

        if gone is not None and gone.any():
            live = _keep(live, ~gone)

    if mode == RECORDS:
        return {"records": records, "absorbed": absorbed}
    if mode == EVENTS:
        ev_rep, ev_t, ev_X = (np.concatenate(a) for a in zip(*events))
        order = np.argsort(ev_rep, kind="stable")  # each replicate's events stay in time order
        return {
            "records": records,
            "absorbed": absorbed,
            "event_rep": rep_lo + ev_rep[order],
            "event_t": ev_t[order],
            "event_X": ev_X[order],
        }
    if mode == MARTINGALE:
        return {
            "sup_m": sup_m,
            "final_m": final_m,
            "exited": exited,
            "exit_time": exit_time,
            "absorbed": absorbed,
        }
    return {"exited": exited, "exit_time": exit_time, "absorbed": absorbed}


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
