"""Vectorized exact-SSA engine.

Paths are simulated replicate-batched: one numpy step advances every active
replicate by one jump event.  Each replicate consumes uniforms from its own
counter-based stream (two per event: waiting time, jump pick), so results
are bit-identical to the scalar reference engine and independent of chunking
and worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .errors import SimulationError

RECORDS = "records"
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
    if not np.all(np.isfinite(r)):
        i = int(np.argwhere(~np.isfinite(r))[0][0])
        raise SimulationError(f"non-finite rate at state {X[i].tolist()} (N={N})")
    if np.any(r < 0):
        i = int(np.argwhere(r < 0)[0][0])
        raise SimulationError(f"negative rate at state {X[i].tolist()} (N={N})")


def _restriction_mask(X, jumps, restr):
    W = X.astype(float) - restr.center
    MJt = restr.M @ jumps.T.astype(float)
    base = np.einsum("ni,ij,nj->n", W, restr.M, W)
    cross = W @ MJt
    JMJ = np.einsum("ji,ij->j", jumps.astype(float), MJt)
    q = base[:, None] + 2.0 * cross + JMJ[None, :]
    return q <= restr.radius**2


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
    mode "martingale": sup_{t <= T ^ tau_K} |m(t)| for the scaled compensated
        jump martingale m(t) = (X(t)-X(0))/N - int F, plus its final value;
        ``stop_box`` is the compact set K as an (lo, hi) box in x-coords and
        ``horizon`` plays the role of T.
    mode "exit": first time ||X - center||_M exceeds the exit_ball radius,
        censored at ``horizon``.
    """
    n = rep_hi - rep_lo
    d = model.d
    jumps = model.jump_array
    njump = len(model.jumps)
    rates_fn = compile_rates(model)

    X0 = np.asarray(X0, dtype=np.int64)
    if X0.ndim == 1:
        X = np.tile(X0, (n, 1))
    else:
        X = X0[rep_lo:rep_hi].copy()
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    absorbed = np.zeros(n, dtype=bool)

    record_times = np.asarray(record_times, dtype=float)
    n_rec = len(record_times)
    if mode == RECORDS:
        records = np.zeros((n, n_rec, d), dtype=np.int64)
        rec_idx = np.zeros(n, dtype=np.int64)
    if mode == MARTINGALE:
        X_start = X.astype(float).copy()
        integral = np.zeros((n, d))
        sup_m = np.zeros(n)
        final_m = np.zeros((n, d))
        exited = np.zeros(n, dtype=bool)
        exit_time = np.full(n, math.inf)
        box_lo = np.asarray(stop_box[0], dtype=float)
        box_hi = np.asarray(stop_box[1], dtype=float)
    if mode == EXIT:
        exited = np.zeros(n, dtype=bool)
        exit_time = np.full(n, math.inf)

    gens = [_rng.substream(seed, rep_lo + i, _rng.PATH) for i in range(n)]
    bufs = np.empty((n, block))
    for i in range(n):
        bufs[i] = gens[i].random(block)
    col = 0

    while active.any():
        idx = np.flatnonzero(active)
        if col + 2 > block:
            for i in idx:
                bufs[i] = gens[i].random(block)
            col = 0
        Xa = X[idx]
        y = Xa.astype(float) / N
        r = rates_fn(y)
        _validate_rates(r, Xa, N)
        if restriction is not None:
            r = np.where(_restriction_mask(Xa, jumps, restriction), r, 0.0)
        tot = r.sum(axis=1)

        dead = tot <= 0.0
        if dead.any():
            rows = idx[dead]
            absorbed[rows] = True
            if mode == RECORDS:
                # absorbing state holds its value through every remaining record
                for row in rows:
                    k = rec_idx[row]
                    if k < n_rec:
                        records[row, k:] = X[row]
                        rec_idx[row] = n_rec
            if mode == MARTINGALE:
                # state frozen: m drifts by -F (=0 if all rates vanish) to T
                for row in rows:
                    seg = max(0.0, horizon - t[row])
                    f_row = rates_fn(X[row].astype(float) / N) @ jumps.astype(float)
                    m_T = (X[row] - X_start[row]) / N - integral[row] - f_row * seg
                    sup_m[row] = max(sup_m[row], float(np.linalg.norm(m_T)))
                    final_m[row] = m_T
            active[rows] = False
            keep = ~dead
            idx = idx[keep]
            if idx.size == 0:
                continue
            Xa = Xa[keep]
            y = y[keep]
            r = r[keep]
            tot = tot[keep]

        u1 = bufs[idx, col]
        u2 = bufs[idx, col + 1]
        col += 2
        dt = -np.log(u1) / (N * tot)
        t_next = t[idx] + dt

        if mode == RECORDS:
            while True:
                k = rec_idx[idx]
                due = (k < n_rec) & (record_times[np.minimum(k, n_rec - 1)] < t_next)
                if not due.any():
                    break
                rows = idx[due]
                records[rows, rec_idx[rows]] = X[rows]
                rec_idx[rows] += 1
            done = rec_idx[idx] >= n_rec
            if done.any():
                active[idx[done]] = False
                live = ~done
                idx = idx[live]
                if idx.size == 0:
                    continue
                r = r[live]
                tot = tot[live]
                u2 = u2[live]
                dt = dt[live]
                t_next = t_next[live]

        if mode == MARTINGALE:
            F = r @ jumps.astype(float)
            over = t_next >= horizon
            if over.any():
                rows = idx[over]
                seg = horizon - t[rows]
                m_T = (X[rows] - X_start[rows]) / N - integral[rows] - F[over] * seg[:, None]
                nrm = np.linalg.norm(m_T, axis=1)
                sup_m[rows] = np.maximum(sup_m[rows], nrm)
                final_m[rows] = m_T
                active[rows] = False
                live = ~over
                idx = idx[live]
                if idx.size == 0:
                    continue
                r = r[live]
                tot = tot[live]
                u2 = u2[live]
                dt = dt[live]
                t_next = t_next[live]
                F = F[live]

        cum = np.cumsum(r, axis=1)
        pick = (u2 * tot)[:, None]
        j = np.minimum((cum < pick).sum(axis=1), njump - 1)

        if mode == MARTINGALE:
            m_pre = (X[idx] - X_start[idx]) / N - integral[idx] - F * dt[:, None]
            sup_m[idx] = np.maximum(sup_m[idx], np.linalg.norm(m_pre, axis=1))
            m_post = m_pre + jumps[j] / N
            sup_m[idx] = np.maximum(sup_m[idx], np.linalg.norm(m_post, axis=1))
            integral[idx] += F * dt[:, None]

        X[idx] += jumps[j]
        t[idx] = t_next

        if mode == MARTINGALE:
            ynew = X[idx].astype(float) / N
            out = np.any((ynew < box_lo) | (ynew > box_hi), axis=1)
            if out.any():
                rows = idx[out]
                exited[rows] = True
                exit_time[rows] = t[rows]
                final_m[rows] = (X[rows] - X_start[rows]) / N - integral[rows]
                active[rows] = False

        if mode == EXIT:
            W = X[idx].astype(float) - exit_ball.center
            q = np.einsum("ni,ij,nj->n", W, exit_ball.M, W)
            out = q > exit_ball.radius**2
            if out.any():
                rows = idx[out]
                exited[rows] = True
                exit_time[rows] = t[rows]
                active[rows] = False
            over = t[idx] >= horizon
            if over.any():
                active[idx[over]] = False

    if mode == RECORDS:
        return {"records": records, "absorbed": absorbed}
    if mode == MARTINGALE:
        return {
            "sup_m": sup_m,
            "final_m": final_m,
            "exited": exited,
            "exit_time": exit_time,
            "absorbed": absorbed,
        }
    if mode == EXIT:
        return {"exited": exited, "exit_time": exit_time, "absorbed": absorbed}
    raise ValueError(f"unknown mode {mode!r}")


def _chunk_task(kwargs):
    return simulate_chunk(**kwargs)


def run_paths(model, N, X0, seed, reps, workers=1, chunk=4096, **kwargs):
    """Run ``reps`` replicates, split into fixed chunks, optionally parallel.

    The chunk layout is a pure function of ``reps`` and ``chunk``; worker
    count only distributes chunks, so outputs are identical for any value.
    """
    bounds = [(lo, min(lo + chunk, reps)) for lo in range(0, reps, chunk)]
    tasks = [
        dict(model=model, N=N, X0=X0, seed=seed, rep_lo=lo, rep_hi=hi, **kwargs)
        for lo, hi in bounds
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_chunk_task, tasks))
    else:
        parts = [simulate_chunk(**t) for t in tasks]
    out = {}
    for key in parts[0]:
        out[key] = np.concatenate([p[key] for p in parts], axis=0)
    return out
