"""The batched engine as it stood before its compacted step loop: the test
oracle for ``ddjump.engine.simulate_chunk``.

Every step gathers the active replicates out of the full per-replicate
arrays and scatters them back, with the uniform buffer stored one row per
replicate.  Two sums changed from that version, to the engine's
left-to-right order: the row total (numpy's ``sum`` adds 8 or more terms
pairwise; below 8 the two agree bit for bit) and the martingale drift
``F = r @ J`` (a matrix product's order can depend on the row count; with at
most two nonzero jump entries per coordinate, as in every shipped model,
every order gives the same sums).  The restriction and exit tests changed
too, to the definition that the engine's ball and the coupled-pair loop
share: the quadratic form added left to right, term by term, of X - center
or of the target (X + J) - center.  The expanded form ``q(X) + 2 (X - c)^T M
J + J^T M J`` and an ``einsum`` round differently, and can put a target
that lies on the sphere outside it.
"""

import math

import numpy as np

from ddjump import engine, rng as _rng
from ddjump.engine import EXIT, MARTINGALE, RECORDS


def _running_sums(r):
    """Running sums of ``r`` over its last axis, added left to right: entry
    k is ``r[..., 0] + ... + r[..., k]`` and the last entry is the total.
    (numpy's ``sum`` adds 8 or more terms pairwise, so it can differ from
    the running sum in the last bit from 8 jumps on.)"""
    cum = [r[..., 0]]
    for k in range(1, r.shape[-1]):
        cum.append(cum[-1] + r[..., k])
    return cum


def _drift(r, J):
    """``sum_k r[..., k] J[k]``, added left to right."""
    F = r[..., 0, None] * J[0]
    for k in range(1, len(J)):
        F = F + r[..., k, None] * J[k]
    return F


def _in_ball(W, ball):
    """Whether each ``w = W[..., :]`` lies in ``ball``: ``sum_i (sum_j (w_i
    M_ij) w_j)``, term by term and added left to right, against radius**2."""
    d = W.shape[-1]
    q = None
    for i in range(d):
        s = W[..., i] * ball.M[i, 0] * W[..., 0]
        for j in range(1, d):
            s = s + W[..., i] * ball.M[i, j] * W[..., j]
        q = s if q is None else q + s
    return q <= ball.radius**2


def _restriction_mask(X, jumps, restr):
    """``mask[n, k]``: the target (X[n] + J_k) - center lies in the ball."""
    return _in_ball((X[:, None, :] + jumps) - restr.center, restr)


def simulate_chunk_reference(
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
    """``engine.simulate_chunk`` as a per-step gather/scatter over the full
    replicate arrays, with the same arguments and results."""
    n = rep_hi - rep_lo
    d = model.d
    jumps = model.jump_array
    njump = len(model.jumps)
    rates_fn = engine.compile_rates(model)

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
        engine._validate_rates(r, Xa, N)
        if restriction is not None:
            r = np.where(_restriction_mask(Xa, jumps, restriction), r, 0.0)
        tot = _running_sums(r)[-1]

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
                    f_row = _drift(rates_fn(X[row].astype(float) / N), jumps.astype(float))
                    m_T = (X[row] - X_start[row]) / N - integral[row] - f_row * seg
                    sup_m[row] = max(sup_m[row], float(np.linalg.norm(m_T[None], axis=1)[0]))
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
            F = _drift(r, jumps.astype(float))
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
            out = ~_in_ball(X[idx] - exit_ball.center, exit_ball)
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
