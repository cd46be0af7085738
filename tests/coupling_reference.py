"""The coupled-pair loop as it stood before it was generated per model: the
test oracle for ``ddjump.simulate.simulate_coupled``.

It steps numpy state vectors, evaluates the rates through the model's scalar
kernel and draws its uniforms through ``rng.uniforms``.  Four things
changed from that version, to the generated loop's definitions:

* H uses the explicit quadratic form ``_mq``, added left to right.  The
  BLAS product ``w @ M @ w`` adds with fused multiply-adds, which no Python
  expression reproduces.
* H(0) is ``cert.m_norm(U0 - V0)``, the value callers compare against.
* Rate totals are added left to right from the first rate, where ``sum``
  started from 0 (the two differ at most in the sign of a zero total).
* Each chain's rates are checked as soon as they are evaluated (U's before
  V's are evaluated).

The pairs are free chains: that version could also hold both chains in a
restriction ball, which the generated loop no longer does.
"""

import math

import numpy as np

from ddjump import rng as _rng
from ddjump.errors import SimulationError
from ddjump.simulate import _PHASE_CODE, COALESCED, CONTRACTIVE, INDEPENDENT, CoupledTrace


def _mq(w, M):
    """sum_i (sum_j (w_i M_ij) w_j) on Python floats, added left to right."""
    d = len(w)
    q = None
    for i in range(d):
        s = w[i] * M[i][0] * w[0]
        for j in range(1, d):
            s = s + w[i] * M[i][j] * w[j]
        q = s if q is None else q + s
    return q


def _total(rates):
    tot = rates[0]
    for r in rates[1:]:
        tot = tot + r
    return tot


def _pick(rates, acc):
    """First jump index whose running rate sum reaches ``acc`` (the last
    index when rounding leaves ``acc`` above the total)."""
    j = 0
    run = rates[0]
    while run < acc and j < len(rates) - 1:
        j += 1
        run += rates[j]
    return j


def _rates_at(entries, Z, N):
    """The kernel's scalar rate ``entries`` at Z / N on Python floats; where
    one divides by zero, all again on numpy scalars, whose inf or nan the rate
    check reports."""
    y = [z / N for z in Z.tolist()]
    try:
        return tuple(rate(*y) for rate in entries)
    except ZeroDivisionError:
        return tuple(rate(*map(np.float64, y)) for rate in entries)


def simulate_coupled_reference(m, cert, opts, U0, V0, k2, nu, replicate=0, trace_states=False):
    """``simulate.simulate_coupled`` with explicit ``k2`` and ``nu``, on the
    same uniforms and with the same results."""
    N = opts.N
    U = np.asarray(U0, dtype=np.int64).copy()
    V = np.asarray(V0, dtype=np.int64).copy()
    K3 = max(k2, 8.0 * cert.JstarM)
    nuK3 = nu * K3

    rates = m.kernel.rate_entries
    jumps = list(m.jump_array)
    M = cert.M.tolist()
    d = m.d

    def checked_rates(name, Z):
        """The rates at Z, checked."""
        rr = _rates_at(rates, Z, N)
        for v in rr:
            if not (v >= 0.0) or math.isinf(v):
                raise SimulationError(f"invalid rate {v} for chain {name} at {Z.tolist()}")
        return rr

    def Hnorm(w):
        return math.sqrt(max(0.0, _mq(w.tolist(), M)))

    draw = _rng.uniforms(opts.seed, replicate, _rng.COUPLED)
    rec_times = opts.record
    n_rec = len(rec_times)
    H_rec = np.zeros(n_rec)
    phase_rec = np.zeros(n_rec, dtype=np.int8)
    U_rec = np.zeros((n_rec, d), dtype=np.int64) if trace_states else None
    V_rec = np.zeros((n_rec, d), dtype=np.int64) if trace_states else None

    H = cert.m_norm(U - V)
    phase = COALESCED if H == 0.0 else (INDEPENDENT if H <= K3 else CONTRACTIVE)
    coalesce_time = 0.0 if phase == COALESCED else math.inf
    t = 0.0
    rec_idx = 0

    def flush_records(t_next):
        nonlocal rec_idx
        while rec_idx < n_rec and rec_times[rec_idx] < t_next:
            H_rec[rec_idx] = H
            phase_rec[rec_idx] = _PHASE_CODE[phase]
            if trace_states:
                U_rec[rec_idx] = U
                V_rec[rec_idx] = V
            rec_idx += 1

    while t < opts.horizon:
        if phase == COALESCED and not trace_states:
            flush_records(math.inf)
            break
        ru, rv = (checked_rates(name, Z) for name, Z in (("U", U), ("V", V)))

        if phase == COALESCED:
            tot = _total(ru)
            if tot <= 0.0:
                break
            u1, u2 = draw(), draw()
            dt = -math.log(u1) / (N * tot)
            t_next = t + dt
            flush_records(t_next)
            if t_next >= opts.horizon:
                t = opts.horizon
                break
            acc = u2 * tot
            j = _pick(ru, acc)
            U = U + jumps[j]
            V = U.copy()
            t = t_next
            continue

        if phase == CONTRACTIVE:
            mx = tuple(a if a >= b else b for a, b in zip(ru, rv))
            tot = _total(mx)
            if tot <= 0.0:
                flush_records(math.inf)
                break
            u1, u2, u3 = draw(), draw(), draw()
            dt = -math.log(u1) / (N * tot)
            t_next = t + dt
            flush_records(t_next)
            if t_next >= opts.horizon:
                t = opts.horizon
                break
            acc = u2 * tot
            j = _pick(mx, acc)
            a, b = ru[j], rv[j]
            lo = a if a < b else b
            if u3 * mx[j] < lo:
                U = U + jumps[j]
                V = V + jumps[j]
            elif a >= b:
                U = U + jumps[j]
                H = Hnorm(U - V)
            else:
                V = V + jumps[j]
                H = Hnorm(U - V)
            t = t_next
            if H <= K3:
                phase = COALESCED if H == 0.0 else INDEPENDENT
                if phase == COALESCED and not math.isfinite(coalesce_time):
                    coalesce_time = t
            continue

        # independent phase
        su, sv = _total(ru), _total(rv)
        tot = su + sv
        if tot <= 0.0:
            flush_records(math.inf)
            break
        u1, u2 = draw(), draw()
        dt = -math.log(u1) / (N * tot)
        t_next = t + dt
        flush_records(t_next)
        if t_next >= opts.horizon:
            t = opts.horizon
            break
        acc = u2 * tot
        if acc < su:
            j = _pick(ru, acc)
            U = U + jumps[j]
        else:
            acc -= su
            j = _pick(rv, acc)
            V = V + jumps[j]
        H = Hnorm(U - V)
        t = t_next
        if H == 0.0:
            phase = COALESCED
            if not math.isfinite(coalesce_time):
                coalesce_time = t
        elif H >= nuK3:
            phase = CONTRACTIVE

    flush_records(math.inf)
    return CoupledTrace(
        record_times=rec_times,
        H=H_rec,
        phases=phase_rec,
        coalesce_time=coalesce_time,
        K3=K3,
        nuK3=nuK3,
        U=U_rec,
        V=V_rec,
    )
