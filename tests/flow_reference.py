"""The RK4 stepping loops that ``integrate_ode``, ``cutoff_time`` and
``_flow_at_times`` ran before they shared ``dynamics._rk4_flow``: the test
oracles for those three.  Each keeps its own loop over
``dynamics._rk4_step``; ``integrate_ode``'s recorded times were ``k h``.
"""

import math

import numpy as np

from ddjump.dynamics import HORIZON, LEFT_DOMAIN, _drift, _rk4_step, default_step
from ddjump.errors import ConvergenceError, HorizonError


def integrate_ode_reference(m, y0, T, h=1e-3):
    """(times, states, terminated_by) of ``integrate_ode``."""
    y = np.asarray(y0, dtype=float)
    F = _drift(m)
    n_steps = max(0, int(round(T / h)))
    times = [0.0]
    states = [y.copy()]
    terminated = HORIZON
    for k in range(n_steps):
        y_new = _rk4_step(F, y, h)
        if not np.all(np.isfinite(y_new)):
            raise ConvergenceError(f"non-finite state at t={k * h}")
        if not m.domain.contains(y_new):
            terminated = LEFT_DOMAIN
            break
        y = y_new
        times.append((k + 1) * h)
        states.append(y.copy())
    return np.array(times), np.array(states), terminated


def cutoff_time_reference(m, cert, x0, N, horizon=None, h=None, time_tol=1e-10):
    x0 = np.asarray(x0, dtype=float)
    target = 1.0 / math.sqrt(N)
    g = cert.m_norm(x0 - cert.c)
    if g <= target:
        return 0.0
    if h is None:
        h = default_step(cert.rho_hat)
    if horizon is None:
        horizon = 10.0 + 3.0 * (math.log(max(N, 2.0)) / (2 * cert.rho) + math.log(1 + g) / cert.rho)
    F = _drift(m)
    y = x0.copy()
    t = 0.0
    n_steps = int(math.ceil(horizon / h))
    for _ in range(n_steps):
        y_next = _rk4_step(F, y, h)
        g_next = cert.m_norm(y_next - cert.c)
        if g_next <= target:
            lo, hi = 0.0, h
            while hi - lo > time_tol:
                mid = 0.5 * (lo + hi)
                y_mid = _rk4_step(F, y, mid)
                if cert.m_norm(y_mid - cert.c) <= target:
                    hi = mid
                else:
                    lo = mid
            return t + hi
        y = y_next
        t += h
    raise HorizonError(f"no crossing of radius {target:.3g} within horizon {horizon:.3g}")


def flow_at_times_reference(m, y0, times, h):
    F = _drift(m)
    out = np.empty((len(times), len(y0)))
    y = np.asarray(y0, dtype=float)
    t = 0.0
    for k, T in enumerate(times):
        span = T - t
        n = int(math.floor(span / h))
        for _ in range(n):
            y = _rk4_step(F, y, h)
        rem = span - n * h
        if rem > 1e-15:
            y = _rk4_step(F, y, rem)
        t = T
        out[k] = y
    return out
