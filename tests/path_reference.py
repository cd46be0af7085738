"""The scalar Gillespie loop that ``simulate.simulate_path`` ran before it
became the engine's ``events`` mode over one replicate: the test oracle for
``ddjump.simulate.simulate_path``.

It steps one numpy state vector, evaluates the rates through the model's
array kernel on a single point, and draws its uniforms through
``rng.UniformBlocks`` from the stream (seed, replicate, PATH).
"""

import numpy as np

from ddjump import engine, rng as _rng
from ddjump.simulate import Trajectory, _check_start


def simulate_path_reference(m, opts, X0, replicate=0):
    """``simulate.simulate_path`` as a scalar loop, with the same arguments
    and results."""
    X0 = _check_start(m, opts, X0)
    N = opts.N
    rates_fn = engine.compile_rates(m)
    jumps = m.jump_array
    restr = opts.engine_restriction()
    mask = None if restr is None else engine._restriction_mask(restr, jumps)
    ub = _rng.UniformBlocks(opts.seed, replicate, _rng.PATH)

    rec_times = opts.record
    n_rec = len(rec_times)
    recorded = np.zeros((n_rec, m.d), dtype=np.int64)
    rec_idx = 0

    X = X0.copy()
    t = 0.0
    times = [0.0]
    states = [X.copy()]
    absorbed = False
    while t < opts.horizon:
        y = X.astype(float) / N
        r = rates_fn(y)
        engine._validate_rates(r[None, :], X[None, :], N)
        if mask is not None:
            r = np.where(mask(X[None, :])[0], r, 0.0)
        cum = engine._running_sums(r)
        tot = cum[-1]
        if tot <= 0.0:
            absorbed = True
            break
        u1 = ub.next()
        u2 = ub.next()
        dt = -np.log(u1) / (N * tot)
        t_next = t + dt
        while rec_idx < n_rec and rec_times[rec_idx] < t_next:
            recorded[rec_idx] = X
            rec_idx += 1
        if t_next >= opts.horizon:
            t = opts.horizon
            break
        pick = u2 * tot
        j = sum(int(c < pick) for c in cum[:-1])
        X = X + jumps[j]
        t = t_next
        times.append(t)
        states.append(X.copy())
    while rec_idx < n_rec:
        recorded[rec_idx] = X
        rec_idx += 1
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        record_times=rec_times,
        recorded=recorded,
        absorbed=absorbed,
    )
