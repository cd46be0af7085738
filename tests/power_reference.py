"""The power iteration as it stood before it normalized only the iterates a
check compares: the test oracle for ``ddjump.equilibrium._pi_power``.

It normalizes every iterate, a pairwise sum and a full-vector division a
step.  Its stop rules are ``_pi_power``'s: the same target, check stride,
stall rule, floating-point floor and messages, and the cap read from
``equilibrium.POWER_MAX_ITERS`` at the call.  So the two differ only in
where they round, and must stop at the same check.
"""

import math

import numpy as np

from ddjump import equilibrium
from ddjump.errors import ConvergenceError


def pi_power_ref(lam, PT, pi0):
    """Power iteration on the transposed kernel ``PT`` at rate ``lam``, each
    step pi P = P^T pi normalized, from the weights ``pi0`` normalized."""
    pi = pi0 / pi0.sum()
    target = min(0.05e-9 / lam, 1e-12)
    best = resid = math.inf
    stall = 0
    for it in range(equilibrium.POWER_MAX_ITERS):
        new = PT @ pi
        s = new.sum()
        new /= s
        if it % 16 == 0:
            resid = float(np.abs(new - pi).sum())
            if resid <= target:
                return new
            if resid >= best * 0.99:
                if stall == 0:
                    first = resid
                stall += 1
                if stall >= 40:
                    if lam * best <= equilibrium.PI_TOL:
                        return new
                    raise ConvergenceError(
                        f"power iteration stopped after {it + 1} iterations: the step residual "
                        f"went from {first:.3g} to {resid:.3g} over 40 checks 16 iterations apart, "
                        f"none 1% below the best before it (uniformization rate {lam:.6g})"
                    )
            else:
                stall = 0
            best = min(best, resid)
        pi = new
    raise ConvergenceError(
        f"power iteration hit max_iters={equilibrium.POWER_MAX_ITERS}: the last step residual "
        f"checked was {resid:.3g} and the best {best:.3g} (uniformization rate {lam:.6g})"
    )
