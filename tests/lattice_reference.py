"""The separating-vector search as it stood before the exact cofactor
enumeration: the test oracle for ``ddjump.lattice._separating_vector``.

A float LP (HiGHS) proposes a ray of {v : v.J >= 0}, which is rounded
through a fixed list of denominators and re-verified exactly.  It can only
report that it found no witness, never that none exists.
"""

import math
from fractions import Fraction

import numpy as np


def separating_vector_reference(jumps, d):
    """Rational v != 0 with v.J >= 0 for all jumps, or None.

    LP feasibility: for each objective +/-e_i, maximize the objective over
    {v : Jv >= 0, |v|_inf <= 1}; any positive optimum gives a candidate ray,
    which is then rounded to a rational vector and re-verified exactly.
    """
    from scipy.optimize import linprog

    Jm = np.array(jumps, dtype=float)
    A_ub = -Jm  # J v >= 0  <=>  -J v <= 0
    b_ub = np.zeros(len(jumps))
    bounds = [(-1.0, 1.0)] * d
    for axis in range(d):
        for sign in (1.0, -1.0):
            cvec = np.zeros(d)
            cvec[axis] = -sign  # linprog minimizes
            res = linprog(cvec, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
            if not res.success or -res.fun < 1e-9:
                continue
            v = res.x
            exact = _rationalize_separator(v, jumps)
            if exact is not None:
                return exact
    return None


def _rationalize_separator(v, jumps):
    for denom in (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 1024, 10**6):
        cand = [Fraction(x).limit_denominator(denom) for x in v]
        if all(c == 0 for c in cand):
            continue
        if all(sum(c * j for c, j in zip(cand, J)) >= 0 for J in jumps):
            lcm = 1
            for c in cand:
                lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
            ints = [int(c * lcm) for c in cand]
            g = 0
            for a in ints:
                g = math.gcd(g, abs(a))
            return tuple(a // g for a in ints)
    return None
