"""The ball enumeration and generator assembly as they stood before the row
scan and the direct CSR build: the test oracles for
``ddjump.engine.enumerate_ball`` and ``ddjump.equilibrium.build_generator``.

The box scan materializes every lattice point of ``engine.ball_box``, so its
memory is set by the box (230 times the ball's points for a 3-D SEIR ball).
The builder puts every jump's target through a lattice-key codec, assembles
COO, converts it to CSR and subtracts the row sums as a diagonal matrix.
"""

import math

import numpy as np
import scipy.sparse as sp

from ddjump import engine
from ddjump.dist import LatticeKeys
from ddjump.errors import CapExceededError


def enumerate_ball_box(N, cert, delta, cap=engine.STATE_CAP):
    """All lattice points X with ||X - N c||_M <= N delta: scan of the
    ``ball_box``, then exact quadratic-form filter."""
    d = len(cert.c)
    ball = cert.ball(N, delta)
    volume = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * ball.radius**d
    expected = volume / math.sqrt(np.linalg.det(cert.M))
    if expected > cap:
        raise CapExceededError(f"expected {expected:.3g} states exceeds cap {cap}")
    lo, hi = engine.ball_box(ball)
    axes = [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    # the "ij" scan lists the box in canonical order (first coordinate major)
    return grid[ball.contains(grid)].astype(np.int64)


def build_generator_ref(m, N, states):
    """Sparse generator of the chain held in ``states`` through the joint
    codec of states and targets, COO -> CSR and ``Q - diags``."""
    n, k = len(states), len(m.jump_array)
    r = engine.lattice_rates(m, states, N)
    targets = (m.jump_array[:, None, :] + states[None, :, :]).reshape(-1, m.d)  # jump-major
    codec = LatticeKeys(states, targets)
    keys = codec.encode(states)
    target_keys = codec.encode(targets)
    cols = np.searchsorted(keys, target_keys)
    kept = keys[np.minimum(cols, n - 1)] == target_keys
    rows = np.tile(np.arange(n), k)[kept]
    Q = sp.coo_matrix(((N * r.T).ravel()[kept], (rows, cols[kept])), shape=(n, n)).tocsr()
    return (Q - sp.diags(np.asarray(Q.sum(axis=1)).ravel())).tocsr()


def power_kernel_ref(Q, lam):
    """The transposed uniformized kernel ``(I + Q / lam)^T`` in CSR."""
    n = Q.shape[0]
    return (sp.eye(n, format="csr") + Q / lam).T.tocsr()
