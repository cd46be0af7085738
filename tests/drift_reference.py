"""The drift-condition scan as a per-state scalar loop: the test oracle for
``dynamics.check_drift_condition``, which scores every sample in one array
pass.

The shell sampler maps each normalized normal draw by ``Linv_T @ u`` and
dedups the lattice points through a set of tuples; ``generator_apply_G``
applies the exact generator at one lattice state in x-units.
"""

import math

import numpy as np

import ddjump as dj
from ddjump.dynamics import _slack_threshold, m_sphere_map


def generator_apply_G(m, cert, X, N):
    """Exact Q^N G at lattice state X: sum_J N r_J(x) [G(x + J/N) - G(x)]."""
    x = np.asarray(X, dtype=float) / N
    r = dj.eval_rates(m, x)
    g = cert.m_norm(x - cert.c)
    total = 0.0
    for J, rj in zip(m.jump_array, r):
        total += N * rj * (cert.m_norm(x + J / N - cert.c) - g)
    return total, g


def shell_samples_reference(m, cert, N, sample_count, seed, g_lo, g_hi):
    """The set of distinct lattice shell samples, as tuples."""
    rng = np.random.default_rng(seed)
    Linv_T = m_sphere_map(cert.M)
    samples = []
    attempts = 0
    while len(samples) < sample_count and attempts < 50 * sample_count:
        attempts += 1
        radius = g_lo * (g_hi / g_lo) ** rng.random()
        u = rng.normal(size=m.d)
        u /= np.linalg.norm(u)
        x = cert.c + radius * (Linv_T @ u)
        X = np.round(N * x).astype(np.int64)
        g = cert.m_norm(X / N - cert.c)
        if g_lo <= g <= g_hi and m.domain.contains(X / N):
            samples.append(tuple(X))
    return set(samples)


def check_drift_reference(m, cert, N, sample_count=2000, seed=0, k1_floor=0.05):
    """(n_samples, K1, max slack above, g_min, g_max, threshold sample, levels):
    the scan's report fields, the lattice point at the threshold (None when
    every sample fails) and each sample's level G, keyed by the sample."""
    samples = shell_samples_reference(m, cert, N, sample_count, seed, k1_floor / math.sqrt(N), cert.delta0)
    points = sorted(samples)
    gs, slack, levels = [], [], {}
    for X in points:
        q, g = generator_apply_G(m, cert, np.array(X), N)
        gs.append(g)
        slack.append(q + cert.rho * g)
        levels[X] = g
    order = np.lexsort((slack, gs))
    gs, slack, k = _slack_threshold(gs, slack)
    n = len(gs)
    g_min = float(gs[0]) if n else math.nan
    g_max = float(gs[-1]) if n else math.nan
    if k >= n:
        return n, math.inf, math.nan, g_min, g_max, None, levels
    k1 = float(gs[k] * math.sqrt(N))
    return n, k1, float(slack[k:].max()), g_min, g_max, points[order[k]], levels
