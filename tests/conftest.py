import contextlib
import signal

import numpy as np
import pytest

import ddjump as dj
from ddjump.dynamics import _rk4_flow


@pytest.fixture(scope="session")
def sir():
    return dj.builtin_hamer_sir(2.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def cert05(sir):
    return dj.certify(sir, np.array([1.0, 1.0]), rho_fraction=0.5)


@pytest.fixture(scope="session")
def cert09(sir):
    return dj.certify(sir, np.array([1.0, 1.0]), rho_fraction=0.9)


@pytest.fixture(scope="session")
def cert025(sir):
    return dj.certify(sir, np.array([1.0, 1.0]), rho_fraction=0.25)


@pytest.fixture(scope="session")
def birth_death():
    # +1 at constant rate, -1 at unit per-capita rate; fixed point x=1
    return dj.parse_model(
        """
[dimension]
1
[params]
lam = 1.0
[jumps]
 1 : lam
-1 : x1
"""
    )


def as_dict(dist):
    """``{point: mass}`` of a ``LatticeDistribution``."""
    return {tuple(int(v) for v in s): float(p) for s, p in zip(dist.support, dist.mass)}


def batch_flow(m, Y0, T, h, every):
    """(times, states) of many initial points flowed at once by RK4, every
    ``every`` steps of h; no domain or rate checks."""
    rates, J = m.kernel.rates_array, m.kernel.J
    n_steps = int(round(T / h))
    times, states, _ = _rk4_flow(lambda Y: rates(Y) @ J, np.asarray(Y0, float), h, n_steps, every)
    return times, states


def identity_certificate(d=2, c=None, rho=1.0):
    """Hand-built certificate with M = I around a given center."""
    c = np.zeros(d) if c is None else np.asarray(c, dtype=float)
    A = -2.0 * np.eye(d)
    return dj.StabilityCertificate(
        c=c,
        A=A,
        eigenvalues=np.array([-2.0 + 0j] * d),
        rho_hat=2.0,
        rho=rho,
        rho_prime=0.5 * (rho + 2.0),
        M=np.eye(d),
        delta0=1.0,
        c0=1.0,
        c1=1.0,
        JstarM=1.0,
        sum_JM=float(d),
        eps=0.1,
    )


@contextlib.contextmanager
def watchdog(seconds=10):
    """Fail with ``TimeoutError`` where the body runs past ``seconds``, so a
    run that never stops fails its test in-process instead of hanging it."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
