"""The row-scan ball, the direct CSR generator and the in-place power kernel
against their oracles in ``generator_reference``: the same states, the same
bytes of Q and of the kernel, the same pi, in memory that grows with the
states alone (tracemalloc).  The power iteration against its oracle in
``power_reference``: the same stop, and pi within TV 1e-14."""

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse  # noqa: F401  (loaded before any traced peak)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ddjump as dj
from ddjump import engine
from ddjump.equilibrium import _normal_weights, _pi_power, _power_kernel, build_generator, build_restricted_generator
from ddjump.errors import ConvergenceError
from conftest import identity_certificate
from generator_reference import build_generator_ref, enumerate_ball_box, power_kernel_ref
from power_reference import pi_power_ref

# the stage script's CSR matrix that counts the products taken with it
_spec = importlib.util.spec_from_file_location(
    "stage_memory", Path(__file__).resolve().parent.parent / "scripts" / "stage_memory.py"
)
_stage_memory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_stage_memory)
CountingCSR = _stage_memory.CountingCSR

SEIR = """
[dimension]
3
[params]
alpha = 2.0
beta = 1.0
sigma = 1.5
gamma = 1.0
[jumps]
-1 1 0 : alpha * x1 * x3
1 0 0 : beta
0 -1 1 : sigma * x2
0 0 -1 : gamma * x3
[domain]
x1 >= 0
x2 >= 0
x3 >= 0
"""

# (rho_fraction, N, delta) of the benchmark's balls: cutoff, then equilibrium
BENCHMARK_BALLS = [(0.9, 50, 1.8), (0.9, 200, 1.8), (0.5, 100, 0.7), (0.5, 200, 0.7), (0.5, 300, 0.7), (0.5, 400, 0.7)]


def _same_csr(A, B):
    assert A.shape == B.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(A, attr), getattr(B, attr)
        assert a.dtype == b.dtype, attr
        assert a.tobytes() == b.tobytes(), attr


def _uniformization_rate(Q):
    """The uniformization rate as the power route has always taken it."""
    return float((-Q.diagonal()).max()) * (1.0 + 1e-6)


def _peak_mb(fn, *args):
    """Peak traced allocation of ``fn(*args)`` in MB; a ConvergenceError
    (ROADMAP item 1's stall) ends the call but not the measurement."""
    tracemalloc.start()
    try:
        fn(*args)
    except ConvergenceError:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 1e6


# ---------------------------------------------------------------------------
# the row scan against the box scan
# ---------------------------------------------------------------------------


def _ball_certificate(c, M):
    d = len(c)
    return dj.StabilityCertificate(
        c=np.asarray(c, dtype=float), A=-2.0 * np.eye(d), rho=1.0, M=M, delta0=1.0, JstarM=1.0, sum_JM=float(d)
    )


def _spd(d, seed, cond):
    """A symmetric positive definite M with eigenvalues 1 .. ``cond`` in a
    random orthonormal frame."""
    V = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
    M = (V * np.geomspace(1.0, cond, d)) @ V.T
    return 0.5 * (M + M.T)


# radii whose box scan stays under about 30,000 points
LARGEST_RADIUS = {1: 200.0, 2: 40.0, 3: 14.0}


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
    st.floats(1.0, 300.0),
    st.lists(st.floats(-60.0, 60.0), min_size=3, max_size=3),
    st.booleans(),
    st.floats(0.0, 1.0),
)
@example(3, 0, 270.0, [0.5, 0.5, 0.5], False, 0.3)  # a ball of no lattice point
@example(2, 1, 1.0, [3.0, -4.0, 0.0], False, 0.0)  # radius 0 on a lattice point
@example(1, 2, 1.0, [0.5, 0.0, 0.0], False, 0.5)  # both ends on the sphere
def test_the_row_scan_is_the_box_scan(d, seed, cond, centre, wide, u):
    # ``wide`` False: a radius under one lattice step
    radius = u * LARGEST_RADIUS[d] if wide else u
    cert = _ball_certificate(centre[:d], _spd(d, seed, cond))
    got = engine.enumerate_ball(1, cert, radius)
    ref = enumerate_ball_box(1, cert, radius)
    assert got.dtype == np.int64 and got.shape == (len(ref), d)
    assert np.array_equal(got, ref)


def test_the_row_scan_meets_the_empty_and_the_one_point_ball():
    cert = _ball_certificate([0.5, 0.5, 0.5], np.eye(3))
    assert engine.enumerate_ball(1, cert, 0.8).shape == (0, 3)  # the corners lie 0.87 away
    assert engine.enumerate_ball(1, _ball_certificate([2.0, -1.0], np.eye(2)), 0.0).tolist() == [[2, -1]]


@pytest.mark.parametrize("rf,N,delta", BENCHMARK_BALLS)
def test_the_benchmark_balls_keep_their_states_generator_and_kernel(sir, rf, N, delta):
    cert = dj.certify(sir, np.ones(2), rho_fraction=rf)
    states = engine.enumerate_ball(N, cert, delta)
    assert np.array_equal(states, enumerate_ball_box(N, cert, delta))
    Q = build_generator(sir, N, states)
    _same_csr(Q, build_generator_ref(sir, N, states))
    lam = _uniformization_rate(Q)
    K = power_kernel_ref(Q, lam)
    got_lam, PT = _power_kernel(Q)
    assert got_lam == lam
    _same_csr(PT, K)


@pytest.mark.parametrize("rf,N,delta", BENCHMARK_BALLS[:1] + BENCHMARK_BALLS[2:3])
def test_the_benchmark_balls_keep_pi(sir, rf, N, delta):
    # pi from the pipeline as it was: the box scan, the COO builder, the
    # kernel by scipy's sum, and the same iteration
    cert = dj.certify(sir, np.ones(2), rho_fraction=rf)
    states = enumerate_ball_box(N, cert, delta)
    Q = build_generator_ref(sir, N, states)
    lam = _uniformization_rate(Q)
    Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(sir, cert.c))
    ref = _pi_power(lam, power_kernel_ref(Q, lam), _normal_weights(states, N, cert.c, Sigma))
    pi = dj.stationary_exact(sir, N, cert, delta)
    assert pi.mass.tobytes() == (ref / ref.sum()).tobytes()


def _ball_kernel(sir, rf, N, delta):
    """A ball's uniformization rate, transposed kernel and warm start, as
    ``stationary_exact`` builds them."""
    cert = dj.certify(sir, np.ones(2), rho_fraction=rf)
    states = engine.enumerate_ball(N, cert, delta)
    lam, PT = _power_kernel(build_generator(sir, N, states))
    Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(sir, cert.c))
    return len(states), lam, PT, _normal_weights(states, N, cert.c, Sigma)


# (rho_fraction, N, delta, states, products): criterion 05's ball, then the
# cutoff's and the equilibrium sweep's smallest
CONVERGING_BALLS = [(0.5, 30, 0.78, 585, 2209), (0.9, 50, 1.8, 1691, 4241), (0.5, 100, 0.7, 5221, 8225)]


@pytest.mark.parametrize("rf,N,delta,states,products", CONVERGING_BALLS)
def test_the_power_iteration_stops_where_its_oracle_does(sir, rf, N, delta, states, products):
    n, lam, PT, pi0 = _ball_kernel(sir, rf, N, delta)
    assert n == states
    got, want = CountingCSR(PT), CountingCSR(PT)
    pi, ref = _pi_power(lam, got, pi0), pi_power_ref(lam, want, pi0)
    assert got.products == want.products == products
    assert abs(pi.sum() - 1.0) <= 1e-15
    assert 0.5 * np.abs(pi - ref).sum() <= 1e-14


def test_the_power_iteration_stalls_where_its_oracle_does(sir):
    # the equilibrium sweep's N=300 ball, 46,955 states
    n, lam, PT, pi0 = _ball_kernel(sir, 0.5, 300, 0.7)
    assert n == 46_955
    errors = []
    for solve in (_pi_power, pi_power_ref):
        with pytest.raises(ConvergenceError) as err:
            solve(lam, PT, pi0)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert errors[0].startswith("power iteration stopped after 2289 iterations:")


# ---------------------------------------------------------------------------
# the generator against the COO builder
# ---------------------------------------------------------------------------


def _rate(d, choice, a):
    """Rates valid everywhere, some of them 0 on whole hyperplanes or everywhere."""
    i = 1 + choice % d
    return [
        "0",
        f"{a}",
        f"(x{i} - {a})^2",
        f"0.1 * x{i}^2 + 0.3 * (x{1 + (choice + 1) % d} - 0.2)^2",
        f"x{i}^2",
    ][choice % 5]


@st.composite
def _held_chains(draw):
    d = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any).map(tuple)
    jumps = draw(st.lists(vectors, min_size=1, max_size=7, unique=True))
    rates = [_rate(d, draw(st.integers(0, 9)), draw(st.sampled_from([0, 0.1, 0.5, 1.7]))) for _ in jumps]
    text = f"[dimension]\n{d}\n[jumps]\n" + "".join(
        f"{' '.join(map(str, J))} : {r}\n" for J, r in zip(jumps, rates)
    )
    box = np.stack(np.meshgrid(*[np.arange(-3, 4)] * d, indexing="ij"), axis=-1).reshape(-1, d)
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(len(box)) < draw(st.floats(0.05, 1.0))
    states = box[keep] if keep.any() else box[:1]  # the box lists its points in canonical order
    return dj.parse_model(text), draw(st.integers(1, 10)), states + draw(st.integers(-50, 50))


@settings(max_examples=200, deadline=None)
@given(_held_chains())
def test_the_generator_is_the_coo_builders(chain):
    m, N, states = chain
    _same_csr(build_generator(m, N, states), build_generator_ref(m, N, states))


def test_a_diagonal_is_scipys_row_sum_in_column_order():
    # three kept jumps, listed out of column order; scipy's CSR row sum adds
    # the first entry to the sum of the rest, neither running sum does that
    m = dj.parse_model("[dimension]\n1\n[jumps]\n2 : 0.3\n-1 : 0.1\n1 : 0.2\n")
    states = np.arange(-5, 6)[:, None]
    Q = build_generator(m, 1, states)
    _same_csr(Q, build_generator_ref(m, 1, states))
    assert Q[5, 5] == -(0.1 + (0.2 + 0.3))
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) != (0.3 + 0.1) + 0.2
    assert Q[5].indices.tolist() == [4, 5, 6, 7]


def test_the_kernel_divides_as_scipy_does(sir, cert09):
    # scipy's Q / lam multiplies by 1 / lam, which moves the last bit here
    Q = build_generator(sir, 50, engine.enumerate_ball(50, cert09, 1.8))
    lam = _uniformization_rate(Q)
    assert np.any(Q.data / lam != Q.data * (1.0 / lam))
    K = power_kernel_ref(Q, lam)
    _same_csr(_power_kernel(Q)[1], K)


def test_a_state_with_no_exit_rate_gets_a_self_loop_of_one():
    # the chain is absorbed at 0: Q has no diagonal entry there, the kernel a 1
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1\n-1 : x1\n[domain]\nx1 >= 0\n")
    cert = identity_certificate(d=1, c=(0.3,))
    states, Q = build_restricted_generator(m, 10, cert, 0.3)
    assert states.ravel().tolist() == list(range(7))
    assert Q.indices[Q.indptr[0] : Q.indptr[1]].tolist() == []
    lam = _uniformization_rate(Q)
    K = power_kernel_ref(Q, lam)
    got_lam, PT = _power_kernel(Q)
    assert got_lam == lam and PT[0, 0] == 1.0
    _same_csr(PT, K)
    pi = dj.stationary_exact(m, 10, cert, 0.3)
    # the bytes of pi from the iteration that normalizes only the iterates a
    # check compares; the loop that normalized every step lands within TV
    # 1e-14 of them
    assert [x.hex() for x in pi.mass.tolist()] == [
        "0x1.ffffffffdd935p-1",
        "0x1.eaf906f51cccdp-39",
        "0x1.b444573a48154p-39",
        "0x1.819ff406b63b9p-39",
        "0x1.52d1e86b6dad3p-39",
        "0x1.27a2d4bf19db5p-39",
        "0x1.ffbbac1d2d6a0p-40",
    ]
    Sigma = dj.solve_lyapunov_sigma(cert.A, dj.equilibrium_sigma2(m, cert.c))
    ref = pi_power_ref(lam, K, _normal_weights(states, 10, cert.c, Sigma))
    assert 0.5 * np.abs(pi.mass - ref).sum() <= 1e-14


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def test_the_stationary_pipeline_holds_order_states_memory(sir, cert05):
    # 83,471 states, a Q of 4.3 MB: the box scan and the COO builder peaked
    # at 23 MB, twice each stage's result
    assert len(engine.enumerate_ball(400, cert05, 0.7)) == 83_471
    assert _peak_mb(dj.stationary_exact, sir, 400, cert05, 0.7) <= 12.0


def test_a_three_dimensional_ball_is_enumerated_in_order_states_memory():
    # SEIR at rho_fraction 0.9 has cond(M) = 270: its ball_box held 230 times
    # the ball's points, 750 MB here
    m = dj.parse_model(SEIR)
    cert = dj.certify(m, np.ones(3), rho_fraction=0.9)
    assert 260 < np.linalg.cond(cert.M) < 280
    assert len(engine.enumerate_ball(20, cert, 1.8)) == 20_045
    assert _peak_mb(engine.enumerate_ball, 20, cert, 1.8) <= 10.0
