"""The int64 lattice-key codec and the code that indexes lattice points with it.

The dict-keyed implementations that the codec replaced are kept here as
references: the empirical TV with its bootstrap CI, the restricted
generator and point aggregation must agree with them bit for bit, and the
bootstrap must leave the random generator where the reference leaves it.
``tv_distance`` adds its terms in key order where the dict sum added them
in set order, so the two agree to rounding only.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import ddjump as dj
from ddjump import engine
from ddjump.dist import LatticeKeys, canonical_order
from ddjump.equilibrium import _empirical_tv_with_ci, build_restricted_generator, enumerate_ball
from ddjump.errors import DomainError, KeyRangeError
from conftest import as_dict

# ---------------------------------------------------------------------------
# references: the dict-keyed implementations
# ---------------------------------------------------------------------------


def from_points_ref(points, weights=None):
    points = np.asarray(points, dtype=np.int64)
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    if weights is None:
        m = np.bincount(inverse, minlength=len(uniq)).astype(float)
    else:
        m = np.bincount(inverse, weights=np.asarray(weights, dtype=float), minlength=len(uniq))
    m = m / m.sum()
    order = canonical_order(uniq)
    return dj.LatticeDistribution(uniq[order], m[order])


def empirical_tv_with_ci_ref(points, pi, reps, rng, n_boot=1000):
    emp = from_points_ref(points)
    d_emp = as_dict(emp)
    d_pi = as_dict(pi)
    keys = sorted(d_emp.keys() | d_pi.keys())
    p_hat = np.array([d_emp.get(k, 0.0) for k in keys])
    p_ref = np.array([d_pi.get(k, 0.0) for k in keys])
    tv = 0.5 * float(np.abs(p_hat - p_ref).sum())
    if n_boot <= 0:
        return tv, (tv, tv)
    tvs = np.empty(n_boot)
    chunk = max(1, min(n_boot, int(2e7 // max(len(keys), 1))))
    done = 0
    while done < n_boot:
        b = min(chunk, n_boot - done)
        counts = rng.multinomial(reps, p_hat, size=b)
        tvs[done : done + b] = 0.5 * np.abs(counts / reps - p_ref).sum(axis=1)
        done += b
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    return tv, (float(lo), float(hi))


def tv_distance_ref(p, q):
    dp = as_dict(p)
    dq = as_dict(q)
    keys = dp.keys() | dq.keys()
    return 0.5 * sum(abs(dp.get(k, 0.0) - dq.get(k, 0.0)) for k in keys)


def build_restricted_generator_ref(m, N, cert, delta):
    states = enumerate_ball(N, cert, delta)
    n = len(states)
    for i in range(m.d):
        lo, hi = states[:, i].min() / N, states[:, i].max() / N
        if lo < m.domain.lower[i] or hi > m.domain.upper[i]:
            raise DomainError("restriction ball leaves the domain")
    index = {tuple(s): i for i, s in enumerate(map(tuple, states))}
    r = engine.compile_rates(m)(states.astype(float) / N)
    rows, cols, vals = [], [], []
    for k, J in enumerate(m.jump_array):
        targets = states + J
        W = targets.astype(float) - N * cert.c
        q = np.einsum("ni,ij,nj->n", W, cert.M, W)
        ok = np.flatnonzero(q <= (N * delta) ** 2)
        for i in ok:
            rows.append(i)
            cols.append(index[tuple(targets[i])])
            vals.append(N * r[i, k])
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = np.asarray(Q.sum(axis=1)).ravel()
    Q = Q - sp.diags(diag)
    return states, Q.tocsr()


def _bits(x):
    return float(x).hex()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-40, 40), min_size=d, max_size=d), min_size=1, max_size=60
        )
    ),
    st.integers(-(2**40), 2**40),
)
def test_key_order_is_canonical_order(rows, shift):
    points = np.array(rows, dtype=np.int64) + shift
    codec = LatticeKeys(points)
    keys = codec.encode(points)
    assert keys.dtype == np.int64
    assert np.array_equal(np.argsort(keys, kind="stable"), canonical_order(points))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-(2**20), 2**20), min_size=d, max_size=d),
            min_size=1,
            max_size=40,
        )
    )
)
def test_keys_round_trip(rows):
    points = np.array(rows, dtype=np.int64)
    codec = LatticeKeys(points)
    keys = codec.encode(points)
    assert np.array_equal(codec.decode(keys), points)
    raw = np.stack(np.unravel_index(keys, codec.shape), axis=-1) + codec.lo
    assert np.array_equal(raw, points)


def test_keys_cover_every_point_set():
    a = np.array([[-3, 7]])
    b = np.array([[5, -2], [0, 0]])
    codec = LatticeKeys(a, b)
    assert codec.lo.tolist() == [-3, -2]
    assert codec.shape == (9, 10)
    assert codec.encode(np.vstack([a, b])).tolist() == [9, 8 * 10 + 0, 3 * 10 + 2]


@pytest.mark.parametrize(
    "points",
    [
        [[-(2**62)], [2**62]],  # 2^63 + 1 points on one axis
        [[0, 0], [2**32 - 1, 2**32 - 1]],  # 2^64 points: wraps to 0 in int64
        [[0, 0, 0], [2**21, 2**21, 2**21]],  # (2^21 + 1)^3 > 2^63
    ],
)
def test_overwide_box_raises_named_error(points):
    with pytest.raises(KeyRangeError) as info:
        LatticeKeys(np.array(points, dtype=np.int64))
    assert not isinstance(info.value, ValueError)


def test_widest_box_that_fits():
    points = np.array([[0], [2**63 - 2]], dtype=np.int64)
    codec = LatticeKeys(points)
    assert codec.shape == (2**63 - 1,)
    assert codec.encode(points).tolist() == [0, 2**63 - 2]


# ---------------------------------------------------------------------------
# point aggregation
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=80
        )
    ),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_from_points_matches_reference(rows, weighted, seed):
    points = np.array(rows, dtype=np.int64)
    w = np.random.default_rng(seed).random(len(points)) if weighted else None
    got = dj.LatticeDistribution.from_points(points, weights=w)
    ref = from_points_ref(points, weights=w)
    assert got.support.dtype == np.int64
    assert np.array_equal(got.support, ref.support)
    assert got.mass.tobytes() == ref.mass.tobytes()


# ---------------------------------------------------------------------------
# empirical TV and its bootstrap
# ---------------------------------------------------------------------------


def _assert_tv_matches_reference(points, pi, reps, n_boot, seed):
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    tv, (lo, hi) = _empirical_tv_with_ci(points, pi, reps, rng, n_boot=n_boot)
    tv_ref, (lo_ref, hi_ref) = empirical_tv_with_ci_ref(points, pi, reps, rng_ref, n_boot=n_boot)
    assert list(map(_bits, (tv, lo, hi))) == list(map(_bits, (tv_ref, lo_ref, hi_ref)))
    # the same number of random draws was consumed
    assert _bits(rng.random()) == _bits(rng_ref.random())


def _pi_on(rows, seed):
    support = np.unique(np.array(rows, dtype=np.int64), axis=0)
    w = np.random.default_rng(seed).random(len(support)) + 0.01
    return dj.LatticeDistribution.from_points(support, weights=w)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=50),
            st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=120),
        )
    ),
    st.sampled_from([0, 1, 2, 7, 40]),
    st.integers(0, 2**32 - 1),
)
def test_empirical_tv_matches_reference(supports, n_boot, seed):
    pi_rows, sample_rows = supports
    pi = _pi_on(pi_rows, seed)
    points = np.array(sample_rows, dtype=np.int64)
    _assert_tv_matches_reference(points, pi, len(points), n_boot, seed)


@pytest.mark.parametrize("n_boot", [0, 1, 25])
@pytest.mark.parametrize(
    "case",
    [
        "last_union_key_unsampled",
        "last_union_key_sampled",
        "sample_outside_support",
        "one_point_sample",
        "one_point_sample_last",
    ],
)
def test_empirical_tv_edge_cases_match_reference(case, n_boot):
    rng = np.random.default_rng(11)
    pi = _pi_on([[x, y] for x in range(-3, 4) for y in range(0, 4)], 3)
    if case == "last_union_key_unsampled":
        points = rng.integers(-3, 3, size=(300, 2))  # x = 3 is never drawn
    elif case == "last_union_key_sampled":
        points = np.vstack([rng.integers(-3, 3, size=(300, 2)), [[3, 3]]])
    elif case == "sample_outside_support":
        points = rng.integers(-6, 7, size=(300, 2))
    elif case == "one_point_sample":
        points = np.array([[0, 1]])
    else:
        points = np.array([[9, 9]])
    _assert_tv_matches_reference(points, pi, len(points), n_boot, 5)


def test_empirical_tv_on_a_sir_sample_matches_reference(sir, cert09):
    N, reps = 40, 3000
    pi = dj.stationary_exact(sir, N, cert09, 1.8)
    opts = dj.SimOptions(N=N, seed=4, horizon=2.0, record=(0.5, 1.5))
    rec = dj.sample_states(sir, opts, np.array([N, N]), (0.5, 1.5), reps)
    for k in range(2):
        _assert_tv_matches_reference(rec[:, k, :], pi, reps, 300, 9)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d), min_size=1, max_size=50),
            st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d), min_size=1, max_size=50),
        )
    ),
    st.integers(0, 2**32 - 1),
)
def test_tv_distance_matches_reference(supports, seed):
    p, q = _pi_on(supports[0], seed), _pi_on(supports[1], seed + 1)
    tv = dj.tv_distance(p, q)
    assert type(tv) is float
    assert tv == pytest.approx(tv_distance_ref(p, q), rel=1e-13, abs=1e-15)


def test_tv_distance_against_the_discrete_normal_matches_reference(sir, cert05):
    Sigma = dj.solve_lyapunov_sigma(cert05.A, dj.equilibrium_sigma2(sir, cert05.c))
    for N in (30, 100):
        pi = dj.stationary_exact(sir, N, cert05, 0.7)
        dn = dj.discrete_normal(N, cert05.c, Sigma)
        assert dj.tv_distance(pi, dn) == pytest.approx(tv_distance_ref(pi, dn), rel=1e-13)


# ---------------------------------------------------------------------------
# restricted generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N,delta", [(10, 0.7), (30, 0.7), (60, 0.7), (100, 0.5), (40, 1.8)])
def test_restricted_generator_matches_reference(sir, cert05, cert09, N, delta):
    cert = cert09 if delta > 1 else cert05
    states, Q = build_restricted_generator(sir, N, cert, delta)
    states_ref, Q_ref = build_restricted_generator_ref(sir, N, cert, delta)
    assert np.array_equal(states, states_ref)
    for attr in ("indptr", "indices", "data"):
        got, ref = getattr(Q, attr), getattr(Q_ref, attr)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
