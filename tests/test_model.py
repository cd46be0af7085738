import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddjump as dj
from ddjump.errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    RateError,
    UnknownParameterError,
)

SIR_CONFIG = """
[dimension]
2
[params]
a = 2.0
b = 1.0
g = 1.0
[jumps]
-1  1 : a * x1 * x2
 1  0 : b
 0 -1 : g * x2
"""


def test_parse_sir_config():
    m = dj.parse_model(SIR_CONFIG)
    assert m.d == 2
    assert m.jumps == ((-1, 1), (1, 0), (0, -1))
    assert m.params == {"a": 2.0, "b": 1.0, "g": 1.0}


def test_parse_constant_rate_model():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1\n")
    assert dj.eval_rates(m, (0.0,)).tolist() == [1.0]


def test_unknown_parameter_rejected():
    with pytest.raises(UnknownParameterError):
        dj.parse_model("[dimension]\n1\n[jumps]\n1 : q * x1\n")


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        dj.parse_model("[dimension]\n2\n[jumps]\n1 : 1\n")


def test_trailing_garbage_rejected():
    with pytest.raises(ConfigError) as ei:
        dj.parse_model(SIR_CONFIG + "\nnot a section\n")
    assert ei.value.line is not None


def test_duplicate_jump_rejected():
    with pytest.raises(ConfigError):
        dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1\n1 : 2\n")


def test_zero_jump_rejected():
    with pytest.raises(ConfigError):
        dj.parse_model("[dimension]\n2\n[jumps]\n0 0 : 1\n")


@pytest.mark.parametrize(
    "jumps,kind,message,line",
    [
        ("1 : x1\n1 : 2\n", ConfigError, "duplicate jump (1,)", 5),
        ("1 : x1\n0 : x1\n", ConfigError, "jump (0,) is the zero vector", 5),
        ("1 : x1\n1 2 : x1\n", DimensionMismatchError, "jump (1, 2) has dimension 2, expected 1", 5),
    ],
)
def test_a_jump_error_names_its_line(jumps, kind, message, line):
    with pytest.raises(kind) as ei:
        dj.parse_model("[dimension]\n1\n[jumps]\n" + jumps)
    assert (str(ei.value), ei.value.line) == (f"{message} (line {line})", line)


def test_a_jump_error_from_the_model_has_no_line():
    # the one jump rule, called without a config
    with pytest.raises(ConfigError, match=r"^duplicate jump \(1,\)$"):
        dj.Model(d=1, jumps=((1,), (1,)), rate_exprs=(), params={}, domain=dj.Domain.unbounded(1))


@pytest.mark.parametrize(
    "line,col",
    [("1 : x1 +* 2", 9), ("  1 :   x1 +* 2  # note", 13), ("1 : q * x1", 5), ("\t1:x1 $", 7)],
)
def test_a_rate_error_names_its_column_in_the_config_line(line, col):
    with pytest.raises(ConfigError) as ei:
        dj.parse_model(f"[dimension]\n1\n[jumps]\n{line}\n")
    assert (ei.value.line, ei.value.col) == (4, col)
    assert str(ei.value).endswith(f" in rate for jump (1,) (line 4, col {col})")


def test_default_domain_is_nonnegative_orthant():
    m = dj.parse_model("[dimension]\n2\n[jumps]\n1 0 : 1\n")
    assert m.domain.contains((0.0, 0.0))
    assert not m.domain.contains((-0.1, 0.0))


def test_domain_section_bounds():
    m = dj.parse_model(
        "[dimension]\n1\n[jumps]\n1 : 1\n[domain]\nx1 >= 0.5\nx1 <= 2\n"
    )
    assert m.domain.contains((1.0,))
    assert not m.domain.contains((0.4,))
    assert not m.domain.contains((2.1,))


def test_eval_rates_sir_values(sir):
    assert dj.eval_rates(sir, (0.5, 1.0)).tolist() == [1.0, 1.0, 1.0]
    assert dj.eval_rates(sir, (0.0, 0.0)).tolist() == [0.0, 1.0, 0.0]
    assert dj.eval_rates(sir, (1.0, 1.0)).tolist() == [2.0, 1.0, 1.0]


def test_eval_rates_outside_domain(sir):
    with pytest.raises(DomainError):
        dj.eval_rates(sir, (-0.5, 1.0))


def test_negative_rate_detected():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1 - 2\n")
    with pytest.raises(RateError):
        dj.eval_rates(m, (1.0,))


def test_eval_drift_sir(sir):
    np.testing.assert_allclose(dj.eval_drift(sir, (0.5, 1.0)), [0.0, 0.0], atol=0)
    assert dj.eval_drift(sir, (1.0, 1.0)).tolist() == [-1.0, 1.0]


def test_drift_zero_when_all_rates_zero():
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1\n")
    assert dj.eval_drift(m, (0.0,)).tolist() == [0.0]


def test_eval_jacobian_sir_closed_form(sir):
    A = dj.eval_jacobian(sir, (0.5, 1.0))
    assert A.tolist() == [[-2.0, -1.0], [2.0, 0.0]]


def test_jacobian_of_constant_rates_is_zero():
    m = dj.parse_model("[dimension]\n2\n[jumps]\n1 0 : 2\n0 1 : 3\n")
    assert dj.eval_jacobian(m, (1.0, 1.0)).tolist() == [[0.0, 0.0], [0.0, 0.0]]


def _fd_jacobian(m, y, h=1e-6):
    d = m.d
    J = np.zeros((d, d))
    for i in range(d):
        yp = np.array(y, dtype=float)
        ym = np.array(y, dtype=float)
        yp[i] += h
        ym[i] -= h
        J[:, i] = (dj.eval_drift(m, yp) - dj.eval_drift(m, ym)) / (2 * h)
    return J


def test_jacobian_vs_finite_differences_at_point(sir):
    A = dj.eval_jacobian(sir, (1.0, 1.0))
    np.testing.assert_allclose(A, _fd_jacobian(sir, (1.0, 1.0)), rtol=1e-6, atol=1e-8)


def test_jacobian_matches_finite_differences_100_random_points(sir):
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = rng.uniform(0.1, 3.0, size=2)
        A = dj.eval_jacobian(sir, y)
        F = _fd_jacobian(sir, y)
        np.testing.assert_allclose(A, F, rtol=1e-6, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_drift_is_jump_weighted_rate_sum(sir, y1, y2):
    # re-evaluation identity, exact
    r = dj.eval_rates(sir, (y1, y2))
    F = dj.eval_drift(sir, (y1, y2))
    expected = sir.jump_array.T.astype(float) @ r
    assert F.tolist() == expected.tolist()


def test_builtin_hamer_sir_fixed_points():
    m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    np.testing.assert_allclose(dj.eval_drift(m, (0.5, 1.0)), [0.0, 0.0], atol=1e-15)
    m = dj.builtin_hamer_sir(1.0, 1.0, 1.0)
    np.testing.assert_allclose(dj.eval_drift(m, (1.0, 1.0)), [0.0, 0.0], atol=1e-15)
    m = dj.builtin_hamer_sir(1.0, 2.0, 1.0)
    np.testing.assert_allclose(dj.find_fixed_point(m, (1.0, 1.0)), [1.0, 2.0], atol=1e-12)


def test_builtin_hamer_sir_rejects_nonpositive():
    with pytest.raises(ValueError):
        dj.builtin_hamer_sir(0.0, 1.0, 1.0)


def test_jacobian_finite_difference_fallback():
    # symbolic quotient-rule derivative of x1^2/x1 divides by zero at 0; the
    # central-difference fallback recovers the derivative of the reduced form
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1^2 / x1\n")
    A = dj.eval_jacobian(m, (0.0,))
    assert A[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_model_pickles():
    import pickle

    m = dj.builtin_hamer_sir(2.0, 1.0, 1.0)
    m2 = pickle.loads(pickle.dumps(m))
    assert dj.eval_rates(m2, (1.0, 1.0)).tolist() == [2.0, 1.0, 1.0]


def test_model_pickle_round_trip_recompiles_kernel():
    # worker processes receive models as pickles: only the fields travel, and
    # the copy compiles a kernel that gives identical results
    import pickle

    m = dj.parse_model(
        "[dimension]\n2\n[params]\na = 1.3\n[jumps]\n"
        " 2 -3 : a * x1 / (1 + x2)\n-1  0 : x1^2 + 0.1\n 0  1 : 0.7 + x1*x2/(2 + x1)\n"
    )
    assert "kernel" not in m.__getstate__()
    m2 = pickle.loads(pickle.dumps(m))
    assert m2 == m and m2.kernel is not m.kernel
    Y = np.random.default_rng(3).uniform(0.0, 4.0, size=(100, 2))
    assert m2.kernel.rates_array(Y).tobytes() == m.kernel.rates_array(Y).tobytes()
    for y in Y:
        assert dj.eval_rates(m2, y).tobytes() == dj.eval_rates(m, y).tobytes()
        assert dj.eval_jacobian(m2, y).tobytes() == dj.eval_jacobian(m, y).tobytes()


def test_rate_errors_fire_in_jump_order():
    # rate 0 is valid and rate 1 divides by zero at x1 = 0
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1\n-1 : 1 / x1\n2 : x1 - 1\n")
    with pytest.raises(RateError, match="division by zero in rate 1"):
        dj.eval_rates(m, (0.0,))
    # a negative rate ahead of the division is reported first
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : x1 - 1\n-1 : 1 / x1\n")
    with pytest.raises(RateError, match="negative rate"):
        dj.eval_rates(m, (0.0,))


def test_overflowing_literal_is_a_rate_error():
    # 1e999 parses to an infinite constant, which the generated code must
    # still evaluate (to a non-finite rate, not a NameError)
    m = dj.parse_model("[dimension]\n1\n[jumps]\n1 : 1e999 * x1\n")
    with pytest.raises(RateError, match="non-finite rate 0"):
        dj.eval_rates(m, (1.0,))


def test_jacobian_matches_interpreter_jump_by_jump():
    # A = sum_J J grad r_J(y), summed in jump order with interpreter-evaluated
    # gradients; a single J.T @ G may fuse -3 * g with the running sum and
    # round differently
    from ddjump import expr as ex
    from expr_reference import evaluate

    m = dj.parse_model(
        "[dimension]\n2\n[params]\na = 1.3\n[jumps]\n"
        "-1  0 : x1^2 + 0.1\n 0  1 : 0.7 + x1*x2/(2 + x1)\n 2 -3 : a * x1 / (1 + x2)\n"
    )
    for y in np.random.default_rng(8).uniform(0.05, 3.0, size=(200, 2)):
        A = np.zeros((2, 2))
        for J, node in zip(m.jump_array.astype(float), m.rate_exprs):
            grad = [evaluate(ex.differentiate(node, i), y, m.params) for i in range(2)]
            A += np.outer(J, grad)
        assert dj.eval_jacobian(m, y).tobytes() == A.tobytes()
