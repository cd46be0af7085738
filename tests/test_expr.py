import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddjump import expr as ex
from ddjump.errors import DimensionMismatchError, ExprSyntaxError, UnknownParameterError
from ddjump.model import Domain, Model, parse_model
from expr_reference import evaluate


def parse(text, dim=2, params=("a", "b")):
    return ex.parse_expr(text, dim, params)


def test_precedence_and_eval():
    node = parse("a + 2 * x1 - x2 / 4")
    v = evaluate(node, (2.0, 8.0), {"a": 1.0, "b": 0.0})
    assert v == 1.0 + 4.0 - 2.0


def test_power_binds_tighter_than_unary_minus():
    node = parse("-x1^2")
    assert evaluate(node, (3.0,), {}) == -9.0


def test_double_star_power():
    node = parse("x1 ** 3")
    assert evaluate(node, (2.0,), {}) == 8.0


def test_parenthesized_power():
    node = parse("(x1 + 1)^2")
    assert evaluate(node, (2.0,), {}) == 9.0


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as ei:
        parse("a + * x1")
    assert ei.value.col == 5


def test_trailing_garbage_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x1 + 1 )")


def test_unknown_parameter():
    with pytest.raises(UnknownParameterError):
        parse("q * x1")


def test_variable_out_of_range():
    with pytest.raises(DimensionMismatchError):
        parse("x3", dim=2)


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("x1^1.5")


def test_zero_exponent_is_one():
    node = parse("x1^0")
    assert evaluate(node, (7.0,), {}) == 1.0


def test_division():
    node = parse("a / x1")
    assert evaluate(node, (4.0,), {"a": 2.0}) == 0.5
    with pytest.raises(ZeroDivisionError):
        evaluate(node, (0.0,), {"a": 2.0})


def _random_node(draw, depth=0):
    leaf = st.one_of(
        st.floats(min_value=-3, max_value=3).map(ex.Const),
        st.integers(0, 1).map(ex.Var),
        st.just(ex.Param("a")),
    )
    if depth >= 3:
        return draw(leaf)
    branch = draw(st.integers(0, 6))
    if branch <= 2:
        return draw(leaf)
    left = _random_node(draw, depth + 1)
    right = _random_node(draw, depth + 1)
    if branch == 3:
        return ex.Add(left, right)
    if branch == 4:
        return ex.Sub(left, right)
    if branch == 5:
        return ex.Mul(left, right)
    return ex.Pow(left, draw(st.integers(0, 3)))


@st.composite
def nodes(draw):
    return _random_node(draw)


@settings(max_examples=60, deadline=None)
@given(nodes(), st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.5, 1.5))
def test_symbolic_derivative_matches_finite_differences(node, y1, y2, a):
    params = {"a": a}
    h = 1e-6
    for i in range(2):
        d_sym = evaluate(ex.differentiate(node, i), (y1, y2), params)
        yp = [y1, y2]
        ym = [y1, y2]
        yp[i] += h
        ym[i] -= h
        d_fd = (evaluate(node, yp, params) - evaluate(node, ym, params)) / (2 * h)
        assert d_sym == pytest.approx(d_fd, rel=2e-4, abs=2e-4)


def test_derivative_of_constant_rate_is_exact_zero():
    node = parse("a * b", params=("a", "b"))
    d = ex.differentiate(node, 0)
    assert d == ex.Const(0.0)


def test_interpreter_matches_codegen_bitwise():
    # the two evaluation paths share operation order, so equality is exact
    node = parse("a*x1*x2 + x1^3 - x2/7 + (x1 - b)^2", params=("a", "b"))
    params = {"a": 2.7, "b": 0.3}
    src = ex.codegen(node, params)
    fn = eval(f"lambda y0, y1: {src}")  # codegen output: pure arithmetic
    rng = np.random.default_rng(0)
    for _ in range(200):
        y = rng.uniform(0.01, 5.0, size=2)
        assert evaluate(node, y, params) == fn(float(y[0]), float(y[1]))


def _bits(v):
    return float(v).hex()


def _scalar_forms(m, y):
    """Every rate and every gradient entry at ``y`` from the kernel's scalar
    entries, as float arrays of shape (k,) and (k, d)."""
    k = len(m.rate_exprs)
    rates = np.array([rate(*y) for rate in m.kernel.rate_entries], dtype=float)
    grads = np.array([grad(*y) for grad in m.kernel.grad_entries], dtype=float)
    return rates, grads.reshape(k, m.d)


def _assert_kernel_matches_interpreter(m, points):
    """Scalar form, array form and the interpreter agree bit for bit on every
    rate and every gradient entry (derivatives taken by ``ex.differentiate``)."""
    d = m.d
    R = m.kernel.rates_array(np.array(points, dtype=float))
    G = m.kernel.grads_array(np.array(points, dtype=float))
    for y, r_row, g_row in zip(points, R, G):
        rates, grads = _scalar_forms(m, y)
        for k, node in enumerate(m.rate_exprs):
            ref = _bits(evaluate(node, y, m.params))
            assert _bits(rates[k]) == _bits(r_row[k]) == ref
            for i in range(d):
                ref = _bits(evaluate(ex.differentiate(node, i), y, m.params))
                assert _bits(grads[k, i]) == _bits(g_row[k, i]) == ref


@settings(max_examples=60, deadline=None)
@given(
    st.lists(nodes(), min_size=1, max_size=3),
    st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)), min_size=1, max_size=4),
    st.floats(0.5, 1.5),
)
def test_kernel_forms_match_interpreter_bitwise(rate_nodes, points, a):
    jumps = ((1, 0), (0, 1), (1, 1))[: len(rate_nodes)]
    m = Model(
        d=2, jumps=jumps, rate_exprs=tuple(rate_nodes), params={"a": a}, domain=Domain.unbounded(2)
    )
    _assert_kernel_matches_interpreter(m, points)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(nodes(), min_size=1, max_size=3),
    st.sampled_from([(), (5,), (2, 3)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 1.5),
)
def test_kernel_array_forms_match_scalar_forms_on_every_layout(rate_nodes, batch, transposed, seed, a):
    # the array forms store their output jump-major; shapes, values and the
    # reading of a Y whose points run along its last memory axis stay put
    k, d = len(rate_nodes), 2
    m = Model(
        d=d, jumps=((1, 0), (0, 1), (1, 1))[:k], rate_exprs=tuple(rate_nodes), params={"a": a},
        domain=Domain.unbounded(d),
    )
    pts = np.random.default_rng(seed).uniform(0.1, 2.0, size=batch + (d,))
    Y = np.moveaxis(np.ascontiguousarray(np.moveaxis(pts, -1, 0)), 0, -1) if transposed else pts
    R, G = m.kernel.rates_array(Y), m.kernel.grads_array(Y)
    assert R.shape == batch + (k,) and G.shape == batch + (k, d)
    for idx in np.ndindex(batch):
        rates, grads = _scalar_forms(m, [float(v) for v in pts[idx]])
        assert R[idx].tobytes() == rates.tobytes()
        assert G[idx].tobytes() == grads.tobytes()


def test_kernel_matches_interpreter_with_division():
    m = parse_model(
        "[dimension]\n2\n[params]\na = 1.3\n[jumps]\n"
        " 2 -3 : a * x1 / (1 + x2)\n-1  0 : -x1^2 + 4\n 0  1 : 0.7 + x1*x2/(2 + x1)^3\n"
    )
    rng = np.random.default_rng(1)
    _assert_kernel_matches_interpreter(m, [tuple(p) for p in rng.uniform(0.0, 5.0, size=(200, 2))])
