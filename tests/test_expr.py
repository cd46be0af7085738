from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_parser_reference as oracle
from ddjump import expr as ex
from ddjump.errors import ConfigError, DimensionMismatchError, ExprSyntaxError, UnknownParameterError
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
    # nested exponents that multiply to at most MAX_EXPONENT (990 and 600)
    assert evaluate(parse("(x1^30)^33"), (1.0,), {}) == 1.0
    assert evaluate(parse("((x1^2 * x2)^3 + 1)^100"), (1.0, 0.0), {}) == 1.0


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


# The parser against the hand-written recursive-descent parser it replaced
# (tests/expr_parser_reference.py): the same tree for every input that the
# oracle accepts, and a ConfigError for every input that it rejects.

KEYWORD_PARAMS = ("a", "lambda", "in", "True")
# (spelling, value) of number literals, exponents included
LITERALS = (("05", 5.0), ("1.", 1.0), (".25", 0.25), ("3e2", 300.0), ("\u0663", 3.0), ("2.5E-1", 0.25))
EXPONENTS = (("0", 0), ("2", 2), ("03", 3), ("2.", 2), ("1e1", 10), ("\u0662", 2))
SPACES = ("", " ", "  ", "\t", "\n", "\u00a0", " \r\n ")
# binding level of each node: a child below the level its place needs is
# parenthesized (Add/Sub 1, Mul/Div 2, Neg 3, Pow and leaves 4)
_LEVEL = {ex.Add: 1, ex.Sub: 1, ex.Mul: 2, ex.Div: 2, ex.Neg: 3}
_OPS = {ex.Add: "+", ex.Sub: "-", ex.Mul: "*", ex.Div: "/"}


def _printed(draw, depth=0):
    """A random tree and the tokens that spell it."""
    branch = draw(st.integers(0, 6)) if depth < 4 else 0
    if branch == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            spelling, value = draw(st.sampled_from(LITERALS))
            return ex.Const(value), [spelling]
        if kind == 1:
            i = draw(st.integers(0, 1))
            return ex.Var(i), [f"x{i + 1}"]
        name = draw(st.sampled_from(KEYWORD_PARAMS))
        return ex.Param(name), [name]

    def child(need):
        node, toks = _printed(draw, depth + 1)
        if _LEVEL.get(type(node), 4) < need or draw(st.integers(0, 5)) == 0:
            toks = ["(", *toks, ")"]
        return node, toks

    if branch == 1:
        node, toks = child(3)
        return ex.Neg(node), ["-", *toks]
    if branch == 2:
        base, toks = _printed(draw, depth + 1)
        if not isinstance(base, (ex.Const, ex.Var, ex.Param)) or draw(st.booleans()):
            toks = ["(", *toks, ")"]
        spelling, n = draw(st.sampled_from(EXPONENTS))
        return ex.Pow(base, n), [*toks, draw(st.sampled_from(["^", "**"])), spelling]
    op = (ex.Add, ex.Sub, ex.Mul, ex.Div)[branch - 3]
    (left, ltoks), (right, rtoks) = child(_LEVEL[op]), child(_LEVEL[op] + 1)
    return op(left, right), [*ltoks, _OPS[op], *rtoks]


def _wordlike(ch):
    return ch.isalnum() or ch in "_."


@st.composite
def printed_trees(draw):
    """A random tree and a text that spells it, with random spacing."""
    tree, toks = _printed(draw)
    text = draw(st.sampled_from(SPACES))
    for prev, tok in zip([""] + toks, toks):
        space = draw(st.sampled_from(SPACES))
        if not space and prev and _wordlike(prev[-1]) and _wordlike(tok[0]):
            space = " "
        text += space + tok
    return tree, text + draw(st.sampled_from(SPACES))


@settings(max_examples=400, deadline=None)
@given(printed_trees())
def test_printed_trees_parse_to_the_oracle_tree(case):
    tree, text = case
    assert oracle.parse(text, 2, KEYWORD_PARAMS) == tree
    # the oracle accepts nested exponents that multiply past MAX_EXPONENT; the parser does not
    if ex._copies(tree) > ex.MAX_EXPONENT:
        with pytest.raises(ExprSyntaxError, match="^nested exponents multiply to"):
            ex.parse_expr(text, 2, KEYWORD_PARAMS)
    else:
        assert ex.parse_expr(text, 2, KEYWORD_PARAMS) == tree


SOUP = (
    "x1", "x2", "x3", "a", "lambda", "in", "True", "q", "05", "1.", ".25", "3e2", "\u0663", "2",
    "+", "-", "*", "/", "^", "**", "(", ")", " ", "\n",
    "0x", "1_0", "1j", "#", "$", ",", ":", "=", "\u00a0",
)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=9))
def test_token_soup_is_accepted_exactly_when_the_oracle_accepts(tokens):
    text = "".join(tokens)
    try:
        expected = oracle.parse(text, 2, KEYWORD_PARAMS)
    except Exception:
        expected = None
    if expected is None or ex._copies(expected) > ex.MAX_EXPONENT:
        with pytest.raises(ConfigError):
            ex.parse_expr(text, 2, KEYWORD_PARAMS)
    else:
        assert ex.parse_expr(text, 2, KEYWORD_PARAMS) == expected


MODELS = Path(__file__).resolve().parent.parent / "models"


@pytest.mark.parametrize("name", ["hamer_sir.cfg", "birth_death.cfg"])
def test_shipped_model_rates_parse_to_the_oracle_tree(name):
    text = (MODELS / name).read_text()
    m = parse_model(text)
    jumps = text.split("[jumps]", 1)[1].split("[", 1)[0]
    rates = [ln.split("#")[0].split(":", 1)[1] for ln in jumps.splitlines() if ":" in ln.split("#")[0]]
    assert tuple(oracle.parse(r.strip(), m.d, m.params) for r in rates) == m.rate_exprs


@pytest.mark.parametrize(
    "text,col",
    [("x1 ^ 1e400", 6), ("x1 ^ 1000", 6), ("x1 ^ 2.5", 6), ("x1^(2)", 5), ("x1 ^ x2", 6), ("x1 ^ -2", 6),
     # codegen writes x^n out as n factors, so exponents along powers nested
     # in one another's bases multiply; the outer exponent is reported
     ("(x1^20)^60", 9), ("(x1^999)^999", 10), ("((x1^0)^999)^999", 14), ("(x1^2 + (x2^3)^5)^67", 19)],
)
def test_an_exponent_must_be_a_bare_integer_up_to_the_maximum(text, col):
    with pytest.raises(ExprSyntaxError) as ei:
        parse(text)
    assert ei.value.col == col


@pytest.mark.parametrize("text,col", [("(x1 x2)", 2), ("(2x1)", 2), ("x1*(a b)", 5), ("(1j)", 2)])
def test_a_missing_operator_in_parentheses_is_invalid_syntax_without_a_comma_hint(text, col):
    # the rate language has no commas; outside parentheses Python gives no hint
    with pytest.raises(ExprSyntaxError, match=r"^invalid syntax$") as ei:
        parse(text)
    assert ei.value.col == col


def test_python_syntax_errors_keep_their_message_at_the_rate_column():
    with pytest.raises(ExprSyntaxError, match="'\\(' was never closed") as ei:
        parse("x1 + (x2")
    assert ei.value.col == 6
    with pytest.raises(ExprSyntaxError, match="unmatched '\\)'") as ei:
        parse("x1 + 1 )")
    assert ei.value.col == 8


def test_a_syntax_error_is_reported_before_an_unknown_name():
    with pytest.raises(ExprSyntaxError):
        parse("q * (x1")


def test_a_rate_too_deep_for_pythons_parser_is_a_syntax_error():
    # 5,000 unary minuses overflow the parser's own stack (a MemoryError)
    with pytest.raises(ExprSyntaxError, match="nested too deeply"):
        parse("-" * 5000 + "x1")


def test_a_sum_of_200_terms_still_compiles():
    # the generated kernel nests 200 parentheses, Python's limit; see test_cli
    m = parse_model("[dimension]\n1\n[jumps]\n1 : " + "+".join(["x1"] * 200) + "\n-1 : x1\n")
    assert m.kernel.rate_entries[0](1.5) == 300.0
