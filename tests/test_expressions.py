import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow.expressions import ExpressionError, compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("1 + 2*3", var="r")
    assert f(0.0) == 7.0
    assert compile_expression("10 - 4/2", var="r")(0.0) == 8.0
    # power binds tighter than unary minus and is right-associative
    assert compile_expression("-2^2", var="r")(0.0) == -4.0
    assert compile_expression("2^3^2", var="r")(0.0) == 512.0
    assert compile_expression("2^-2", var="r")(0.0) == 0.25


def test_variable_functions_and_pi():
    f = compile_expression("cosh(r)^2 - sinh(r)^2", var="r")
    assert f(1.3) == pytest.approx(1.0, abs=1e-12)
    g = compile_expression("sin(pi*z)", var="z")
    assert g(0.5) == pytest.approx(1.0, rel=1e-15)
    assert compile_expression("sqrt(r)", var="r")(4.0) == 2.0
    assert compile_expression("log(exp(r))", var="r")(2.5) == pytest.approx(2.5)


def test_array_evaluation_and_constant_broadcast():
    z = np.linspace(0.0, 1.0, 11)
    f = compile_expression("1 + 0.1*cos(pi*z)", var="z")
    out = f(z)
    assert out.shape == z.shape
    np.testing.assert_allclose(out, 1.0 + 0.1 * np.cos(np.pi * z), rtol=1e-15)
    const = compile_expression("2.5", var="z")(z)
    assert const.shape == z.shape and np.all(const == 2.5)


def test_scientific_notation_numbers():
    assert compile_expression("1e-3 + 2.5E2", var="r")(0.0) == pytest.approx(250.001)


@pytest.mark.parametrize("bad", [
    "", "1 +", "(1", "sin 1", "foo(2)", "1 $ 2", "r q", "cos()",
])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, var="r")(1.0)


def test_wrong_variable_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("1 + z", var="r")


def test_math_matches_numpy():
    f = compile_expression("exp(-r^2/2)", var="r")
    assert f(1.7) == pytest.approx(math.exp(-1.7 ** 2 / 2), rel=1e-15)


_NUMPY = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
          "exp": np.exp, "log": np.log, "sqrt": np.sqrt}
# Grammar trees: ("num", literal) | ("pi",) | ("var",) | ("neg", t) | ("bin", op, l, r)
# | ("call", name, t).  Rendered fully parenthesised; evaluated below with numpy.
_LITERALS = st.from_regex(
    r"(?:[0-9]{1,4}\.?[0-9]{0,3}|\.[0-9]{1,3})(?:[eE][+-]?[0-9]{1,2})?", fullmatch=True)
_TREES = st.recursive(
    st.one_of(_LITERALS.map(lambda s: ("num", s)), st.just(("pi",)), st.just(("var",))),
    lambda sub: st.one_of(
        sub.map(lambda t: ("neg", t)),
        st.tuples(st.just("bin"), st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.just("call"), st.sampled_from(sorted(_NUMPY)), sub),
    ),
    max_leaves=12,
)
_SPACES = st.sampled_from(["", " ", "\n", "\t", "  \n ", "\r\n"])


def _render(tree, var, space):
    kind = tree[0]
    if kind == "num":
        return space() + tree[1] + space()
    if kind in ("pi", "var"):
        return space() + ("pi" if kind == "pi" else var) + space()
    if kind == "neg":
        return "-" + space() + "(" + _render(tree[1], var, space) + ")"
    if kind == "bin":
        return ("(" + _render(tree[2], var, space) + ")" + space() + tree[1]
                + space() + "(" + _render(tree[3], var, space) + ")")
    return tree[1] + space() + "(" + _render(tree[2], var, space) + ")"


def _direct(tree, x):
    kind = tree[0]
    if kind == "num":
        return float(tree[1])
    if kind == "pi":
        return np.pi
    if kind == "var":
        return x
    if kind == "neg":
        return -_direct(tree[1], x)
    if kind == "call":
        return _NUMPY[tree[1]](_direct(tree[2], x))
    left, right = _direct(tree[2], x), _direct(tree[3], x)
    out = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": operator.pow}[tree[1]](left, right)
    if isinstance(out, complex):  # a power of negative constants
        raise ValueError("no real value")
    return out


@settings(deadline=None, max_examples=300)
@given(tree=_TREES, var=st.sampled_from(["r", "z"]), data=st.data())
def test_compiled_trees_match_direct_evaluation_bit_for_bit(tree, var, data):
    text = _render(tree, var, lambda: data.draw(_SPACES))
    fn = compile_expression(text, var=var)
    for x in (0.7, np.linspace(0.1, 2.0, 7)):
        arr = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            try:
                want = np.asarray(_direct(tree, arr), dtype=float)
            except (ArithmeticError, TypeError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    fn(x)
                continue
            got = fn(x)
        assert isinstance(got, float) == np.isscalar(x)
        want = np.broadcast_to(want, arr.shape)
        assert np.asarray(got).tobytes() == want.tobytes(), text


@pytest.mark.parametrize("text", ["cos(-(-pi)^pi)", "r*(-2)^0.5", "(-8)^(1/3)"])
def test_constant_power_with_no_real_value_raises(text):
    with pytest.raises(ValueError, match="no real value"):
        compile_expression(text, var="r")(np.linspace(0.5, 1.0, 3))


@pytest.mark.parametrize("text,want", [("(-2)^2", 4.0), ("(-r)^0.5", math.nan)])
def test_real_powers_of_negative_bases(text, want):
    with np.errstate(invalid="ignore"):
        got = compile_expression(text, var="r")(2.0)
    assert isinstance(got, float)
    assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("bad", [
    "1 # c", "r**2", "+r", "0x10", "1_0", "1j", "True", "r.real", "r.__class__",
    "(r, r)", "sin(r, r)", "sin(x=r)", "2(3)", "__import__", "(" * 300 + "r" + ")" * 300,
])
def test_python_only_forms_rejected(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, var="r")


@pytest.mark.parametrize("text,value", [("  r", 2.0), ("1 +\n 2", 3.0)])
def test_whitespace_and_line_breaks_insignificant(text, value):
    assert compile_expression(text, var="r")(2.0) == value
