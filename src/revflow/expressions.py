"""Arithmetic expressions for warp functions and profiles.

Config files describe custom ambient spaces and initial profiles with
closed-form strings such as ``cosh(r)^2`` or ``1 + 0.1*cos(pi*z)``.  This
module compiles those strings into callables that evaluate on floats or
numpy arrays.

Grammar (``^`` is right-associative power)::

    expr  := term  (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ['^' unary]
    atom  := NUMBER | 'pi' | <variable> | FUNC '(' expr ')' | '(' expr ')'

with FUNC one of sin, cos, sinh, cosh, exp, log, sqrt and NUMBER a decimal
literal (``2``, ``0.5``, ``.5``, ``1e-3``).  Whitespace, line breaks
included, is insignificant.

With ``^`` read as ``**`` this is a subset of Python's expression syntax,
so Python's parser (``ast``) reads the text and ``_check`` holds the tree
to a whitelist: every node must be one of the productions above.  ``**``,
a leading ``+`` and every other Python construct (attributes, subscripts,
keyword arguments, other literals and names) raise ``ExpressionError``.
The checked tree is compiled once into a plain function that runs with
no builtins.  A power with no real value raises ``ValueError`` when its
operands are constants, ``(-2)^0.5``, and gives nan when they vary,
``(-r)^0.5``, as numpy does.
"""

from __future__ import annotations

import ast
import functools
import re
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "compile_expression"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
}


def _real_pow(base, exp):
    """``base ** exp``, raising ValueError where Python floats give a complex.

    Constant subexpressions run as Python floats, whose ``(-2.0) ** 0.5`` is
    complex; numpy values give nan there instead.
    """
    out = base ** exp
    if isinstance(out, complex):
        raise ValueError(f"({base!r})^{exp!r} has no real value")
    return out


# A name that is no identifier, so it cannot be the expression's variable
_POW = "^"
_NAMESPACE = {"__builtins__": {}, "pi": np.pi, _POW: _real_pow, **_FUNCTIONS}

_FORBIDDEN = re.compile(r"[^\sA-Za-z0-9_.()+\-*/^]")
_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# Python rejects integer literals such as ``07``; the grammar reads them as 7.0
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")


class ExpressionError(ValueError):
    """Raised when an expression is not in the grammar."""


def _check(node, source, var):
    """Return ``node`` if it is in the grammar, else raise ExpressionError.

    Constants become floats and powers calls of ``_real_pow``.
    """
    match node:
        case ast.BinOp(op=ast.Add() | ast.Sub() | ast.Mult() | ast.Div() | ast.Pow()):
            node.left = _check(node.left, source, var)
            node.right = _check(node.right, source, var)
            if isinstance(node.op, ast.Pow):
                func = ast.copy_location(ast.Name(_POW, ast.Load()), node)
                return ast.copy_location(ast.Call(func, [node.left, node.right], []), node)
        case ast.UnaryOp(op=ast.USub()):
            node.operand = _check(node.operand, source, var)
        case ast.Name(id=name) if name in ("pi", var):
            pass
        # a function name in parentheses, ``(sin)(r)``, starts after its call
        case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if (
                name in _FUNCTIONS and node.func.col_offset == node.col_offset):
            node.args = [_check(arg, source, var)]
        case ast.Constant() if _NUMBER.fullmatch(
                literal := source[node.col_offset:node.end_col_offset]):
            # float arithmetic on constant subexpressions, as on the values
            node.value = float(literal)
        case _:
            segment = source[node.col_offset:node.end_col_offset]
            raise ExpressionError(f"{segment!r} is not allowed")
    return node


@functools.lru_cache(maxsize=32)
def compile_expression(text: str, var: str = "r") -> Callable:
    """Compile ``text`` into a callable of the single variable ``var``.

    ``var`` is an identifier other than ``pi`` and the function names.
    The callable accepts floats or numpy arrays and returns a matching
    float or array (constant expressions broadcast to the input shape).
    The callable holds no state, so a repeated text, as in the members of
    a sweep, is compiled once.
    """
    bad = _FORBIDDEN.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {bad.group()!r} at position {bad.start()}")
    if "**" in text:
        raise ExpressionError("'**' is not allowed; write powers with '^'")
    # One line of single spaces, so Python's indentation rules do not apply.
    # With no ':' or ',' in the text, the lambda's body is all of the text.
    body = _LEADING_ZEROS.sub("", " ".join(text.split()).replace("^", "**"))
    source = f"lambda {var}: {body}"
    try:
        tree = ast.parse(source, mode="eval")
        tree.body.body = _check(tree.body.body, source, var)
        node = eval(compile(tree, "<expression>", "eval"), _NAMESPACE)
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):  # how Python's parser and compiler report depth
        raise ExpressionError("expression nested too deeply") from None

    def evaluate(x):
        arr = np.asarray(x, dtype=float)
        out = node(arr)
        out = np.asarray(out, dtype=float)
        if out.shape != arr.shape:
            out = np.full(arr.shape, float(out))
        return float(out) if arr.shape == () else out

    return evaluate
