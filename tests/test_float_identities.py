"""Floating-point identities that let the flow loop skip a recomputation.

Each one holds bit for bit because the maps involved are monotone and
correctly rounded, so they commute with min and max; NaN propagates through
both sides alike.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from revflow.hypersurface import _Geometry, _graph_slope, _max_graph_slope

# finite values and NaN: advance shifts only profiles whose min and max are finite
_FINITE_OR_NAN = st.floats(allow_infinity=False) | st.just(math.nan)
_ANY = st.floats()


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(deadline=None, max_examples=40)
@given(x=arrays(np.float64, st.integers(1, 40), elements=_FINITE_OR_NAN),
       c=st.floats(allow_nan=False, allow_infinity=False))
@np.errstate(over="ignore")  # x + c may overflow to inf, which the identity covers
def test_uniform_shift_moves_min_and_max_by_the_shift(x, c):
    # advance returns min(r) + c and max(r) + c for the projected r + c
    assert _same(float((x + c).min()), float(x.min()) + c)
    assert _same(float((x + c).max()), float(x.max()) + c)


@settings(deadline=None, max_examples=40)
@given(x=arrays(np.float64, st.integers(1, 40),
                elements=st.floats(min_value=0.0, exclude_min=True) | st.just(math.nan)))
def test_zero_shift_of_positive_radii_is_the_identity(x):
    # the projection starts from r itself for r + 0.0
    assert np.array_equal(x + 0.0, x, equal_nan=True)


@settings(deadline=None, max_examples=40)
@given(s=arrays(np.float64, st.integers(1, 40), elements=_ANY))
@np.errstate(all="ignore")  # s * s may overflow to inf, which the identity covers
def test_max_commutes_with_the_graph_slope_map(s):
    assert _same(float(np.sqrt(1.0 + s * s).max()), math.sqrt(1.0 + float((s * s).max())))


@settings(deadline=None, max_examples=40)
@given(rdot=arrays(np.float64, 12, elements=_ANY),
       f=arrays(np.float64, 12, elements=_ANY))
@np.errstate(all="ignore")  # rdot / f may divide by zero or overflow
def test_max_graph_slope_is_the_max_of_the_graph_slope(rdot, f):
    g = _Geometry(*[None] * len(_Geometry._fields))._replace(rdot=rdot, f=f)
    assert _same(_max_graph_slope(g), float(np.max(_graph_slope(g))))
