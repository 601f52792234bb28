"""Floating-point identities that let the flow loop skip a recomputation.

Each one holds bit for bit because the maps involved are monotone and
correctly rounded, so they commute with min and max; NaN propagates through
both sides alike.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

# finite values and NaN: advance shifts only profiles whose min and max are finite
_FINITE_OR_NAN = st.floats(allow_infinity=False) | st.just(math.nan)


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

