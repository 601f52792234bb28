"""Public error paths, one table row each: a bad input raises or is reported,
and an input that is skipped on purpose is skipped (none fails silently)."""

import math
from unittest import mock

import numpy as np
import pytest

from revflow import (
    BoundsReport,
    ShootingError,
    beta,
    compile_expression,
    invert_increasing,
    load_profile_csv,
    make_preset,
    sectional_curvatures,
    shoot_cmc,
    space_from_expressions,
    unit_sphere_area,
    validate_space,
)
from revflow import cmc

_EUCLID = make_preset("euclidean", n=2)
_HYPER = make_preset("hyperbolic", -1.0, n=2)
_SPHERE = make_preset("spherical", 1.0, n=2)
_CLAMP = 0.999999 * _SPHERE.r_max_domain  # where shoot_cmc clamps a secant iterate
# f = 1 - r turns negative inside the probed radii
_F_NEGATIVE = space_from_expressions(2, f="1 - r", df="-1", d2f="0", h="r", dh="1", d2h="0")


def _load_csv(tmp_path, text):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    return load_profile_csv(path)


def _shoot_with(miss):
    """shoot_cmc on the unit sphere from r = 1, each shot a cylinder of its
    start r that misses rdot(b) = 0 by ``miss(r)``."""
    def shot(space, a, b, H, r_start, m, substeps):
        return np.full(m, r_start), miss(r_start)

    with mock.patch.object(cmc, "_shoot_once", shot):
        return shoot_cmc(_SPHERE, 0.0, 1.0, 1.0, 1.0, m=11)


# name -> (call on a scratch directory, (exception, match) or a check of the result)
_CASES = {
    "unit_sphere_area(1)": (lambda tmp: unit_sphere_area(1), (ValueError, "integer >= 2")),
    "beta of no radii": (lambda tmp: beta(_EUCLID, np.array([])), lambda out: out.shape == (0,)),
    "BoundsReport with r3 = r1": (
        lambda tmp: BoundsReport(r1=1.0, r2=2.0, r3=1.0, small_volume_threshold=1.0,
                                 criterion_met=True, sigma=2.0 * math.pi),
        (ValueError, "0 < r3 < r1 < r2")),
    "sectional_curvatures at r_max": (
        lambda tmp: sectional_curvatures(_SPHERE, _SPHERE.r_max_domain),
        (ValueError, "radius must lie in")),
    "validate_space past r_max": (
        lambda tmp: validate_space(_SPHERE, 2.0), (ValueError, "r_probe_max must lie")),
    "validate_space where f <= 0": (
        lambda tmp: validate_space(_F_NEGATIVE, 3.0),
        lambda rep: not rep.rss_ok and any("f not positive" in v for v in rep.violations)),
    "csv with a blank line": (
        lambda tmp: _load_csv(tmp, "z,r\n0,1\n\n0.5,1\n1,1\n"),
        lambda p: p.m == 3 and np.array_equal(p.r, np.ones(3))),
    "csv with a short row": (
        lambda tmp: _load_csv(tmp, "z,r\n0,1\n0.5\n1,1\n"), (ValueError, ":3: bad row")),
    "expression nested too deeply": (
        lambda tmp: compile_expression("-" * 5000 + "r"), (ValueError, "nested too deeply")),
    "invert_increasing across a jump": (
        lambda tmp: invert_increasing(lambda x: x + (x > 0.5), 1.0),
        (RuntimeError, r"inversion residual 5\.000e-01")),
    "shoot_cmc with no cylinder at H": (  # hyperbolic cylinders have H = 2 coth 2r > 2
        lambda tmp: shoot_cmc(_HYPER, 0.0, 1.0, 1.0, 1.1, m=201),
        (ShootingError, "non-finite trajectory")),
    "shoot_cmc on a flat shooting function": (
        lambda tmp: _shoot_with(lambda r: 1.0), (ShootingError, "secant stalled")),
    "shoot_cmc past r_max": (  # the secant's root 10 lies past r_max = pi
        lambda tmp: _shoot_with(lambda r: 0.0 if r == _CLAMP else r - 10.0),
        lambda out: np.array_equal(out.profile.r, np.full(11, _CLAMP))),
    "shoot_cmc out of iterations": (
        lambda tmp: shoot_cmc(_EUCLID, 0.0, 1.0, 1.5, 0.6, m=21, max_iter=1),
        (ShootingError, "no convergence in 1 iterations")),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_error_path(case, tmp_path):
    call, expect = _CASES[case]
    if isinstance(expect, tuple):
        exc, match = expect
        with pytest.raises(exc, match=match):
            call(tmp_path)
    else:
        assert expect(call(tmp_path))
