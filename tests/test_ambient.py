import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow import (
    make_preset,
    sectional_curvatures,
    space_from_expressions,
    validate_space,
)


class TestPresets:
    def test_euclidean_warp(self, euclid2):
        r = np.linspace(0.2, 5.0, 7)
        f, fp, fpp, h, hp, hpp = euclid2.warp(r)
        assert np.all(f == 1.0) and np.all(fp == 0.0) and np.all(fpp == 0.0)
        np.testing.assert_array_equal(h, r)
        assert np.all(hp == 1.0) and np.all(hpp == 0.0)
        assert euclid2.r_max_domain == math.inf

    def test_hyperbolic_values(self, hyper2):
        f, _, _, h, _, _ = hyper2.warp(1.0)
        assert float(f) == pytest.approx(1.5430806348152437, abs=1e-12)
        assert float(h) == pytest.approx(1.1752011936438014, abs=1e-12)

    def test_spherical_domain(self):
        sph = make_preset("spherical", 1.0, n=2)
        assert sph.r_max_domain == pytest.approx(math.pi / 2, abs=1e-15)
        sph4 = make_preset("spherical", 4.0, n=2)
        assert sph4.r_max_domain == pytest.approx(math.pi / 4, abs=1e-15)

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_preset("hyperbolic", 1.0)
        with pytest.raises(ValueError):
            make_preset("spherical", -1.0)
        with pytest.raises(ValueError):
            make_preset("euclidean", 2.0)
        with pytest.raises(ValueError):
            make_preset("torus")

    def test_n_validation(self):
        with pytest.raises(ValueError):
            make_preset("euclidean", n=1)


def test_eval_fh_is_warp_f_and_h(euclid2, hyper2, sphere2, custom_rss2):
    # every space has its own (f, h) evaluator, bit-identical to warp's
    r = np.linspace(0.05, 1.5, 9).reshape(3, 3)
    for space in (euclid2, hyper2, sphere2, custom_rss2):
        assert space.fh is not None
        w = space.warp(r)
        f, h = space.eval_fh(r)
        np.testing.assert_array_equal(f, w[0])
        np.testing.assert_array_equal(h, w[3])


class TestSectionalCurvatures:
    def test_euclidean_flat(self, euclid2):
        sc = sectional_curvatures(euclid2, 1.7)
        assert (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij) == (0.0, 0.0, 0.0, 0.0)

    def test_hyperbolic_minus_one(self, hyper2):
        sc = sectional_curvatures(hyper2, 1.0)
        for val in (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij):
            assert float(val) == pytest.approx(-1.0, abs=1e-12)

    def test_spherical_plus_one(self, sphere2):
        sc = sectional_curvatures(sphere2, 0.5)
        for val in (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij):
            assert float(val) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self, sphere2, euclid2):
        with pytest.raises(ValueError):
            sectional_curvatures(sphere2, 2.0)  # beyond pi/2
        with pytest.raises(ValueError):
            sectional_curvatures(euclid2, 0.0)
        with pytest.raises(ValueError):
            sectional_curvatures(euclid2, -1.0)

    @settings(deadline=None, max_examples=40)
    @given(lam=st.floats(-4.0, -0.1), r=st.floats(0.05, 3.0))
    def test_hyperbolic_family_constant(self, lam, r):
        sp = make_preset("hyperbolic", lam, n=3)
        sc = sectional_curvatures(sp, r)
        for val in (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij):
            assert float(val) == pytest.approx(lam, abs=1e-11)

    @settings(deadline=None, max_examples=40)
    @given(lam=st.floats(0.1, 4.0), frac=st.floats(0.05, 0.9))
    def test_spherical_family_constant(self, lam, frac):
        sp = make_preset("spherical", lam, n=2)
        sc = sectional_curvatures(sp, frac * sp.r_max_domain)
        for val in (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij):
            assert float(val) == pytest.approx(lam, abs=1e-11)


class TestValidateSpace:
    def test_euclidean_branch_b(self, euclid2):
        rep = validate_space(euclid2, 3.0)
        assert rep.rss_ok and rep.rss2_branch == "b" and not rep.violations

    def test_hyperbolic_branch_a(self, hyper2):
        rep = validate_space(hyper2, 3.0)
        assert rep.rss_ok and rep.rss2_branch == "a"

    def test_spherical_no_branch(self, sphere2):
        rep = validate_space(sphere2, 0.99 * sphere2.r_max_domain)
        assert rep.rss_ok and rep.rss2_branch is None

    def test_custom_matches_hyperbolic_preset(self, hyper2):
        custom = space_from_expressions(
            2, f="cosh(r)", df="sinh(r)", d2f="cosh(r)",
            h="sinh(r)", dh="cosh(r)", d2h="sinh(r)")
        rep_c = validate_space(custom, 3.0, samples=64)
        rep_h = validate_space(hyper2, 3.0, samples=64)
        assert rep_c.rss_ok and rep_c.rss2_branch == "a"
        assert rep_c.to_dict() == rep_h.to_dict()
        grid = np.linspace(0.05, 3.0, 64)
        sc_c = sectional_curvatures(custom, grid)
        sc_h = sectional_curvatures(hyper2, grid)
        np.testing.assert_array_equal(sc_c.S_zi, sc_h.S_zi)
        np.testing.assert_array_equal(sc_c.S_ri, sc_h.S_ri)

    def test_bad_h_cited(self):
        bad = space_from_expressions(2, f="1", df="0", d2f="0",
                                     h="r^2", dh="2*r", d2h="2")
        rep = validate_space(bad, 3.0)
        assert not rep.rss_ok
        assert any("h'(0)" in v for v in rep.violations)

    def test_samples_validation(self, euclid2):
        with pytest.raises(ValueError):
            validate_space(euclid2, 3.0, samples=1)

    def test_custom_rss2_space(self, custom_rss2):
        rep = validate_space(custom_rss2, 2.5)
        assert rep.rss_ok and rep.rss2_branch == "a"


class TestMonotonicityRemarks:
    """Sign conditions force h increasing, h' non-decreasing, and f >= 1."""

    @pytest.mark.parametrize("name", ["euclid2", "hyper2"])
    def test_h_increasing(self, name, request):
        space = request.getfixturevalue(name)
        grid = np.linspace(0.01, 3.0, 200)
        _, _, _, h, hp, _ = space.warp(grid)
        assert np.all(np.diff(h) > 0)
        assert np.all(np.diff(hp) >= 0)

    def test_hyperbolic_f_increasing_and_at_least_one(self, hyper2):
        grid = np.linspace(0.01, 3.0, 200)
        f = hyper2.warp(grid)[0]
        assert np.all(np.diff(f) > 0)
        assert np.all(f >= 1.0)
