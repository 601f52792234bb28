import math

import numpy as np
import pytest

from revflow import (
    ProfileGrid,
    ShootingError,
    curvature_field,
    cylinder_for_volume,
    distance_to_cmc,
    enclosed_volume,
    make_preset,
    shoot_cmc,
    unit_sphere_area,
)
from conftest import neck_profile


class TestCylinderForVolume:
    def test_euclid_n2(self, euclid2):
        prof = cylinder_for_volume(euclid2, 0.0, 1.0, math.pi)
        np.testing.assert_allclose(prof.profile.r, 1.0, rtol=1e-12)
        assert prof.H_const == pytest.approx(1.0, rel=1e-12)
        assert prof.residual == 0.0

    def test_euclid_n3(self, euclid3):
        prof = cylinder_for_volume(euclid3, 0.0, 1.0, 4 * math.pi / 3)
        np.testing.assert_allclose(prof.profile.r, 1.0, rtol=1e-12)
        assert prof.H_const == pytest.approx(2.0, rel=1e-12)

    def test_hyperbolic(self, hyper2):
        V = 2 * math.pi * math.sinh(1.0) ** 2 / 2  # makes r1 = 1
        prof = cylinder_for_volume(hyper2, 0.0, 1.0, V)
        assert prof.H_const == pytest.approx(math.tanh(1.0) + 1.0 / math.tanh(1.0),
                                             rel=1e-12)

    def test_volume_round_trip(self, hyper2):
        V = 4.2
        prof = cylinder_for_volume(hyper2, 0.0, 1.5, V)
        assert enclosed_volume(prof.profile, hyper2) == pytest.approx(V, rel=1e-10)
        assert prof.volume == pytest.approx(V, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("share", [0.25, 0.4, 0.8])
    def test_spherical_closed_form(self, n, lam, share):
        space = make_preset("spherical", lam, n=n)
        s = math.sqrt(lam)
        r1 = share * space.r_max_domain
        V = unit_sphere_area(n) * math.sin(s * r1) ** n / (n * s ** n)  # beta(r1)
        prof = cylinder_for_volume(space, 0.0, 1.0, V)
        r1 = float(prof.profile.r[0])
        H = -s * math.tan(s * r1) + (n - 1) * s / math.tan(s * r1)
        assert prof.H_const == pytest.approx(H, rel=1e-12)

    @pytest.mark.parametrize("name", ["euclid3", "hyper2", "sphere2", "custom_rss2"])
    def test_kernel_curvature_and_residual(self, request, name):
        space = request.getfixturevalue(name)
        prof = cylinder_for_volume(space, 0.0, 1.0, 0.8, m=51)
        H = curvature_field(prof.profile, space).H
        assert prof.H_const == H[0]
        assert prof.residual == float(np.max(np.abs(H - prof.H_const)))

    def test_invalid_volume(self, euclid2):
        with pytest.raises(ValueError):
            cylinder_for_volume(euclid2, 0.0, 1.0, -1.0)


class TestShootCmc:
    def test_euclid_cylinder_from_above(self, euclid2):
        prof = shoot_cmc(euclid2, 0.0, 1.0, 1.0, 1.1)
        assert np.max(np.abs(prof.profile.r - 1.0)) <= 1e-9
        assert prof.residual <= 1e-9

    def test_residual_definition(self, euclid2):
        prof = shoot_cmc(euclid2, 0.0, 1.0, 1.0, 1.05, m=401)
        cf = curvature_field(prof.profile, euclid2)
        assert prof.residual == pytest.approx(float(np.max(np.abs(cf.H - 1.0))))
        assert prof.residual <= 1e-6

    def test_guess_below_recorded_branch(self, euclid2):
        # from guess 0.6 the solve may land on the cylinder or an
        # unduloid-type graph; only the residual is asserted
        prof = shoot_cmc(euclid2, 0.0, 1.0, 1.0, 0.6)
        assert prof.residual <= 1e-6

    def test_step_halving_invariance(self, euclid2):
        a = shoot_cmc(euclid2, 0.0, 1.0, 1.0, 1.1, substeps=4)
        b = shoot_cmc(euclid2, 0.0, 1.0, 1.0, 1.1, substeps=8)
        assert np.max(np.abs(a.profile.r - b.profile.r)) <= 1e-8

    @pytest.mark.parametrize("guess_factor", [0.95, 1.0, 1.05])
    def test_cylinder_recovered_within_5pc(self, euclid2, guess_factor):
        rc = 1.4
        prof = shoot_cmc(euclid2, 0.0, 1.0, 1.0 / rc, rc * guess_factor)
        assert np.max(np.abs(prof.profile.r - rc)) <= 1e-8

    def test_hyperbolic_cylinder(self, hyper2):
        rc = 1.0
        H = math.tanh(rc) + 1.0 / math.tanh(rc)
        prof = shoot_cmc(hyper2, 0.0, 1.0, H, 1.08)
        assert np.max(np.abs(prof.profile.r - rc)) <= 1e-8

    def test_bad_inputs(self, euclid2):
        with pytest.raises(ValueError):
            shoot_cmc(euclid2, 0.0, 1.0, math.nan, 1.0)
        with pytest.raises(ValueError):
            shoot_cmc(euclid2, 0.0, 1.0, 1.0, -0.5)

    def test_domain_escape_raises(self, euclid2):
        # huge negative H drives r through the axis immediately
        with pytest.raises(ShootingError):
            shoot_cmc(euclid2, 0.0, 1.0, -80.0, 0.05, max_iter=3)

    def test_warp_overflow_is_a_shooting_error(self, hyper2):
        # r_max = inf, so a diverging secant iterate reaches cosh/sinh overflow
        # (r > 710) before any range test; the suite runs with warnings as errors
        with pytest.raises(ShootingError, match="overflow"):
            shoot_cmc(hyper2, 0.0, 1.0, 1.8, 0.9, m=201)


class TestDistanceToCmc:
    def test_cylinder_zero_deviation(self, euclid2):
        p = ProfileGrid(0.0, 1.0, np.full(51, 2.0))
        d = distance_to_cmc(p, euclid2)
        assert d.h_best == pytest.approx(0.5, rel=1e-14)
        assert d.deviation <= 1e-15

    def test_dumbbell_far_from_cmc(self, euclid2):
        d = distance_to_cmc(neck_profile(201), euclid2)
        assert d.deviation > 0.1 * abs(d.h_best)
