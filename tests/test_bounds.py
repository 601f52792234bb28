import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow import (
    AmbientSpace,
    beta,
    compute_bounds,
    delta,
    invert_increasing,
    make_preset,
    space_from_expressions,
    unit_sphere_area,
)
from revflow import bounds


def test_unit_sphere_area():
    assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-15)
    assert unit_sphere_area(4) == pytest.approx(2 * math.pi ** 2, rel=1e-14)


class TestBetaDelta:
    def test_euclid_closed_forms(self, euclid2):
        for r in (0.3, 1.0, 2.7):
            assert beta(euclid2, r) == pytest.approx(r ** 2 / 2, rel=1e-12)
            assert delta(euclid2, r) == pytest.approx(r ** 2 / 2, rel=1e-12)

    def test_hyperbolic_closed_forms(self, hyper2):
        for r in (0.5, 1.3, 2.0):
            assert beta(hyper2, r) == pytest.approx(math.sinh(r) ** 2 / 2, rel=1e-11)
            assert delta(hyper2, r) == pytest.approx(math.cosh(r) - 1.0, rel=1e-11)

    def test_zero(self, hyper2):
        assert beta(hyper2, 0.0) == 0.0
        assert delta(hyper2, 0.0) == 0.0

    def test_vectorized(self, euclid2):
        r = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_allclose(beta(euclid2, r), r ** 2 / 2, rtol=1e-12, atol=1e-15)

    def test_euclid3(self, euclid3):
        assert beta(euclid3, 1.5) == pytest.approx(1.5 ** 3 / 3, rel=1e-12)

    def test_domain_error(self, sphere2):
        with pytest.raises(ValueError):
            beta(sphere2, 2.0)

    @pytest.mark.parametrize("shape", [(4, 1), (2, 2), (2, 3)])
    def test_radii_of_any_shape(self, hyper2, shape):
        # each integral is that of the flattened radii, in the shape of r
        r = np.linspace(0.1, 2.0, math.prod(shape)).reshape(shape)
        for integral in (beta, delta):
            got = integral(hyper2, r)
            assert got.shape == shape
            assert np.all(got == integral(hyper2, r.ravel()).reshape(shape))


_RADII = np.linspace(0.05, 2.0, 40)


class TestQuadratureAccuracy:
    """beta and delta against closed forms at rounding level."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tag,lam", [("euclidean", None), ("hyperbolic", -0.5),
                                         ("hyperbolic", -1.0), ("hyperbolic", -2.0),
                                         ("spherical", 0.5), ("spherical", 1.0),
                                         ("spherical", 2.0)])
    def test_beta_closed_forms(self, n, tag, lam):
        space = make_preset(tag, lam, n=n)
        r = _RADII[_RADII < space.r_max_domain]
        if tag == "euclidean":
            closed = r ** n / n
        else:
            s = math.sqrt(abs(lam))
            trig = np.sinh if tag == "hyperbolic" else np.sin
            closed = trig(s * r) ** n / (n * s ** n)
        np.testing.assert_allclose(beta(space, r), closed, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("lam", [-0.5, -1.0, -2.0])
    def test_hyperbolic_delta_closed_form(self, lam):
        s = math.sqrt(-lam)
        # (cosh(sr) - 1)/s^2, written without the cancellation at small r
        closed = 2.0 * np.sinh(0.5 * s * _RADII) ** 2 / (s * s)
        np.testing.assert_allclose(delta(make_preset("hyperbolic", lam, n=2), _RADII),
                                   closed, rtol=1e-14, atol=0.0)

    def test_unreachable_tolerance_raises(self):
        # h = sqrt(r) puts a branch point at the axis, so panel refinement
        # gains only P^-3/2 and 1e-12 is out of reach within the panel cap
        def warp(r):
            r = np.asarray(r, dtype=float)
            one, zero = np.ones_like(r), np.zeros_like(r)
            return one, zero, zero, np.sqrt(r), zero, zero

        with pytest.raises(RuntimeError, match="tolerance"):
            beta(AmbientSpace(n=2, warp=warp), 1.0)


def _per_level_integral(g, r, rel_tol=1e-12):
    """The panel Gauss-Legendre levels P = 1, 2, 4, ... with one g call each:
    the reference of the fused first two levels."""
    u = np.atleast_1d(np.asarray(r, dtype=float))

    def gauss(panels):
        nodes, weights = bounds._panel_rule(panels)
        return u * (g(np.outer(u, nodes)) @ weights)

    panels, prev = 1, gauss(1)
    while True:
        panels *= 2
        vals = gauss(panels)
        if np.all(np.abs(vals - prev) <= rel_tol * np.abs(vals)):
            return float(vals[0]) if np.ndim(r) == 0 else vals
        prev = vals


def _space(name, n):
    if name == "custom_rss":
        return space_from_expressions(n, f="cosh(r)^2", df="sinh(2*r)", d2f="2*cosh(2*r)",
                                      h="sinh(r)", dh="cosh(r)", d2h="sinh(r)")
    tag, lam = {"euclid": ("euclidean", None), "hyper": ("hyperbolic", -1.0),
                "sphere": ("spherical", 1.0)}[name]
    return make_preset(tag, lam, n=n)


@pytest.fixture
def eval_fh_calls(monkeypatch):
    """The radii of every ``AmbientSpace.eval_fh`` call, in order."""
    calls = []
    eval_fh = AmbientSpace.eval_fh

    def counting(self, r):
        calls.append(r)
        return eval_fh(self, r)

    monkeypatch.setattr(AmbientSpace, "eval_fh", counting)
    return calls


class TestFusedLevels:
    """P = 1 and P = 2 share one evaluation of the integrand."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name", ["euclid", "hyper", "sphere", "custom_rss"])
    def test_bits_of_the_per_level_loop(self, name, n):
        space = _space(name, n)
        top = min(3.0, space.r_max_domain)
        rng = np.random.default_rng(n)
        inputs = [0.0, 0.37 * top, top, np.zeros(4), np.linspace(0.0, top, 61),
                  rng.uniform(0.0, top, 201), rng.uniform(0.0, top, (1, 7))]
        for integral, density in ((beta, bounds._volume_density),
                                  (delta, bounds._area_density)):
            for r in inputs:
                got = integral(space, r)
                want = _per_level_integral(lambda x: density(space, x), r)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.all(got == want), (integral.__name__, r)

    def test_one_evaluation_when_p2_settles(self, euclid2, eval_fh_calls):
        # f h = r: the 8-point rule is exact, so P = 2 agrees with P = 1
        assert beta(euclid2, 0.5) == pytest.approx(0.125, rel=1e-15)
        assert len(eval_fh_calls) == 1
        assert eval_fh_calls[0].shape == (1, 24)

    def test_no_evaluation_at_zero(self, hyper2, eval_fh_calls):
        assert beta(hyper2, 0.0) == 0.0
        assert np.all(delta(hyper2, np.zeros(3)) == 0.0)
        assert eval_fh_calls == []


class TestInvertIncreasing:
    def test_euclid_beta(self, euclid2):
        assert invert_increasing(lambda x: beta(euclid2, x), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_left_endpoint(self, euclid2):
        assert invert_increasing(lambda x: beta(euclid2, x), 0.0) == 0.0

    def test_hyperbolic_delta(self, hyper2):
        x = invert_increasing(lambda x: delta(hyper2, x), math.cosh(2.0) - 1.0)
        assert x == pytest.approx(2.0, abs=1e-10)

    def test_round_trip_random(self, hyper2, euclid2):
        rng = np.random.default_rng(7)
        for space, span in ((euclid2, 12.0), (hyper2, beta(hyper2, 5.0))):
            g = lambda x: beta(space, x)
            for y in rng.uniform(1e-3, span, size=50):
                x = invert_increasing(g, y)
                assert g(x) == pytest.approx(y, rel=1e-10, abs=1e-12)

    def test_unreachable_in_spherical_cap(self, sphere2):
        cap_total = beta(sphere2, sphere2.r_max_domain * (1 - 1e-9))
        with pytest.raises(ValueError, match="unreachable"):
            invert_increasing(lambda x: beta(sphere2, x), cap_total * 2.0,
                              r_max=sphere2.r_max_domain)

    def test_below_range(self, euclid2):
        with pytest.raises(ValueError):
            invert_increasing(lambda x: beta(euclid2, x), -1.0)

    @pytest.mark.parametrize("g", [lambda x: x * (3.0 - x),
                                   lambda x: x if x < 1.5 else math.nan,
                                   lambda x: x if x < 1.5 else math.inf],
                             ids=["falling", "nan", "inf"])
    def test_bracket_stops_where_g_stops_increasing(self, g):
        # g(2) is not above g(1), or not finite: no further doubling
        calls = []
        with pytest.raises(ValueError, match="^hump is not finite and increasing"):
            invert_increasing(lambda x: calls.append(x) or g(x), 5.0, name="hump")
        assert calls == [0.0, 1.0, 2.0]


class TestComputeBounds:
    def test_euclid_unit_cylinder(self, euclid2):
        rep = compute_bounds(euclid2, 0.0, 1.0, math.pi, 2 * math.pi)
        assert rep.r1 == pytest.approx(1.0, abs=1e-12)
        # delta == beta for f == 1, so the threshold is exactly V/(b-a)
        assert rep.small_volume_threshold == pytest.approx(math.pi, abs=1e-12)
        assert rep.criterion_met is False  # 2*pi > pi
        # r2 solves r2^2/2 = area/sigma + r1^2/2  =>  r2 = sqrt(area/pi + r1^2)
        assert rep.r2 == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert rep.r3 == pytest.approx(math.sqrt(0.5), rel=1e-12)
        assert rep.sigma == pytest.approx(2 * math.pi, rel=1e-15)

    def test_criterion_met_for_fat_cylinder(self, euclid2):
        # radius 3 cylinder on [0,1]: area 6*pi <= threshold 9*pi
        rep = compute_bounds(euclid2, 0.0, 1.0, 9.0 * math.pi, 6.0 * math.pi)
        assert rep.criterion_met is True

    def test_hyperbolic_threshold_closed_form(self, hyper2):
        rep = compute_bounds(hyper2, 0.0, 1.0, math.pi,
                             2 * math.pi * math.cosh(1.0) * math.sinh(1.0))
        assert rep.small_volume_threshold == pytest.approx(
            2 * math.pi * (math.sqrt(2.0) - 1.0), abs=1e-10)

    @pytest.mark.parametrize("lam", [-0.5, -1.0, -2.0])
    @pytest.mark.parametrize("V", [0.1, 1.0, 10.0])
    def test_constant_curvature_closed_form(self, lam, V):
        space = make_preset("hyperbolic", lam, n=2)
        rep = compute_bounds(space, 0.0, 1.0, V, 1.0)
        closed = 2 * math.pi / (-lam) * (-1.0 + math.sqrt(1.0 - lam * V / math.pi))
        assert rep.small_volume_threshold == pytest.approx(closed, abs=1e-10)

    def test_rss2a_threshold_at_most_euclidean(self, hyper2, custom_rss2):
        for space in (hyper2, custom_rss2):
            rep = compute_bounds(space, 0.0, 1.0, 2.0, 1.0)
            assert rep.small_volume_threshold <= 2.0 / 1.0 + 1e-12

    @settings(deadline=None, max_examples=25)
    @given(V=st.floats(0.05, 20.0), area=st.floats(0.05, 30.0),
           lam=st.sampled_from([0.0, -0.5, -1.0, -3.0]))
    def test_radius_ordering(self, V, area, lam):
        space = make_preset("euclidean", n=2) if lam == 0.0 \
            else make_preset("hyperbolic", lam, n=2)
        rep = compute_bounds(space, 0.0, 2.0, V, area)
        assert 0.0 < rep.r3 < rep.r1 < rep.r2

    def test_input_validation(self, euclid2):
        with pytest.raises(ValueError):
            compute_bounds(euclid2, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            compute_bounds(euclid2, 0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            compute_bounds(euclid2, 0.0, 1.0, 1.0, 0.0)

    def test_to_dict_fields(self, euclid2):
        rep = compute_bounds(euclid2, 0.0, 1.0, math.pi, 2 * math.pi)
        assert set(rep.to_dict()) == {"r1", "r2", "r3", "small_volume_threshold",
                                      "criterion_met", "sigma"}


class TestNonFiniteInputs:
    @pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
    def test_invert_increasing_rejects_target(self, euclid2, y):
        with pytest.raises(ValueError, match="not finite"):
            invert_increasing(lambda x: beta(euclid2, x), y)

    @pytest.mark.parametrize("V,area", [(math.inf, 1.0), (1.0, math.inf)])
    def test_compute_bounds_rejects_infinite_volume_or_area(self, hyper2, V, area):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                compute_bounds(hyper2, 0.0, 1.0, V, area)

    @pytest.mark.parametrize("r", [-0.1, math.nan, math.inf, [1.0, math.inf]],
                             ids=["negative", "nan", "inf", "array-with-inf"])
    def test_radial_limits_checked(self, euclid2, r):
        with pytest.raises(ValueError, match="ambient domain"):
            beta(euclid2, r)

    def test_radial_limit_past_r_max(self, sphere2):
        assert delta(sphere2, sphere2.r_max_domain) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="ambient domain"):
            delta(sphere2, np.nextafter(sphere2.r_max_domain, 2.0))


# (a, b, V, area) whose radii all lie inside the spherical n = 3 cap
_BOUNDS_CASES = [(0.0, 1.0, 1.0, 2.0), (0.0, 2.0, 0.3, 1.0), (-1.0, 1.0, 2.0, 3.0),
                 (0.0, 1.0, 4.0, 1.0)]


# the presets of the acceptance runs, a 3-dimensional cap and the sweep's custom space
@pytest.fixture(params=["euclid2", "hyper2", "sphere3", "custom_rss2"])
def newton_space(request):
    return request.getfixturevalue(request.param)


class TestNewtonInversion:
    """invert_increasing with the radial density as derivative (rtsafe)."""

    def test_few_radial_integrals_per_compute_bounds(self, newton_space, monkeypatch):
        # without the derivatives, bisection makes about 150
        calls = []
        integrate = bounds._radial_integral

        def counting(*args):
            calls.append(args[2])
            return integrate(*args)

        monkeypatch.setattr(bounds, "_radial_integral", counting)
        for case in _BOUNDS_CASES:
            calls.clear()
            compute_bounds(newton_space, *case)
            assert len(calls) <= 40, case

    def test_warp_evaluations_per_compute_bounds(self, newton_space, eval_fh_calls):
        # 32-46 eval_fh calls per case (integrands and densities); the bound
        # leaves a margin of 4.  Two levels per integrand call and a
        # confirming integral per inversion took 60-80.
        for case in _BOUNDS_CASES:
            eval_fh_calls.clear()
            compute_bounds(newton_space, *case)
            assert len(eval_fh_calls) <= 50, case

    @pytest.mark.parametrize("integral,density", [(beta, bounds._volume_density),
                                                  (delta, bounds._area_density)])
    def test_no_confirming_integral(self, newton_space, integral, density):
        # each g call moves x by more than the stop tolerance
        r_max = newton_space.r_max_domain
        for share in (1e-3, 0.1, 0.5, 0.9):
            y = integral(newton_space, share * min(3.0, r_max))
            for dg in (lambda x: density(newton_space, x), None):
                xs = []
                invert_increasing(lambda x: xs.append(x) or integral(newton_space, x),
                                  y, r_max, dg=dg)
                for prev, cur in zip(xs, xs[1:]):
                    assert abs(cur - prev) > 1e-14 * max(1.0, cur), (share, xs)

    def test_beta_integrated_once_at_r1(self, newton_space, monkeypatch):
        # the small-volume threshold reuses the beta(r1) of the r1 inversion
        at = []
        integrate = bounds.beta

        def counting(space, r, *args):
            at.append(r)
            return integrate(space, r, *args)

        monkeypatch.setattr(bounds, "beta", counting)
        for case in _BOUNDS_CASES:
            at.clear()
            rep = compute_bounds(newton_space, *case)
            assert at.count(rep.r1) == 1, case

    def test_matches_derivative_free_inversion(self, newton_space):
        g_beta = lambda x: beta(newton_space, x)
        g_delta = lambda x: delta(newton_space, x)
        r_max = newton_space.r_max_domain
        sigma = unit_sphere_area(newton_space.n)
        for a, b, V, area in _BOUNDS_CASES:
            rep = compute_bounds(newton_space, a, b, V, area)
            r1 = invert_increasing(g_beta, V / ((b - a) * sigma), r_max)
            r3 = invert_increasing(g_beta, V / (2.0 * (b - a) * sigma), r_max)
            r2 = invert_increasing(g_delta, area / sigma + delta(newton_space, rep.r1), r_max)
            assert abs(rep.r1 - r1) <= 1e-13
            assert abs(rep.r2 - r2) <= 1e-13
            assert abs(rep.r3 - r3) <= 1e-13

    # beta' = cos r sin^2 r falls to 0 at r_max, so its target stays further in
    @pytest.mark.parametrize("name,share", [("beta", 0.99), ("delta", 1.0 - 1e-9)])
    def test_spherical_target_near_r_max(self, sphere3, name, share):
        g, dg = {"beta": (beta, bounds._volume_density),
                 "delta": (delta, bounds._area_density)}[name]
        r_max = sphere3.r_max_domain
        y = g(sphere3, share * r_max)
        x = invert_increasing(lambda x: g(sphere3, x), y, r_max, dg=lambda x: dg(sphere3, x))
        assert abs(g(sphere3, x) - y) <= 1e-12 * max(1.0, y)
        assert abs(x - invert_increasing(lambda x: g(sphere3, x), y, r_max)) <= 1e-13

    @pytest.mark.parametrize("scale", [10.0, 1e-3])
    def test_wrong_derivative_caught_by_the_bracket(self, newton_space, scale):
        g = lambda x: beta(newton_space, x)
        dg = lambda x: scale * bounds._volume_density(newton_space, x)
        r_max = newton_space.r_max_domain
        for y in (1e-3, 0.1, 0.3):
            x = invert_increasing(g, y, r_max, dg=dg)
            assert abs(g(x) - y) <= 1e-12
            # a 10x slope makes the last step 10x shorter than the error it leaves
            assert abs(x - invert_increasing(g, y, r_max)) <= 1e-12
