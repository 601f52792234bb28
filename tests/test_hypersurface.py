import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from revflow import (
    ProfileGrid,
    averaged_mean_curvature,
    critical_point_count,
    critical_points,
    curvature_field,
    curve_length,
    enclosed_volume,
    lateral_area,
    load_profile_csv,
    make_preset,
    save_profile_csv,
    spatial_derivatives,
)
from revflow.flow import _diagnose
from revflow.hypersurface import (
    _SLOPE_NOISE_ULPS,
    _critical_count,
    _interior_critical_z,
)
from conftest import cos_profile


class TestProfileGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProfileGrid(0.0, 1.0, [1.0, 2.0])  # too few nodes
        with pytest.raises(ValueError):
            ProfileGrid(1.0, 0.0, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            ProfileGrid(0.0, 1.0, [1.0, -0.5, 1.0])
        with pytest.raises(ValueError):
            ProfileGrid(0.0, 1.0, [1.0, float("nan"), 1.0])

    def test_grid_accessors(self):
        p = ProfileGrid(0.0, 2.0, np.ones(5))
        assert p.m == 5 and p.dz == 0.5
        np.testing.assert_allclose(p.z, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_value_semantics(self):
        r = np.ones(5)
        p = ProfileGrid(0.0, 1.0, r)
        r[0] = 99.0
        assert p.r[0] == 1.0


class TestSpatialDerivatives:
    def test_constant_profile(self):
        p = ProfileGrid(0.0, 1.0, np.full(11, 3.0))
        rdot, rddot = spatial_derivatives(p)
        assert np.all(rdot == 0.0) and np.all(rddot == 0.0)

    def test_linear_profile_interior_exact(self):
        # central differences are exact for linear data (up to node rounding)
        z = np.linspace(1.0, 2.0, 21)
        p = ProfileGrid(1.0, 2.0, z)
        rdot, rddot = spatial_derivatives(p)
        np.testing.assert_allclose(rdot[1:-1], 1.0, rtol=1e-13)
        assert np.max(np.abs(rddot[1:-1])) <= 1e-11
        # ghost convention pins the ends
        assert rdot[0] == 0.0 and rdot[-1] == 0.0

    def test_cos_profile_second_order(self):
        errs = []
        for m in (101, 201, 401):
            z = np.linspace(0.0, 1.0, m)
            p = ProfileGrid(0.0, 1.0, 1.0 + 0.1 * np.cos(np.pi * z))
            rdot, rddot = spatial_derivatives(p)
            exact_d = -0.1 * np.pi * np.sin(np.pi * z)
            exact_dd = -0.1 * np.pi ** 2 * np.cos(np.pi * z)
            errs.append(max(np.max(np.abs(rdot - exact_d)),
                            np.max(np.abs(rddot - exact_dd))))
        assert math.log2(errs[0] / errs[1]) > 1.9
        assert math.log2(errs[1] / errs[2]) > 1.9


class TestCurvatureField:
    def test_euclid_cylinder(self, euclid2):
        p = ProfileGrid(0.0, 1.0, np.full(41, 2.0))
        cf = curvature_field(p, euclid2)
        assert np.all(cf.k1 == 0.0)
        np.testing.assert_allclose(cf.k2, 0.5, rtol=1e-15)
        np.testing.assert_allclose(cf.H, 0.5, rtol=1e-15)
        assert np.all(cf.v == 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_hyperbolic_cylinder(self, n):
        from revflow import make_preset
        space = make_preset("hyperbolic", -1.0, n=n)
        rc = 1.3
        p = ProfileGrid(0.0, 1.0, np.full(31, rc))
        cf = curvature_field(p, space)
        np.testing.assert_allclose(cf.k1, math.tanh(rc), rtol=1e-14)
        np.testing.assert_allclose(cf.k2, 1.0 / math.tanh(rc), rtol=1e-14)
        np.testing.assert_allclose(cf.H, math.tanh(rc) + (n - 1) / math.tanh(rc), rtol=1e-14)
        assert np.all(cf.v == 1.0)

    def test_H_identity_by_construction(self, hyper2):
        p = cos_profile(101)
        cf = curvature_field(p, hyper2)
        np.testing.assert_array_equal(cf.H, cf.k1 + (hyper2.n - 1) * cf.k2)
        np.testing.assert_array_equal(cf.L2, cf.k1 ** 2 + (hyper2.n - 1) * cf.k2 ** 2)

    def test_v_at_least_one_and_unit_at_ends(self, euclid2, hyper2):
        p = cos_profile(101, amp=0.3)
        for space in (euclid2, hyper2):
            cf = curvature_field(p, space)
            assert np.all(cf.v >= 1.0)
            assert cf.v[0] == 1.0 and cf.v[-1] == 1.0

    def test_u_normal_component_identity(self, hyper2):
        p = cos_profile(201, amp=0.3)
        cf = curvature_field(p, hyper2)
        rdot, _ = spatial_derivatives(p)
        f = hyper2.warp(p.r)[0]
        u = 1.0 / cf.v
        tangent = rdot / np.sqrt(rdot ** 2 + f ** 2)
        np.testing.assert_allclose(u ** 2 + tangent ** 2, 1.0, atol=1e-12)

    def test_euclid_k2_classical_formula(self, euclid2):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = int(rng.integers(31, 200))
            z = np.linspace(0.0, 1.0, m)
            r = 1.0 + 0.3 * rng.random() * np.cos(rng.integers(1, 4) * np.pi * z) \
                + 0.2 * rng.random()
            p = ProfileGrid(0.0, 1.0, r)
            cf = curvature_field(p, euclid2)
            rdot, _ = spatial_derivatives(p)
            classical = 1.0 / (p.r * np.sqrt(1.0 + rdot ** 2))
            np.testing.assert_allclose(cf.k2, classical, rtol=1e-12)

    def test_domain_check(self, sphere2):
        p = ProfileGrid(0.0, 1.0, np.full(11, 1.6))  # beyond pi/2
        with pytest.raises(ValueError):
            curvature_field(p, sphere2)


@st.composite
def _profiles_in_spaces(draw):
    """(space, profile): up to three cosine modes, with a flat top where capped."""
    n = draw(st.sampled_from([2, 3]))
    tag = draw(st.sampled_from(["euclidean", "hyperbolic", "spherical"]))
    space = make_preset(tag, {"euclidean": None, "hyperbolic": -1.0, "spherical": 1.0}[tag], n=n)
    r_hi = 0.6 * space.r_max_domain if tag == "spherical" else 2.5
    m = draw(st.integers(11, 81))
    base = draw(st.floats(0.3, 0.8)) * r_hi
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    z = np.linspace(0.0, 1.0, m)
    shape = sum(a * np.cos((k + 1) * np.pi * z) for k, a in enumerate(amps))
    r = base + 0.25 * min(base, r_hi - base) * shape / max(1.0, float(np.max(np.abs(shape))))
    cap = draw(st.floats(0.5, 1.0))
    return space, ProfileGrid(0.0, 1.0, np.minimum(r, cap * float(r.max())))


@settings(deadline=None, max_examples=100)
@given(case=_profiles_in_spaces())
def test_graph_slope_is_the_textbook_form(case):
    # the kernel's v = sqrt(q)/f against sqrt(1 + (rdot/f)^2), within 4 ULP
    space, p = case
    v = curvature_field(p, space).v
    rdot, _ = spatial_derivatives(p)
    f = space.warp(p.r)[0]
    textbook = np.sqrt(1.0 + (rdot / f) ** 2)
    assert np.all(np.abs(v - textbook) <= 4.0 * np.spacing(textbook))
    assert np.all(v[rdot == 0.0] == 1.0)


class TestIntegralQuantities:
    def test_volume_cylinders(self, euclid2, euclid3, hyper2):
        for m in (11, 101):
            p = ProfileGrid(0.0, 1.0, np.full(m, 1.5))
            assert enclosed_volume(p, euclid2) == pytest.approx(math.pi * 1.5 ** 2, rel=1e-12)
            assert enclosed_volume(p, euclid3) == pytest.approx(4 * math.pi * 1.5 ** 3 / 3, rel=1e-12)
            assert enclosed_volume(p, hyper2) == pytest.approx(
                2 * math.pi * math.sinh(1.5) ** 2 / 2, rel=1e-12)

    def test_volume_vanishes_with_radius(self, euclid2):
        vols = [enclosed_volume(ProfileGrid(0, 1, np.full(11, eps)), euclid2)
                for eps in (1e-2, 1e-4, 1e-6)]
        assert vols[0] > vols[1] > vols[2]
        assert vols[2] < 1e-11

    def test_area_cylinders(self, euclid2, hyper2):
        p = ProfileGrid(0.0, 2.0, np.full(51, 1.5))
        assert lateral_area(p, euclid2) == pytest.approx(2 * math.pi * 1.5 * 2.0, rel=1e-13)
        assert lateral_area(p, hyper2) == pytest.approx(
            2 * math.pi * math.cosh(1.5) * math.sinh(1.5) * 2.0, rel=1e-13)

    def test_length_cylinders(self, euclid2, hyper2):
        p = ProfileGrid(0.0, 1.0, np.full(21, 1.5))
        assert curve_length(p, euclid2) == pytest.approx(1.0, rel=1e-14)
        assert curve_length(p, hyper2) == pytest.approx(math.cosh(1.5), rel=1e-14)


class TestAveragedMeanCurvature:
    def test_cylinder_trivial(self, hyper2):
        rc = 1.2
        p = ProfileGrid(0.0, 1.0, np.full(31, rc))
        avg = averaged_mean_curvature(p, hyper2)
        assert avg.I1 == 0.0
        assert avg.Hbar == pytest.approx(math.tanh(rc) + 1.0 / math.tanh(rc), rel=1e-14)

    def test_split_identity_refines_second_order(self, euclid2):
        # |Hbar - (I1+I2)| is the gap between two quadratures of one quantity
        diffs = {}
        for m in (1001, 2001):
            avg = averaged_mean_curvature(cos_profile(m), euclid2)
            diffs[m] = abs(avg.Hbar - (avg.I1 + avg.I2))
        assert diffs[2001] <= 5e-8
        assert math.log2(diffs[1001] / diffs[2001]) > 1.9

    def test_split_positive_hyperbolic(self, hyper2):
        avg = averaged_mean_curvature(cos_profile(201, amp=0.3), hyper2)
        assert avg.I1 >= 0.0
        assert avg.I2 > 0.0


class TestCriticalPoints:
    def test_constant(self):
        assert critical_point_count(ProfileGrid(0, 1, np.full(21, 2.0))) == 2

    def test_monotone_cos(self):
        assert critical_point_count(cos_profile(101)) == 2

    @pytest.mark.parametrize("m", [100, 101])
    def test_cosine_dumbbell_three(self, m):
        z = np.linspace(0.0, 1.0, m)
        p = ProfileGrid(0.0, 1.0, 1.0 - 0.5 * np.cos(2 * np.pi * z))
        assert critical_point_count(p) == 3
        pts = critical_points(p)
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert abs(pts[1] - 0.5) <= p.dz

    def test_plateau_counts_once(self):
        z = np.linspace(0.0, 1.0, 101)
        r = np.where(z < 0.4, 1.0 + z, 1.4)
        r = np.where(z > 0.6, 1.4 + (z - 0.6), r)
        p = ProfileGrid(0.0, 1.0, r)
        # rising, flat plateau, rising again: one interior critical event
        assert critical_point_count(p) == 3

    @pytest.mark.parametrize("m", [61, 201])
    def test_rounding_noise_of_a_cylinder_is_no_critical_point(self, m):
        # a cylinder within 4 ulps: every slope is noise, as on the flow's
        # Newton limit (ptp r about 1e-15); 1e-9 max|rdot| alone counted
        # each sign change of the noise
        rng = np.random.default_rng(m)
        p = ProfileGrid(0.0, 1.0, 1.0 + rng.integers(-4, 5, m) * np.spacing(1.0))
        assert critical_point_count(p) == 2
        assert critical_points(p).tolist() == [0.0, 1.0]

    def test_slope_tol_override(self):
        z = np.linspace(0.0, 1.0, 101)
        p = ProfileGrid(0.0, 1.0, 1.0 + 1e-12 * np.sin(2 * np.pi * z))
        assert critical_point_count(p, slope_tol=1e-9) == 2


def _reference_critical_points(p, slope_tol):
    """The census as a scan over the interior slopes, one node at a time."""
    rdot, _ = spatial_derivatives(p)
    if slope_tol is None:
        slope_tol = 1e-9 * float(np.max(np.abs(rdot)))
    signs = np.sign(rdot[1:-1])
    signs[np.abs(rdot[1:-1]) <= slope_tol] = 0.0
    z = p.z[1:-1]
    points = []
    last = 0.0
    run_start = None  # index of first zero in the current zero run
    for i, s in enumerate(signs):
        if s == 0.0:
            if run_start is None:
                run_start = i
            continue
        if last == 0.0:
            # leading zeros merge with the endpoint critical point at z=a
            last = s
            run_start = None
            continue
        if run_start is not None:
            # a zero run counts once, whether a sign change or a plateau
            points.append(0.5 * (z[run_start] + z[i - 1]))
            run_start = None
            last = s
        elif s != last:
            points.append(0.5 * (z[i - 1] + z[i]))
            last = s
    # trailing zeros merge with the endpoint critical point at z=b
    return np.concatenate(([p.a], points, [p.b]))


# runs of equal integer steps: plateaus, and leading or trailing zero runs
_STEP_RUNS = st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 8)),
                      min_size=1, max_size=12)


@settings(deadline=None, max_examples=300)
@given(runs=_STEP_RUNS, tol=st.one_of(st.none(), st.integers(0, 4),
                                      st.floats(0.0, 2.0)))
@example(runs=[(0, 20)], tol=None)  # all-zero slope
@example(runs=[(0, 5), (1, 4), (0, 6)], tol=None)
@example(runs=[(1, 3), (0, 4), (1, 3), (-1, 2), (0, 3)], tol=1)
def test_census_matches_the_reference_scan(runs, tol):
    steps = [s for s, count in runs for _ in range(count)]
    # radii on a 1/64 lattice, so slopes of equal neighbours are exactly 0
    r = 4.0 + np.concatenate(([0], np.cumsum(steps))) / 64.0
    if r.size < 3:  # a profile needs three nodes
        r = np.concatenate((r, r[-1:], r[-1:]))
    p = ProfileGrid(0.0, 1.3, r)
    if isinstance(tol, int):
        # exactly the slope of an integer step of ``tol`` lattice units
        tol = (tol / 64.0) * (1.0 / (2.0 * p.dz))
    expected = _reference_critical_points(p, tol)
    got = critical_points(p, slope_tol=tol)
    np.testing.assert_array_equal(got, expected)
    assert got.dtype == expected.dtype
    assert critical_point_count(p, slope_tol=tol) == expected.size


@st.composite
def _census_profiles(draw):
    """Profiles at the census threshold: cylinders with ulp noise, lattice
    plateaus, and walks whose slopes sit a few ulps of max r over dz either
    side of the noise floor."""
    kind = draw(st.sampled_from(["noise", "plateaus", "threshold"]))
    m = draw(st.integers(3, 81))
    c = draw(st.floats(0.3, 3.0))
    if kind == "plateaus":
        steps = [s for s, count in draw(_STEP_RUNS) for _ in range(count)]
        r = 4.0 + np.concatenate(([0], np.cumsum(steps))) / 64.0
        r = np.concatenate((r, np.full(max(0, 3 - r.size), r[-1])))
    else:
        ulps = np.array(draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m)))
        r = c + (ulps if kind == "noise" else np.cumsum(ulps)) * np.spacing(c)
    return ProfileGrid(0.0, draw(st.sampled_from([1.0, 1.3])), r)


@settings(deadline=None, max_examples=300)
@given(p=_census_profiles())
@example(p=ProfileGrid(0.0, 1.0, np.full(5, 1.0)))
def test_census_count_and_positions_share_one_event_scan(p, euclid2):
    rdot = spatial_derivatives(p)[0]
    r_top = float(p.r.max())
    interior = _interior_critical_z(rdot, p.z, r_top, None)
    assert _critical_count(rdot, p.z, r_top, None) == 2 + interior.size
    assert _diagnose(p, euclid2, 0.0).N == critical_point_count(p) == 2 + interior.size
    # the default threshold, resolved for the reference scan
    tol = max(1e-9 * float(np.max(np.abs(rdot))),
              _SLOPE_NOISE_ULPS * float(np.spacing(r_top)) / float(p.z[1] - p.z[0]))
    np.testing.assert_array_equal(critical_points(p), _reference_critical_points(p, tol))


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        p = cos_profile(33, a=-0.5, b=1.5)
        path = tmp_path / "prof.csv"
        save_profile_csv(p, path)
        q = load_profile_csv(path)
        assert q.a == p.a and q.b == p.b
        np.testing.assert_array_equal(q.r, p.r)

    def test_exact_bytes(self, tmp_path):
        # floats as repr, "\n" line ends: the bytes csv.writer wrote
        path = tmp_path / "prof.csv"
        save_profile_csv(ProfileGrid(0.1, 0.7, [1.0, 0.1 + 0.2, 2.5, 1e-3, 7.0]), path)
        assert path.read_bytes() == (b"z,r\n0.1,1.0\n0.25,0.30000000000000004\n0.4,2.5\n"
                                     b"0.5499999999999999,0.001\n0.7,7.0\n")

    def test_reader_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("z,r\n0.0,1.0\n0.1,1.0\n0.3,1.0\n")
        with pytest.raises(ValueError, match="uniform"):
            load_profile_csv(bad)
        neg = tmp_path / "neg.csv"
        neg.write_text("z,r\n0.0,1.0\n0.1,-1.0\n0.2,1.0\n")
        with pytest.raises(ValueError, match="positive"):
            load_profile_csv(neg)
        noheader = tmp_path / "nh.csv"
        noheader.write_text("0.0,1.0\n0.1,1.0\n0.2,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_profile_csv(noheader)


class TestProfileCsvFormat:
    def test_writes_unix_line_endings(self, tmp_path):
        # like history.csv and sweep.csv
        path = tmp_path / "prof.csv"
        save_profile_csv(cos_profile(5), path)
        data = path.read_bytes()
        assert b"\r" not in data and data.startswith(b"z,r\n0.0,1.1\n")

    @pytest.mark.parametrize("z,match", [
        ("0.0,nan,0.2", "strictly increasing"), ("nan,0.1,0.2", "strictly increasing"),
        ("0.0,0.1,nan", "strictly increasing"), ("-inf,0.0,1.0", "finite a < b"),
        ("0.0,1.0,inf", "finite a < b"),
    ])
    def test_non_finite_z_rejected(self, tmp_path, z, match):
        path = tmp_path / "z.csv"
        path.write_text("z,r\n" + "".join(f"{zi},1.0\n" for zi in z.split(",")))
        with pytest.raises(ValueError, match=match):
            load_profile_csv(path)

    @pytest.mark.parametrize("radius", ["0.0", "nan"])
    def test_radii_checked_by_profile_grid(self, tmp_path, radius):
        path = tmp_path / "r.csv"
        path.write_text(f"z,r\n0.0,1.0\n0.1,{radius}\n0.2,1.0\n")
        with pytest.raises(ValueError, match="finite and positive"):
            load_profile_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("z,r\n0.0,1.0\n0.1,1.0\n")
        with pytest.raises(ValueError, match="at least 3 rows"):
            load_profile_csv(path)


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_profile_grid_needs_a_finite_slab(a, b):
    with pytest.raises(ValueError, match="finite a < b"):
        ProfileGrid(a, b, np.ones(5))
