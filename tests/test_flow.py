import dataclasses
import math

import numpy as np
import pytest

from revflow import (
    FlowConfig,
    FlowState,
    FlowStopped,
    ProfileGrid,
    StopTag,
    averaged_mean_curvature,
    compute_bounds,
    enclosed_volume,
    make_preset,
    rhs,
    run,
    step,
)
from revflow import hypersurface
from revflow.flow import HISTORY_COLUMNS, _diagnose, _Euler, write_history_csv
from conftest import cos_profile, neck_profile


def cylinder(m, rc, a=0.0, b=1.0):
    return ProfileGrid(a, b, np.full(m, rc))


def equilibrium_hbar(space, rc):
    f, fp, _, h, hp, _ = space.warp(rc)
    return float(fp / f + (space.n - 1) * hp / h)


class TestFlowConfig:
    def test_defaults(self):
        cfg = FlowConfig()
        assert cfg.dt_safety == 0.4 and cfg.volume_projection is True

    @pytest.mark.parametrize("kwargs", [
        {"dt_safety": 0.0}, {"dt_safety": 1.0}, {"max_t": -1.0},
        {"r_min_stop": 0.0}, {"v_max_stop": 0.0}, {"conv_tol": -1e-6},
        {"record_every": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlowConfig(**kwargs)


class TestRhs:
    def test_cylinder_equilibrium(self, euclid2, hyper2, custom_rss2):
        for space, rc in ((euclid2, 2.0), (hyper2, 1.3), (custom_rss2, 0.9)):
            p = cylinder(41, rc)
            out = rhs(p, space, equilibrium_hbar(space, rc))
            assert np.max(np.abs(out)) <= 1e-13

    def test_euclid_specializations(self, euclid2):
        p = cylinder(41, 2.0)
        assert np.max(np.abs(rhs(p, euclid2, 0.5))) == 0.0
        np.testing.assert_allclose(rhs(p, euclid2, 0.6), 0.1, rtol=1e-13)

    def test_requires_finite_hbar(self, euclid2):
        with pytest.raises(ValueError):
            rhs(cylinder(11, 1.0), euclid2, math.inf)


class TestStep:
    def test_cylinder_fixed_point(self, euclid2):
        p = cylinder(51, 1.0)
        s = FlowState(p, 0.0, _diagnose(p, euclid2, 0.0))
        for _ in range(25):
            s = step(s, euclid2, FlowConfig())
        assert np.max(np.abs(s.profile.r - 1.0)) <= 1e-14
        assert s.t > 0.0

    def test_volume_drift_per_step(self, euclid2, hyper2):
        p0 = cos_profile(51)
        for space in (euclid2, hyper2):
            s = FlowState(p0, 0.0, _diagnose(p0, space, 0.0))
            v_prev = s.cached.V
            for _ in range(25):
                s = step(s, space, FlowConfig())
                assert abs(s.cached.V - v_prev) / v_prev <= 1e-12
                v_prev = s.cached.V

    def test_cached_volume_matches_recomputation(self, hyper2):
        from revflow import enclosed_volume
        p0 = cos_profile(51)
        s = step(FlowState(p0, 0.0, _diagnose(p0, hyper2, 0.0)), hyper2, FlowConfig())
        recomputed = enclosed_volume(s.profile, hyper2)
        assert abs(s.cached.V - recomputed) <= 1e-14 * abs(recomputed)

    def test_pinch_raises_flow_stopped(self, euclid2):
        # a profile already so thin that one step overshoots to r <= 0
        z = np.linspace(0.0, 1.0, 101)
        p = ProfileGrid(0.0, 1.0, 1e-4 + 0.9 * np.cos(np.pi * z) ** 6)
        s = FlowState(p, 0.0, _diagnose(p, euclid2, 0.0))
        with pytest.raises(FlowStopped) as info:
            for _ in range(200):
                s = step(s, euclid2, FlowConfig())
        assert info.value.reason.tag is StopTag.SINGULARITY
        assert 0.0 < info.value.reason.location < 1.0

    def test_unreachable_volume_is_a_projection_failure(self, sphere2):
        # at r_max/2 the slab holds half its largest volume, and the shift
        # that would reach ten times that is clamped below r_max
        p = cylinder(41, 0.5 * sphere2.r_max_domain)
        v = enclosed_volume(p, sphere2)
        euler = _Euler(p, sphere2, FlowConfig())
        g, hbar = euler.geometry(p.r)
        with pytest.raises(FlowStopped) as info:
            euler.advance(p.r, g, hbar, 0.0, v, 10.0 * v)
        assert info.value.reason.tag is StopTag.PROJECTION_FAILED


class TestRun:
    def test_cylinder_converges_immediately(self, euclid2):
        res = run(cylinder(101, 1.0), euclid2, FlowConfig())
        assert res.reason.tag is StopTag.CONVERGED
        assert res.final.t == 0.0
        assert len(res.history) == 1

    def test_steps_count_the_updates(self, euclid2):
        assert run(cylinder(51, 1.0), euclid2, FlowConfig()).steps == 0
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=0.01, record_every=1))
        assert res.reason.tag is StopTag.MAX_TIME
        assert res.steps == len(res.history) - 1 > 0

    def test_small_volume_convergence(self, euclid2):
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=5.0, record_every=100))
        assert res.reason.tag is StopTag.CONVERGED
        V0, A0 = res.history[0].V, res.history[0].area
        rep = compute_bounds(euclid2, 0.0, 1.0, V0, A0)
        assert np.max(np.abs(res.final.profile.r - rep.r1)) <= 1e-4
        # conserved volume and monotone area along the recorded history
        assert max(abs(rec.V - V0) / V0 for rec in res.history) <= 1e-10
        areas = [rec.area for rec in res.history]
        assert all(areas[i + 1] <= areas[i] * (1.0 + 1e-8 * 100)
                   for i in range(len(areas) - 1))

    def test_interior_neckpinch(self, euclid2):
        res = run(neck_profile(101), euclid2, FlowConfig(max_t=2.0, record_every=10))
        assert res.reason.tag is StopTag.SINGULARITY
        assert res.reason.location == pytest.approx(0.5, abs=2 * res.final.profile.dz)
        ns = [rec.N for rec in res.history]
        assert all(ns[i + 1] <= ns[i] for i in range(len(ns) - 1))
        assert all(rec.Hbar > 0 for rec in res.history)

    def test_graph_failure_stop(self, euclid2):
        res = run(cos_profile(51, amp=0.3), euclid2, FlowConfig(v_max_stop=1.001))
        assert res.reason.tag is StopTag.GRAPH_FAILURE

    def test_max_time_stop(self, euclid2):
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=1e-4))
        assert res.reason.tag is StopTag.MAX_TIME
        assert res.final.t >= 1e-4

    def test_domain_edge_instability(self, sphere2):
        rc = 0.995 * sphere2.r_max_domain
        res = run(cylinder(51, rc), sphere2, FlowConfig())
        assert res.reason.tag is StopTag.INSTABILITY

    def test_projection_off_drift(self, euclid2):
        # semi-discrete conservation leaves only the O(dt) Euler error,
        # far below the documented 1e-3 per unit time at m=201
        res201 = run(cos_profile(201), euclid2,
                     FlowConfig(max_t=0.25, conv_tol=1e-30, record_every=5000,
                                volume_projection=False))
        v0 = res201.history[0].V
        drift201 = abs(res201.final.cached.V - v0) / v0
        assert drift201 <= 1e-3 * 0.25
        res101 = run(cos_profile(101), euclid2,
                     FlowConfig(max_t=0.25, conv_tol=1e-30, record_every=5000,
                                volume_projection=False))
        drift101 = abs(res101.final.cached.V - res101.history[0].V) / res101.history[0].V
        # improves roughly like dz^2 under refinement
        assert drift101 / drift201 > 2.0

    def test_resolved_defaults_recorded(self, euclid2):
        p0 = cos_profile(51)
        res = run(p0, euclid2, FlowConfig(max_t=1e-4))
        assert res.config.r_min_stop == pytest.approx(1e-3 * float(np.min(p0.r)))
        hbar0 = averaged_mean_curvature(p0, euclid2).Hbar
        assert res.config.conv_tol == pytest.approx(1e-6 * abs(hbar0))

    @pytest.mark.parametrize("share", [1.0, 1.1])
    def test_initial_profile_outside_the_domain_raises(self, sphere2, share):
        with pytest.raises(ValueError, match="ambient domain"):
            run(cylinder(51, share * sphere2.r_max_domain), sphere2, FlowConfig())

    @pytest.mark.parametrize("name", ["euclid2", "hyper2", "custom_rss2"])
    def test_one_warp_evaluation_per_state(self, request, name):
        # records, Hbar(0) and the volume target reuse the step's geometry;
        # volumes and the projection evaluate only (f, h)
        base = request.getfixturevalue(name)
        calls = []

        def warp(r):
            calls.append(1)
            return base.warp(r)

        space = dataclasses.replace(base, warp=warp)
        res = run(cos_profile(51), space, FlowConfig(max_t=0.05, record_every=1))
        assert res.steps > 0 and len(res.history) == res.steps + 1
        assert len(calls) == res.steps + 1

    @pytest.mark.parametrize("name", ["euclid2", "hyper2", "custom_rss2"])
    def test_one_slope_stencil_per_state(self, request, name, monkeypatch):
        # the records' critical-point census reads the kernel's slope
        space = request.getfixturevalue(name)
        calls = []
        stencil = hypersurface._derivatives

        def counted(r, dz):
            calls.append(1)
            return stencil(r, dz)

        monkeypatch.setattr(hypersurface, "_derivatives", counted)
        res = run(cos_profile(51), space, FlowConfig(max_t=0.05, record_every=1))
        assert res.steps > 0 and len(res.history) == res.steps + 1
        assert len(calls) == res.steps + 1

    def test_snapshots_align_with_history(self, euclid2):
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=0.01, record_every=20))
        assert len(res.snapshots) == len(res.history)
        assert res.history[0].min_r == pytest.approx(float(np.min(res.snapshots[0].r)))


class TestHistoryCsv:
    def test_columns_and_parse(self, euclid2, tmp_path):
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=0.01, record_every=25))
        path = tmp_path / "history.csv"
        write_history_csv(res.history, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(HISTORY_COLUMNS)
            [float(c) for c in cells]
        assert len(lines) == len(res.history) + 1
