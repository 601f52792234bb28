import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow import (
    FlowConfig,
    FlowState,
    FlowStopped,
    ProfileGrid,
    StopReason,
    StopTag,
    averaged_mean_curvature,
    compute_bounds,
    custom_space,
    enclosed_volume,
    make_preset,
    rhs,
    run,
    space_from_expressions,
    step,
    unit_sphere_area,
)
from revflow import flow, hypersurface
from revflow.flow import HISTORY_COLUMNS, _diagnose, _Run, write_history_csv
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
        euler = _Run(p, sphere2, FlowConfig())
        g, hbar = euler.geometry(p.r)
        euler.v_tracked, euler.v_target = v, 10.0 * v
        with pytest.raises(FlowStopped) as info:
            euler.advance(g, hbar)
        assert info.value.reason.tag is StopTag.PROJECTION_FAILED


    def test_reaching_r_max_is_an_instability(self, sphere2):
        # the bulge at z = 1 grows into r_max while every radius stays finite
        r_max = sphere2.r_max_domain
        z = np.linspace(0.0, 1.0, 51)
        p = ProfileGrid(0.0, 1.0, 0.99999 * r_max - 0.3 * (1.0 + np.cos(np.pi * z)) / 2.0)
        s = FlowState(p, 0.0, _diagnose(p, sphere2, 0.0))
        taken = 0
        with pytest.raises(FlowStopped) as info:
            for taken in range(200):
                s = step(s, sphere2, FlowConfig())
        assert info.value.reason == StopReason(StopTag.INSTABILITY)
        assert taken > 0
        # the refused update is finite and reaches r_max: the r_max stop fired
        euler = _Run(s.profile, sphere2, FlowConfig(), rung=s.dt_rung,
                       prev=(s.v_prev, s.d_prev, s.dt_prev))
        g, hbar = euler.geometry(s.profile.r)
        dr, _ = euler._increment(s.profile.r, g, hbar, FlowConfig().max_t - s.t)
        r_new = s.profile.r + dr
        assert np.all(np.isfinite(r_new)) and np.max(r_new) >= r_max

    def test_projection_bisects_inside_its_bracket(self, monkeypatch, sphere2):
        # from r = 1.4 down to the volume of r = 0.5 the first Newton shift is
        # clipped near the axis, where dV/dc is tiny: the next Newton iterate
        # leaves the bracket, and its midpoint replaces it
        m = 41
        wz = hypersurface.trapezoid_weights(m, 1.0 / (m - 1))
        r = np.full(m, 1.4)
        v0 = hypersurface._volume(r, sphere2, wz)
        target = hypersurface._volume(np.full(m, 0.5), sphere2, wz)
        real, iterates = flow._volume_increment, []

        def spied(space, wz_sigma, r_from, r_to):
            dv = real(space, wz_sigma, r_from, r_to)
            iterates.append((r_to, dv))
            return dv

        monkeypatch.setattr(flow, "_volume_increment", spied)
        with pytest.raises(FlowStopped) as info:
            flow._project_volume(sphere2, unit_sphere_area(2) * wz, r, v0, target,
                                 sphere2.r_max_domain, 1.4, 1.4)
        assert info.value.reason == StopReason(StopTag.PROJECTION_FAILED)
        points, bisected = [(1.4, v0)], False  # (radius, tracked volume) of each iterate
        for r_to, dv in iterates:
            x = float(r_to[0])
            assert np.all(r_to == x) and 0.0 < x < sphere2.r_max_domain
            below = [y for y, v in points if v < target]
            above = [y for y, v in points if v > target]
            if below and above:
                lo, hi = max(below), min(above)
                assert lo < x < hi
                bisected |= x == pytest.approx(0.5 * (lo + hi), rel=1e-12)
            points.append((x, points[-1][1] + dv))
        assert bisected and len(iterates) == 5

    def test_a_non_finite_update_is_an_instability(self):
        # dh is NaN at every radius: H, Hbar and the update are NaN while f and
        # h stay positive, and the run keeps its state
        space = custom_space(2, np.ones_like, np.zeros_like, np.zeros_like, lambda r: r,
                             lambda r: np.full_like(r, np.nan), np.zeros_like)
        p = cos_profile(21)
        x = _Run(p, space, FlowConfig())
        g, hbar = x.geometry(p.r)
        assert np.all(g.f > 0.0) and np.all(g.h > 0.0) and math.isnan(hbar)
        with pytest.raises(FlowStopped) as info:
            x.advance(g, hbar)
        assert info.value.reason == StopReason(StopTag.INSTABILITY)
        assert x.r is p.r and x.t == 0.0 and x.rung is None and x.prev is None

    def test_a_projection_onto_the_floor_is_a_singularity(self, monkeypatch, euclid2):
        # the third projection shifts the min below r_min_stop: the step is
        # refused at its arg-min z, and the run ends on its second state
        p0 = neck_profile(101)
        cfg = FlowConfig(max_t=2.0, record_every=1, r_min_stop=0.01)
        s = FlowState(p0, 0.0, _diagnose(p0, euclid2, 0.0))
        for _ in range(2):
            s = step(s, euclid2, cfg)
        real, shifted = flow._project_volume, []

        def sinking(space, wz_sigma, r, v_at_r, v_target, r_max, r_lo, r_hi):
            if len(shifted) < 2:
                shifted.append(None)
                return real(space, wz_sigma, r, v_at_r, v_target, r_max, r_lo, r_hi)
            c = 0.5 * cfg.r_min_stop - r_lo
            shifted.append(r + c)
            return c, shifted[-1], v_target

        monkeypatch.setattr(flow, "_project_volume", sinking)
        res = run(p0, euclid2, cfg)
        assert len(shifted) == 3 and res.steps == 2
        assert res.reason == StopReason(StopTag.SINGULARITY,
                                        location=float(p0.z[int(shifted[-1].argmin())]))
        assert res.final.t == s.t and np.array_equal(res.final.profile.r, s.profile.r)
        assert res.final.dt_rung == s.dt_rung and res.final.dt_prev == s.dt_prev
        assert res.final.v_tracked == s.v_tracked


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

    def test_initial_singularity_stop(self, euclid2):
        # min r = 0.9 at the node z = 1 is already below r_min_stop
        res = run(cos_profile(51), euclid2, FlowConfig(r_min_stop=0.95))
        assert res.reason == StopReason(StopTag.SINGULARITY, location=1.0)
        assert res.steps == 0 and len(res.history) == 1

    @pytest.mark.parametrize("conv_tol", [None, 1e-6], ids=["default", "given"])
    def test_non_finite_initial_hbar_is_an_instability(self, conv_tol):
        # h = r - r^2 vanishes at r = 1, the radius of both end nodes: k2
        # divides by h = 0 there, and Hbar reads H w = -inf * 0
        space = space_from_expressions(2, f="1", df="0", d2f="0",
                                       h="r - r^2", dh="1 - 2*r", d2h="-2")
        z = np.linspace(0.0, 1.0, 41)
        p = ProfileGrid(0.0, 1.0, 0.9 + 0.1 * np.cos(np.pi * z) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            res = run(p, space, FlowConfig(conv_tol=conv_tol))
        assert res.reason == StopReason(StopTag.INSTABILITY)
        assert res.steps == 0 and len(res.history) == 1
        assert math.isnan(res.history[0].Hbar) and res.config.conv_tol == conv_tol

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


def _run_with_steps(monkeypatch, initial, space, cfg):
    """run, plus (dt, dt_cfl) of every accepted step."""
    seen, last = [], []
    increment, advance = flow._Run._increment, flow._Run.advance

    def spied_increment(self, r, g, *args):
        dr, dt = increment(self, r, g, *args)
        last[:] = [(dt, 0.5 * cfg.dt_safety * self.dz * self.dz * float(np.min(g.q)))]
        return dr, dt

    def spied_advance(self, *args):  # a step that raises is not accepted
        out = advance(self, *args)
        seen.extend(last)
        return out

    monkeypatch.setattr(flow._Run, "_increment", spied_increment)
    monkeypatch.setattr(flow._Run, "advance", spied_advance)
    return run(initial, space, cfg), seen


class TestStepSizeControl:
    def test_converge_steps_do_not_grow_with_m(self, euclid2):
        steps = {}
        for m in (201, 401):
            res = run(cos_profile(m), euclid2, FlowConfig())
            assert res.reason.tag is StopTag.CONVERGED
            steps[m] = res.steps
        assert steps[201] <= 150
        assert steps[401] <= 2 * steps[201]

    def test_last_step_lands_on_max_t(self, euclid2):
        res = run(cos_profile(51), euclid2, FlowConfig(max_t=0.05))
        assert res.reason.tag is StopTag.MAX_TIME
        assert res.final.t == 0.05

    @pytest.mark.parametrize("initial,stop", [(cos_profile(201), StopTag.CONVERGED),
                                              (neck_profile(201), StopTag.SINGULARITY)],
                             ids=["converge", "pinch"])
    def test_dt_never_below_the_explicit_step(self, monkeypatch, euclid2, initial, stop):
        res, seen = _run_with_steps(monkeypatch, initial, euclid2, FlowConfig())
        assert res.reason.tag is stop and len(seen) == res.steps
        assert all(dt >= dt_cfl for dt, dt_cfl in seen)
        if stop is StopTag.CONVERGED:  # far above the cap of the unprojected flow
            assert max(dt / dt_cfl for dt, dt_cfl in seen) > flow._DT_CAP
        else:  # the error control resolves the pinch down to the floor
            assert seen[-1][0] == seen[-1][1]

    def test_cap_without_volume_projection(self, monkeypatch, euclid2):
        cfg = FlowConfig(max_t=0.25, volume_projection=False)
        res, seen = _run_with_steps(monkeypatch, cos_profile(101), euclid2, cfg)
        assert res.steps == len(seen) > 0
        assert all(dt <= flow._DT_CAP * dt_cfl for dt, dt_cfl in seen)
        assert max(dt / dt_cfl for dt, dt_cfl in seen) == pytest.approx(flow._DT_CAP)

    def test_step_carries_the_proposal_and_lands_on_max_t(self, euclid2):
        p0 = cos_profile(51)
        cfg = FlowConfig(max_t=0.05)
        s = FlowState(p0, 0.0, _diagnose(p0, euclid2, 0.0))
        dts = []
        while s.t < cfg.max_t:
            t = s.t
            s = step(s, euclid2, cfg)
            dts.append(s.t - t)
        assert s.t == 0.05 and s.dt_rung > 0
        # the first try is the rung that the Euler error model est = dt^2
        # max|L v| puts within tol, and it is accepted
        euler = _Run(p0, euclid2, cfg)
        g, hbar = euler.geometry(p0.r)
        v = flow._velocity(g, hbar)
        lv = float(np.max(np.abs(flow._second_difference(v) / g.q))) / p0.dz ** 2
        dt0 = min(math.sqrt(flow._ATOL * float(np.min(p0.r)) / lv),
                  flow._RTOL * float(np.max(np.abs(v))) / lv)
        dt_cfl = 0.5 * cfg.dt_safety * p0.dz ** 2 * float(np.min(g.q))
        k = math.floor(4 * math.log2(dt0 / dt_cfl))
        assert k > 0 and dts[0] == dt_cfl * 2.0 ** (k / 4)

    @pytest.mark.parametrize("space_name,scale,amp,max_t,end", [
        pytest.param("euclid2", 1.0, 0.1, 0.3, "max_t", id="euclid2-1.0"),
        pytest.param("hyper2", 1.0, 0.1, 0.3, "max_t", id="hyper2-1.0"),
        pytest.param("sphere3", 0.5, 0.1, 0.3, "max_t", id="sphere3-0.5"),
        pytest.param("custom_rss2", 1.0, 0.1, 0.3, "max_t", id="custom_rss2-1.0"),
        pytest.param("euclid2", 2.0, 0.1, FlowConfig.max_t, "taken", id="euclid2-converge"),
        pytest.param("hyper2", 1.0, 0.35, FlowConfig.max_t, "retried", id="hyper2-converge"),
        pytest.param("custom_rss2", 1.0, 0.2, FlowConfig.max_t, "retried",
                     id="custom_rss2-retried"),
        pytest.param("sphere3", 0.5, 0.1, FlowConfig.max_t, "retried", id="sphere3-retried"),
        pytest.param("euclid2", 1.0, 0.1, FlowConfig.max_t, "first", id="euclid2-first"),
        pytest.param("hyper2", 1.0, 0.1, FlowConfig.max_t, "first", id="hyper2-first"),
    ])
    def test_step_chain_is_run_bit_for_bit(self, request, space_name, scale, amp, max_t, end):
        # FlowState carries run's proposal, tracked and target volumes, SBDF2
        # history and endgame state, so every step lands on the same bits as
        # run's; a chain to max_t lands on it by itself in run's steps, and a
        # converging one takes run's endgame: at its first try (right after
        # the first step for "first"), or at a retry once the gap has fallen 3
        # times below a declined try's
        space = request.getfixturevalue(space_name)
        p0 = ProfileGrid(0.0, 1.0, scale * cos_profile(51, amp=amp).r)
        cfg = FlowConfig(max_t=max_t, record_every=1)
        res = run(p0, space, cfg)
        assert res.reason.tag is (StopTag.MAX_TIME if end == "max_t" else StopTag.CONVERGED)
        s = FlowState(p0, 0.0, _diagnose(p0, space, 0.0))
        states = [s]
        while s.t < max_t and len(states) <= res.steps:
            s = step(s, space, cfg)
            states.append(s)
        assert len(states) == len(res.history) == res.steps + 1 > (2 if end == "first" else 5)
        for state, snap, rec in zip(states, res.snapshots, res.history):
            assert state.t == rec.t
            assert np.array_equal(state.profile.r, snap.r)
        if end == "max_t":
            assert s.t == max_t
        elif end == "taken":
            assert res.final.endgame_declined is None
        elif end == "first":
            assert res.endgame.step == 1 and res.final.endgame_declined is None
        else:
            assert flow._ENDGAME_RETRY * res.endgame.gap <= res.final.endgame_declined
        # run's final state hands the same volumes, history and endgame state
        # on to a next step
        assert res.final.v_target == s.v_target == res.history[0].V
        assert res.final.v_tracked == s.v_tracked
        assert res.final.dt_rung == s.dt_rung and res.final.dt_prev == s.dt_prev
        assert np.array_equal(res.final.v_prev, s.v_prev)
        assert np.array_equal(res.final.d_prev, s.d_prev)
        assert res.final.endgame_tried == s.endgame_tried
        assert res.final.endgame_declined == s.endgame_declined

    @pytest.mark.parametrize("space_name", ["euclid2", "hyper2"])
    def test_cylinder_step_chain_without_max_t_stays_fixed(self, request, space_name):
        # est = 0 on a cylinder, so only the ceiling bounds dt: it must keep
        # the Neumann system's diagonal 2 + dz^2 q / dt from rounding to 2
        space = request.getfixturevalue(space_name)
        p0 = cylinder(101, 1.0)
        cfg = FlowConfig(max_t=math.inf)
        s = FlowState(p0, 0.0, _diagnose(p0, space, 0.0))
        ts = [s.t]
        for _ in range(1000):
            s = step(s, space, cfg)
            ts.append(s.t)
        assert float(np.max(np.abs(s.profile.r - 1.0))) < 1e-10
        assert all(b > a for a, b in zip(ts, ts[1:])) and math.isfinite(ts[-1])
        dt_ceiling = p0.dz * p0.dz * float(np.min(space.warp(1.0)[0])) ** 2 / flow._DIAG_MARGIN
        assert ts[-1] - ts[-2] == pytest.approx(dt_ceiling, rel=1e-9)

    def test_final_state_after_a_refused_step_is_the_last_accepted_one(self, euclid2):
        # the pinch ends on a refused update: run's final state hands on the
        # controller of the step chain's last state, not of the refused try
        p0 = neck_profile(101)
        cfg = FlowConfig(max_t=2.0, record_every=10)
        res = run(p0, euclid2, cfg)
        assert res.reason.tag is StopTag.SINGULARITY
        s = FlowState(p0, 0.0, _diagnose(p0, euclid2, 0.0))
        for _ in range(res.steps):
            s = step(s, euclid2, cfg)
        assert res.final.t == s.t and np.array_equal(res.final.profile.r, s.profile.r)
        assert res.final.dt_rung == s.dt_rung and res.final.dt_prev == s.dt_prev
        assert np.array_equal(res.final.v_prev, s.v_prev)
        assert np.array_equal(res.final.d_prev, s.d_prev)


def _gap(profile, space):
    """max|H - Hbar| of ``profile``, as run's convergence check reads it."""
    g, wz = hypersurface._checked_geometry(profile, space)
    return float(np.max(np.abs(g.H - hypersurface._hbar(g, wz))))


class TestEndgame:
    @pytest.mark.parametrize("space_name", ["euclid2", "hyper2"])
    def test_converged_run_ends_on_the_discrete_limit(self, request, space_name):
        space = request.getfixturevalue(space_name)
        res = run(cos_profile(51), space, FlowConfig())
        eg = res.endgame
        assert res.reason.tag is StopTag.CONVERGED and eg is not None
        assert res.steps == eg.step + 1 and 1 <= eg.iterations <= flow._ENDGAME_ITERS
        conv_tol = res.config.conv_tol
        # after a first step, within the window and through both gates: the
        # decay rate k0 at the hand-off within 5% of lambda1
        assert eg.step >= 1 and conv_tol <= eg.gap < flow._ENDGAME_GAP * abs(res.final.cached.Hbar)
        assert eg.share >= flow._ENDGAME_SHARE
        k0 = eg.lambda1 + (eg.rate - eg.lambda1) / 3.0
        assert abs(k0 / eg.lambda1 - 1.0) <= flow._ENDGAME_RATE_TOL
        # iterated to rounding: a cylinder to the last bits, with no critical point
        assert eg.residual == _gap(res.final.profile, space) <= 1e-14
        assert np.ptp(res.final.profile.r) <= 1e-14 and res.final.cached.N == 2
        assert abs(res.final.cached.V / res.history[0].V - 1.0) <= 1e-12
        # dated when the slowest mode's share of the gap reaches conv_tol, by
        # the odd decay law lambda1 A + c A^3 with slope rate at the hand-off
        assert res.final.t == eg.t + (math.log(eg.share * eg.gap / conv_tol)
                                      - 0.5 * math.log(k0 / eg.lambda1)) / eg.lambda1
        assert res.final.endgame_tried and res.final.dt_prev is None

    def test_lambda1_is_the_cylinders_decay_rate(self, euclid2):
        # R + eps cos(pi z) decays like exp(-(pi^2 - 1/R^2) t) in a unit slab
        res = run(cos_profile(101), euclid2, FlowConfig())
        radius = float(np.mean(res.final.profile.r))
        oracle = math.pi ** 2 - 1.0 / radius ** 2
        assert abs(res.endgame.lambda1 / oracle - 1.0) <= 1e-3

    @pytest.mark.parametrize("radius", [0.3, 0.2])
    def test_unstable_cylinders_are_not_taken_as_limits(self, monkeypatch, euclid2, radius):
        # below R = 1/pi the cylinder is unstable under volume-preserving
        # variations: the try after the first step is declined (endgame_declined
        # holds its gap, and endgame_tried, an endgame taken, stays False), the
        # gap grows, so none follows, and the near-cylinder pinches in the
        # steps it takes without the endgame
        z = np.linspace(0.0, 1.0, 61)
        p0 = ProfileGrid(0.0, 1.0, radius * (1.0 + 1e-3 * np.cos(np.pi * z)))
        res = run(p0, euclid2, FlowConfig())
        assert res.reason.tag is StopTag.SINGULARITY
        assert res.endgame is None and not res.final.endgame_tried
        assert res.final.endgame_declined is not None
        monkeypatch.setattr(flow, "_ENDGAME_GAP", 0.0)
        plain = run(p0, euclid2, FlowConfig())
        assert res.reason == plain.reason and res.steps == plain.steps > 50

    def test_a_limit_that_is_not_mirror_symmetric_is_declined(self, monkeypatch, euclid2):
        # the date's odd decay law needs a mirror-symmetric limit: with no
        # asymmetry admitted, every try reaches a limit and is declined, and
        # the run steps on to convergence as without the endgame
        monkeypatch.setattr(flow, "_ENDGAME_MIRROR", -1.0)
        cfg = FlowConfig(record_every=1)
        res = run(cos_profile(51), euclid2, cfg)
        assert res.reason.tag is StopTag.CONVERGED
        assert res.endgame is None and res.final.endgame_declined is not None
        monkeypatch.setattr(flow, "_ENDGAME_GAP", 0.0)
        plain = run(cos_profile(51), euclid2, cfg)
        assert res.steps == plain.steps and res.history == plain.history

    @pytest.mark.parametrize("cfg", [FlowConfig(max_t=1.0), FlowConfig(volume_projection=False)],
                             ids=["dated-past-max_t", "no-projection"])
    def test_a_declined_try_steps_on_as_without_the_endgame(self, monkeypatch, euclid2, cfg):
        # past max_t each try, and each retry, is declined before any
        # iteration; without the projection there is no volume to hold, and
        # no try.  No endgame is taken (endgame_tried), in both.
        cfg = dataclasses.replace(cfg, record_every=1)
        res = run(cos_profile(51), euclid2, cfg)
        assert res.endgame is None and not res.final.endgame_tried
        assert (res.final.endgame_declined is not None) is cfg.volume_projection
        monkeypatch.setattr(flow, "_ENDGAME_GAP", 0.0)
        plain = run(cos_profile(51), euclid2, cfg)
        assert res.reason == plain.reason and res.steps == plain.steps
        assert res.history == plain.history
        assert all(np.array_equal(a.r, b.r) for a, b in zip(res.snapshots, plain.snapshots))


def _raising(exc):
    def raise_it(*args, **kwargs):
        raise exc
    return raise_it


def _limit_projection_fails(mp):
    """The volume projection fails when the endgame projects its limit, and only then."""
    real = flow._project_volume

    def projection(*args):
        if sys._getframe(1).f_code.co_name == "_endgame":
            raise FlowStopped(StopReason(StopTag.PROJECTION_FAILED))
        return real(*args)

    mp.setattr(flow, "_project_volume", projection)


def _soft_jacobian(mp):
    """J / 100: the first Newton iterate jumps 100 times too far, out of (floor, r_max).

    The try's rate falls 100-fold with J (its share does not), so the run
    needs a far max_t to pass the first date check.
    """
    real = flow._jacobian
    mp.setattr(flow, "_jacobian", lambda g, n, dz: tuple(0.01 * x for x in real(g, n, dz)))


# the endgame's declines that no other test reaches: (space, max_t, the
# injection that forces the decline, whether a later try is taken)
_DECLINES = {
    "first-solve-divides-by-zero": (
        "euclid2", 10.0, lambda mp: mp.setattr(flow, "_lu_solve", _raising(ZeroDivisionError)),
        False),
    "iterate-leaves-the-domain": ("euclid2", 1e3, _soft_jacobian, False),
    "newton-short-of-conv_tol": (
        "euclid2", 10.0, lambda mp: mp.setattr(flow, "_ENDGAME_ITERS", 1), True),
    "iteration-divides-by-zero": (
        "euclid2", 10.0, lambda mp: mp.setattr(flow, "beta", _raising(ZeroDivisionError)), False),
    "limit-projection-fails": ("euclid2", 10.0, _limit_projection_fails, False),
    # the first date check's t + drop/rate (5.88) passes, the odd-law date (6.09) does not
    "odd-law-date-past-max_t": ("custom_rss2", 6.0, lambda mp: None, True),
}


@pytest.mark.parametrize("case", list(_DECLINES))
def test_a_declined_try_leaves_the_run_and_its_step_chain(request, monkeypatch, case):
    # up to the try that is taken, if any, the run is the run without the
    # endgame, and a step chain lands on its states through every decline
    space_name, max_t, inject, taken = _DECLINES[case]
    space = request.getfixturevalue(space_name)
    p0 = cos_profile(51)
    cfg = FlowConfig(max_t=max_t, record_every=1)
    inject(monkeypatch)
    res = run(p0, space, cfg)
    assert res.final.endgame_declined is not None and (res.endgame is not None) is taken
    assert not taken or res.endgame.step > 1
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_ENDGAME_GAP", 0.0)
        plain = run(p0, space, cfg)
    k = res.endgame.step + 1 if taken else len(res.history)
    assert res.history[:k] == plain.history[:k]
    assert taken or (res.reason == plain.reason and res.steps == plain.steps)
    s = FlowState(p0, 0.0, _diagnose(p0, space, 0.0))
    for snap, rec in zip(res.snapshots[1:], res.history[1:], strict=True):
        s = step(s, space, cfg)
        assert s.t == rec.t and np.array_equal(s.profile.r, snap.r)
    assert (s.endgame_tried, s.endgame_declined) == (taken, res.final.endgame_declined)


def _assert_same_run(res, solo):
    """Everything ``run`` reports of a run, ``==`` to its solo run's; arrays bit for bit."""
    assert res.reason == solo.reason and res.steps == solo.steps
    assert res.endgame == solo.endgame and res.config == solo.config
    assert res.history == solo.history
    assert len(res.snapshots) == len(solo.snapshots)
    for a, b in zip(res.snapshots, solo.snapshots):
        assert (a.a, a.b) == (b.a, b.b) and np.array_equal(a.r, b.r)
    for field in dataclasses.fields(FlowState):
        a, b = getattr(res.final, field.name), getattr(solo.final, field.name)
        if field.name == "profile":
            assert np.array_equal(a.r, b.r)
        elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a is not None and b is not None and np.array_equal(a, b)
        else:
            assert a == b


def _capped_projection(monkeypatch, cap):
    """A volume projection that refuses every update whose max r exceeds ``cap``."""
    real = flow._project_volume

    def capped(space, wz_sigma, r, v_at_r, v_target, r_max, r_lo, r_hi):
        if r_hi > cap:
            raise FlowStopped(StopReason(StopTag.PROJECTION_FAILED))
        return real(space, wz_sigma, r, v_at_r, v_target, r_max, r_lo, r_hi)

    monkeypatch.setattr(flow, "_project_volume", capped)


_Z41 = np.linspace(0.0, 1.0, 41)
_NECK = 0.05 + 0.9 * np.cos(np.pi * _Z41) ** 6  # pinches
_REFUSED = 1.3 + 0.1 * np.cos(2 * np.pi * _Z41)  # above the cap from its first update
# per space: a run to the CMC limit through the endgame, and one to max_t = 3
_ENSEMBLES = {
    "euclid2": (1.0 + 0.1 * np.cos(np.pi * _Z41), 0.33 * (1.0 + 0.01 * np.cos(np.pi * _Z41))),
    "hyper2": (1.0 + 0.1 * np.cos(np.pi * _Z41), 0.33 * (1.0 + 0.01 * np.cos(np.pi * _Z41))),
    "sphere3": (0.5 * (1.3 + 0.1 * np.cos(2 * np.pi * _Z41)),
                0.5 * (1.0 + 0.1 * np.cos(np.pi * _Z41))),
    "custom_rss2": (0.5 * (1.0 + 0.02 * np.cos(np.pi * _Z41)), 1.0 + 0.1 * np.cos(np.pi * _Z41)),
}


class TestEnsemble:
    @pytest.mark.parametrize("space_name", list(_ENSEMBLES))
    def test_each_member_is_its_solo_run(self, request, monkeypatch, space_name):
        # members that converge through the endgame, pinch, reach max_t and
        # are refused, each at its own step, leave the batch as they would
        # end alone
        space = request.getfixturevalue(space_name)
        _capped_projection(monkeypatch, 1.25)
        converge, slow = _ENSEMBLES[space_name]
        profiles = [ProfileGrid(0.0, 1.0, r) for r in (converge, _NECK, slow, _REFUSED)]
        cfg = FlowConfig(max_t=3.0, record_every=3)
        ensemble = run(profiles, space, cfg)
        solos = [run(p, space, cfg) for p in profiles]
        for res, solo in zip(ensemble, solos):
            _assert_same_run(res, solo)
        tags = [res.reason.tag for res in ensemble]
        assert tags == [StopTag.CONVERGED, StopTag.SINGULARITY, StopTag.MAX_TIME,
                        StopTag.PROJECTION_FAILED]
        assert ensemble[0].endgame is not None
        assert len({res.steps for res in ensemble}) == 4

    def test_a_member_past_h_zero_stops_as_alone(self):
        # h = r - r^2 vanishes at r = 1: the first member grows past it and
        # stops on f or h <= 0, beside a pinch and a run to r_min_stop
        space = space_from_expressions(2, f="1", df="0", d2f="0",
                                       h="r - r^2", dh="1 - 2*r", d2h="-2")
        z = np.linspace(0.0, 1.0, 51)
        profiles = [ProfileGrid(0.0, 1.0, r) for r in (0.9 + 0.05 * np.cos(np.pi * z) ** 2,
                                                        0.03 + 0.4 * np.cos(np.pi * z) ** 6,
                                                        0.3 * (1.0 + 0.05 * np.cos(np.pi * z)))]
        cfg = FlowConfig(record_every=4)
        ensemble = run(profiles, space, cfg)
        for res, p in zip(ensemble, profiles):
            _assert_same_run(res, run(p, space, cfg))
        assert ensemble[0].reason == StopReason(StopTag.INSTABILITY)
        assert [res.reason.tag for res in ensemble[1:]] == [StopTag.SINGULARITY] * 2
        assert len({res.steps for res in ensemble}) == 3

    def test_an_ensemble_of_one_is_run(self, euclid2):
        p0 = cos_profile(51)
        cfg = FlowConfig(record_every=2)
        (res,) = run([p0], euclid2, cfg)
        _assert_same_run(res, run(p0, euclid2, cfg))
        assert run([], euclid2, cfg) == []

    def test_profiles_on_different_grids_are_refused(self, euclid2):
        with pytest.raises(ValueError, match="one grid"):
            run([cos_profile(41), cos_profile(51)], euclid2, FlowConfig())


_SPACE_NAMES = ["euclid2", "hyper2", "sphere3", "custom_rss2"]


@settings(deadline=None, max_examples=20)
@given(space_index=st.integers(0, 3), m=st.integers(11, 41),
       shapes=st.lists(st.tuples(st.floats(0.3, 1.0), st.floats(-0.2, 0.2),
                                 st.floats(-0.1, 0.1), st.floats(0.0, 0.6),
                                 st.sampled_from([2, 4, 6])), min_size=2, max_size=4),
       max_t=st.floats(0.01, 0.3), record_every=st.integers(1, 4))
def test_random_ensembles_are_their_solo_runs(request, space_index, m, shapes, max_t,
                                              record_every):
    # r = c + a1 cos(pi z) + a2 cos(2 pi z) - d cos(pi z)^k, scaled into the
    # space's domain; each member's result is that of its own run
    name = _SPACE_NAMES[space_index]
    space = request.getfixturevalue(name)
    z = np.linspace(0.0, 1.0, m)
    scale = 0.5 if name == "sphere3" else 1.0
    profiles = []
    for c, a1, a2, d, k in shapes:
        c1 = np.cos(np.pi * z)
        r = c + a1 * c1 + a2 * np.cos(2 * np.pi * z) - d * c * c1 ** k
        profiles.append(ProfileGrid(0.0, 1.0, scale * np.maximum(r, 0.05)))
    cfg = FlowConfig(max_t=max_t, record_every=record_every)
    for res, p in zip(run(profiles, space, cfg), profiles):
        _assert_same_run(res, run(p, space, cfg))
