"""The shared geometry kernel and SBDF2 update, checked from the outside.

Property tests draw a constant-curvature preset, a dimension and a random
cosine-mode profile.  The trajectory tests check the decay of a cosine mode
in time against the linearised rate and against the explicit-Euler
reference, and the differential tests that the semi-implicit update reaches
the same limits and singularities as that reference.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from revflow import (
    FlowConfig,
    ProfileGrid,
    StopTag,
    averaged_mean_curvature,
    beta,
    critical_point_count,
    curvature_field,
    make_preset,
    rhs,
    run,
    space_from_expressions,
    spatial_derivatives,
    unit_sphere_area,
)
from revflow import flow, hypersurface
from revflow.flow import _diagnose, _velocity
from revflow.hypersurface import trapezoid_weights
from conftest import cos_profile, neck_profile


@st.composite
def spaces(draw):
    """(space, r_hi): a preset with n in {2, 3} and a radius cap inside its domain."""
    n = draw(st.sampled_from([2, 3]))
    tag = draw(st.sampled_from(["euclidean", "hyperbolic", "spherical"]))
    if tag == "euclidean":
        return make_preset(tag, n=n), 2.5
    if tag == "hyperbolic":
        return make_preset(tag, -draw(st.floats(0.25, 2.0)), n=n), 2.5
    space = make_preset(tag, draw(st.floats(0.25, 2.0)), n=n)
    return space, 0.6 * space.r_max_domain


@st.composite
def profiles(draw):
    """(space, profile): a base radius plus up to three cosine modes."""
    space, r_hi = draw(spaces())
    m = draw(st.integers(11, 81))
    base = draw(st.floats(0.3, 0.8)) * r_hi
    amps = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
    z = np.linspace(0.0, 1.0, m)
    shape = sum(a * np.cos((k + 1) * np.pi * z) for k, a in enumerate(amps))
    r = base + 0.25 * min(base, r_hi - base) * shape / max(1.0, float(np.max(np.abs(shape))))
    return space, ProfileGrid(0.0, 1.0, r)


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_rhs_is_the_mean_curvature_gap(case):
    space, p = case
    hbar = averaged_mean_curvature(p, space).Hbar
    f, fp, _, h, hp, _ = space.warp(p.r)
    rdot, rddot = spatial_derivatives(p)
    q = rdot * rdot + f * f
    # (Hbar - H) sqrt(q)/f expanded term by term, independent of the kernel's H
    expected = (rddot / q - (fp / f) * (1.0 + rdot * rdot / q) - (space.n - 1) * hp / h
                + hbar * np.sqrt(q) / f)
    # rounding is relative to the largest term of the expanded velocity
    scale = float(np.max(np.abs(rddot) / q + np.abs(fp / f) * (1.0 + rdot * rdot / q)
                         + (space.n - 1) * np.abs(hp / h) + abs(hbar) * np.sqrt(q) / f))
    gap = float(np.max(np.abs(rhs(p, space, hbar) - expected)))
    assert gap <= 1e-12 * scale


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_cylinders_are_fixed_points(data):
    space, r_hi = data.draw(spaces())
    rc = data.draw(st.floats(0.2, r_hi))
    m = data.draw(st.integers(11, 81))
    f, fp, _, h, hp, _ = space.warp(rc)
    hbar = float(fp / f + (space.n - 1) * hp / h)
    out = rhs(ProfileGrid(0.0, 1.0, np.full(m, rc)), space, hbar)
    assert float(np.max(np.abs(out))) <= 1e-13


_CYLINDER_SPACES = (
    make_preset("euclidean", n=2),
    make_preset("hyperbolic", -1.0, n=2),
    make_preset("spherical", 1.0, n=2),
    make_preset("spherical", 1.0, n=3),
    space_from_expressions(2, f="cosh(r)^2", df="sinh(2*r)", d2f="2*cosh(2*r)",
                           h="sinh(r)", dh="cosh(r)", d2h="sinh(r)"),
)


@settings(deadline=None, max_examples=60)
@given(space=st.sampled_from(_CYLINDER_SPACES), rc=st.floats(0.1, 1.4), m=st.integers(3, 81))
def test_cylinders_at_the_kernels_mean_curvature_do_not_move(space, rc, m):
    # every node of a cylinder has the same H, so Hbar - H is exactly 0
    p = ProfileGrid(0.0, 1.0, np.full(m, rc))
    out = rhs(p, space, float(curvature_field(p, space).H[0]))
    assert np.all(out == 0.0)


_JACOBIAN_SPACES = {
    "euclid2": make_preset("euclidean", n=2),
    "hyper2": make_preset("hyperbolic", -1.0, n=2),
    "sphere3": make_preset("spherical", 1.0, n=3),
    "custom_rss2": _CYLINDER_SPACES[-1],
}


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(_JACOBIAN_SPACES)), m=st.integers(5, 41),
       base=st.floats(0.3, 0.9), amps=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3))
def test_jacobian_is_the_derivative_of_the_kernels_mean_curvature(name, m, base, amps):
    # the endgame's tridiagonal dH_i/dr_j against central differences of
    # _geometry(...).H, the ghost-node end rows included
    space = _JACOBIAN_SPACES[name]
    z = np.linspace(0.0, 1.0, m)
    shape = sum(a * np.cos((k + 1) * np.pi * z) for k, a in enumerate(amps))
    r = base * (1.0 + 0.2 * shape / max(1.0, float(np.max(np.abs(shape)))))
    dz = 1.0 / (m - 1)
    lower, diag, upper = hypersurface._jacobian(hypersurface._geometry(r, space, dz),
                                                space.n, dz)
    jac = np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)
    step = 1e-6 * base
    fd = np.empty((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = step
        fd[:, j] = (hypersurface._geometry(r + e, space, dz).H
                    - hypersurface._geometry(r - e, space, dz).H) / (2.0 * step)
    assert float(np.max(np.abs(fd - jac))) <= 1e-7 * float(np.max(np.abs(jac)))


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_semi_implicit_update_solves_the_diffusion_system(case):
    # (I - dt diag(1/q) D2) dr = dt v with the ghost-node Neumann rows of D2
    space, p = case
    euler = flow._Run(p, space, FlowConfig())
    g, hbar = euler.geometry(p.r)
    dr, dt = euler._increment(p.r, g, hbar)
    m, dz = p.m, p.dz
    d2 = (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
          + np.diag(np.full(m - 1, 1.0), 1)) / (dz * dz)
    d2[0, 1] = d2[-1, -2] = 2.0 / (dz * dz)
    dtv = dt * _velocity(g, hbar)
    residual = dr - dt * g.invq * (d2 @ dr) - dtv
    scale = max(float(np.max(np.abs(dtv))),
                float(np.max(np.abs(dr))) * (1.0 + 4.0 * dt * float(np.max(g.invq)) / (dz * dz)))
    assert float(np.max(np.abs(residual))) <= 1e-13 * scale
    assert dt >= 0.5 * FlowConfig().dt_safety * dz * dz * float(np.min(g.q))


@settings(deadline=None, max_examples=60)
@given(case=profiles(), rung=st.integers(0, 40))
def test_semi_implicit_update_solves_the_diffusion_system_up_the_ladder(case, rung):
    # the same residual bound from a step-size proposal up to 2^10 dt_cfl,
    # the range the error control reaches in converging runs
    space, p = case
    euler = flow._Run(p, space, FlowConfig(), rung=rung)
    g, hbar = euler.geometry(p.r)
    dr, dt = euler._increment(p.r, g, hbar)
    m, dz = p.m, p.dz
    d2 = (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
          + np.diag(np.full(m - 1, 1.0), 1)) / (dz * dz)
    d2[0, 1] = d2[-1, -2] = 2.0 / (dz * dz)
    dtv = dt * _velocity(g, hbar)
    residual = dr - dt * g.invq * (d2 @ dr) - dtv
    scale = max(float(np.max(np.abs(dtv))),
                float(np.max(np.abs(dr))) * (1.0 + 4.0 * dt * float(np.max(g.invq)) / (dz * dz)))
    assert float(np.max(np.abs(residual))) <= 1e-13 * scale
    dt_cfl = 0.5 * FlowConfig().dt_safety * dz * dz * float(np.min(g.q))
    assert dt_cfl <= dt <= dt_cfl * 2.0 ** (rung / 4) * (1.0 + 1e-12)


def _neumann_d2(m, dz):
    d2 = (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
          + np.diag(np.full(m - 1, 1.0), 1)) / (dz * dz)
    d2[0, 1] = d2[-1, -2] = 2.0 / (dz * dz)
    return d2


@settings(deadline=None, max_examples=60)
@given(case=profiles(), rung=st.integers(0, 40))
def test_sbdf2_update_solves_its_system(case, rung):
    # (a0 I - dt L) dr = dt [(1 + w) v - w v_prev] + a2 d_prev - w dt L d_prev,
    # L = diag(1/q) D2, from the history of one Euler step; the Euler
    # fallback for a try that adds a slope sign change is switched off
    space, p = case
    euler = flow._Run(p, space, FlowConfig(), rung=rung)
    d_prev, dt_prev = euler._increment(p.r, *euler.geometry(p.r))
    v_prev = euler.prev[0]
    r = p.r + d_prev
    g, hbar = euler.geometry(r)
    with mock.patch.object(flow, "_turns", lambda slope: 0):
        dr, dt = euler._increment(r, g, hbar)
    w = dt / dt_prev
    assume(w <= flow._OMEGA_MAX)  # else the try is Euler, checked above
    a0, a2 = (1.0 + 2.0 * w) / (1.0 + w), w * w / (1.0 + w)
    d2 = _neumann_d2(p.m, p.dz)
    v = _velocity(g, hbar)
    rhs = dt * ((1.0 + w) * v - w * v_prev) + a2 * d_prev - w * dt * g.invq * (d2 @ d_prev)
    residual = a0 * dr - dt * g.invq * (d2 @ dr) - rhs
    stiff = 4.0 * dt * float(np.max(g.invq)) / (p.dz * p.dz)
    scale = max(float(np.max(np.abs(rhs))),
                float(np.max(np.abs(dr))) * (a0 + stiff),
                float(np.max(np.abs(d_prev))) * (a2 + w * stiff))
    assert float(np.max(np.abs(residual))) <= 1e-13 * scale
    assert euler.prev[1] is dr and euler.prev[2] == dt


def test_omega_above_the_cap_restarts_with_euler(euclid2):
    # a history from a step 1000x shorter gives omega > 1 + sqrt(2) on every
    # rung, so the update is the Euler step of a state without history
    p = cos_profile(51)
    fresh = flow._Run(p, euclid2, FlowConfig(), rung=12)
    g, hbar = fresh.geometry(p.r)
    dr_euler, dt = fresh._increment(p.r, g, hbar)
    v = _velocity(g, hbar)
    for dt_prev, restarts in ((1e-3 * dt, True), (dt, False)):
        euler = flow._Run(p, euclid2, FlowConfig(), rung=12, prev=(v, dt_prev * v, dt_prev))
        dr, dt_taken = euler._increment(p.r, g, hbar)
        assert dt_taken == dt
        assert np.array_equal(dr, dr_euler) is restarts
        assert euler.rung == fresh.rung or not restarts


def _mode_amplitude(profile):
    """2 int r cos(pi z) dz by the trapezoid rule: the cos(pi z) coefficient."""
    w = trapezoid_weights(profile.m, profile.dz)
    return 2.0 * float(w @ (profile.r * np.cos(np.pi * profile.z)))


@pytest.mark.parametrize("n", [2, 3])
def test_mode_decays_at_the_linearised_rate(n):
    # R + eps cos(pi z) in euclidean space decays like exp(-(pi^2 - (n-1)/R^2) t);
    # a fine-step solve matches that within 5.2e-4.  Measured: -16.9% / -35.3%
    # (n = 2) and -17.8% / -34.6% (n = 3); semi-implicit Euler at its
    # tolerance was +29.9% / +75.3% and +28.7% / +71.9%
    space = make_preset("euclidean", n=n)
    p0 = cos_profile(101, amp=0.01)
    for t, bound in ((0.25, 0.20), (0.5, 0.40)):
        res = run(p0, space, FlowConfig(max_t=t))
        assert res.reason.tag is StopTag.MAX_TIME and res.final.t == t
        exact = 0.01 * np.exp(-(np.pi ** 2 - (n - 1)) * t)
        assert abs(_mode_amplitude(res.final.profile) / exact - 1.0) <= bound


def test_a_fading_bump_does_not_ring_into_a_critical_point(euclid2):
    # a drawn profile on which the SBDF2 update alone went from 4 critical
    # points to 2 and back to 3: the decaying mode overshot near z = 1
    r = np.array([2.05566406, 2.05220053, 2.04215996, 2.02655152, 2.00692579,
                  1.98519488, 1.96341249, 1.94354109, 1.9272345, 1.91566234,
                  1.90939681, 1.9083748, 1.91193813, 1.91894531, 1.92793889,
                  1.93734598, 1.94568546, 1.95175511, 1.95477493, 1.9544691,
                  1.95107732, 1.94529569, 1.93815676, 1.93086621, 1.92461926,
                  1.92042245, 1.91894531])
    res = run(ProfileGrid(0.0, 1.0, r), euclid2, FlowConfig(max_t=0.1, record_every=1))
    counts = [critical_point_count(snap) for snap in res.snapshots]
    assert counts[0] == 4 and counts[-1] == 2
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def _semi_implicit_and_explicit(monkeypatch, initial, space, cfg):
    semi = run(initial, space, cfg)
    monkeypatch.setattr(flow, "_Run", functools.partial(flow._Run, implicit=False))
    return semi, run(initial, space, cfg)


def test_mode_decays_as_in_the_explicit_reference(monkeypatch, euclid2):
    # the amplitude of 1 + 0.1 cos(pi z), against explicit Euler at dt_cfl.
    # Measured: -4.8% at t = 0.2 and -57.7% at t = 1; semi-implicit Euler at
    # its tolerance was +13% and +185%
    for t, bound in ((0.2, 0.08), (1.0, 0.70)):
        semi, ref = _semi_implicit_and_explicit(monkeypatch, cos_profile(51), euclid2,
                                                FlowConfig(max_t=t))
        monkeypatch.undo()
        assert semi.final.t == ref.final.t == t
        ratio = _mode_amplitude(semi.final.profile) / _mode_amplitude(ref.final.profile)
        assert abs(ratio - 1.0) <= bound


def _recorded_run(case):
    space, p = case
    return run(p, space, FlowConfig(max_t=0.1, record_every=1))


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_every_step_conserves_the_volume(case):
    # The snapshots are measured again at 1e-14, apart from the recorded V.
    space, p = case
    res = _recorded_run(case)
    w = unit_sphere_area(space.n) * trapezoid_weights(p.m, p.dz)
    vols = [float(w @ beta(space, snap.r, rel_tol=1e-14)) for snap in res.snapshots]
    assert max((abs(b - a) / a for a, b in zip(vols, vols[1:])), default=0.0) <= 1e-12


@settings(deadline=None, max_examples=100, derandomize=True)
@given(case=profiles())
def test_recorded_volume_is_steady(case):
    # history V is beta at its default 1e-12; the quadrature must be well
    # below that, or V jumps when the refinement level switches.  Fixed
    # draws, so a quadrature at only 1e-12 fails every time, not by luck.
    vols = [rec.V for rec in _recorded_run(case).history]
    assert max((abs(b - a) / a for a, b in zip(vols, vols[1:])), default=0.0) <= 1e-13


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_records_equal_a_fresh_diagnosis(case):
    # run reduces each record from its step's geometry; _diagnose starts over
    space, _ = case
    res = _recorded_run(case)
    for rec, snap in zip(res.history, res.snapshots, strict=True):
        assert rec == _diagnose(snap, space, rec.t)
    assert res.final.cached == _diagnose(res.final.profile, space, res.final.t)


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_critical_points_never_appear(case):
    counts = [critical_point_count(snap) for snap in _recorded_run(case).snapshots]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


def _dated_reference(monkeypatch, p0, space, conv_tol):
    """(explicit run to conv_tol/100, t of its first state below conv_tol).

    The default run ends on the discrete limit (the Newton endgame); the
    reference lands anywhere within its conv_tol of it, so it runs to a
    100x tighter one.
    """
    dated = []
    advance = flow._Run.advance

    def spied_advance(self, g, hbar, gap):
        if not dated and gap < conv_tol:
            dated.append(self.t)
        return advance(self, g, hbar, gap)

    with monkeypatch.context() as mp:
        mp.setattr(flow._Run, "advance", spied_advance)
        mp.setattr(flow, "_Run", functools.partial(flow._Run, implicit=False))
        ref = run(p0, space, FlowConfig(conv_tol=1e-2 * conv_tol))
    assert ref.reason.tag is StopTag.CONVERGED and ref.endgame is None
    return ref, dated[0]


@pytest.mark.parametrize("tag,lam", [("euclidean", None), ("hyperbolic", -1.0)])
def test_semi_implicit_reaches_the_explicit_limit(monkeypatch, tag, lam):
    # the limits differ by 1.2e-9 (euclidean) and 5.5e-9 (hyperbolic), and
    # the date against the reference's is +0.23% and +0.45% (measured); a
    # date from the whole gap read -0.5% and +0.9% from a 1e-1 hand-off, and
    # -2.6% (euclidean) from a 1e-2 one
    space = make_preset(tag, lam, n=2)
    p0 = cos_profile(51)
    semi = run(p0, space, FlowConfig())
    assert semi.endgame is not None
    ref, dated = _dated_reference(monkeypatch, p0, space, semi.config.conv_tol)
    assert semi.reason == ref.reason
    r_semi, r_ref = semi.final.profile.r, ref.final.profile.r
    assert abs(float(np.mean(r_semi)) - float(np.mean(r_ref))) <= 1e-8
    assert float(np.max(np.abs(r_semi - r_ref))) <= 1e-8
    assert 100 * semi.steps <= ref.steps
    assert abs(semi.final.t / dated - 1.0) <= 0.015


@pytest.mark.parametrize("amps", [(0.08, 0.02, 0.0), (5e-4, 0.03, 0.01)],
                         ids=["generic", "near-symmetric"])
@pytest.mark.parametrize("space_name", list(_JACOBIAN_SPACES))
def test_endgame_dates_the_limit_by_its_slowest_mode(monkeypatch, space_name, amps):
    # R (1 + a1 cos(pi z) + a2 cos(2 pi z) + a3 cos(3 pi z)) at m = 17.  With
    # a1 small beside a2 and a3 the hand-off gap is mostly faster modes', and
    # a date from the whole gap lands 13-66% late; the slowest mode's share
    # of it dates these within 1.6% (measured)
    space = _JACOBIAN_SPACES[space_name]
    z = np.linspace(0.0, 1.0, 17)
    shape = sum(a * np.cos(k * np.pi * z) for k, a in enumerate(amps, 1))
    p0 = ProfileGrid(0.0, 1.0, (0.5 if space_name == "sphere3" else 1.0) * (1.0 + shape))
    semi = run(p0, space, FlowConfig())
    assert semi.endgame is not None
    ref, dated = _dated_reference(monkeypatch, p0, space, semi.config.conv_tol)
    assert float(np.max(np.abs(semi.final.profile.r - ref.final.profile.r))) <= 1e-7
    assert abs(semi.final.t / dated - 1.0) <= 0.03


@pytest.mark.parametrize("amps", [(0.1, 0.005, 0.002), (0.104, -0.012, -0.0015),
                                  (0.093, 0.008, 0.004)])
@pytest.mark.parametrize("tag,lam", [("euclidean", None), ("hyperbolic", -1.0)])
def test_first_step_hands_off_to_a_dated_limit(monkeypatch, tag, lam, amps):
    # 1 + a1 cos(pi z) + a2 cos(2 pi z) + a3 cos(3 pi z) at m = 31, inside
    # the converge benchmark's ranges (a1 in [0.09, 0.11], |a2| <= 0.02,
    # |a3| <= 0.01): the endgame is taken right after the first step, and
    # its odd-law date lands within 1% of the reference (measured +0.23% to
    # +0.59%).  Of 120 random draws at m = 31, 18 (euclidean) and 16
    # (hyperbolic) hand off some steps later, most of them after the share
    # gate declined the try after the first step.
    space = make_preset(tag, lam, n=2)
    z = np.linspace(0.0, 1.0, 31)
    shape = sum(a * np.cos(k * np.pi * z) for k, a in enumerate(amps, 1))
    p0 = ProfileGrid(0.0, 1.0, 1.0 + shape)
    semi = run(p0, space, FlowConfig())
    assert semi.endgame is not None and semi.endgame.step == 1 and semi.steps == 2
    ref, dated = _dated_reference(monkeypatch, p0, space, semi.config.conv_tol)
    assert float(np.max(np.abs(semi.final.profile.r - ref.final.profile.r))) <= 1e-8
    assert abs(semi.final.t / dated - 1.0) <= 0.01


def test_semi_implicit_pinches_where_and_when_explicit_does(monkeypatch):
    space = make_preset("euclidean", n=2)
    cfg = FlowConfig(max_t=2.0, record_every=10)
    semi, ref = _semi_implicit_and_explicit(monkeypatch, neck_profile(201), space, cfg)
    assert ref.reason.tag is StopTag.SINGULARITY and semi.reason.tag is ref.reason.tag
    assert abs(semi.reason.location - ref.reason.location) <= 2 * semi.final.profile.dz
    assert abs(semi.final.t - ref.final.t) <= 0.05 * ref.final.t
    assert semi.steps <= ref.steps
