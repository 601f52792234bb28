"""The shared geometry kernel and Euler update, checked from the outside.

Property tests draw a constant-curvature preset, a dimension and a random
cosine-mode profile.  The differential tests check that ``step`` is one
iteration of the ``run`` loop, and that the semi-implicit update reaches the
same limits and singularities as the explicit-Euler reference.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow import (
    FlowConfig,
    FlowState,
    ProfileGrid,
    StopTag,
    averaged_mean_curvature,
    beta,
    critical_point_count,
    curvature_field,
    make_preset,
    rhs,
    run,
    spatial_derivatives,
    step,
    unit_sphere_area,
)
from revflow import flow
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
    expected = (hbar - curvature_field(p, space).H) * np.sqrt(q) / f
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


@pytest.mark.parametrize("tag,lam", [("euclidean", None), ("hyperbolic", -1.0)])
def test_step_is_one_run_iteration(tag, lam):
    space = make_preset(tag, lam, n=2)
    p0 = cos_profile(51)
    s = FlowState(p0, 0.0, _diagnose(p0, space, 0.0))
    states = [s]
    for _ in range(50):
        s = step(s, space, FlowConfig())
        states.append(s)

    res = run(p0, space, FlowConfig(max_t=states[-1].t, record_every=1))
    assert len(res.snapshots) >= len(states)
    for state, snap, rec in zip(states, res.snapshots, res.history):
        assert float(np.max(np.abs(state.profile.r - snap.r))) <= 1e-12
        assert abs(state.t - rec.t) <= 1e-12 * state.t


@settings(deadline=None, max_examples=60)
@given(case=profiles())
def test_semi_implicit_update_solves_the_diffusion_system(case):
    # (I - dt diag(1/q) D2) dr = dt v with the ghost-node Neumann rows of D2
    space, p = case
    euler = flow._Euler(p, space, FlowConfig())
    g, hbar = euler.geometry(p.r)
    dr, dt = euler._increment(p.r, g, hbar)
    m, dz = p.m, p.dz
    d2 = (np.diag(np.full(m - 1, 1.0), -1) - 2.0 * np.eye(m)
          + np.diag(np.full(m - 1, 1.0), 1)) / (dz * dz)
    d2[0, 1] = d2[-1, -2] = 2.0 / (dz * dz)
    dtv = dt * _velocity(g, hbar, space.n - 1)
    residual = dr - dt * g.invq * (d2 @ dr) - dtv
    scale = max(float(np.max(np.abs(dtv))),
                float(np.max(np.abs(dr))) * (1.0 + 4.0 * dt * float(np.max(g.invq)) / (dz * dz)))
    assert float(np.max(np.abs(residual))) <= 1e-13 * scale
    assert dt >= 0.5 * FlowConfig().dt_safety * dz * dz * float(np.min(g.q))


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


def _semi_implicit_and_explicit(monkeypatch, initial, space, cfg):
    semi = run(initial, space, cfg)
    monkeypatch.setattr(flow, "_Euler", functools.partial(flow._Euler, implicit=False))
    return semi, run(initial, space, cfg)


@pytest.mark.parametrize("tag,lam", [("euclidean", None), ("hyperbolic", -1.0)])
def test_semi_implicit_reaches_the_explicit_limit(monkeypatch, tag, lam):
    space = make_preset(tag, lam, n=2)
    semi, ref = _semi_implicit_and_explicit(monkeypatch, cos_profile(51), space, FlowConfig())
    assert ref.reason.tag is StopTag.CONVERGED and semi.reason == ref.reason
    r_semi, r_ref = semi.final.profile.r, ref.final.profile.r
    assert abs(float(np.mean(r_semi)) - float(np.mean(r_ref))) <= 1e-8
    assert float(np.max(np.abs(r_semi - r_ref))) <= 1e-7
    assert 100 * semi.steps <= ref.steps


def test_semi_implicit_pinches_where_and_when_explicit_does(monkeypatch):
    space = make_preset("euclidean", n=2)
    cfg = FlowConfig(max_t=2.0, record_every=10)
    semi, ref = _semi_implicit_and_explicit(monkeypatch, neck_profile(201), space, cfg)
    assert ref.reason.tag is StopTag.SINGULARITY and semi.reason.tag is ref.reason.tag
    assert abs(semi.reason.location - ref.reason.location) <= 2 * semi.final.profile.dz
    assert abs(semi.final.t - ref.final.t) <= 0.05 * ref.final.t
    assert semi.steps <= ref.steps
