"""The shared geometry kernel and Euler update, checked from the outside.

Property tests draw a constant-curvature preset, a dimension and a random
cosine-mode profile; the differential test checks that ``step`` is one
iteration of the ``run`` loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revflow import (
    FlowConfig,
    FlowState,
    ProfileGrid,
    averaged_mean_curvature,
    curvature_field,
    make_preset,
    rhs,
    run,
    spatial_derivatives,
    step,
)
from revflow.flow import _diagnose
from conftest import cos_profile


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
