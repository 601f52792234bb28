"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see the lines).  The
heavyweight flow runs are shared module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from revflow import (
    FlowConfig,
    FlowState,
    ProfileGrid,
    StopTag,
    averaged_mean_curvature,
    beta,
    compute_bounds,
    critical_points,
    curve_length,
    distance_to_cmc,
    enclosed_volume,
    invert_increasing,
    lateral_area,
    make_preset,
    rhs,
    run,
    sectional_curvatures,
    space_from_expressions,
    step,
    unit_sphere_area,
)
from revflow.flow import _diagnose
from conftest import cos_profile, neck_profile


def _criterion(num, name, checks):
    """checks: list of (ok, detail); prints one line and asserts all."""
    failures = [d for ok, d in checks if not ok]
    status = "PASS" if not failures else "FAIL"
    detail = "; ".join(d for _, d in checks) if not failures else "; ".join(failures)
    print(f"\n[{status}] criterion {num} ({name}): {detail}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def _bounds_for(result, space, a=0.0, b=1.0):
    first = result.history[0]
    return compute_bounds(space, a, b, first.V, first.area)


@pytest.fixture(scope="module")
def euclid_small_volume_run(euclid2):
    initial = cos_profile(201)
    hbar0 = averaged_mean_curvature(initial, euclid2).Hbar
    cfg = FlowConfig(max_t=10.0, record_every=10, conv_tol=5e-7 * abs(hbar0))
    t0 = time.perf_counter()
    result = run(initial, euclid2, cfg)
    return {"result": result, "elapsed": time.perf_counter() - t0, "space": euclid2}


@pytest.fixture(scope="module")
def hyper_small_volume_run(hyper2):
    initial = cos_profile(201)
    result = run(initial, hyper2, FlowConfig(max_t=10.0, record_every=10))
    return {"result": result, "space": hyper2}


@pytest.fixture(scope="module")
def dumbbell_run(euclid2):
    result = run(neck_profile(201), euclid2, FlowConfig(max_t=2.0, record_every=10))
    return {"result": result, "space": euclid2}


@pytest.fixture(scope="module")
def ramp_run(euclid2):
    # asymmetric non-Neumann data: the conserved discrete volume carries an
    # honest O(dz^2) error, making the limit-radius order measurable
    z = np.linspace(0.0, 1.0, 101)
    initial = ProfileGrid(0.0, 1.0, 1.0 + z)
    hbar0 = averaged_mean_curvature(initial, euclid2).Hbar
    cfg = FlowConfig(max_t=10.0, record_every=10, conv_tol=1e-9 * abs(hbar0))
    result = run(initial, euclid2, cfg)
    return {"result": result, "space": euclid2}


def _all_runs(euclid_small_volume_run, hyper_small_volume_run, dumbbell_run, ramp_run):
    return [
        ("euclid", euclid_small_volume_run),
        ("hyperbolic", hyper_small_volume_run),
        ("dumbbell", dumbbell_run),
        ("ramp", ramp_run),
    ]


def test_every_step_keeps_the_bounds_and_monotonicity(euclid2, hyper2):
    # the four acceptance runs recorded at every step: the fixtures above
    # record every 10th, which the error-controlled step makes a few records
    z = np.linspace(0.0, 1.0, 101)
    ramp = ProfileGrid(0.0, 1.0, 1.0 + z)
    hbar_e = averaged_mean_curvature(cos_profile(201), euclid2).Hbar
    hbar_r = averaged_mean_curvature(ramp, euclid2).Hbar
    runs = (("euclid", cos_profile(201), euclid2,
             FlowConfig(max_t=10.0, record_every=1, conv_tol=5e-7 * abs(hbar_e))),
            ("hyperbolic", cos_profile(201), hyper2, FlowConfig(max_t=10.0, record_every=1)),
            ("dumbbell", neck_profile(201), euclid2, FlowConfig(max_t=2.0, record_every=1)),
            ("ramp", ramp, euclid2,
             FlowConfig(max_t=10.0, record_every=1, conv_tol=1e-9 * abs(hbar_r))))
    checks = []
    for name, initial, space, cfg in runs:
        res = run(initial, space, cfg)
        hist = res.history
        checks.append((len(hist) == res.steps + 1, f"{name}: {res.steps} steps recorded"))
        rep = _bounds_for(res, space)
        v0 = hist[0].V
        drift = max(abs(rec.V - v0) / v0 for rec in hist)
        checks.append((drift <= 1e-10, f"{name}: |dV|/V={drift:.1e} (tol 1e-10)"))
        pairs = list(zip(hist, hist[1:]))
        checks.append((all(b.area <= a.area * (1.0 + 1e-8) for a, b in pairs),
                       f"{name}: area non-increasing"))
        checks.append((all(b.N <= a.N for a, b in pairs), f"{name}: N non-increasing"))
        checks.append((all(rec.max_r < rep.r2 for rec in hist), f"{name}: max_r<r2"))
        checks.append((all(rec.Hbar > 0.0 for rec in hist), f"{name}: Hbar>0"))
        if res.reason.tag is StopTag.CONVERGED:  # criterion 8's early window
            window = [rec.max_v for rec in hist if rec.t <= 0.01 * res.final.t]
            peak = max(rec.max_v for rec in hist)
            checks.append((len(window) > 1 and peak <= 10.0 * max(window),
                           f"{name}: max_v {peak:.4f} <= 10 x early ({len(window)} records)"))
    _criterion("5, 6, 8", "bounds and monotonicity at every step", checks)


def test_criterion_1_curvature_oracle():
    checks = []
    for tag, lam in (("hyperbolic", -1.0), ("spherical", 1.0)):
        space = make_preset(tag, lam, n=2)
        hi = 2.5 if tag == "hyperbolic" else 0.9 * space.r_max_domain
        radii = np.linspace(0.05, hi, 50)
        worst = 0.0
        for r in radii:
            sc = sectional_curvatures(space, float(r))
            worst = max(worst, *(abs(float(s) - lam) for s in
                                 (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij)))
        checks.append((worst <= 1e-12, f"{tag}: max|S-lam|={worst:.2e} (tol 1e-12)"))
    _criterion(1, "curvature oracle", checks)


def test_criterion_2_cylinder_equilibrium(euclid2, hyper2, custom_rss2):
    checks = []
    for name, space, rc in (("euclidean", euclid2, 1.0),
                            ("hyperbolic", hyper2, 1.3),
                            ("custom-rss2", custom_rss2, 0.9)):
        p = ProfileGrid(0.0, 1.0, np.full(101, rc))
        f, fp, _, h, hp, _ = space.warp(rc)
        hbar_exact = float(fp / f + (space.n - 1) * hp / h)
        resid_exact = float(np.max(np.abs(rhs(p, space, hbar_exact))))
        hbar_avg = averaged_mean_curvature(p, space).Hbar
        resid_avg = float(np.max(np.abs(rhs(p, space, hbar_avg))))
        s = FlowState(p, 0.0, _diagnose(p, space, 0.0))
        for _ in range(1000):
            s = step(s, space, FlowConfig())
        moved = float(np.max(np.abs(s.profile.r - rc)))
        checks.append((resid_exact <= 1e-13 and resid_avg <= 1e-13,
                       f"{name}: |rhs|={max(resid_exact, resid_avg):.1e} (tol 1e-13)"))
        checks.append((moved < 1e-10, f"{name}: 1000-step drift={moved:.1e} (tol 1e-10)"))
    _criterion(2, "cylinder equilibrium", checks)


def test_criterion_3_small_volume_convergence(euclid_small_volume_run,
                                              hyper_small_volume_run):
    checks = []
    data = euclid_small_volume_run
    res = data["result"]
    rep = _bounds_for(res, data["space"])
    dist = distance_to_cmc(res.final.profile, data["space"])
    dev_r1 = float(np.max(np.abs(res.final.profile.r - rep.r1)))
    checks.append((res.reason.tag is StopTag.CONVERGED, "euclid: converged"))
    checks.append((dev_r1 <= 1e-4, f"euclid: max|r-r1|={dev_r1:.2e} (tol 1e-4)"))
    checks.append((dist.deviation <= 1e-6 * abs(dist.h_best),
                   f"euclid: cmc dev/H={dist.deviation / abs(dist.h_best):.2e} (tol 1e-6)"))
    checks.append((data["elapsed"] < 60.0,
                   f"euclid: {data['elapsed']:.1f}s at m=201 (limit 60s); "
                   f"criterion_met={rep.criterion_met}"))

    res_h = hyper_small_volume_run["result"]
    dist_h = distance_to_cmc(res_h.final.profile, hyper_small_volume_run["space"])
    checks.append((res_h.reason.tag is StopTag.CONVERGED, "hyperbolic: converged"))
    checks.append((dist_h.deviation <= 1e-5 * abs(dist_h.h_best),
                   f"hyperbolic: cmc dev/H={dist_h.deviation / abs(dist_h.h_best):.2e} "
                   "(tol 1e-5)"))
    _criterion(3, "small-volume convergence", checks)


def test_criterion_4_closed_form_threshold(euclid2):
    checks = []
    worst = 0.0
    for lam in (-0.5, -1.0, -2.0):
        for V in (0.1, 1.0, 10.0):
            space = make_preset("hyperbolic", lam, n=2)
            rep = compute_bounds(space, 0.0, 1.0, V, 1.0)
            closed = 2 * math.pi / (-lam) * (-1.0 + math.sqrt(1.0 - lam * V / math.pi))
            worst = max(worst, abs(rep.small_volume_threshold - closed))
    checks.append((worst <= 1e-10, f"9 (lam,V) pairs: max|diff|={worst:.2e} (tol 1e-10)"))
    rep = compute_bounds(euclid2, 0.0, 1.0, math.pi, 2 * math.pi)
    err = abs(rep.small_volume_threshold - math.pi)
    checks.append((err <= 1e-12, f"euclidean threshold vs V/(b-a): {err:.2e} (tol 1e-12)"))
    _criterion(4, "closed-form threshold", checks)


def test_criterion_5_a_priori_bounds(euclid_small_volume_run, hyper_small_volume_run,
                                     dumbbell_run, ramp_run):
    checks = []
    for name, data in _all_runs(euclid_small_volume_run, hyper_small_volume_run,
                                dumbbell_run, ramp_run):
        res, space = data["result"], data["space"]
        rep = _bounds_for(res, space)
        f_r2 = float(space.warp(rep.r2)[0])
        n0 = res.history[0].N
        length_bound = f_r2 * 1.0 + (n0 - 1) * rep.r2
        ns = [rec.N for rec in res.history]
        checks.append((all(rec.max_r < rep.r2 for rec in res.history),
                       f"{name}: max_r<r2"))
        checks.append((all(rec.Hbar > 0.0 for rec in res.history),
                       f"{name}: Hbar>0"))
        checks.append((all(rec.curve_len <= length_bound for rec in res.history),
                       f"{name}: length<= {length_bound:.3g}"))
        checks.append((all(ns[i + 1] <= ns[i] for i in range(len(ns) - 1)),
                       f"{name}: N non-increasing"))
        checks.append((0.0 < rep.r3 < rep.r1 < rep.r2,
                       f"{name}: 0<r3<r1<r2"))
    _criterion(5, "a-priori bound suite", checks)


def test_criterion_6_conservation_monotonicity(euclid_small_volume_run,
                                               hyper_small_volume_run,
                                               dumbbell_run, ramp_run,
                                               euclid2, hyper2):
    checks = []
    for name, data in _all_runs(euclid_small_volume_run, hyper_small_volume_run,
                                dumbbell_run, ramp_run):
        res = data["result"]
        v0 = res.history[0].V
        drift = max(abs(rec.V - v0) / v0 for rec in res.history)
        checks.append((drift <= 1e-10, f"{name}: |dV|/V={drift:.1e} (tol 1e-10)"))
        rec_every = res.config.record_every
        areas = [rec.area for rec in res.history]
        area_ok = all(areas[i + 1] <= areas[i] * (1.0 + 1e-8 * rec_every)
                      for i in range(len(areas) - 1))
        checks.append((area_ok, f"{name}: area non-increasing"))
        split_ok = all(rec.I1 >= 0.0 and rec.I2 > 0.0 for rec in res.history)
        checks.append((split_ok, f"{name}: I1>=0, I2>0"))

    for name, space in (("euclid", euclid2), ("hyperbolic", hyper2)):
        avg = averaged_mean_curvature(cos_profile(401), space)
        gap = abs(avg.Hbar - (avg.I1 + avg.I2))
        checks.append((gap <= 1e-6,
                       f"{name} m=401: |Hbar-(I1+I2)|={gap:.2e} (tol 1e-6)"))
    _criterion(6, "conservation and monotonicity", checks)


def test_criterion_7_neckpinch_localization(dumbbell_run):
    checks = []
    res = dumbbell_run["result"]
    dz = res.final.profile.dz
    checks.append((res.reason.tag is StopTag.SINGULARITY, "stops with singularity"))
    loc = res.reason.location
    checks.append((loc is not None and 0.0 < loc < 1.0,
                   f"interior location z={loc}"))
    crit = critical_points(res.final.profile)
    dist = float(np.min(np.abs(crit - loc)))
    checks.append((dist <= 2 * dz,
                   f"location within 2dz of a critical point (|dz|={dist:.2e})"))
    # away from the critical points {0, 0.5, 1} the profile stays fat
    z = res.final.profile.z
    sel = ((z >= 0.05) & (z <= 0.35)) | ((z >= 0.65) & (z <= 0.95))
    floor = min(float(np.min(prof.r[sel])) for prof in res.snapshots)
    threshold = 10.0 * res.config.r_min_stop
    checks.append((floor >= threshold,
                   f"off-critical min r={floor:.3g} >= 10*r_min_stop={threshold:.3g}"))
    _criterion(7, "neckpinch localization", checks)


def test_criterion_8_graph_preservation(euclid_small_volume_run,
                                        hyper_small_volume_run, ramp_run):
    checks = []
    for name, data in (("euclid", euclid_small_volume_run),
                       ("hyperbolic", hyper_small_volume_run),
                       ("ramp", ramp_run)):
        res = data["result"]
        t_end = res.final.t
        window = [rec.max_v for rec in res.history if rec.t <= 0.01 * t_end]
        early = max(window) if window else res.history[0].max_v
        peak = max(rec.max_v for rec in res.history)
        checks.append((peak <= 10.0 * early,
                       f"{name}: max_v {peak:.4f} <= 10 x early {early:.4f}"))
    _criterion(8, "graph preservation", checks)


def test_criterion_9_numerical_order(ramp_run, euclid2):
    checks = []
    sigma = unit_sphere_area(2)

    # quadrature orders on an asymmetric Neumann-compatible profile
    def profile(m):
        z = np.linspace(0.0, 1.0, m)
        return ProfileGrid(0.0, 1.0, 1.0 + 0.4 * z * z * (3.0 - 2.0 * z))

    rdot_exact = lambda z: 2.4 * z * (1.0 - z)
    r_exact = lambda z: 1.0 + 0.4 * z * z * (3.0 - 2.0 * z)
    v_ref = math.pi * (1.0 + 0.8 * 0.5 + 0.16 * 13.0 / 35.0)  # exact polynomial integral
    area_ref = sigma * scipy.integrate.quad(
        lambda z: math.sqrt(1.0 + rdot_exact(z) ** 2) * r_exact(z),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]
    len_ref = scipy.integrate.quad(
        lambda z: math.sqrt(1.0 + rdot_exact(z) ** 2),
        0.0, 1.0, epsabs=1e-13, epsrel=1e-13)[0]

    errs = {q: [] for q in ("volume", "area", "length")}
    for m in (101, 201, 401):
        p = profile(m)
        errs["volume"].append(abs(enclosed_volume(p, euclid2) - v_ref))
        errs["area"].append(abs(lateral_area(p, euclid2) - area_ref))
        errs["length"].append(abs(curve_length(p, euclid2) - len_ref))
    for q, es in errs.items():
        orders = [math.log2(es[i] / es[i + 1]) for i in range(2)]
        checks.append((min(orders) >= 1.9,
                       f"{q} orders {orders[0]:.2f}/{orders[1]:.2f} (need >=1.9)"))

    # limit-cylinder radius error: the flow conserves the discrete volume, so
    # its converged radius is beta^-1(V_m / sigma); confirmed by the m=101 run
    r1_exact = math.sqrt(7.0 / 3.0)

    def predicted_radius(m):
        z = np.linspace(0.0, 1.0, m)
        vd = enclosed_volume(ProfileGrid(0.0, 1.0, 1.0 + z), euclid2)
        return invert_increasing(lambda x: beta(euclid2, x), vd / sigma)

    res = ramp_run["result"]
    checks.append((res.reason.tag is StopTag.CONVERGED, "ramp run converged"))
    gap = float(np.max(np.abs(res.final.profile.r - predicted_radius(101))))
    checks.append((gap <= 1e-7,
                   f"m=101 run matches predicted limit radius ({gap:.1e} <= 1e-7)"))
    radius_errs = [abs(predicted_radius(m) - r1_exact) for m in (101, 201, 401)]
    orders = [math.log2(radius_errs[i] / radius_errs[i + 1]) for i in range(2)]
    checks.append((min(orders) >= 1.9,
                   f"limit radius orders {orders[0]:.3f}/{orders[1]:.3f} (need >=1.9)"))
    _criterion(9, "numerical order", checks)
