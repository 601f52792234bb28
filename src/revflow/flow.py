r"""Semi-implicit time stepping for the nonlocal volume-preserving flow.

The graph formulation evolves the profile by

    dr/dt = rddot/q - (f'/f) (1 + rdot^2/q) - (n-1) h'/h + Hbar sqrt(1 + rdot^2/f^2)

with q = rdot^2 + f^2, Neumann ends rdot(a) = rdot(b) = 0, and the averaged
mean curvature Hbar recomputed from the pre-step profile (lagged).  The
right-hand side equals (Hbar - H) sqrt(q)/f with the same discrete
derivatives, so cylinders with H = Hbar are exact fixed points.

Scheme choices:

* semi-implicit (IMEX) Euler: the quasilinear diffusion rddot/q is taken at
  the new time level with q lagged, everything else explicitly, so each step
  solves the tridiagonal system (I - dt diag(1/q) D2) dr = dt v, where v is
  the explicit velocity above and D2 the ghost-node Neumann second
  difference.  dr = 0 exactly where v = 0, so cylinders stay exact fixed
  points and the discrete steady state is the explicit scheme's;
* dt is bounded by accuracy, not stability: with the parabolic step
  dt_cfl = dt_safety * dz^2 * min(q) / 2 of explicit Euler as the base,
  dt = min(K dt_cfl, max(dt_cfl, eta min(r) / max|v|)) with K = 300 and
  eta = 0.02 (``_DT_CAP``, ``_DR_REL``).  The eta term keeps
  the radial change per step below about eta min(r), which resolves pinch
  transients; the floor never takes more steps than explicit Euler, and the
  cap K dt_cfl keeps dt proportional to dz^2;
* optional exact discrete volume conservation: after each update a uniform
  additive shift c is applied to the radii, with enclosed_volume(r+c)
  driven back to the initial volume by a safeguarded Newton iteration
  (<= 5 steps, 1e-12 relative; a miss stops the flow with
  ``projection_failed``).  Between-step volume changes are accumulated
  with narrow-interval Gauss-Legendre increments, so the projection costs a
  few warp evaluations per step instead of a full radial quadrature.

``run`` iterates until one of the terminal conditions fires: max|H - Hbar|
below conv_tol (converged), min r below r_min_stop (singularity, the arg-min
z is recorded), max v above v_max_stop (graph failure), t beyond max_t,
non-finite values / leaving a finite ambient ball (instability), or a
volume projection that misses its tolerance (projection failed).

``step`` is one iteration of the ``run`` loop (the same ``_Euler`` update,
projecting onto the cached volume) plus a full re-diagnosis of the new
state.  That re-diagnosis, with its quadrature volume, is why ``step`` costs
more per call than a step of ``run``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import List, Optional

import numpy as np

from .bounds import unit_sphere_area
from .hypersurface import (
    ProfileGrid,
    _check_domain,
    _geometry,
    _graph_slope,
    _hbar,
    averaged_mean_curvature,
    critical_point_count,
    curvature_field,
    curve_length,
    enclosed_volume,
    lateral_area,
    trapezoid_weights,
)

__all__ = [
    "StopTag",
    "StopReason",
    "FlowConfig",
    "DiagnosticsRecord",
    "FlowState",
    "RunResult",
    "FlowStopped",
    "rhs",
    "step",
    "run",
    "HISTORY_COLUMNS",
    "write_history_csv",
    "build_summary",
    "write_summary_json",
]


class StopTag(str, Enum):
    CONVERGED = "converged"
    SINGULARITY = "singularity"
    GRAPH_FAILURE = "graph_failure"
    MAX_TIME = "max_time"
    INSTABILITY = "instability"
    PROJECTION_FAILED = "projection_failed"


@dataclass(frozen=True)
class StopReason:
    tag: StopTag
    location: Optional[float] = None  # z of the arg-min node for singularities


@dataclass
class FlowConfig:
    """Stepper thresholds; ``None`` entries resolve against the initial state.

    r_min_stop defaults to 1e-3 * min r(0) and conv_tol to 1e-6 * |Hbar(0)|.
    """

    dt_safety: float = 0.4
    max_t: float = 10.0
    r_min_stop: Optional[float] = None
    v_max_stop: float = 1e6
    conv_tol: Optional[float] = None
    record_every: int = 100
    volume_projection: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt_safety < 1.0:
            raise ValueError("dt_safety must lie in (0, 1)")
        if not self.max_t > 0.0:
            raise ValueError("max_t must be positive")
        if self.r_min_stop is not None and not self.r_min_stop > 0.0:
            raise ValueError("r_min_stop must be positive")
        if not self.v_max_stop > 0.0:
            raise ValueError("v_max_stop must be positive")
        if self.conv_tol is not None and not self.conv_tol > 0.0:
            raise ValueError("conv_tol must be positive")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")

    def to_dict(self):
        return asdict(self)


HISTORY_COLUMNS = ("t", "V", "area", "Hbar", "I1", "I2", "min_r", "max_r",
                   "max_v", "N", "curve_len", "max_L2")


@dataclass
class DiagnosticsRecord:
    t: float
    V: float
    area: float
    Hbar: float
    I1: float
    I2: float
    min_r: float
    max_r: float
    max_v: float
    N: int
    curve_len: float
    max_L2: float

    def to_row(self):
        return [getattr(self, c) for c in HISTORY_COLUMNS]


@dataclass
class FlowState:
    profile: ProfileGrid
    t: float
    cached: DiagnosticsRecord


@dataclass
class RunResult:
    final: FlowState
    reason: StopReason
    history: List[DiagnosticsRecord]
    snapshots: List[ProfileGrid]
    config: FlowConfig  # resolved thresholds actually used
    steps: int  # time steps taken


class FlowStopped(RuntimeError):
    """Raised by ``step`` when the update leaves the valid state space."""

    def __init__(self, reason: StopReason):
        super().__init__(f"flow stopped: {reason.tag.value}")
        self.reason = reason


def _diagnose(profile: ProfileGrid, space, t: float) -> DiagnosticsRecord:
    cf = curvature_field(profile, space)
    avg = averaged_mean_curvature(profile, space)
    return DiagnosticsRecord(
        t=t,
        V=enclosed_volume(profile, space),
        area=lateral_area(profile, space),
        Hbar=avg.Hbar,
        I1=avg.I1,
        I2=avg.I2,
        min_r=float(np.min(profile.r)),
        max_r=float(np.max(profile.r)),
        max_v=float(np.max(cf.v)),
        N=critical_point_count(profile),
        curve_len=curve_length(profile, space),
        max_L2=float(np.max(cf.L2)),
    )


def _velocity(g, hbar: float, nm1: int) -> np.ndarray:
    # (Hbar - H) sqrt(q)/f expanded, so cylinders with H = Hbar are exact fixed points
    invf = 1.0 / g.f
    return (g.rddot * g.invq - (g.fp * invf) * (1.0 + g.rd2 * g.invq)
            - nm1 * (g.hp / g.h) + hbar * (g.sq * invf))


def rhs(p: ProfileGrid, space, Hbar: float) -> np.ndarray:
    """Nodal dr/dt of the graph flow for a given averaged mean curvature."""
    if not math.isfinite(Hbar):
        raise ValueError("Hbar must be finite")
    _check_domain(p, space)
    return _velocity(_geometry(p.r, space, p.dz), Hbar, space.n - 1)


# 3-point Gauss-Legendre rule on [0, 1], abscissae as a column
_GL_X = np.array([[0.5 - 0.5 * math.sqrt(0.6)], [0.5], [0.5 + 0.5 * math.sqrt(0.6)]])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _fh_pow(space, nm1, x):
    f, h = space.eval_fh(x)
    return f * (h if nm1 == 1 else h ** nm1)


def _volume_increment(space, nm1, wz_sigma, r_from, r_to):
    # sigma * integral over z of (beta(r_to) - beta(r_from)).  The error is
    # O(|r_to - r_from|^7) per node: a 2-point rule, O(|dr|^5), left 1e-10
    # relative volume errors per step at the semi-implicit step sizes in
    # strongly curved spaces.
    d = r_to - r_from
    g = _GL_W @ _fh_pow(space, nm1, r_from + _GL_X * d)
    return float(wz_sigma @ (d * g))


def _project_volume(space, nm1, wz_sigma, r, v_at_r, v_target, r_max):
    """Uniform shift c with enclosed_volume(r + c) = v_target.

    Newton on the tracked volume with a bisection safeguard; at most 5
    iterations, tolerance 1e-12 relative.  Returns (c, achieved volume), or
    raises ``FlowStopped`` (projection failed) when the tolerance is missed.
    Newton iterates on to 1e-14, one quadratically convergent iteration
    past 1e-12: from the 1e-6 relative residuals of semi-implicit steps, a
    first iteration lands just under 1e-12, so stopping there let the
    volumes of consecutive steps differ by nearly 1e-12.
    """
    tol = 1e-12 * abs(v_target)
    tol_newton = 1e-2 * tol
    c = 0.0
    vc = v_at_r
    lo = hi = None  # bracket: G(lo) < 0 < G(hi)
    rmin = float(np.min(r))
    rmax_prof = float(np.max(r))
    for _ in range(5):
        G = vc - v_target
        if abs(G) <= tol_newton:
            break
        if G < 0.0:
            lo = c if lo is None else max(lo, c)
        else:
            hi = c if hi is None else min(hi, c)
        slope = float(wz_sigma @ _fh_pow(space, nm1, r + c))  # dV/dc > 0
        c_new = c - G / slope
        if lo is not None and hi is not None and not (lo < c_new < hi):
            c_new = 0.5 * (lo + hi)
        # keep the shifted profile inside (0, r_max)
        c_new = max(c_new, -0.999999 * rmin)
        if r_max < math.inf:
            c_new = min(c_new, (r_max - rmax_prof) * 0.999999)
        vc += _volume_increment(space, nm1, wz_sigma, r + c, r + c_new)
        c = c_new
    if not abs(vc - v_target) <= tol:
        raise FlowStopped(StopReason(StopTag.PROJECTION_FAILED))
    return c, vc


def _resolve(cfg: FlowConfig, r0_min: float, hbar0: float) -> FlowConfig:
    out = cfg
    if out.r_min_stop is None:
        out = replace(out, r_min_stop=1e-3 * r0_min)
    if out.conv_tol is None:
        out = replace(out, conv_tol=1e-6 * abs(hbar0))
    return out


# dt = min(_DT_CAP * dt_cfl, max(dt_cfl, _DR_REL * min r / max|v|)), see the
# module docstring.  _DR_REL keeps a step's radial change near 2% of min r.
# The cap bounds the O(dt) volume drift of the unprojected flow: at m = 201
# it is 1.1e-4 per 0.25 time units at 300 and 3.5e-4 at 1000, against the
# documented 1e-3 per unit time.
_DT_CAP = 300.0
_DR_REL = 0.02


def _solve_diffusion(diag, rhs):
    """Thomas sweep for diag_i x_i - x_{i-1} - x_{i+1} = rhs_i.

    The end rows use the reflected ghosts x_{-1} = x_1 and x_m = x_{m-2} of
    the Neumann second difference.  diag > 2 makes the system strictly
    diagonally dominant, so the sweep needs no pivoting; rhs = 0 gives x = 0
    exactly.
    """
    e = diag.tolist()
    g = rhs.tolist()
    m = len(e)
    w = [2.0 / e[0]]  # x_i = y_i + w_i x_{i+1}
    y = [g[0] / e[0]]
    for i in range(1, m - 1):
        wi = 1.0 / (e[i] - w[-1])
        y.append((g[i] + y[-1]) * wi)
        w.append(wi)
    x = [0.0] * m
    xi = x[-1] = (g[-1] + 2.0 * y[-1]) / (e[-1] - 2.0 * w[-1])
    for i in range(m - 2, -1, -1):
        xi = x[i] = y[i] + w[i] * xi
    return np.array(x)


class _Euler:
    """One semi-implicit Euler step with volume projection, shared by step and run.

    ``geometry`` evaluates the kernel and the lagged Hbar; ``advance`` picks
    dt, applies the update, checks it, and projects the volume.  With
    ``implicit=False`` the update is explicit Euler at dt_cfl, kept as the
    reference that the differential tests compare against.
    """

    def __init__(self, grid: ProfileGrid, space, cfg: FlowConfig, implicit: bool = True):
        self.space = space
        self.dz = grid.dz
        self.z = grid.z
        self.nm1 = space.n - 1
        self.wz = trapezoid_weights(grid.m, grid.dz)
        self.wz_sigma = unit_sphere_area(space.n) * self.wz
        self.half_safety_dz2 = 0.5 * cfg.dt_safety * grid.dz * grid.dz
        self.project = cfg.volume_projection
        self.implicit = implicit

    def geometry(self, r):
        g = _geometry(r, self.space, self.dz)
        return g, _hbar(g, self.wz)

    def _singularity(self, r):
        return FlowStopped(StopReason(StopTag.SINGULARITY,
                                      location=float(self.z[int(np.argmin(r))])))

    def _increment(self, r, g, hbar):
        """Return (dr, dt): the update before the checks and the projection."""
        dt = self.half_safety_dz2 * float(np.min(g.q))
        v = _velocity(g, hbar, self.nm1)
        if not self.implicit:
            return dt * v, dt
        vmax = float(np.max(np.abs(v)))
        if vmax > 0.0:
            dt = min(_DT_CAP * dt, max(dt, _DR_REL * float(np.min(r)) / vmax))
        else:  # v = 0, or NaN, which the finiteness check below reports
            dt = _DT_CAP * dt
        # (I - dt diag(1/q) D2) dr = dt v, each row scaled by q dz^2 / dt
        dz2q = (self.dz * self.dz) * g.q
        return _solve_diffusion(2.0 + dz2q / dt, dz2q * v), dt

    def advance(self, r, g, hbar, floor, v_tracked, v_target):
        """Return (r_new, dt, tracked volume) or raise ``FlowStopped``.

        A node at or below ``floor`` is a singularity; with projection on,
        the shifted profile is driven from ``v_tracked`` to ``v_target``.
        """
        dr, dt = self._increment(r, g, hbar)
        r_new = r + dr
        mn = float(np.min(r_new))
        mx = float(np.max(r_new))
        if not (math.isfinite(mn) and math.isfinite(mx)):
            raise FlowStopped(StopReason(StopTag.INSTABILITY))
        if mn <= floor:
            raise self._singularity(r_new)
        r_max = self.space.r_max_domain
        if mx >= r_max:
            raise FlowStopped(StopReason(StopTag.INSTABILITY))
        if self.project:
            space, nm1, wz_sigma = self.space, self.nm1, self.wz_sigma
            v_after = v_tracked + _volume_increment(space, nm1, wz_sigma, r, r_new)
            c, v_tracked = _project_volume(space, nm1, wz_sigma, r_new, v_after,
                                           v_target, r_max)
            r_new = r_new + c
            if mn + c <= floor:
                raise self._singularity(r_new)
        return r_new, dt, v_tracked


def step(s: FlowState, space, cfg: FlowConfig) -> FlowState:
    """Advance one semi-implicit Euler step (plus volume projection if enabled).

    This is one iteration of the ``run`` loop, projecting onto ``s.cached.V``
    and followed by a full re-diagnosis of the new state.  Raises
    ``FlowStopped`` if the update produces non-finite values, drives a node
    out of (0, r_max), or the volume projection misses its tolerance; the
    caller's state is never mutated.
    """
    p = s.profile
    _check_domain(p, space)
    euler = _Euler(p, space, cfg)
    g, hbar = euler.geometry(p.r)
    r_new, dt, _ = euler.advance(p.r, g, hbar, 0.0, s.cached.V, s.cached.V)
    t_new = s.t + dt
    profile = ProfileGrid(p.a, p.b, r_new)
    return FlowState(profile=profile, t=t_new, cached=_diagnose(profile, space, t_new))


def run(initial: ProfileGrid, space, cfg: FlowConfig) -> RunResult:
    """Iterate the flow from ``initial`` until a terminal condition fires.

    Diagnostics are recorded every ``cfg.record_every`` steps and at
    termination, each with a profile snapshot.  The returned config carries
    the resolved default thresholds.  A run is strictly sequential in time;
    independent runs share no mutable state and can execute in parallel.
    """
    a, b = initial.a, initial.b
    r = initial.r.copy()
    r_max = space.r_max_domain

    hbar0 = averaged_mean_curvature(initial, space).Hbar
    rcfg = _resolve(cfg, float(np.min(r)), hbar0)
    r_min_stop = rcfg.r_min_stop
    conv_tol = rcfg.conv_tol
    euler = _Euler(initial, space, rcfg)

    v_target = enclosed_volume(initial, space)
    v_tracked = v_target

    history: List[DiagnosticsRecord] = []
    snapshots: List[ProfileGrid] = []
    t = 0.0
    step_idx = 0

    while True:
        g, hbar = euler.geometry(r)
        if not math.isfinite(hbar):
            reason = StopReason(StopTag.INSTABILITY)
            break
        if float(np.min(r)) < r_min_stop:
            reason = StopReason(StopTag.SINGULARITY,
                                location=float(euler.z[int(np.argmin(r))]))
            break
        if r_max < math.inf and float(np.max(r)) > 0.99 * r_max:
            # outside the regime the theory covers; treated as a failure
            reason = StopReason(StopTag.INSTABILITY)
            break
        if float(np.max(_graph_slope(g))) > rcfg.v_max_stop:
            reason = StopReason(StopTag.GRAPH_FAILURE)
            break
        if float(np.max(np.abs(g.H - hbar))) < conv_tol:
            reason = StopReason(StopTag.CONVERGED)
            break
        if t >= rcfg.max_t:
            reason = StopReason(StopTag.MAX_TIME)
            break

        if step_idx % rcfg.record_every == 0:
            prof = ProfileGrid(a, b, r)
            history.append(_diagnose(prof, space, t))
            snapshots.append(prof)

        try:
            r, dt, v_tracked = euler.advance(r, g, hbar, r_min_stop, v_tracked, v_target)
        except FlowStopped as stop:
            reason = stop.reason
            break
        t += dt
        step_idx += 1

    final_profile = ProfileGrid(a, b, r)
    final_record = _diagnose(final_profile, space, t)
    if not history or history[-1].t != t:
        history.append(final_record)
        snapshots.append(final_profile)
    final = FlowState(profile=final_profile, t=t, cached=final_record)
    return RunResult(final=final, reason=reason, history=history,
                     snapshots=snapshots, config=rcfg, steps=step_idx)


def write_history_csv(history, path) -> None:
    """One row per diagnostics record, columns exactly ``HISTORY_COLUMNS``."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(HISTORY_COLUMNS) + "\n")
        for rec in history:
            cells = []
            for col, val in zip(HISTORY_COLUMNS, rec.to_row()):
                cells.append(str(int(val)) if col == "N" else repr(float(val)))
            fh.write(",".join(cells) + "\n")


def build_summary(result: RunResult, bounds_report=None, config_echo=None, extras=None):
    final = result.final.cached
    summary = {
        "reason": result.reason.tag.value,
        "location": result.reason.location,
        "final": {c: (int(v) if c == "N" else float(v))
                  for c, v in zip(HISTORY_COLUMNS, final.to_row())},
        "flow_config": result.config.to_dict(),
        "records": len(result.history),
        "steps": result.steps,
        # empirical two-sided Hbar range (no closed form exists for the
        # sharper constants, which depend on an uncomputable infimum area)
        "hbar_range": [min(rec.Hbar for rec in result.history),
                       max(rec.Hbar for rec in result.history)],
    }
    if bounds_report is not None:
        summary["bounds"] = bounds_report.to_dict()
    if config_echo is not None:
        summary["config"] = config_echo
    if extras:
        summary.update(extras)
    return summary


def write_summary_json(summary, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
