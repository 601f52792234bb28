r"""Semi-implicit time stepping for the nonlocal volume-preserving flow.

Each point moves with normal speed Hbar - H, so the profile moves with that
speed times the graph slope v = sqrt(q)/f, q = rdot^2 + f^2:

    dr/dt = (Hbar - H) sqrt(q)/f = rddot/q + (terms without rddot),

with H from the geometry kernel (``hypersurface._curvatures``), Neumann ends
rdot(a) = rdot(b) = 0, and Hbar from the pre-step profile (lagged).

A step is variable-step SBDF2 (Ascher, Ruuth & Wetton 1995; Wang & Ruuth
2008).  With L = diag(1/q) D2 (q lagged, D2 the ghost-node Neumann second
difference), v and v_prev the velocities at this state and the last, omega =
dt/dt_prev and d_prev the last update before its projection, it solves by
one Thomas sweep (``_solve_diffusion``)

    (a0 I - dt L) dr = dt [(1 + omega) v - omega v_prev] + a2 d_prev
                       - omega dt L d_prev,
    a0 = (1 + 2 omega)/(1 + omega),  a2 = omega^2/(1 + omega).

A first step, or a try with omega > _OMEGA_MAX or more slope sign changes
than the state's (``_turns``), is semi-implicit Euler, (I - dt L) dr = dt v.
v = 0 and d_prev = 0 give dr = 0 exactly.  The step size follows the rule
above ``_ATOL``, the volume is projected by ``_project_volume``, and a state
near its limit may jump to it by the Newton endgame (``_Run._endgame``).

``run`` stops at the first of: max|H - Hbar| < conv_tol (converged); min r
< r_min_stop (singularity, at the arg-min z); max v > _V_MAX_STOP (graph
failure); t at max_t (max time); a non-finite value, max r past 0.99 r_max
or on r_max, or f or h <= 0 (instability); a missed projection (projection
failed).  ``step`` is one iteration of ``run`` and lands on its states bit
for bit, the endgame's included, and each result of an ensemble ``run`` is
``==`` to the run of its profile alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from enum import Enum
from typing import List, Optional

import numpy as np

from .bounds import _h_pow, _volume_density, beta, unit_sphere_area
from .hypersurface import (
    ProfileGrid, _L2, _area, _check_domain, _checked_geometry, _critical_count, _curve_length,
    _gap, _geometry, _hbar, _jacobian, _second_difference, _split, _volume, trapezoid_weights,
)

__all__ = [
    "StopTag", "StopReason", "FlowConfig", "DiagnosticsRecord", "FlowState", "Endgame",
    "RunResult", "FlowStopped", "rhs", "step", "run",
    "HISTORY_COLUMNS", "write_history_csv", "build_summary", "write_summary_json",
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

    max_t: float = 10.0
    r_min_stop: Optional[float] = None
    conv_tol: Optional[float] = None
    record_every: int = 100

    def __post_init__(self):
        if not self.max_t > 0.0:
            raise ValueError("max_t must be positive")
        if self.r_min_stop is not None and not self.r_min_stop > 0.0:
            raise ValueError("r_min_stop must be positive")
        if self.conv_tol is not None and not self.conv_tol > 0.0:
            raise ValueError("conv_tol must be positive")
        if int(self.record_every) != self.record_every or self.record_every < 1:
            raise ValueError("record_every must be a positive integer")

    def to_dict(self):
        return asdict(self)


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
        """Values in ``HISTORY_COLUMNS`` order: N an int, the rest floats."""
        return [int(self.N) if c == "N" else float(getattr(self, c)) for c in HISTORY_COLUMNS]


HISTORY_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


@dataclass
class FlowState:
    profile: ProfileGrid
    t: float
    cached: DiagnosticsRecord
    dt_rung: Optional[int] = None  # the step-size controller's proposal, see ``_ATOL``
    # the projection's tracked and target volumes, as in ``run``; None is cached.V
    v_tracked: Optional[float] = None
    v_target: Optional[float] = None
    # the last step's velocity, update and dt, which SBDF2 steps from; None
    # (the initial state) makes the next step semi-implicit Euler
    v_prev: Optional[np.ndarray] = None
    d_prev: Optional[np.ndarray] = None
    dt_prev: Optional[float] = None
    # the convergence tolerance; None resolves it as ``FlowConfig`` says
    conv_tol: Optional[float] = None
    endgame_tried: bool = False  # the Newton endgame was taken: no more tries
    endgame_declined: Optional[float] = None  # the gap of the last declined try


@dataclass(frozen=True)
class Endgame:
    """The Newton endgame that gave a run its last state (``_Run._endgame``)."""

    step: int  # steps taken before the hand-off
    t: float  # t at the hand-off
    gap: float  # max|H - Hbar| at the hand-off
    share: float  # the slowest volume-preserving mode's share of gap (may exceed 1)
    iterations: int
    residual: float  # max|H - Hbar| of the limit
    lambda1: float  # decay rate of the slowest volume-preserving mode at the limit
    rate: float  # that mode's Jacobian eigenvalue at the hand-off


@dataclass
class RunResult:
    final: FlowState
    reason: StopReason
    history: List[DiagnosticsRecord]
    snapshots: List[ProfileGrid]
    config: FlowConfig  # resolved thresholds actually used
    steps: int  # time steps taken, the endgame's jump counted as one
    endgame: Optional[Endgame] = None  # None: no endgame was taken


class FlowStopped(RuntimeError):
    """Raised by ``step`` when the update leaves the valid state space."""

    def __init__(self, reason: StopReason):
        super().__init__(f"flow stopped: {reason.tag.value}")
        self.reason = reason


def _record(profile: ProfileGrid, space, g, hbar: float, wz, z, t: float) -> DiagnosticsRecord:
    """The record of ``profile`` from its kernel output ``g`` and lagged ``hbar``,
    reduced under the grid's trapezoid weights ``wz`` on its nodes ``z``; the
    caller has checked the domain."""
    i1, i2 = _split(g, wz, space.n)
    max_r = float(profile.r.max())
    return DiagnosticsRecord(
        t=t, V=_volume(profile.r, space, wz), area=_area(g, wz, space.n), Hbar=hbar,
        I1=i1, I2=i2, min_r=float(profile.r.min()), max_r=max_r, max_v=float(g.v.max()),
        N=_critical_count(g.rdot, z, max_r, None), curve_len=_curve_length(g, wz),
        max_L2=float(_L2(g, space.n).max()),
    )


def _diagnose(profile: ProfileGrid, space, t: float) -> DiagnosticsRecord:
    g, wz = _checked_geometry(profile, space)
    return _record(profile, space, g, _hbar(g, wz), wz, profile.z, t)


def _velocity(g, hbar: float) -> np.ndarray:
    return (hbar - g.H) * g.v


def rhs(p: ProfileGrid, space, Hbar: float) -> np.ndarray:
    """Nodal dr/dt of the graph flow for a given averaged mean curvature."""
    if not math.isfinite(Hbar):
        raise ValueError("Hbar must be finite")
    return _velocity(_checked_geometry(p, space)[0], Hbar)


# 3-point Gauss-Legendre rule on [0, 1], abscissae as a column
_GL_X = np.array([[0.5 - 0.5 * math.sqrt(0.6)], [0.5], [0.5 + 0.5 * math.sqrt(0.6)]])
_GL_W = np.array([5.0, 8.0, 5.0]) / 18.0


def _volume_increment(space, wz_sigma, r_from, r_to):
    # sigma * integral over z of (beta(r_to) - beta(r_from)).  The error is
    # O(|r_to - r_from|^7) per node: a 2-point rule, O(|dr|^5), left 1e-10
    # relative volume errors per step at the semi-implicit step sizes in
    # strongly curved spaces.
    d = r_to - r_from
    g = _GL_W @ _volume_density(space, r_from + _GL_X * d)
    return float(wz_sigma @ (d * g))


def _project_volume(space, wz_sigma, r, v_at_r, v_target, r_max, r_lo, r_hi):
    """Uniform shift c with enclosed_volume(r + c) = v_target, whose tracked
    value is ``v_at_r`` at ``r`` (min ``r_lo``, max ``r_hi``).

    Newton on the tracked volume with a bisection safeguard, at most 5
    iterations.  Returns (c, r + c, achieved volume), or raises
    ``FlowStopped`` (projection failed) when 1e-12 relative is missed.
    Newton iterates on to 1e-14, one quadratically convergent iteration
    past 1e-12: from the 1e-6 relative residuals of semi-implicit steps, a
    first iteration lands just under 1e-12, so stopping there let the
    volumes of consecutive steps differ by nearly 1e-12.
    """
    tol = 1e-12 * abs(v_target)
    tol_newton = 1e-2 * tol
    c = 0.0
    rc = r  # r + c; r > 0, so r + 0.0 == r
    vc = v_at_r
    lo = hi = None  # bracket: G(lo) < 0 < G(hi)
    for _ in range(5):
        G = vc - v_target
        if abs(G) <= tol_newton:
            break
        if G < 0.0:
            lo = c if lo is None else max(lo, c)
        else:
            hi = c if hi is None else min(hi, c)
        slope = float(wz_sigma @ _volume_density(space, rc))  # dV/dc > 0
        c_new = c - G / slope
        if lo is not None and hi is not None and not (lo < c_new < hi):
            c_new = 0.5 * (lo + hi)
        # keep the shifted profile inside (0, r_max)
        c_new = max(c_new, -0.999999 * r_lo)
        if r_max < math.inf:
            c_new = min(c_new, (r_max - r_hi) * 0.999999)
        rc_new = r + c_new
        vc += _volume_increment(space, wz_sigma, rc, rc_new)
        c, rc = c_new, rc_new
    if not abs(vc - v_target) <= tol:
        raise FlowStopped(StopReason(StopTag.PROJECTION_FAILED))
    return c, rc, vc


# a slope v = sqrt(q)/f past this stops the run as a graph failure
_V_MAX_STOP = 1e6


def _resolve(cfg: FlowConfig, r0_min: float, hbar0: float) -> FlowConfig:
    out = cfg
    if out.r_min_stop is None:
        out = replace(out, r_min_stop=1e-3 * r0_min)
    if out.conv_tol is None and math.isfinite(hbar0):  # else run stops as instability
        out = replace(out, conv_tol=1e-6 * abs(hbar0))
    return out


# Step-size control (Hairer & Wanner, Solving ODEs II, IV.2).  est is the gap
# to the AB2 predictor, O(dt^3), or after Euler max|dr - dt v|, O(dt^2); a try
# is accepted when est <= min(_ATOL min r, max(_RTOL max|dr|, dt _SPEED_NOISE
# |Hbar|)).  dt = dt_cfl 2^(k/_RUNGS_PER_OCTAVE), k >= 0, over the floor
# dt_cfl = _DT_SAFETY dz^2 min(q)/2; it stays below dz^2 min(q)/_DIAG_MARGIN,
# starts where est = dt^2 max|L v| meets tol, and lands on max_t.  The rungs
# from est to tol are counted as if est ~ dt^2, SBDF2 tries included: near a
# pinch the timescale shrinks like min r^2 (r_min^2 ~ 2(n-1)(T - t) at a
# type-I neckpinch, Angenent & Velazquez 1997), and one rung down lowers est
# only about as dt^1.65 there, so a dt^3 count steps down one rung where two
# are needed.  An accepted try proposes one rung below the rung where est
# meets tol (at most _MAX_GROWTH - 1 rungs up), so the next, shorter
# timescale is usually met by the first try: a stateless stand-in for the
# est ratio of Gustafsson's predictive controller (ACM TOMS 20, 1994).  A
# rejected try steps down at least one rung.
# A try that reaches r_max is not retried.  2^(4/4) = 2 stays under
# _OMEGA_MAX = 1 + sqrt(2), the zero-stability limit of variable-step BDF2, so
# a step from a ladder step stays SBDF2.  The ladder keeps last-bit
# differences of the state from changing the rung.  The min r term resolves
# pinches; the max|dr| term bounds the error per unit of motion, so t stays
# physical in the approach to the limit.  _RTOL = 0.25 keeps the linearised
# decay within 20% at t = 0.25 and 40% at t = 0.5 (tests/test_kernel.py).
_ATOL = 1e-3
_DT_SAFETY = 0.4
_RTOL = 0.25
_RUNGS_PER_OCTAVE = 4
_MAX_GROWTH = 5
_OMEGA_MAX = 1.0 + math.sqrt(2.0)
# Hbar - H is a difference of nearly equal O(Hbar) numbers, so its last bits
# are rounding noise.  On a cylinder the speed is that noise alone: it flips
# between 0 and a few ulps of Hbar from step to step, the AB2 predictor
# extrapolates the flip, and a relative tolerance on such a dr rejects every
# dt down to the floor.  An est below dt 2^-48 |Hbar| is accepted.
_SPEED_NOISE = 2.0 ** -48
# dt <= dz^2 min(q) / _DIAG_MARGIN keeps the diagonal 2 + dz^2 q / dt of the
# Neumann system at least 2 + 2^-20: its condition number stays below about
# 4 2^20, far from the rounding to 2 where it turns singular.  This bounds dt
# where est gives no information, as on a cylinder (v = 0, so est = 0).  The
# acceptance runs reach a margin of 7e-4 at m = 201.
_DIAG_MARGIN = 2.0 ** -20
# the Newton endgame's gates, see ``_Run._endgame``
_ENDGAME_GAP = 2.0
_ENDGAME_SHARE = 0.5
_ENDGAME_RATE_TOL = 5e-2
_ENDGAME_MIRROR = 2.0 ** -44
_ENDGAME_RETRY = 3.0
_ENDGAME_ITERS = 6
_ENDGAME_SWEEPS = 3


def _turns(slope):
    """Sign changes along ``slope``, entries within 1e-9 max|slope| of 0 skipped.

    BDF2 decays a stiff mode through complex roots, so a fading bump can
    overshoot into a new critical point, which the flow never makes (the
    zero count of rdot does not grow).  An SBDF2 update whose slope turns
    more often than the state's is replaced by the Euler update, which does
    not.  Slopes at rounding level, as at the neck of a symmetric profile,
    count as 0, as in the critical-point census.
    """
    if (slope[1:] * slope[:-1] > 0.0).all():  # one sign throughout
        return 0
    a = abs(slope)
    s = slope[a > 1e-9 * a.max()]
    return np.count_nonzero(s[1:] * s[:-1] < 0.0)


def _factor(lower, diag, upper):
    """LU factors (multipliers, pivots, upper) of a tridiagonal matrix.

    No pivoting: the endgame's Jacobian is a shifted Neumann Laplacian near
    a limit, definite but for its few lowest modes, so a pivot nears 0 only
    when an eigenvalue does; the endgame then declines.  ``lower[i]`` is row
    i+1's entry left of the diagonal.
    """
    a = lower.tolist()
    c = upper.tolist()
    piv = diag.tolist()  # each pivot takes the place of its diagonal entry
    mult = [0.0] * len(piv)
    p = piv[0]
    for i in range(1, len(piv)):
        li = mult[i] = a[i - 1] / p
        p = piv[i] = piv[i] - li * c[i - 1]
    return mult, piv, c


def _lu_solve(lu, rhs):
    """Solve with the factors of ``_factor``: one forward and one back sweep."""
    mult, piv, c = lu
    x = rhs.tolist()
    m = len(x)
    xi = x[0]
    for i in range(1, m):
        xi = x[i] = x[i] - mult[i] * xi
    xi = x[-1] = xi / piv[-1]
    for i in range(m - 2, -1, -1):
        xi = x[i] = (x[i] - c[i] * xi) / piv[i]
    return np.array(x)


def _solve_diffusion(diag, rhs):
    """Thomas sweep for diag_i x_i - x_{i-1} - x_{i+1} = rhs_i.

    The end rows use the reflected ghosts x_{-1} = x_1 and x_m = x_{m-2} of
    the Neumann second difference.  diag > 2 makes the system strictly
    diagonally dominant, so the sweep needs no pivoting; rhs = 0 gives x = 0
    exactly.  The sweep overwrites the lists of diag and rhs: w_i takes the
    place of diag_i once it is read, and y_i, then x_i, that of rhs_i.
    Kept beside ``_factor``/``_lu_solve``: through them this solve takes
    1.3-1.6 times as long at m = 61 to 201, and rounds differently (about
    half the entries, by up to 3e-14 relative).
    """
    w = diag.tolist()  # x_i = y_i + w_i x_{i+1}
    y = rhs.tolist()
    m = len(w)
    yi = y[0] = y[0] / w[0]
    wi = w[0] = 2.0 / w[0]
    for i in range(1, m - 1):
        wi = w[i] = 1.0 / (w[i] - wi)
        yi = y[i] = (y[i] + yi) * wi
    xi = y[-1] = (y[-1] + 2.0 * yi) / (w[-1] - 2.0 * wi)
    for i in range(m - 2, -1, -1):
        xi = y[i] = y[i] + w[i] * xi
    return np.array(y)


class _Run:
    """One run of the flow: its state, its records and its stepper.

    ``run`` drives it by ``proceed``; ``step`` sets it from a ``FlowState``
    and calls ``advance`` once.  With ``implicit=False`` the update is
    explicit Euler at dt_cfl, the reference of the differential tests, which
    never takes the endgame.
    """

    def __init__(self, grid: ProfileGrid, space, cfg: FlowConfig, implicit: bool = True,
                 rung=None, prev=None, conv_tol=None, tried: bool = False, declined=None):
        self.space, self.cfg = space, cfg
        self.a, self.b, self.dz, self.z = grid.a, grid.b, grid.dz, grid.z
        self.wz = trapezoid_weights(grid.m, grid.dz)
        self.wz_sigma = unit_sphere_area(space.n) * self.wz
        self.half_safety_dz2 = 0.5 * _DT_SAFETY * grid.dz * grid.dz
        self.implicit = implicit
        self.r_max = space.r_max_domain
        self.rung = rung  # k of the next dt (see _ATOL); None: estimate it
        self.prev = prev  # the last step's (v, dr, dt); None: the next is Euler
        self.conv_tol = conv_tol
        self.tried = tried  # an endgame was taken: no more tries
        self.declined = declined  # the gap of the last declined try
        self.endgame = None
        self.r = grid.r
        self.t = 0.0
        self.lo = self.hi = None  # min and max of r, kept by ``proceed`` and ``advance``
        self.v_tracked = self.v_target = None
        # r_min_stop; if None, 0 until ``proceed`` resolves it, and 0 in ``step``,
        # which cannot resolve it without min r(0)
        self.floor = 0.0 if cfg.r_min_stop is None else cfg.r_min_stop
        self.steps = 0
        self.history: List[DiagnosticsRecord] = []
        self.snapshots: List[ProfileGrid] = []
        self.result = None

    def state(self, profile: ProfileGrid, cached: DiagnosticsRecord) -> FlowState:
        """The ``FlowState`` of ``profile`` at ``t``, with the volumes, controller and tries."""
        v_prev, d_prev, dt_prev = self.prev or (None, None, None)
        return FlowState(profile, self.t, cached, self.rung, self.v_tracked, self.v_target,
                         v_prev, d_prev, dt_prev, self.conv_tol, self.tried, self.declined)

    def geometry(self, r):
        g = _geometry(r, self.space, self.dz)
        return g, _hbar(g, self.wz)

    def _singularity(self, r):
        return FlowStopped(StopReason(StopTag.SINGULARITY,
                                      location=float(self.z[int(r.argmin())])))

    def _increment(self, r, g, hbar, dt_left=math.inf):
        """Return (dr, dt), the update before the checks and the projection,
        with dt at most ``dt_left``; (v, dr, dt) becomes ``prev``."""
        min_q = float(g.q.min())
        dt_cfl = self.half_safety_dz2 * min_q
        ceiling = min(dt_left, (self.dz * self.dz) * min_q / _DIAG_MARGIN)
        v = _velocity(g, hbar)
        if not self.implicit:
            dt = min(dt_cfl, ceiling)
            return dt * v, dt
        # every row of the system scaled by q dz^2 / dt; D2 d_prev scaled by dz^2
        dz2q = (self.dz * self.dz) * g.q
        dz2qv = dz2q * v
        if self.prev is not None:
            v_prev, d_prev, dt_prev = self.prev
            dv = v - v_prev
            dz2q_dv = dz2q * dv
            dz2q_d = dz2q * d_prev
            d2_d = _second_difference(d_prev)
        euler = self.prev is None
        atol = _ATOL * float(r.min())
        noise = _SPEED_NOISE * abs(hbar)
        k = self.rung
        if k is None:  # the Euler error model est = dt^2 max|L v| against tol
            lv = float(abs(_second_difference(v) * g.invq).max()) / (self.dz * self.dz)
            dt0 = (min(math.sqrt(atol / lv), _RTOL * float(abs(v).max()) / lv)
                   if lv > 0.0 else math.inf)
            x = min(dt0, 2.0 * ceiling) / dt_cfl  # above the ceiling: clipped to it
            k = math.floor(_RUNGS_PER_OCTAVE * math.log2(x)) if x > 1.0 else 0
        while True:
            rung_dt = dt_cfl * 2.0 ** (k / _RUNGS_PER_OCTAVE)
            if rung_dt <= ceiling:
                dt, pos = rung_dt, k
            else:  # pos: the ladder position of the clipped dt
                dt = ceiling
                pos = _RUNGS_PER_OCTAVE * math.log2(dt / dt_cfl)
            omega = math.inf if euler else dt / dt_prev
            sbdf2 = omega <= _OMEGA_MAX
            if sbdf2:  # against the AB2 predictor: est O(dt^3)
                a0 = (1.0 + 2.0 * omega) / (1.0 + omega)
                a2 = omega * omega / (1.0 + omega)
                dr = _solve_diffusion(2.0 + dz2q * (a0 / dt),
                                      dz2qv + omega * dz2q_dv + (a2 / dt) * dz2q_d
                                      - omega * d2_d)
                est = float(abs(dr - dt * (v + (0.5 * omega) * dv)).max())
            else:  # semi-implicit Euler, against explicit Euler: est O(dt^2)
                dr = _solve_diffusion(2.0 + dz2q / dt, dz2qv)
                est = float(abs(dr - dt * v).max())
            tol = min(atol, max(_RTOL * float(abs(dr).max()), dt * noise))
            # rungs that take est to tol (see _ATOL); a NaN update steps down
            # to the floor, where the finiteness check reports it
            ratio = tol / est if est > 0.0 else math.inf
            change = (min(_MAX_GROWTH, _RUNGS_PER_OCTAVE * math.log2(ratio) / 2)
                      if ratio > 0.0 else -1)
            r_new = r + dr
            # accepted, at the floor dt_cfl, or out of the domain: near r_max
            # the speed grows like 1/f, and smaller tries only creep up to it
            if est <= tol or pos <= 0.0 or r_new.max() >= self.r_max:
                if sbdf2:
                    turns = _turns(r_new[2:] - r_new[:-2])
                    if turns and turns > _turns(g.rdot):
                        euler = True  # the same dt again, as an Euler step
                        continue
                self.rung = max(0, math.floor(pos + change) - 1)
                self.prev = (v, dr, dt)
                return dr, dt
            k = max(0, min(k - 1, math.floor(pos + change)))

    def advance(self, g, hbar, gap=None):
        """Step the state, whose kernel output is ``g`` and ``hbar``, or raise
        ``FlowStopped`` with a stop reason of the module docstring.

        ``gap`` = ``_gap(g, hbar)`` may admit the Newton endgame's jump;
        else dt is clipped so that t lands exactly on max_t, unless t is
        past it (only ``step`` gets there).  A node at or below ``floor`` is
        a singularity.  The projection's shift c moves min and max r by
        exactly c (x -> x + c is monotone in floating point).  A raise
        leaves the state, ``rung``, ``prev`` and ``declined`` at the last
        accepted step.
        """
        saved = self.rung, self.prev, self.declined
        try:
            if not np.minimum(g.f, g.h).min() > 0.0:
                raise FlowStopped(StopReason(StopTag.INSTABILITY))
            # after a first step: the explicit reference, which keeps none, never tries
            if (gap is not None and self.prev is not None and not self.tried
                    and self.conv_tol is not None
                    and self.conv_tol <= gap < _ENDGAME_GAP * abs(hbar)
                    and (self.declined is None or _ENDGAME_RETRY * gap <= self.declined)):
                limit = self._endgame(g, hbar, gap)
                if limit is not None:
                    self.r, self.t, self.v_tracked, self.lo, self.hi = limit
                    return
                self.declined = gap
            r, t, max_t, floor = self.r, self.t, self.cfg.max_t, self.floor
            dt_left = max_t - t if t < max_t else math.inf
            dr, dt = self._increment(r, g, hbar, dt_left)
            r_new = r + dr
            mn, mx = float(r_new.min()), float(r_new.max())
            if not (math.isfinite(mn) and math.isfinite(mx)):
                raise FlowStopped(StopReason(StopTag.INSTABILITY))
            if mn <= floor:
                raise self._singularity(r_new)
            if mx >= self.r_max:
                raise FlowStopped(StopReason(StopTag.INSTABILITY))
            v_after = self.v_tracked + _volume_increment(self.space, self.wz_sigma, r, r_new)
            c, r_new, v_tracked = _project_volume(self.space, self.wz_sigma, r_new, v_after,
                                                  self.v_target, self.r_max, mn, mx)
            mn, mx = mn + c, mx + c
            if mn <= floor:
                raise self._singularity(r_new)
        except FlowStopped:
            self.rung, self.prev, self.declined = saved
            raise
        self.r, self.v_tracked, self.lo, self.hi = r_new, v_tracked, mn, mx
        self.t = max_t if dt == dt_left else t + dt

    def _bordered(self, g):
        """(LU of J, J^-1 1, wv, wv . J^-1 1, v) at the kernel output ``g``, with
        wv = sigma wz beta'(r) the volume row that borders J."""
        lu = _factor(*_jacobian(g, self.space.n, self.dz))
        x2 = _lu_solve(lu, np.ones(g.H.size))
        wv = self.wz_sigma * g.f * _h_pow(g.h, self.space.n)
        return lu, x2, wv, float(wv @ x2), g.v

    @staticmethod
    def _sweeps(bordered, x):
        """(rate, product of the normalisers, x) of inverse iterations from x."""
        lu, x2, wv, s, v = bordered
        norms = 1.0
        for _ in range(_ENDGAME_SWEEPS):  # (J - mu) y = x / v, wv.y = 0
            y = _lu_solve(lu, x / v)
            y -= (float(wv @ y) / s) * x2
            lam = float(x @ y) / float(y @ y)
            norm = float(abs(y).max())
            x = y / norm
            norms *= norm
        return lam, norms, x

    def _endgame(self, g, hbar, gap):
        """Newton's method for the discrete CMC limit of the run's state, H_i(r)
        = Hc for all i at the target volume; returns the limit's (r, t, tracked
        volume, min r, max r), or None to step on.  Only an accepted limit sets
        ``prev``, ``tried`` and ``endgame``.

        ``advance`` tries it after a first step, with no endgame taken, for
        conv_tol <= gap < _ENDGAME_GAP |Hbar|, and after a declined try once
        the gap has fallen _ENDGAME_RETRY times.  After one step the converge
        benchmark's profiles (120 draws, m = 61) leave gaps of 0.65-2.23
        |Hbar| (euclidean) and 0.15-0.56 (hyperbolic), and its dumbbells
        2.16-4.45: the window lets nearly all of the first two try, and none
        of the third.

        An iteration solves the bordered system [J -1; wv 0] by one LU of J
        and two solves, J x2 = 1 (``_bordered``) and J x1 = -(H - Hc), and dHc
        from the volume row; the volume is measured by quadrature after the
        first, long jump, by increments after the others, and projected once
        on the limit.  Iterates are kept while the gap falls and the profile
        stays in (floor, r_max), at most _ENDGAME_ITERS, until the gap is below
        _SPEED_NOISE |Hbar|: a limit left at 1e-11 still carries a multi-mode
        remnant that the census counts.  By Haynsworth's inertia additivity, J
        on wv's null space is positive definite (the limit is stable) iff J
        has 1 negative pivot and wv.J^-1 1 < 0, or none and wv.J^-1 1 > 0
        (Sylvester's law holds the pivot count to J's inertia, J being similar
        to a symmetric matrix near a graph's limit).  Inverse iteration from
        H - Hbar gives the hand-off's rate and, as rate^3 times its
        normalisers, the slowest mode's share of the gap (above 1 where faster
        modes cancel part of it); from the limit's mode, lambda1.

        The date: the flow commutes with the mirror z -> a + b - z, which flips
        the slowest mode about a mirror-symmetric limit, so its amplitude A
        decays by an odd law dA/dt = -(lambda1 A + c A^3 + ...).  rate is the
        law's slope at the hand-off, lambda1 + 3 c A^2, so the decay rate there
        is k0 = lambda1 + (rate - lambda1)/3, and A falls from share gap to
        conv_tol in (ln(share gap / conv_tol) - ln(k0 / lambda1)/2) / lambda1.

        The jump is taken only if the limit is stable, share >= _ENDGAME_SHARE,
        the gap falls below conv_tol, the limit stays in (floor, r_max) and is
        mirror-symmetric to _ENDGAME_MIRROR max r (16 times _SPEED_NOISE; the
        limits measured are symmetric to 2e-15), k0 is within
        _ENDGAME_RATE_TOL of lambda1, and the date lies in (t, max_t].
        """
        r, t, max_t, floor = self.r, self.t, self.cfg.max_t, self.floor
        conv_tol, v_tracked, v_target = self.conv_tol, self.v_tracked, self.v_target
        with np.errstate(all="ignore"):
            try:
                b = self._bordered(g)
                lu, s = b[0], b[3]
                negative = sum(p < 0.0 for p in lu[1])
                if not (s < 0.0 if negative == 1 else negative == 0 and s > 0.0):
                    return None
                rate, norms, mode = self._sweeps(b, g.H - hbar)
            except ZeroDivisionError:
                return None
            share = rate ** 3 * norms / gap
            if not share >= _ENDGAME_SHARE:
                return None
            drop = math.log(share * gap / conv_tol)  # ln of the slowest mode's fall
            # dated at lambda1 = rate: a try far past max_t ends before any iteration
            if not t + drop / rate <= max_t:
                return None
            hc, res, its = hbar, gap, 0
            floor_gap = _SPEED_NOISE * abs(hbar)
            try:
                while its < _ENDGAME_ITERS and res > floor_gap:
                    if its:
                        b = self._bordered(g)
                    lu, x2, wv, s = b[:4]
                    x1 = _lu_solve(lu, hc - g.H)
                    dhc = (v_target - v_tracked - float(wv @ x1)) / s
                    r_new = r + (x1 + dhc * x2)
                    mn, mx = float(r_new.min()), float(r_new.max())
                    if not (floor < mn and mx < self.r_max):
                        break
                    v_new = (v_tracked + _volume_increment(self.space, self.wz_sigma, r, r_new)
                             if its else float(self.wz_sigma @ beta(self.space, r_new)))
                    g, hbar_new = self.geometry(r_new)
                    res_new = _gap(g, hbar_new)
                    if not res_new < res:
                        break
                    r, v_tracked, hc, res, its = r_new, v_new, hc + dhc, res_new, its + 1
                    lo, hi = mn, mx
                if not res < conv_tol:
                    return None
                lam = self._sweeps(b, mode)[0]
                c, r, v_tracked = _project_volume(self.space, self.wz_sigma, r, v_tracked,
                                                  v_target, self.r_max, lo, hi)
            except (ZeroDivisionError, FlowStopped):
                return None
        k0 = lam + (rate - lam) / 3.0
        if not (abs(k0 / lam - 1.0) <= _ENDGAME_RATE_TOL
                and float(abs(r - r[::-1]).max()) <= _ENDGAME_MIRROR * hi):
            return None
        # the odd decay law, integrated from share gap down to conv_tol
        t_new = t + (drop - 0.5 * math.log(k0 / lam)) / lam
        if not (t < t_new <= max_t and floor < lo + c):
            return None
        self.prev = None  # a jump, not a time step: the next step starts afresh
        self.tried = True
        self.endgame = Endgame(self.steps, t, gap, share, its, res, lam, rate)
        return r, t_new, v_tracked, lo + c, hi + c

    def record(self, g, hbar):
        """Record the current state, from its kernel output ``g`` and ``hbar``."""
        prof = ProfileGrid(self.a, self.b, self.r)
        self.history.append(_record(prof, self.space, g, hbar, self.wz, self.z, self.t))
        self.snapshots.append(prof)

    def proceed(self, g, hbar):
        """Take the next step of ``run`` from the current state, whose kernel
        output is ``g`` and ``hbar``; False, with ``result`` set, once the run
        has stopped.  The initial state resolves the config's defaults and
        sets the volume target."""
        if self.steps % self.cfg.record_every == 0:
            self.record(g, hbar)
        if not self.steps:
            first = self.history[0]
            self.cfg = _resolve(self.cfg, first.min_r, hbar)
            self.conv_tol, self.floor = self.cfg.conv_tol, self.cfg.r_min_stop
            self.v_target = self.v_tracked = first.V
            self.lo, self.hi = first.min_r, first.max_r
        cfg = self.cfg
        if not math.isfinite(hbar):
            reason = StopReason(StopTag.INSTABILITY)
        elif self.lo < cfg.r_min_stop:
            reason = self._singularity(self.r).reason
        elif self.r_max < math.inf and self.hi > 0.99 * self.r_max:
            # outside the regime the theory covers; treated as a failure
            reason = StopReason(StopTag.INSTABILITY)
        elif g.v.max() > _V_MAX_STOP:
            reason = StopReason(StopTag.GRAPH_FAILURE)
        else:
            gap = _gap(g, hbar)
            if gap < cfg.conv_tol:
                reason = StopReason(StopTag.CONVERGED)
            elif self.t >= cfg.max_t:
                reason = StopReason(StopTag.MAX_TIME)
            else:
                try:
                    self.advance(g, hbar, gap)
                except FlowStopped as stop:
                    reason = stop.reason
                else:
                    self.steps += 1
                    return True
        # a failed advance leaves r and the controller at the last state
        if self.steps % cfg.record_every:
            self.record(g, hbar)
        self.result = RunResult(final=self.state(self.snapshots[-1], self.history[-1]),
                                reason=reason, history=self.history, snapshots=self.snapshots,
                                config=cfg, steps=self.steps, endgame=self.endgame)
        return False


def step(s: FlowState, space, cfg: FlowConfig) -> FlowState:
    """One iteration of the ``run`` loop from ``s``, then a full diagnosis of
    the new state; raises ``FlowStopped`` where the run would stop in its
    step, and never mutates ``s``.  A node at or below ``cfg.r_min_stop`` is
    a singularity; with ``r_min_stop = None``, whose default needs min r(0),
    only a node at or below 0 is."""
    p = s.profile
    _check_domain(p, space)
    conv_tol = s.conv_tol
    if conv_tol is None:
        conv_tol = _resolve(cfg, s.cached.min_r, s.cached.Hbar).conv_tol
    prev = None if s.dt_prev is None else (s.v_prev, s.d_prev, s.dt_prev)
    x = _Run(p, space, cfg, rung=s.dt_rung, prev=prev, conv_tol=conv_tol,
             tried=s.endgame_tried, declined=s.endgame_declined)
    x.t = s.t
    x.v_target = s.cached.V if s.v_target is None else s.v_target
    x.v_tracked = s.cached.V if s.v_tracked is None else s.v_tracked
    g, hbar = x.geometry(p.r)
    x.advance(g, hbar, _gap(g, hbar))
    profile = ProfileGrid(p.a, p.b, x.r)
    return x.state(profile, _diagnose(profile, space, x.t))


def _geometries(runs):
    """[(kernel output, Hbar)] of each run's radii, from one kernel call.

    The kernel is elementwise, so a row of the stacked (B, m) output holds
    the bits of that row's own call; each Hbar reduces its own row.
    """
    x = runs[0]
    if len(runs) == 1:  # batched: the same bits, but a third more time per call
        return [x.geometry(x.r)]
    batch = _geometry(np.array([y.r for y in runs]), x.space, x.dz)
    return [(g, _hbar(g, x.wz)) for g in map(type(batch)._make, zip(*batch))]


def run(initial, space, cfg: FlowConfig):
    """Iterate the flow from ``initial`` until a stop reason fires.

    Each state, the initial one included, goes through the geometry kernel
    once: its stop checks, its step and its record reduce that output.  A
    record, with a snapshot, is taken every ``cfg.record_every`` steps and
    at the stop.  The returned config carries the resolved thresholds, and
    ``endgame`` the Newton endgame taken, whose limit is the last state.

    ``initial`` may also be a sequence of profiles on one grid, an
    ensemble, of which the list of results is returned: each step evaluates
    the kernel once for all live runs, each run then steps alone and leaves
    the ensemble when it stops.  A single profile is the ensemble of one.
    Each run is built by ``_Run`` as named at call time.
    """
    single = isinstance(initial, ProfileGrid)
    profiles = [initial] if single else list(initial)
    for p in profiles:
        _check_domain(p, space)
        if (p.a, p.b, p.m) != (profiles[0].a, profiles[0].b, profiles[0].m):
            raise ValueError("the profiles of an ensemble must share one grid")
    runs = [_Run(p, space, cfg) for p in profiles]
    live = runs
    while live:
        live = [x for x, (g, hbar) in zip(live, _geometries(live)) if x.proceed(g, hbar)]
    return runs[0].result if single else [x.result for x in runs]


def write_history_csv(history, path) -> None:
    """One row per diagnostics record, columns exactly ``HISTORY_COLUMNS``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")  # writes floats as repr
        writer.writerow(HISTORY_COLUMNS)
        writer.writerows(rec.to_row() for rec in history)


def build_summary(result: RunResult, bounds_report, config_echo, extras):
    final = result.final.cached
    summary = {
        "reason": result.reason.tag.value,
        "location": result.reason.location,
        "final": dict(zip(HISTORY_COLUMNS, final.to_row())),
        "flow_config": result.config.to_dict(),
        "records": len(result.history),
        "steps": result.steps,
        "endgame": None if result.endgame is None else asdict(result.endgame),
        # empirical two-sided Hbar range (no closed form exists for the
        # sharper constants, which depend on an uncomputable infimum area)
        "hbar_range": [min(rec.Hbar for rec in result.history),
                       max(rec.Hbar for rec in result.history)],
    }
    if bounds_report is not None:
        summary["bounds"] = bounds_report.to_dict()
    summary["config"] = config_echo
    summary.update(extras)
    return summary


def write_summary_json(summary, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
