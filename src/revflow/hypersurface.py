r"""Discrete geometry of a revolution graph r(z) over an axial slab.

A profile is a uniform grid of positive radii on [a, b].  Slopes and
curvatures use second-order central differences; the orthogonal-intersection
boundary condition rdot(a) = rdot(b) = 0 is built in through reflected ghost
nodes (r[-1] = r[1] and the mirror image at b), so the discrete slope
vanishes at both ends to second order.

Principal curvatures of the generated hypersurface, with q = rdot^2 + f^2:

    k1 = [ (-rddot f + rdot^2 f') / q + f' ] / sqrt(q)   (meridian direction)
    k2 = f h' / (h sqrt(q))                              (rotation directions)
    H  = k1 + (n-1) k2

The graph-slope quantity v = sqrt(q)/f >= 1 is the reciprocal of the radial
normal component; v stays finite exactly while the curve remains a graph.

Integral quantities (sigma = volume of the unit (n-1)-sphere):

    volume  V    = sigma * int_a^b beta(r(z)) dz,  beta(r) = int_0^r f h^(n-1)
    area         = sigma * int_a^b sqrt(q) h^(n-1) dz
    curve length = int_a^b sqrt(q) dz

The averaged mean curvature splits as Hbar = I1 + I2 with

    I1 = sigma/area * int arctan(rdot/f) (h^(n-1))' rdot dz   (>= 0)
    I2 = sigma/area * int ((n-1) h' f + f' h) h^(n-2) dz      (> 0 when h' > 0)

where I1 uses the integrated-by-parts form whose boundary terms vanish under
the Neumann condition.  Outer integrals are composite trapezoid on the grid;
the radial integral inside the volume is panel Gauss-Legendre (``bounds.beta``).

``_geometry`` is the single discrete-geometry kernel: it (with its stencil
helper ``_derivatives``) alone holds the ghost-node stencil and the k1/k2/H
formula.  Each reduction of its output (``_L2``, ``_area``, ``_split``,
``_curve_length``) is written once; the public functions apply them to a
checked profile, and the flow to the kernel output of its own step.  The
critical-point census (``_interior_critical_z``) reads the kernel's slope
``rdot``; ``critical_point_count`` and ``critical_points`` pass it the
slope of ``spatial_derivatives``, the same stencil.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bounds import _h_pow, beta, unit_sphere_area

__all__ = [
    "ProfileGrid",
    "CurvatureField",
    "MeanCurvatureSplit",
    "spatial_derivatives",
    "curvature_field",
    "enclosed_volume",
    "lateral_area",
    "averaged_mean_curvature",
    "curve_length",
    "critical_point_count",
    "critical_points",
    "trapezoid_weights",
    "save_profile_csv",
    "load_profile_csv",
]


@dataclass
class ProfileGrid:
    """Nodal radii on the uniform grid z_i = a + i (b-a)/(m-1)."""

    a: float
    b: float
    r: np.ndarray

    def __post_init__(self):
        self.r = np.array(self.r, dtype=float, copy=True)
        if self.r.ndim != 1 or self.r.size < 3:
            raise ValueError("profile needs at least 3 nodes")
        if not self.b > self.a:
            raise ValueError("need b > a")
        if not np.all(np.isfinite(self.r)) or np.any(self.r <= 0.0):
            raise ValueError("nodal radii must be finite and positive")

    @property
    def m(self) -> int:
        return self.r.size

    @property
    def dz(self) -> float:
        return (self.b - self.a) / (self.m - 1)

    @property
    def z(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.m)


@dataclass
class CurvatureField:
    """Pointwise curvature data of a profile in a given ambient space."""

    k1: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    v: np.ndarray
    L2: np.ndarray


class MeanCurvatureSplit(NamedTuple):
    Hbar: float
    I1: float
    I2: float


def trapezoid_weights(m: int, dz: float) -> np.ndarray:
    w = np.full(m, dz)
    w[0] = w[-1] = 0.5 * dz
    return w


class _Geometry(NamedTuple):
    """Nodal output of ``_geometry``; ``w`` is the area density sqrt(q) h^(n-1)."""

    rdot: np.ndarray
    rddot: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    rd2: np.ndarray
    q: np.ndarray
    invq: np.ndarray
    sq: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    w: np.ndarray


def _derivatives(r: np.ndarray, dz: float):
    m = r.size
    rdot = np.empty(m)
    rddot = np.empty(m)
    rdot[1:-1] = (r[2:] - r[:-2]) * (1.0 / (2.0 * dz))
    rdot[0] = rdot[-1] = 0.0
    invdz2 = 1.0 / (dz * dz)
    rddot[1:-1] = (r[2:] - 2.0 * r[1:-1] + r[:-2]) * invdz2
    rddot[0] = 2.0 * (r[1] - r[0]) * invdz2
    rddot[-1] = 2.0 * (r[-2] - r[-1]) * invdz2
    return rdot, rddot


def _geometry(r: np.ndarray, space, dz: float) -> _Geometry:
    """Derivatives, warps, principal and mean curvatures of bare radii ``r``.

    No validation: callers check the domain.  The operation order is fixed
    (multiply by 1/q), so flow trajectories are reproducible bit for bit.
    """
    f, fp, _, h, hp, _ = space.warp(r)
    rdot, rddot = _derivatives(r, dz)
    nm1 = space.n - 1
    rd2 = rdot * rdot
    q = rd2 + f * f
    sq = np.sqrt(q)
    invq = 1.0 / q
    k1 = ((fp * rd2 - rddot * f) * invq + fp) / sq
    k2 = f * hp / (h * sq)
    H = k1 + nm1 * k2
    w = sq * _h_pow(h, space.n)
    return _Geometry(rdot, rddot, f, fp, h, hp, rd2, q, invq, sq, k1, k2, H, w)


def _hbar(g: _Geometry, wz: np.ndarray) -> float:
    """Area-weighted mean of H under the trapezoid weights ``wz``."""
    return float(wz @ (g.H * g.w)) / float(wz @ g.w)


def _graph_slope(g: _Geometry) -> np.ndarray:
    slope = g.rdot / g.f
    return np.sqrt(1.0 + slope * slope)  # = sqrt(q)/f, but exactly 1 where rdot = 0


def spatial_derivatives(p: ProfileGrid):
    """Discrete (rdot, rddot); reflected ghosts give rdot = 0 at the ends."""
    return _derivatives(p.r, p.dz)


def _check_domain(p: ProfileGrid, space) -> None:
    if space.r_max_domain < math.inf and float(np.max(p.r)) >= space.r_max_domain:
        raise ValueError(f"profile leaves the ambient domain (r_max={space.r_max_domain:g})")


def _checked_geometry(p: ProfileGrid, space):
    """Domain check, then ``(_geometry, trapezoid weights)`` of ``p``."""
    _check_domain(p, space)
    return _geometry(p.r, space, p.dz), trapezoid_weights(p.m, p.dz)


def _L2(g: _Geometry, n: int) -> np.ndarray:
    return g.k1 * g.k1 + (n - 1) * g.k2 * g.k2


def _area(g: _Geometry, wz: np.ndarray, n: int) -> float:
    return unit_sphere_area(n) * float(wz @ g.w)


def _split(g: _Geometry, wz: np.ndarray, n: int):
    """(I1, I2) of the nonlocal split Hbar ~= I1 + I2."""
    nm1 = n - 1
    area_w = float(wz @ g.w)
    hn2 = g.h ** (n - 2)
    i1 = float(wz @ (np.arctan(g.rdot / g.f) * nm1 * hn2 * g.hp * g.rdot)) / area_w
    i2 = float(wz @ ((nm1 * g.hp * g.f + g.fp * g.h) * hn2)) / area_w
    return i1, i2


def _curve_length(g: _Geometry, wz: np.ndarray) -> float:
    return float(wz @ g.sq)


def curvature_field(p: ProfileGrid, space) -> CurvatureField:
    """Principal curvatures, mean curvature, graph slope v, and |L|^2."""
    g, _ = _checked_geometry(p, space)
    return CurvatureField(k1=g.k1, k2=g.k2, H=g.H, v=_graph_slope(g), L2=_L2(g, space.n))


def enclosed_volume(p: ProfileGrid, space) -> float:
    """Volume enclosed by the hypersurface inside the slab."""
    _check_domain(p, space)
    w = trapezoid_weights(p.m, p.dz)
    return unit_sphere_area(space.n) * float(w @ beta(space, p.r))


def lateral_area(p: ProfileGrid, space) -> float:
    """n-volume of the hypersurface (the lateral area of the revolution graph)."""
    return _area(*_checked_geometry(p, space), space.n)


def averaged_mean_curvature(p: ProfileGrid, space) -> MeanCurvatureSplit:
    """Area-weighted mean of H plus its nonlocal split Hbar ~= I1 + I2.

    Hbar integrates the discrete H directly; I1 and I2 are the independent
    quadratures of the same quantity, so |Hbar - (I1 + I2)| -> 0 at second
    order under grid refinement.
    """
    g, wz = _checked_geometry(p, space)
    return MeanCurvatureSplit(_hbar(g, wz), *_split(g, wz, space.n))


def curve_length(p: ProfileGrid, space) -> float:
    """Length of the generating curve in the ambient metric."""
    return _curve_length(*_checked_geometry(p, space))


def _interior_critical_z(rdot: np.ndarray, z: np.ndarray, slope_tol: Optional[float]):
    """z of the interior slope events of the nodal slope ``rdot`` on nodes ``z``.

    Between two consecutive nonzero slopes, a sign change or a run of zeros
    (a plateau) is one event, at the midpoint of the pair or of the run.
    Zeros with no nonzero slope on one side merge with an endpoint.
    """
    if slope_tol is None:
        slope_tol = 1e-9 * float(np.max(np.abs(rdot)))
    signs = np.sign(rdot[1:-1])
    signs[np.abs(rdot[1:-1]) <= slope_tol] = 0.0
    z = z[1:-1]
    nz = np.flatnonzero(signs)
    j, k = nz[:-1], nz[1:]
    gap = k > j + 1
    event = gap | (signs[j] != signs[k])
    lo = np.where(gap, j + 1, j)[event]
    hi = np.where(gap, k - 1, k)[event]
    return 0.5 * (z[lo] + z[hi])


def critical_point_count(p: ProfileGrid, slope_tol: Optional[float] = None) -> int:
    """Number of critical points of r: both endpoints plus interior slope events.

    Interior slopes below ``slope_tol`` (default 1e-9 * max|rdot|) are treated
    as zero, and each run of zeros contributes a single critical point.
    """
    return 2 + _interior_critical_z(spatial_derivatives(p)[0], p.z, slope_tol).size


def critical_points(p: ProfileGrid, slope_tol: Optional[float] = None) -> np.ndarray:
    """z-locations of the critical points counted by ``critical_point_count``."""
    interior = _interior_critical_z(spatial_derivatives(p)[0], p.z, slope_tol)
    return np.concatenate(([p.a], interior, [p.b]))


def save_profile_csv(p: ProfileGrid, path) -> None:
    """Write the profile as a two-column CSV with header ``z,r``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["z", "r"])
        for zi, ri in zip(p.z, p.r):
            writer.writerow([repr(float(zi)), repr(float(ri))])


def load_profile_csv(path) -> ProfileGrid:
    """Read a ``z,r`` CSV, checking uniform increasing z and positive r."""
    zs, rs = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["z", "r"]:
            raise ValueError(f"{path}: expected header 'z,r'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                zs.append(float(row[0]))
                rs.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row!r}") from exc
    if len(zs) < 3:
        raise ValueError(f"{path}: need at least 3 rows")
    z = np.asarray(zs)
    r = np.asarray(rs)
    dz = np.diff(z)
    if np.any(dz <= 0.0):
        raise ValueError(f"{path}: z must be strictly increasing")
    span = z[-1] - z[0]
    if np.max(np.abs(dz - dz[0])) > 1e-9 * max(1.0, span):
        raise ValueError(f"{path}: z must be uniformly spaced")
    if np.any(r <= 0.0):
        raise ValueError(f"{path}: radii must be positive")
    return ProfileGrid(a=float(z[0]), b=float(z[-1]), r=r)
