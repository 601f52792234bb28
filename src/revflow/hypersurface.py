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

The graph slope v = sqrt(q)/f >= 1 is the reciprocal of the radial normal
component; v stays finite exactly while the curve remains a graph, and is
exactly 1 where rdot = 0 (sqrt(f*f) = |f| in IEEE arithmetic).

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
"""

from __future__ import annotations

import csv
import functools
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
        if not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise ValueError("need finite a < b")
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
    fpp: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    q: np.ndarray
    invq: np.ndarray
    sq: np.ndarray
    v: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    w: np.ndarray


def _second_difference(d):
    """dz^2 D2 d along the last axis: the Neumann second difference with
    reflected ghost nodes, of one array or of each row of a batch."""
    out = np.empty_like(d)
    out[..., 1:-1] = d[..., 2:] - 2.0 * d[..., 1:-1] + d[..., :-2]
    dt, ot = d.T, out.T  # one profile's end nodes are then scalar operations
    ot[0] = 2.0 * (dt[1] - dt[0])
    ot[-1] = 2.0 * (dt[-2] - dt[-1])
    return out


def _derivatives(r: np.ndarray, dz: float):
    """(rdot, rddot) along the last axis: of one profile's radii, or of each row of a batch."""
    rdot = np.empty(r.shape)
    rdot[..., 1:-1] = (r[..., 2:] - r[..., :-2]) * (1.0 / (2.0 * dz))
    rdot[..., 0] = rdot[..., -1] = 0.0
    return rdot, _second_difference(r) * (1.0 / (dz * dz))


def _curvatures(rdot, rddot, f, fp, h, hp, n, sqrt=np.sqrt):
    """Pointwise (q, 1/q, sqrt q, v, k1, k2, H), in the fixed operation order
    that keeps flow runs bit for bit; floats take ``sqrt=math.sqrt``."""
    rd2 = rdot * rdot
    q = rd2 + f * f
    sq = sqrt(q)
    invq = 1.0 / q
    k1 = ((fp * rd2 - rddot * f) * invq + fp) / sq
    k2 = f * hp / (h * sq)
    return q, invq, sq, sq / f, k1, k2, k1 + (n - 1) * k2


def _geometry(r: np.ndarray, space, dz: float) -> _Geometry:
    """Derivatives, warps and curvatures of bare radii ``r``; callers check the domain.

    ``r`` is one profile's (m,) radii or a (B, m) batch of them: every field
    is then (B, m), and each row holds the bits of that row's own call.
    """
    f, fp, fpp, h, hp, hpp = space.warp(r)
    rdot, rddot = _derivatives(r, dz)
    q, invq, sq, v, k1, k2, H = _curvatures(rdot, rddot, f, fp, h, hp, space.n)
    w = sq * _h_pow(h, space.n)
    return _Geometry(rdot, rddot, f, fp, fpp, h, hp, hpp, q, invq, sq, v, k1, k2, H, w)


def _jacobian(g: _Geometry, n: int, dz: float):
    """(lower, diag, upper) of the tridiagonal dH_i/dr_j of the kernel's H.

    The chain rule through ``_curvatures`` and the ``_derivatives`` stencil:
    with A = (f' rdot^2 - rddot f)/q + f', H = A/sqrt(q) + (n-1) f h'/(h sqrt(q)),
    so dH/drddot = -f/q^(3/2), dH/drdot = 2 rdot (f' - (A - f'))/q^(3/2)
    - H rdot/q, and dH/dr through f, f', h, h' (with dq/dr = 2 f f').  The
    end rows see the reflected ghost twice: rddot_0 = 2 (r_1 - r_0)/dz^2.
    ``lower[i]`` is J[i+1, i] and ``upper[i]`` is J[i, i+1].
    """
    rd, rdd, f, fp, invq, H = g.rdot, g.rddot, g.f, g.fp, g.invq, g.H
    invq_sq = invq / g.sq
    num = (fp * rd * rd - rdd * f) * invq  # A - f'
    h_rdd = -f * invq_sq
    h_rd = 2.0 * rd * (fp - num) * invq_sq - H * rd * invq
    da = (g.fpp * rd * rd - rdd * fp - 2.0 * f * fp * num) * invq + g.fpp
    dk2 = (fp * g.hp + f * g.hpp) / g.h - f * g.hp * g.hp / (g.h * g.h)
    h_r = (da + (n - 1) * dk2) / g.sq - H * f * fp * invq
    c_rd = h_rd * (0.5 / dz)
    c_rdd = h_rdd * (1.0 / (dz * dz))
    upper = c_rdd[:-1] + c_rd[:-1]
    lower = c_rdd[1:] - c_rd[1:]
    upper[0] = 2.0 * c_rdd[0]
    lower[-1] = 2.0 * c_rdd[-1]
    return lower, h_r - 2.0 * c_rdd, upper


def _hbar(g: _Geometry, wz: np.ndarray) -> float:
    """Area-weighted mean of H under the trapezoid weights ``wz``."""
    return float(wz @ (g.H * g.w)) / float(wz @ g.w)


def _gap(g: _Geometry, hbar: float) -> float:
    """max|H - hbar|: the run's convergence measure and the CMC deviation."""
    return float(abs(g.H - hbar).max())


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
    hn2 = 1.0 if n == 2 else g.h ** (n - 2)  # h^(n-2), without a power call for n = 2
    i1 = float(wz @ (np.arctan(g.rdot / g.f) * nm1 * hn2 * g.hp * g.rdot)) / area_w
    i2 = float(wz @ ((nm1 * g.hp * g.f + g.fp * g.h) * hn2)) / area_w
    return i1, i2


def _curve_length(g: _Geometry, wz: np.ndarray) -> float:
    return float(wz @ g.sq)


def curvature_field(p: ProfileGrid, space) -> CurvatureField:
    """Principal curvatures, mean curvature, graph slope v, and |L|^2."""
    g, _ = _checked_geometry(p, space)
    return CurvatureField(k1=g.k1, k2=g.k2, H=g.H, v=g.v, L2=_L2(g, space.n))


def _volume(r: np.ndarray, space, wz: np.ndarray) -> float:
    """sigma times the trapezoid sum of beta(r) under the weights ``wz``."""
    return unit_sphere_area(space.n) * float(wz @ beta(space, r))


def enclosed_volume(p: ProfileGrid, space) -> float:
    """Volume enclosed by the hypersurface inside the slab."""
    _check_domain(p, space)
    return _volume(p.r, space, trapezoid_weights(p.m, p.dz))


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


# Slopes below this many ulps of max r over dz are rounding noise: central
# differences of radii with a few ulps of noise each.
_SLOPE_NOISE_ULPS = 8.0


def _slope_events(rdot: np.ndarray, z: np.ndarray, r_top: float, slope_tol: Optional[float]):
    """Interior slope events of the nodal slope ``rdot`` on nodes ``z``.

    ``r_top`` is the profile's max r.  Between two consecutive nonzero
    slopes, a sign change or a run of zeros (a plateau) is one event.  Zeros
    with no nonzero slope on one side merge with an endpoint.  The default
    ``slope_tol`` is 1e-9 max|rdot|, but at least ``_SLOPE_NOISE_ULPS`` ulps
    of ``r_top`` over dz, so that the rounding noise of a cylinder's slopes
    counts no critical point.

    Returns ``(j, k, gap, event)``: j and k index consecutive nonzero slopes
    among the interior nodes, ``gap`` marks the pairs with zeros between them
    and ``event`` the pairs that are events.  The census counts ``event``
    (``_critical_count``) and locates its pairs (``_interior_critical_z``).
    """
    if slope_tol is None:
        noise = _SLOPE_NOISE_ULPS * float(np.spacing(r_top)) / float(z[1] - z[0])
        slope_tol = max(1e-9 * float(np.abs(rdot).max()), noise)
    signs = np.sign(rdot[1:-1])
    signs[np.abs(rdot[1:-1]) <= slope_tol] = 0.0
    nz = np.flatnonzero(signs)
    j, k = nz[:-1], nz[1:]
    gap = k > j + 1
    return j, k, gap, gap | (signs[j] != signs[k])


def _critical_count(rdot: np.ndarray, z: np.ndarray, r_top: float,
                    slope_tol: Optional[float]) -> int:
    """Both endpoints plus the interior slope events of ``_slope_events``."""
    return 2 + int(np.count_nonzero(_slope_events(rdot, z, r_top, slope_tol)[3]))


def _interior_critical_z(rdot: np.ndarray, z: np.ndarray, r_top: float,
                         slope_tol: Optional[float]):
    """z of the interior slope events of ``_slope_events``: the midpoint of
    a sign change's pair, or of a plateau's run of zeros."""
    j, k, gap, event = _slope_events(rdot, z, r_top, slope_tol)
    lo = np.where(gap, j + 1, j)[event]
    hi = np.where(gap, k - 1, k)[event]
    z = z[1:-1]
    return 0.5 * (z[lo] + z[hi])


def critical_point_count(p: ProfileGrid, slope_tol: Optional[float] = None) -> int:
    """Number of critical points of r: both endpoints plus interior slope events.

    Interior slopes below ``slope_tol`` (default 1e-9 * max|rdot|, and at
    least a few ulps of max r over dz) are treated as zero, and each run of
    zeros contributes a single critical point.
    """
    return _critical_count(spatial_derivatives(p)[0], p.z, float(p.r.max()), slope_tol)


def critical_points(p: ProfileGrid, slope_tol: Optional[float] = None) -> np.ndarray:
    """z-locations of the critical points counted by ``critical_point_count``."""
    interior = _interior_critical_z(spatial_derivatives(p)[0], p.z, float(p.r.max()),
                                    slope_tol)
    return np.concatenate(([p.a], interior, [p.b]))


@functools.lru_cache(maxsize=16)
def _z_column(z_bytes):
    """The ``repr(z) + ","`` cells of the nodes packed in ``z_bytes``.

    The z nodes of a grid repeat in every snapshot of every run on it, and
    a float's repr costs about as much as the rest of a row.
    """
    return tuple(f"{z!r}," for z in np.frombuffer(z_bytes).tolist())


def save_profile_csv(p: ProfileGrid, path) -> None:
    """Write the profile as a two-column CSV with header ``z,r``."""
    # floats as repr, the bytes csv.writer would write; one string, one write
    text = "z,r\n" + "".join(f"{z}{r!r}\n" for z, r in zip(_z_column(p.z.tobytes()),
                                                            p.r.tolist()))
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_profile_csv(path) -> ProfileGrid:
    """Read a ``z,r`` CSV with strictly increasing, uniform z; ``ProfileGrid`` checks the rest."""
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
    dz = np.diff(zs)
    if not np.all(dz > 0.0):  # NaN fails too
        raise ValueError(f"{path}: z must be strictly increasing")
    profile = ProfileGrid(a=zs[0], b=zs[-1], r=rs)
    if np.max(np.abs(dz - profile.dz)) > 1e-9 * max(1.0, profile.b - profile.a):
        raise ValueError(f"{path}: z must be uniformly spaced")
    return profile
