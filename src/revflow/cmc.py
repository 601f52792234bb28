r"""Constant-mean-curvature equilibrium profiles.

These are the limit objects of the convergent flow runs and serve as
oracles in tests and experiments.  Two constructions:

* ``cylinder_for_volume``: the constant profile r = r1 enclosing a given
  volume, with H = f'/f + (n-1) h'/h at r1 taken from the geometry kernel.
* ``shoot_cmc``: non-constant CMC graphs with Neumann ends, by integrating
  the second-order ODE obtained from k1 + (n-1) k2 = H.  The kernel's H is
  affine in rddot with slope -f / (q sqrt(q)), q = rdot^2 + f^2, so

      rddot = (H0 - H) q v,   v = sqrt(q)/f,   H0 = the kernel's H at rddot = 0,

  integrated from z = a with rdot(a) = 0 (classic RK4 at step dz/4) while
  r(a) is adjusted by secant iteration until |rdot(b)| <= 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bounds import _cylinder_radius
from .hypersurface import (
    ProfileGrid,
    _checked_geometry,
    _curvatures,
    _gap,
    _hbar,
    enclosed_volume,
)

__all__ = [
    "CMCProfile",
    "CMCDistance",
    "ShootingError",
    "cylinder_for_volume",
    "shoot_cmc",
    "distance_to_cmc",
]


class ShootingError(RuntimeError):
    """Shooting failed: non-convergence or the trajectory left (0, r_max)."""


@dataclass
class CMCProfile:
    H_const: float
    profile: ProfileGrid
    residual: float  # max over nodes of |H_i - H_const|
    volume: float


class CMCDistance(NamedTuple):
    h_best: float
    deviation: float


def cylinder_for_volume(space, a: float, b: float, V: float, m: int = 401) -> CMCProfile:
    """The cylinder r = r1 enclosing volume V inside the slab [a, b]."""
    if not V > 0.0:
        raise ValueError("need V > 0")
    return _package(space, None, a, b, np.full(m, _cylinder_radius(space, b - a, V)[0]))


# with r_max = inf every finite r passes the range test, so a diverging
# trajectory is stopped by the warp's overflow, raised here instead of warned
@np.errstate(over="raise", divide="raise", invalid="raise")
def _shoot_once(space, a, b, H, r_start, m, substeps=4):
    """Integrate the CMC ODE across [a, b]; returns (nodal radii, rdot(b))."""
    n = space.n
    r_max = space.r_max_domain
    dz = (b - a) / (m - 1)
    hstep = dz / substeps

    def deriv(rr, p):
        if not 0.0 < rr < r_max:
            raise ShootingError(f"trajectory left (0, {r_max:g}) at r={rr:.6g}")
        try:
            f, fp, _, h, hp, _ = (float(x) for x in space.warp(rr))
        except (FloatingPointError, OverflowError) as exc:
            raise ShootingError(f"warp evaluation failed at r={rr:.6g}: {exc}") from exc
        q, _, _, v, _, _, H0 = _curvatures(p, 0.0, f, fp, h, hp, n, math.sqrt)
        return (H0 - H) * q * v

    r_nodes = np.empty(m)
    r_nodes[0] = r_start
    rr, p = float(r_start), 0.0
    for i in range(1, m):
        for _ in range(substeps):
            k1r, k1p = p, deriv(rr, p)
            r2, p2 = rr + 0.5 * hstep * k1r, p + 0.5 * hstep * k1p
            k2r, k2p = p2, deriv(r2, p2)
            r3, p3 = rr + 0.5 * hstep * k2r, p + 0.5 * hstep * k2p
            k3r, k3p = p3, deriv(r3, p3)
            r4, p4 = rr + hstep * k3r, p + hstep * k3p
            k4r, k4p = p4, deriv(r4, p4)
            rr += hstep * (k1r + 2.0 * k2r + 2.0 * k3r + k4r) / 6.0
            p += hstep * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            if not (math.isfinite(rr) and math.isfinite(p)):
                raise ShootingError("non-finite trajectory")
        r_nodes[i] = rr
    return r_nodes, p


def shoot_cmc(space, a: float, b: float, H_target: float, r_start_guess: float,
              m: int = 401, max_iter: int = 100, tol: float = 1e-10,
              substeps: int = 4) -> CMCProfile:
    """Find a CMC graph with rdot = 0 at both ends by shooting on r(a).

    Raises ``ShootingError`` after ``max_iter`` secant iterations without
    meeting |rdot(b)| <= tol, or when a trajectory leaves (0, r_max).
    """
    if not math.isfinite(H_target):
        raise ValueError("H_target must be finite")
    if not 0.0 < r_start_guess < space.r_max_domain:
        raise ValueError("r_start_guess must lie in (0, r_max_domain)")

    x0 = float(r_start_guess)
    nodes, miss0 = _shoot_once(space, a, b, H_target, x0, m, substeps)
    if abs(miss0) <= tol:
        return _package(space, H_target, a, b, nodes)

    x1 = x0 * (1.0 + 1e-3)
    nodes, miss1 = _shoot_once(space, a, b, H_target, x1, m, substeps)
    for _ in range(max_iter):
        if abs(miss1) <= tol:
            return _package(space, H_target, a, b, nodes)
        if miss1 == miss0:
            raise ShootingError("secant stalled (flat shooting function)")
        x2 = x1 - miss1 * (x1 - x0) / (miss1 - miss0)
        if not x2 > 0.0:
            x2 = 0.5 * min(x0, x1)
        if space.r_max_domain < math.inf:
            x2 = min(x2, 0.999999 * space.r_max_domain)
        x0, miss0 = x1, miss1
        x1 = x2
        nodes, miss1 = _shoot_once(space, a, b, H_target, x1, m, substeps)
    raise ShootingError(f"no convergence in {max_iter} iterations "
                        f"(last |rdot(b)| = {abs(miss1):.3e})")


def _package(space, H_target, a, b, nodes):
    """CMCProfile of ``nodes``; ``H_target=None`` takes the kernel's H at the first node."""
    profile = ProfileGrid(a, b, nodes)
    g = _checked_geometry(profile, space)[0]
    if H_target is None:
        H_target = g.H[0]
    return CMCProfile(H_const=float(H_target), profile=profile, residual=_gap(g, H_target),
                      volume=enclosed_volume(profile, space))


def distance_to_cmc(p: ProfileGrid, space) -> CMCDistance:
    """Best constant-curvature fit: the area-weighted mean of H and the
    max-norm deviation from it."""
    g, wz = _checked_geometry(p, space)
    h_best = _hbar(g, wz)
    return CMCDistance(h_best=h_best, deviation=_gap(g, h_best))
