r"""A-priori radii and the small-volume criterion.

From the warp functions define the increasing radial antiderivatives

    beta(r)  = int_0^r f(s) h(s)^(n-1) ds
    delta(r) = int_0^r h(s)^(n-1) ds.

For a revolution graph over an axial slab [a, b] enclosing volume V with
lateral n-volume A, the reference radii are

    r1 = beta^-1( V / ((b-a) sigma) )     radius of the volume-matching cylinder
    r2 = delta^-1( A / sigma + delta(r1) )  a-priori upper bound on max r
    r3 = beta^-1( V / (2 (b-a) sigma) )   half-volume radius, 0 < r3 < r1 < r2

with sigma the volume of the unit (n-1)-sphere.  The small-volume criterion
A <= (V/(b-a)) * delta(r1)/beta(r1) is sufficient for global existence of
the flow and convergence to a constant-mean-curvature limit; for f == 1 the
threshold reduces to V/(b-a), and for n = 2 in constant curvature lam it has
the closed form (2 pi / -lam) (-1 + sqrt(1 - lam V / (pi (b-a)))).  The
integrands take f and h from ``AmbientSpace.eval_fh``; ``_volume_density``
also serves the flow's volume increments and projection.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "BoundsReport",
    "unit_sphere_area",
    "beta",
    "delta",
    "invert_increasing",
    "compute_bounds",
]


def unit_sphere_area(n: int) -> float:
    """Volume of the unit (n-1)-sphere: 2 pi^(n/2) / Gamma(n/2)."""
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


# 8-point Gauss-Legendre rule on [0, 1] (nodes (1 + t)/2, weights w/2 of the
# [-1, 1] rule), correctly rounded from 40-digit values.
_GL8_S = np.array([0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
                   0.4082826787521751, 0.591717321247825, 0.7627662049581645,
                   0.8983332387068134, 0.9801449282487681])
_GL8_W = np.array([0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
                   0.181341891689181, 0.181341891689181, 0.15685332293894363,
                   0.11119051722668724, 0.05061426814518813])
_MAX_PANELS = 2 ** 17  # 2^20 nodes at the finest level
_PANEL_RULES = {}  # panel count P -> (nodes, weights) of the P-panel rule on [0, 1]


def _panel_rule(panels):
    rule = _PANEL_RULES.get(panels)
    if rule is None:
        nodes = ((np.arange(panels)[:, None] + _GL8_S) / panels).ravel()
        rule = _PANEL_RULES[panels] = (nodes, np.tile(_GL8_W / panels, panels))
    return rule


def _integrate_from_zero(g, upper, rel_tol):
    """Integrate g from 0 to each entry of ``upper`` by panel Gauss-Legendre.

    An 8-point rule is applied on P equal panels of a shared normalized grid,
    with P = 1, 2, 4, ... until |G_2P - G_P| <= ``rel_tol`` |G_2P| for every
    integral; the finer sum is returned.  All upper limits are handled in one
    vectorized evaluation per panel count.
    """
    u = np.atleast_1d(np.asarray(upper, dtype=float))
    if np.any(u < 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("upper limits must be finite and >= 0")
    if u.size == 0:
        return u.copy()

    def gauss(panels):
        nodes, weights = _panel_rule(panels)
        return u * (g(np.outer(u, nodes)) @ weights)

    panels = 1
    prev = gauss(panels)
    while panels < _MAX_PANELS:
        panels *= 2
        vals = gauss(panels)
        if np.all(np.abs(vals - prev) <= rel_tol * np.abs(vals)):
            return vals
        prev = vals
    raise RuntimeError("panel Gauss-Legendre failed to reach the requested tolerance")


def _radial_integral(space, g, r, rel_tol):
    if space.r_max_domain < math.inf and np.any(np.asarray(r) > space.r_max_domain):
        raise ValueError(f"radius beyond the ambient domain (r_max={space.r_max_domain:g})")
    out = _integrate_from_zero(g, r, rel_tol)
    return float(out[0]) if np.ndim(r) == 0 else out


def _h_pow(h, n):
    """h^(n-1), without a power call for n = 2."""
    return h if n == 2 else h ** (n - 1)


def _volume_density(space, x):
    """f h^(n-1) at the radii ``x``: the integrand of beta, the radial volume density."""
    f, h = space.eval_fh(x)
    return f * _h_pow(h, space.n)


def beta(space, r, rel_tol: float = 1e-12):
    """beta(r) = int_0^r f h^(n-1), panel Gauss-Legendre to ``rel_tol``."""
    return _radial_integral(space, lambda x: _volume_density(space, x), r, rel_tol)


def delta(space, r, rel_tol: float = 1e-12):
    """delta(r) = int_0^r h^(n-1), panel Gauss-Legendre to ``rel_tol``."""
    return _radial_integral(space, lambda x: _h_pow(space.eval_fh(x)[1], space.n), r, rel_tol)


def invert_increasing(g, y: float, r_max: float = math.inf) -> float:
    """Solve g(x) = y for a strictly increasing g on [0, r_max).

    Bracket expansion by doubling followed by bisection to 1e-14 relative
    width; the result satisfies |g(x) - y| <= 1e-12 * max(1, |y|).  Raises
    ``ValueError`` when y is unreachable within the domain.
    """
    resid_tol = 1e-12 * max(1.0, abs(y))
    g0 = g(0.0)
    if y < g0 - resid_tol:
        raise ValueError(f"target {y!r} below g(0)={g0!r}")
    if y <= g0:
        return 0.0

    cap = math.inf if r_max == math.inf else r_max * (1.0 - 1e-12)
    hi = min(1.0, cap)
    while g(hi) < y:
        if hi >= cap:
            raise ValueError(f"target {y!r} unreachable within the domain (r_max={r_max:g})")
        hi = min(2.0 * hi, cap)

    lo = 0.0
    while hi - lo > 1e-14 * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if g(mid) < y:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)

    resid = abs(g(x) - y)
    if resid > resid_tol:
        raise RuntimeError(f"inversion residual {resid:.3e} exceeds {resid_tol:.3e}")
    return x


def _cylinder_radius(space, length, V):
    """beta^-1(V / (length sigma)): radius of the cylinder of axial length ``length`` holding V."""
    return invert_increasing(lambda x: beta(space, x), V / (length * unit_sphere_area(space.n)),
                             r_max=space.r_max_domain)


@dataclass
class BoundsReport:
    """Reference radii, the small-volume threshold, and sigma."""

    r1: float
    r2: float
    r3: float
    small_volume_threshold: float
    criterion_met: bool
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.r3 < self.r1 < self.r2:
            raise ValueError(
                f"expected 0 < r3 < r1 < r2, got r3={self.r3!r} r1={self.r1!r} r2={self.r2!r}")

    def to_dict(self):
        return asdict(self)


def compute_bounds(space, a: float, b: float, V: float, area_M: float) -> BoundsReport:
    """Compute r1, r2, r3 and the small-volume criterion for one hypersurface."""
    if not b > a:
        raise ValueError("need b > a")
    if not V > 0.0:
        raise ValueError("need V > 0")
    if not area_M > 0.0:
        raise ValueError("need area_M > 0")

    sigma = unit_sphere_area(space.n)
    r1 = _cylinder_radius(space, b - a, V)
    r3 = _cylinder_radius(space, 2.0 * (b - a), V)
    delta_r1 = delta(space, r1)
    r2 = invert_increasing(lambda x: delta(space, x), area_M / sigma + delta_r1,
                           r_max=space.r_max_domain)

    threshold = (V / (b - a)) * delta_r1 / beta(space, r1)
    return BoundsReport(r1=r1, r2=r2, r3=r3,
                        small_volume_threshold=threshold,
                        criterion_met=bool(area_M <= threshold),
                        sigma=sigma)
