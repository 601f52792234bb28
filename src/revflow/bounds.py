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


# the 8 nodes of the P = 1 rule, then the 16 of the P = 2 rule: one evaluation
# of the integrand serves both first levels
_NODES_1_2 = np.concatenate((_GL8_S, _panel_rule(2)[0]))


def _radial_integral(space, g, r, rel_tol):
    """Integrate g from 0 to each radius in ``r`` by panel Gauss-Legendre.

    Every radius must be finite and lie in [0, r_max].  An 8-point rule is
    applied on P equal panels of a shared normalized grid, with P = 1, 2, 4,
    ... until |G_2P - G_P| <= ``rel_tol`` |G_2P| for every integral; the finer
    sum is returned in the shape of ``r``, a float for scalar ``r``.  All
    radii are handled in one vectorized evaluation of g per panel count, and
    P = 1 and P = 2 share one: g runs on their 24 nodes at once, and each
    level reduces its own columns with its own weights, so both sums carry
    the bits of separate evaluations.  When every radius is 0 the integrals
    are 0 and g is not called.
    """
    shape = np.shape(r)
    u = np.asarray(r, dtype=float).ravel()
    if u.size == 0:
        return np.zeros(shape)
    top = u.max()  # NaN propagates through min and max and fails the test
    if not (u.min() >= 0.0 and top <= space.r_max_domain and top < math.inf):
        raise ValueError(f"radii must be finite, >= 0 and within the ambient domain "
                         f"(r_max={space.r_max_domain:g})")
    if top == 0.0:
        return np.zeros(shape) if shape else 0.0

    panels = 2
    first = g(np.outer(u, _NODES_1_2))
    prev = u * (first[:, :8] @ _GL8_W)
    vals = u * (first[:, 8:] @ _panel_rule(2)[1])
    while not (np.abs(vals - prev) <= rel_tol * np.abs(vals)).all():
        if panels >= _MAX_PANELS:
            raise RuntimeError("panel Gauss-Legendre failed to reach the requested tolerance")
        panels *= 2
        nodes, weights = _panel_rule(panels)
        prev, vals = vals, u * (g(np.outer(u, nodes)) @ weights)
    return vals.reshape(shape) if shape else float(vals[0])


def _h_pow(h, n):
    """h^(n-1), without a power call for n = 2."""
    return h if n == 2 else h ** (n - 1)


def _volume_density(space, x):
    """f h^(n-1) at the radii ``x``: the integrand of beta, the radial volume density."""
    f, h = space.eval_fh(x)
    return f * _h_pow(h, space.n)


def _area_density(space, x):
    """h^(n-1) at the radii ``x``: the integrand of delta, the radial area density."""
    return _h_pow(space.eval_fh(x)[1], space.n)


def beta(space, r, rel_tol: float = 1e-12):
    """beta(r) = int_0^r f h^(n-1), panel Gauss-Legendre to ``rel_tol``."""
    return _radial_integral(space, lambda x: _volume_density(space, x), r, rel_tol)


def delta(space, r, rel_tol: float = 1e-12):
    """delta(r) = int_0^r h^(n-1), panel Gauss-Legendre to ``rel_tol``."""
    return _radial_integral(space, lambda x: _area_density(space, x), r, rel_tol)


_MAX_STEPS = 200  # bisection alone needs about 50; a slope 100x too steep, about 110


def invert_increasing(g, y: float, r_max: float = math.inf, dg=None, name: str = "g") -> float:
    """Solve g(x) = y for a strictly increasing g on [0, r_max).

    The bracket [lo, hi] is found by doubling hi from 1; a g(hi) that is not
    finite or not above g(lo) raises ``ValueError``, naming g as ``name``.
    The iteration starts from whichever end has the smaller residual, but
    never from lo = 0, where a density dg vanishes.  With the derivative
    ``dg`` each step is then a Newton step from the last iterate, kept only
    when it lands inside (lo, hi) and is at most half the step before last;
    otherwise, and always when ``dg`` is None, the step bisects the bracket
    (``rtsafe``, Numerical Recipes section 9.4).  The loop stops on
    g(x) = y, or at an x with |g(x) - y| <= 1e-12 max(1, |y|) whose next
    step would move it by at most 1e-14 max(1, x); that step is not taken,
    so no g call only confirms it.  The result satisfies the residual bound,
    or ``RuntimeError`` is raised (at the latest after ``_MAX_STEPS`` steps).
    Raises ``ValueError`` when y is not finite, below g(0) or unreachable
    within the domain.
    """
    if not math.isfinite(y):
        raise ValueError(f"target {y!r} is not finite")
    resid_tol = 1e-12 * max(1.0, abs(y))
    g0 = g(0.0)
    if y < g0 - resid_tol:
        raise ValueError(f"target {y!r} below g(0)={g0!r}")
    if y <= g0:
        return 0.0

    cap = math.inf if r_max == math.inf else r_max * (1.0 - 1e-12)
    lo, g_lo, x = 0.0, g0, min(1.0, cap)
    while True:
        gx = g(x)
        if not (math.isfinite(gx) and gx > g_lo):  # NaN fails too
            raise ValueError(f"{name} is not finite and increasing: {gx!r} at r={x!r} "
                             f"after {g_lo!r} at r={lo!r}")
        if gx >= y:
            break
        if x >= cap:
            raise ValueError(f"target {y!r} unreachable within the domain (r_max={r_max:g})")
        lo, g_lo, x = x, gx, min(2.0 * x, cap)

    hi = x
    if lo > 0.0 and y - g_lo < gx - y:  # from lo = 0 the density is 0
        x, gx = lo, g_lo
    step = prev = hi - lo
    for _ in range(_MAX_STEPS):
        resid = gx - y
        if resid == 0.0:
            break
        if resid < 0.0:
            lo = x
        else:
            hi = x
        slope = 0.0 if dg is None else float(dg(x))
        # Newton when x - resid/slope lies in (lo, hi) and is at most half the
        # step before last; otherwise bisect
        if (x - lo) * slope > resid > (x - hi) * slope and 2.0 * abs(resid) <= abs(prev * slope):
            prev, step = step, resid / slope
        else:
            prev, step = step, x - 0.5 * (lo + hi)
        if abs(step) <= 1e-14 * max(1.0, x) and abs(resid) <= resid_tol:
            break  # x is within the step it would take: no confirming g
        if x - step != x:  # else g(x) is known: the step was under half an ulp of x
            x -= step
            gx = g(x)

    resid = abs(gx - y)
    if resid > resid_tol:
        raise RuntimeError(f"inversion residual {resid:.3e} exceeds {resid_tol:.3e}")
    return x


# the integrals as invert_increasing names them in its errors
_BETA = "beta = int_0^r f h^(n-1) (panel Gauss-Legendre)"
_DELTA = "delta = int_0^r h^(n-1) (panel Gauss-Legendre)"


def _cylinder_radius(space, length, V):
    """(x, beta(x)) for x = beta^-1(V / (length sigma)), the radius of the
    cylinder of axial length ``length`` holding V."""
    betas = {}  # beta at every x the inversion tries, its result among them

    def g(x):
        betas[x] = beta(space, x)
        return betas[x]

    x = invert_increasing(g, V / (length * unit_sphere_area(space.n)),
                          r_max=space.r_max_domain, dg=lambda x: _volume_density(space, x),
                          name=_BETA)
    return x, betas[x]


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
    r1, beta_r1 = _cylinder_radius(space, b - a, V)
    r3 = _cylinder_radius(space, 2.0 * (b - a), V)[0]
    delta_r1 = delta(space, r1)
    r2 = invert_increasing(lambda x: delta(space, x), area_M / sigma + delta_r1,
                           r_max=space.r_max_domain, dg=lambda x: _area_density(space, x),
                           name=_DELTA)

    threshold = (V / (b - a)) * delta_r1 / beta_r1
    return BoundsReport(r1=r1, r2=r2, r3=r3,
                        small_volume_threshold=threshold,
                        criterion_met=bool(area_M <= threshold),
                        sigma=sigma)
