r"""Rotationally symmetric ambient spaces around an axis.

A space is the product of an axial interval with an n-ball, carrying the
warped metric

    g = dr^2 + f(r)^2 dz^2 + h(r)^2 g_S,

where ``g_S`` is the round metric on the unit (n-1)-sphere.  A smooth metric
of this form forces the limits f(0)=1, f'(0)=0, h(0)=0, h'(0)=1.  The three
constant-curvature model spaces are built-in presets:

    euclidean            f = 1,                h = r
    hyperbolic (lam < 0) f = cosh(s r),        h = sinh(s r)/s,   s = sqrt(-lam)
    spherical  (lam > 0) f = cos(s r),         h = sin(s r)/s,    s = sqrt(lam)
                         (open half sphere, ball radius pi/(2 s))

The two curved presets are one family, f = C(s r), h = S(s r)/s with
s = sqrt(|lam|) and (C, S) = (cosh, sinh) or (cos, sin), so that
f' = h'' = k S(s r), f'' = k s C(s r) and h' = C(s r) with k = s or -s.

The four sectional curvatures of the warped metric in the frame adapted to
(r, z, sphere directions) are

    S_rz = -f''/f       S_ri = -h''/h
    S_zi = -h' f'/(h f) S_ij = (1 - h'^2)/h^2.

``validate_space`` checks the smoothness limits at the axis, positivity of
the warp functions, and classifies the sign conditions S_zi < 0, S_ri <= 0
used by the flow theory (branch "a"; a flat space, where all four vanish,
is branch "b").
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .expressions import ExpressionError, compile_expression

__all__ = [
    "AmbientSpace",
    "SectionalCurvatures",
    "ValidationReport",
    "make_preset",
    "custom_space",
    "space_from_expressions",
    "sectional_curvatures",
    "validate_space",
]


@dataclass(frozen=True)
class AmbientSpace:
    """Immutable description of a rotationally symmetric ambient space.

    ``warp(r)`` returns the six arrays ``(f, f', f'', h, h', h'')`` at the
    radii ``r``; derivatives must be analytic (no internal differencing).
    ``r_max_domain`` is the ball radius (``inf`` for complete spaces).
    """

    n: int
    warp: Callable = field(repr=False)
    r_max_domain: float = math.inf
    preset: str = "custom"
    fh: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"hypersurface dimension n must be an integer >= 2, got {self.n}")
        if not self.r_max_domain > 0:
            raise ValueError("r_max_domain must be positive")

    def eval_fh(self, r):
        """(f, h) only, cheaper than ``warp``: the volume density, beta and delta."""
        if self.fh is not None:
            return self.fh(r)
        w = self.warp(r)
        return w[0], w[3]


@dataclass(frozen=True)
class SectionalCurvatures:
    """Sectional curvatures of the warped metric at one radius."""

    S_rz: float
    S_ri: float
    S_zi: float
    S_ij: float


@dataclass
class ValidationReport:
    """Outcome of the axis-limit, positivity, and sign-condition checks."""

    rss_ok: bool
    rss2_branch: Optional[str]  # None, "a" or "b"
    violations: list
    r_probe_max: float
    samples: int

    def to_dict(self):
        return asdict(self)


# curved preset -> (sign of lam, C, S): f = C(s r), h = S(s r)/s, s = sqrt(|lam|)
_CURVED = {"hyperbolic": (-1.0, np.cosh, np.sinh), "spherical": (1.0, np.cos, np.sin)}


def make_preset(tag: str, lam: Optional[float] = None, n: int = 2) -> AmbientSpace:
    """Build one of the constant-curvature model spaces.

    ``lam`` is the sectional curvature: required negative for "hyperbolic",
    required positive for "spherical", and must be omitted or zero for
    "euclidean".  Raises ``ValueError`` on a sign mismatch.
    """
    key = tag.strip().lower()
    if key == "euclidean":
        if lam not in (None, 0, 0.0):
            raise ValueError("euclidean preset takes no curvature (got lam=%r)" % (lam,))

        def warp(r):
            r = np.asarray(r, dtype=float)
            one = np.ones(r.shape)  # faster than ones_like, same values
            zero = np.zeros(r.shape)
            return one, zero, zero, r, one, zero

        def fh(r):
            r = np.asarray(r, dtype=float)
            return np.ones(r.shape), r

        return AmbientSpace(n=n, warp=warp, r_max_domain=math.inf,
                            preset="euclidean", fh=fh)

    if key in _CURVED:
        sign, C, S = _CURVED[key]
        if lam is None or not sign * lam > 0:
            raise ValueError(f"{key} preset needs lam {'>' if sign > 0 else '<'} 0, got {lam!r}")
        s = math.sqrt(sign * lam)
        k = -sign * s  # f' = k S(s r)
        k2 = k * s     # f'' = k2 C(s r)

        def cs(r):
            sr = s * np.asarray(r, dtype=float)
            return C(sr), S(sr)

        def warp(r):
            c, si = cs(r)
            return c, k * si, k2 * c, si / s, c, k * si

        def fh(r):
            c, si = cs(r)
            return c, si / s

        r_max = math.pi / (2.0 * s) if sign > 0 else math.inf
        return AmbientSpace(n=n, warp=warp, r_max_domain=r_max, preset=key, fh=fh)

    raise ValueError(f"unknown preset tag {tag!r}")


def custom_space(n, f, df, d2f, h, dh, d2h, r_max: float = math.inf) -> AmbientSpace:
    """Assemble a custom space from six analytic warp callables."""

    def warp(r):
        r = np.asarray(r, dtype=float)
        return (np.asarray(f(r), dtype=float), np.asarray(df(r), dtype=float),
                np.asarray(d2f(r), dtype=float), np.asarray(h(r), dtype=float),
                np.asarray(dh(r), dtype=float), np.asarray(d2h(r), dtype=float))

    def fh(r):
        r = np.asarray(r, dtype=float)
        return np.asarray(f(r), dtype=float), np.asarray(h(r), dtype=float)

    return AmbientSpace(n=n, warp=warp, r_max_domain=r_max, preset="custom", fh=fh)


def space_from_expressions(n, f, df, d2f, h, dh, d2h, r_max: float = math.inf) -> AmbientSpace:
    """Assemble a custom space from six expression strings in the variable r.

    A malformed expression raises ``ExpressionError`` naming its argument.
    """
    fns = []
    for name, src in zip(("f", "df", "d2f", "h", "dh", "d2h"), (f, df, d2f, h, dh, d2h)):
        try:
            fns.append(compile_expression(src, var="r"))
        except ExpressionError as exc:
            raise ExpressionError(f"{name}: {exc}") from None
    return custom_space(n, *fns, r_max=r_max)


def sectional_curvatures(space: AmbientSpace, r) -> SectionalCurvatures:
    """Evaluate the four sectional curvatures at radius ``r`` (scalar or array).

    Requires 0 < r < ``space.r_max_domain``.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= space.r_max_domain):
        raise ValueError(f"radius must lie in (0, {space.r_max_domain}), got {r!r}")
    return _curvatures(space.warp(arr))


def _curvatures(w) -> SectionalCurvatures:
    """The four sectional curvatures from the warp tuple ``(f, f', f'', h, h', h'')``."""
    f, fp, fpp, h, hp, hpp = w
    return SectionalCurvatures(
        S_rz=-fpp / f,
        S_ri=-hpp / h,
        S_zi=-hp * fp / (h * f),
        S_ij=(1.0 - hp * hp) / (h * h),
    )


_AXIS_TOL = 1e-10


def validate_space(space: AmbientSpace, r_probe_max: float,
                   samples: int = 129) -> ValidationReport:
    """Check the axis limits and sign conditions on (0, r_probe_max].

    The limits f(0)=1, f'(0)=0, h(0)=0, h'(0)=1 are evaluated by Richardson
    extrapolation from r = 1e-6 * r_probe_max (the warp functions need not be
    defined at r=0 exactly, and h'/h diverges there).  Positivity of f and h
    is sampled on a grid of ``samples`` points.  The report never raises:
    failures are returned in ``violations``.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if not 0 < r_probe_max <= space.r_max_domain:
        raise ValueError("r_probe_max must lie in (0, r_max_domain]")

    eps = 1e-6 * r_probe_max
    violations = []

    # first-order Richardson: 2 g(eps/2) - g(eps) = g(0) + O(eps^2)
    near, far = space.warp(0.5 * eps), space.warp(eps)
    for label, idx, expected in (("f(0)", 0, 1.0), ("f'(0)", 1, 0.0),
                                 ("h(0)", 3, 0.0), ("h'(0)", 4, 1.0)):
        got = 2.0 * float(near[idx]) - float(far[idx])
        if not math.isfinite(got) or abs(got - expected) > _AXIS_TOL:
            violations.append(f"{label}={got:.6g} (expected {expected:g})")

    grid = np.linspace(r_probe_max / samples, r_probe_max, samples)
    if space.r_max_domain < math.inf:
        grid = grid[grid < space.r_max_domain]
    w = space.warp(grid)
    f, h = w[0], w[3]
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        violations.append(f"f not positive on (0, {r_probe_max:g}]")
    if np.any(h <= 0.0) or not np.all(np.isfinite(h)):
        violations.append(f"h not positive on (0, {r_probe_max:g}]")

    rss_ok = not violations

    branch = None
    if rss_ok:
        sc = _curvatures(w)
        if all(np.all(s == 0.0) for s in (sc.S_rz, sc.S_ri, sc.S_zi, sc.S_ij)):
            branch = "b"  # flat: with the axis limits, f = 1 and h = r
        elif np.all(sc.S_zi < 0.0) and np.all(sc.S_ri <= 0.0):
            branch = "a"

    return ValidationReport(rss_ok=rss_ok, rss2_branch=branch, violations=violations,
                            r_probe_max=float(r_probe_max), samples=int(samples))
