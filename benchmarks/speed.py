"""Machine-speed index: frozen copies of the workloads' dominant kernels.

The benchmark's host is a few cores of a shared machine whose speed drifts
by tens of percent over seconds to minutes.  Each timed execution is
bracketed by two calls of ``index``, and its wall time is divided by their
mean: the result reads as seconds on the reference machine at its usual
speed.

Small interpreter-bound array code and large page-faulting array code do not
slow down together, so each workload is scaled by a copy of the kernel that
dominates it:

* ``step``: the arithmetic of one explicit flow step at m = 61 in the
  euclidean preset (warp, finite differences, curvature, the averaged mean
  curvature and the update); the converge workloads.
* ``quadrature``: ``bounds``' adaptive Simpson from 0 to 201 radii,
  refined to 1024 intervals, of ``cosh(r)^2 * sinh(r)``; the sweep, whose
  ``beta`` calls in the custom space take most of its time.

Neither imports anything from ``revflow``, so a change to the package never
changes the index, only the time it divides.
"""

from __future__ import annotations

import time

import numpy as np

M = 61
RADII = 201
FINAL_INTERVALS = 1024


def _step(steps):
    z = np.linspace(0.0, 1.0, M)
    dz = z[1] - z[0]
    r = 1.0 + 0.1 * np.cos(np.pi * z)
    wz = np.full(M, dz)
    wz[0] = wz[-1] = 0.5 * dz
    inv2dz = 1.0 / (2.0 * dz)
    invdz2 = 1.0 / (dz * dz)
    hbar = 0.0
    for _ in range(steps):
        f, fp, h, hp = np.ones(M), np.zeros(M), r.copy(), np.ones(M)
        rdot = np.empty(M)
        rddot = np.empty(M)
        rdot[1:-1] = (r[2:] - r[:-2]) * inv2dz
        rdot[0] = rdot[-1] = 0.0
        rddot[1:-1] = (r[2:] - 2.0 * r[1:-1] + r[:-2]) * invdz2
        rddot[0] = 2.0 * (r[1] - r[0]) * invdz2
        rddot[-1] = 2.0 * (r[-2] - r[-1]) * invdz2
        rd2 = rdot * rdot
        q = rd2 + f * f
        sq = np.sqrt(q)
        invq = 1.0 / q
        invf = 1.0 / f
        w = sq * h
        volw = float(wz @ w)
        H = ((fp * rd2 - rddot * f) * invq + fp) / sq + f * hp / (h * sq)
        hbar = float(wz @ (H * w)) / volw
        float(np.max(np.abs(H - hbar)))
        float(np.min(q))
        rhs = rddot * invq - (fp * invf) * (1.0 + rd2 * invq) - hp / h + hbar * (sq * invf)
        r_new = r + 1e-9 * rhs
        float(np.min(r_new))
        float(np.max(r_new))
    return hbar


def _integrand(x):
    return np.cosh(x) ** 2.0 * np.sinh(x)


def _quadrature(reps):
    u = np.linspace(0.05, 1.2, RADII)
    total = 0.0
    for _ in range(reps):
        s = np.linspace(0.0, 1.0, 9)
        grid = _integrand(np.outer(u, s))
        intervals = 8
        while intervals < FINAL_INTERVALS:
            mid = 0.5 * (s[:-1] + s[1:])
            mid_vals = _integrand(np.outer(u, mid))
            intervals *= 2
            s_new = np.empty(intervals + 1)
            s_new[::2] = s
            s_new[1::2] = mid
            grid_new = np.empty((u.size, intervals + 1))
            grid_new[:, ::2] = grid
            grid_new[:, 1::2] = mid_vals
            s, grid = s_new, grid_new
            wts = np.full(intervals + 1, 2.0)
            wts[1::2] = 4.0
            wts[0] = wts[-1] = 1.0
            total += float((u * (grid @ wts))[0])
    return total


# name: (kernel, its benchmark size, typical seconds on the reference machine)
KERNELS = {
    "step": (_step, 6000, 0.45),
    "quadrature": (_quadrature, 75, 0.45),
}


def calibrate(kernel="step", size=None):
    """Wall seconds of one run of ``kernel``, at its benchmark size by default."""
    fn, default, _ = KERNELS[kernel]
    t0 = time.perf_counter()
    fn(default if size is None else size)
    return time.perf_counter() - t0


def index(kernel="step"):
    """``calibrate(kernel)`` over its reference time: 2.0 means half speed."""
    return calibrate(kernel) / KERNELS[kernel][2]
