"""Reference states: initial profiles and the rolling-curve benchmark.

The benchmark curve is the path traced in the upper half plane by

    x(s) = 2 s - sin(s/2) + 2 pi,      y(s) = 2 - cos(s/2),

pulled back to warped coordinates by z = sqrt(x^2 + y^2), r = atan2(x, y).
Between two consecutive turning points of r the curve is a graph r(z)
whose radial derivative vanishes at both ends, so the integrated form of
the averaged mean curvature applies with no boundary contribution from
the profile angle.  The same (z, r) data is read in two ambients: the
cone-type one (f = z, h = sin r) where every quantity stays order one,
and the exponential one (f = e^z, h = r) where the area element spans
many orders of magnitude and the averaged curvature is a stiff test of
the two quadrature routes.
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import AmbientSpace, make_space
from .curve import GraphProfile, ParamCurve
from .geometry import (area, averaged_H_by_parts, averaged_H_direct,
                       unit_sphere_volume)

TWO_PI = 2.0 * math.pi

# Scan window containing one full graph arch of the rolling curve.
SCAN_LO = 3.0
SCAN_HI = 14.0

BENCHMARK_CASES = ("C2", "C5")
# fewest samples of a graded grid, and so of the benchmark curve
_MIN_SAMPLES = 16


def cycloid_xy(s):
    """Planar point of the rolling curve."""
    s = np.asarray(s, dtype=float)
    return 2.0 * s - np.sin(s / 2.0) + TWO_PI, 2.0 - np.cos(s / 2.0)


def cycloid_state(s):
    """(z, r, dz, dr, ddz, ddr) with exact closed-form derivatives."""
    s = np.asarray(s, dtype=float)
    x, y = cycloid_xy(s)
    dx = 2.0 - np.cos(s / 2.0) / 2.0
    dy = np.sin(s / 2.0) / 2.0
    ddx = np.sin(s / 2.0) / 4.0
    ddy = np.cos(s / 2.0) / 4.0
    z = np.hypot(x, y)
    r = np.arctan2(x, y)
    dz = (x * dx + y * dy) / z
    dr = (dx * y - x * dy) / z**2
    ddz = (dx**2 + x * ddx + dy**2 + y * ddy - dz**2) / z
    ddr = (ddx * y - x * ddy) / z**2 - 2.0 * dr * dz / z
    return z, r, dz, dr, ddz, ddr


def cycloid_rdot(s):
    """Radial derivative dr/ds; its zeros are the turning points."""
    x, y = cycloid_xy(s)
    dx = 2.0 - np.cos(np.asarray(s, dtype=float) / 2.0) / 2.0
    dy = np.sin(np.asarray(s, dtype=float) / 2.0) / 2.0
    return (dx * y - x * dy) / (x * x + y * y)


def find_turning_points(lo: float = SCAN_LO, hi: float = SCAN_HI,
                        rdot=None, n_scan: int = 4096) -> list[float]:
    """Zeros of the radial derivative in [lo, hi].

    Scans a uniform grid for sign changes and polishes each with a
    bracketed root solve.  Raises when no sign change is found, which is
    what a constant-radius curve produces.
    """
    from scipy.optimize import brentq   # off the path of a run

    if rdot is None:
        rdot = cycloid_rdot
    grid = np.linspace(lo, hi, n_scan + 1)
    vals = np.asarray(rdot(grid), dtype=float)
    roots: list[float] = []
    for i in range(n_scan):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(rdot, grid[i], grid[i + 1],
                                xtol=1e-14, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise ValueError("no sign change of the radial derivative in the window")
    return roots


def graded_parameters(lo: float, hi: float, samples: int,
                      n_layer: int = 300, xi_min: float = 1e-13,
                      xi_break: float = 5e-3) -> np.ndarray:
    """Parameter grid refined geometrically toward both endpoints.

    Near a turning point the profile angle switches over a parameter
    window that can be many orders of magnitude below the uniform
    spacing; the geometric layers resolve it so endpoint-sensitive
    integrands stay quadrature-friendly.  Spacing stays strictly
    increasing (the first offset is far above one ulp of the endpoints).
    """
    if samples < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples")
    n_layer = min(n_layer, samples // 8)
    span = hi - lo
    layer = np.geomspace(xi_min, xi_break, n_layer) * span
    bulk = np.linspace(lo + xi_break * span, hi - xi_break * span,
                       samples - 2 * n_layer)[1:-1]
    s = np.concatenate(([lo], lo + layer, bulk, hi - layer[::-1], [hi]))
    if not np.all(np.diff(s) > 0.0):
        raise AssertionError("graded grid is not strictly increasing")
    return s


def build_cycloid_curve(s_lo: float, s_hi: float, samples: int,
                        graded: bool = True) -> ParamCurve:
    """Sampled rolling curve with exact stored derivatives."""
    if graded:
        s = graded_parameters(s_lo, s_hi, samples)
    else:
        s = np.linspace(s_lo, s_hi, samples)
    z, r, dz, dr, ddz, ddr = cycloid_state(s)
    return ParamCurve(s=s, z=z, r=r, dz=dz, dr=dr, d2z=ddz, d2r=ddr)


def benchmark_space(case: str) -> AmbientSpace:
    if case == "C2":
        return make_space("C2", n=2)
    if case == "C5":
        return make_space("C5", lam=-1.0, n=2)
    raise ValueError(f"benchmark supports cases {BENCHMARK_CASES}, got {case!r}")


def cycloid_report(case: str = "C2", samples: int = 10000) -> dict:
    """Averaged-curvature benchmark for one ambient reading of the curve.

    Returns turning points, the area over the unit-sphere volume factor,
    the averaged mean curvature by the direct and the integrated-by-parts
    route, their relative difference, and the scale-free product
    avg_H * area / sphere_volume.
    """
    space = benchmark_space(case)
    roots = find_turning_points()
    if len(roots) < 2:
        raise ValueError("expected at least two turning points")
    s_lo, s_hi = roots[0], roots[-1]
    curve = build_cycloid_curve(s_lo, s_hi, samples)
    omega = unit_sphere_volume(space.n)
    area_val = area(space, curve, rule="simpson")
    direct = averaged_H_direct(space, curve, rule="simpson")
    parts = averaged_H_by_parts(space, curve, rule="simpson")
    return {
        "case": case,
        "n": space.n,
        "lam": space.lam,
        "samples": int(samples),
        "s_turn": [float(s_lo), float(s_hi)],
        "area_over_sphere": float(area_val / omega),
        "avg_H_direct": float(direct),
        "avg_H_by_parts": float(parts),
        "cross_rel_diff": float(abs(direct - parts) / max(abs(parts), 1e-300)),
        "normalized_avg": float(parts * area_val / omega),
    }


def lambda_sweep(lams=(-2.0, -1.5, -1.0, -0.75, -0.5),
                 samples: int = 4000) -> list[dict]:
    """Benchmark sensitivity to the curvature scale in the exponential
    family: the same curve read with f = e^(sqrt(-lam) z)."""
    roots = find_turning_points()
    s_lo, s_hi = roots[0], roots[-1]
    curve = build_cycloid_curve(s_lo, s_hi, samples)
    out = []
    for lam in lams:
        space = make_space("C5", lam=float(lam), n=2)
        omega = unit_sphere_volume(space.n)
        area_val = area(space, curve, rule="simpson")
        parts = averaged_H_by_parts(space, curve, rule="simpson")
        out.append({
            "lam": float(lam),
            "area_over_sphere": float(area_val / omega),
            "avg_H_by_parts": float(parts),
            "normalized_avg": float(parts * area_val / omega),
        })
    return out


def make_initial(space: AmbientSpace, slab: tuple[float, float], N: int,
                 kind: str = "cylinder", radius: float | None = None,
                 amplitude: float = 0.0, mode: int = 1,
                 radii=None) -> GraphProfile:
    """Initial graph profile over the slab.

    ``cylinder`` is the constant graph at ``radius``; ``perturbed`` adds
    amplitude * cos(mode * pi * (z - a)/(b - a)), which keeps the Neumann
    walls exact; ``custom`` takes the N+1 radii directly.
    """
    a, b = slab
    space.check_z([a, b])
    z = np.linspace(a, b, N + 1)
    if kind == "cylinder":
        if radius is None or radius <= 0.0:
            raise ValueError("cylinder initial data needs a positive radius")
        r = np.full(N + 1, float(radius))
    elif kind == "perturbed":
        if radius is None or radius <= 0.0:
            raise ValueError("perturbed initial data needs a positive radius")
        if not 0.0 <= amplitude < radius:
            raise ValueError("amplitude must lie in [0, radius)")
        if mode < 1:
            raise ValueError("mode must be a positive integer")
        r = radius + amplitude * np.cos(mode * math.pi * (z - a) / (b - a))
    elif kind == "custom":
        r = np.asarray(radii, dtype=float)
        if r.shape != (N + 1,):
            raise ValueError(f"custom radii must have length {N + 1}")
    else:
        raise ValueError(f"unknown initial kind {kind!r}")
    space.check_r(r)
    return GraphProfile(a=a, b=b, r=r)
