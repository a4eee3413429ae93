"""Extrinsic geometry of the revolution hypersurface.

All quantities refer to the hypersurface obtained by rotating a generating
curve (z(s), r(s)) in the warped ambient space.  With c' = (z', r') and
speed |c'| = sqrt(z'^2 + (f r')^2), the two distinct normal curvatures are

    k1 = -(1/|c'|) [ (r'' f z' - z'' f r' + r' f' z'^2)/|c'|^2 + f' r' ]
    k2 =  (1/|c'|) [ h' z'/(h f) - f' r' ]

(k1 along the profile, k2 along the n-1 orbit directions), the mean
curvature is H = k1 + (n-1) k2, and the area element against ds is
|c'| f^(n-1) h^(n-1) times the unit-sphere volume.  The orientation is
fixed so that the normal points away from the axis when the curve is
traversed with increasing z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientSpace, radial_measure
from .curve import (GraphProfile, ParamCurve, diff, diff_radii, quad_weights,
                    quadrature)


def unit_sphere_volume(n: int) -> float:
    """Volume of the unit sphere S^(n-1), i.e. 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _curve_arrays(curve):
    """Return (s, z, r, dz, dr, d2z, d2r) for either curve representation."""
    if isinstance(curve, GraphProfile):
        z = curve.z
        rdot, rddot = diff(curve)
        one = np.ones_like(z)
        return z, z, curve.r, one, rdot, np.zeros_like(z), rddot
    if isinstance(curve, ParamCurve):
        return (curve.s, curve.z, curve.r, curve.dz, curve.dr, curve.d2z,
                curve.d2r)
    raise TypeError(f"expected GraphProfile or ParamCurve, got {type(curve)!r}")


@dataclass(frozen=True)
class _CurveEval:
    """One evaluation of a curve in its ambient along the parametric
    route: the curve arrays of :func:`_curve_arrays`, f, f', h, h' on
    them and the speed |c'| = hypot(z', f r')."""

    s: np.ndarray
    z: np.ndarray
    r: np.ndarray
    dz: np.ndarray
    dr: np.ndarray
    d2z: np.ndarray
    d2r: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    speed: np.ndarray


def _evaluate(space: AmbientSpace, curve) -> _CurveEval:
    """Check the curve against the ambient's domain and evaluate the
    warping functions on it, once for every quantity a caller derives."""
    s, z, r, dz, dr, d2z, d2r = _curve_arrays(curve)
    space.check_z(z)
    space.check_r(r)
    f, fp, _ = space.f(z)
    h, hp, _ = space.h(r)
    return _CurveEval(s=s, z=z, r=r, dz=dz, dr=dr, d2z=d2z, d2r=d2r, f=f,
                      fp=fp, h=h, hp=hp, speed=np.hypot(dz, f * dr))


def _curvatures(e: _CurveEval) -> tuple[np.ndarray, np.ndarray]:
    if np.any(e.speed == 0.0):
        raise ValueError("curve is not regular: zero speed sample")
    f, fp, dz, dr, speed = e.f, e.fp, e.dz, e.dr, e.speed
    k1 = -((e.d2r * f * dz - e.d2z * f * dr + dr * fp * dz**2) / speed**2
           + fp * dr) / speed
    k2 = (e.hp * dz / (e.h * f) - fp * dr) / speed
    return k1, k2


def _area_element(e: _CurveEval, n: int) -> np.ndarray:
    """The area element against ds without the unit-sphere factor."""
    return e.speed * e.f ** (n - 1) * e.h ** (n - 1)


def principal_curvatures(space: AmbientSpace, curve) -> tuple[np.ndarray, np.ndarray]:
    """Normal curvatures (k1, k2) at every sample of the curve."""
    return _curvatures(_evaluate(space, curve))


def mean_curvature(k1: np.ndarray, k2: np.ndarray, n: int) -> np.ndarray:
    """H = k1 + (n-1) k2, pointwise."""
    return k1 + (n - 1) * k2


def weingarten_norm(k1: np.ndarray, k2: np.ndarray, n: int) -> np.ndarray:
    """Pointwise norm sqrt(k1^2 + (n-1) k2^2) of the shape operator."""
    return np.sqrt(k1 * k1 + (n - 1) * k2 * k2)


class GraphGrid:
    """Constants of a uniform z grid: nodes, warping values on them and
    the f'/f and f^(n-1) of the state terms, trapezoid weights, the
    volume weights w f^n (the enclosed volume is ``omega * vol_w @
    radial_measure(r)``) and the unit-sphere volume.

    ``unit_f`` and ``linear_h`` are read from the space: where f = 1
    (and f' = 0) the state terms skip every factor f and every term in
    f', and where h(r) = r they take h = r and h' = ``one`` without
    evaluating h or multiplying by h'.  ``measured`` and ``measure``
    hold the last radius array the flow measured the volume of and that
    measure, so that a state measured as a trial is not measured again
    when it is accepted.

    Building one is where a graph state enters the flow and the graph
    kernel, so it checks the profile's radii against the ambient's open
    band (:meth:`AmbientSpace.check_r`); radii derived on the grid
    later are tested with :meth:`AmbientSpace.admits` by whoever makes
    them."""

    def __init__(self, space: AmbientSpace, profile: GraphProfile):
        space.check_r(profile.r)
        self.space = space
        self.z = profile.z
        self.dz = profile.dz
        self.a = profile.a
        self.b = profile.b
        self.f, self.fp, _ = space.f(self.z)
        self.fp_over_f = self.fp / self.f
        self.f_pow = self.f ** (space.n - 1)
        self.unit_f = space.unit_f
        self.linear_h = space.linear_h
        self.one = np.ones(len(self.z))
        self.w = quad_weights(len(self.z), self.dz)
        self.vol_w = self.w * self.f ** space.n
        self.omega = unit_sphere_volume(space.n)
        self.measured: np.ndarray | None = None
        self.measure = 0.0


@dataclass(slots=True)
class GraphTerms:
    """Per-node terms of a graph state r(z) on a uniform grid.

    ``speed2`` and ``speed`` are |c'|^2 = 1 + (f r')^2 and |c'|;
    ``diffusion`` is r''/|c'|^2, the part of the flow that a step treats
    implicitly; ``gdens`` is f^(n-1) h^(n-1) and ``elem = speed * gdens``
    the area element against dz without the unit-sphere factor.
    ``local`` is the flow's right-hand side without its nonlocal term,
    which equals -H |c'|/f.
    """

    grid: GraphGrid
    rdot: np.ndarray
    rddot: np.ndarray
    speed2: np.ndarray
    speed: np.ndarray
    diffusion: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    gdens: np.ndarray
    elem: np.ndarray
    local: np.ndarray

    def curvatures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k1, k2, H) at every node."""
        # h' = 1 where h(r) = r, as in graph_terms
        hp = 1.0 if self.grid.linear_h else self.hp
        if self.grid.unit_f:
            # the general form with f = 1 and f' = 0, as in graph_terms
            k1 = -self.diffusion / self.speed
            k2 = hp / self.h / self.speed
        else:
            f = self.grid.f
            slope = self.grid.fp * self.rdot
            k1 = -(self.rddot * f / self.speed2
                   + slope * (1.0 / self.speed2 + 1.0)) / self.speed
            k2 = (hp / (self.h * f) - slope) / self.speed
        return k1, k2, mean_curvature(k1, k2, self.grid.space.n)


def graph_terms(grid: GraphGrid, r: np.ndarray) -> GraphTerms:
    """The terms of the radii ``r`` on the grid.

    Where f = 1 every factor f and 1/f is dropped and every term in f'
    (a signed zero) is left out.  As x * 1 = x and x + 0 = x, this
    gives the general form's bits; it can only flip the sign of a zero
    k1, which no recorded value reads."""
    f, n = grid.f, grid.space.n
    rdot, rddot = diff_radii(r, grid.dz)
    h, hp = (r, grid.one) if grid.linear_h else grid.space.h_slope(r)
    speed2 = 1.0 + (rdot if grid.unit_f else f * rdot) ** 2
    speed = np.sqrt(speed2)
    diffusion = rddot / speed2
    # h' = 1 where h(r) = r, and h^(n-1) = h at n = 2: neither is formed
    orbit = (n - 1) if grid.linear_h else (n - 1) * hp
    h_pow = h if n == 2 else h ** (n - 1)
    if grid.unit_f:
        local = diffusion - orbit / h
        gdens = h_pow
    else:
        local = (diffusion + grid.fp_over_f * (1.0 / speed2 + n) * rdot
                 - orbit / (h * f * f))
        gdens = grid.f_pow * h_pow
    return GraphTerms(grid=grid, rdot=rdot, rddot=rddot, speed2=speed2,
                      speed=speed, diffusion=diffusion, h=h, hp=hp,
                      gdens=gdens, elem=speed * gdens, local=local)


def area(space: AmbientSpace, curve, rule: str = "trapezoid") -> float:
    """Hypersurface area by quadrature of the rotational area element."""
    e = _evaluate(space, curve)
    return unit_sphere_volume(space.n) * quadrature(
        _area_element(e, space.n), x=e.s, rule=rule)


def _volume(space: AmbientSpace, z, f, r, rule: str) -> float:
    """Enclosed volume of a graph from f on its nodes and admitted radii."""
    vals = f ** space.n * radial_measure(space, r)
    return unit_sphere_volume(space.n) * quadrature(vals, x=z, rule=rule)


def enclosed_volume(space: AmbientSpace, profile: GraphProfile,
                    rule: str = "trapezoid") -> float:
    """Volume enclosed between the hypersurface and the axis r = 0."""
    space.check_r(profile.r)
    return _volume(space, profile.z, space.f(profile.z)[0], profile.r, rule)


def averaged_H_direct(space: AmbientSpace, curve, rule: str = "trapezoid") -> float:
    """Area-weighted average of H, by direct quadrature of H d(area)."""
    e = _evaluate(space, curve)
    k1, k2 = _curvatures(e)
    H = mean_curvature(k1, k2, space.n)
    s, elem = e.s, _area_element(e, space.n)
    denom = quadrature(elem, x=s, rule=rule)
    if denom <= 0.0 or not np.isfinite(denom):
        raise ValueError(f"degenerate area {denom}")
    return quadrature(H * elem, x=s, rule=rule) / denom


def averaged_H_by_parts(space: AmbientSpace, curve: ParamCurve,
                        rule: str = "trapezoid", endpoint_tol: float = 1e-8) -> float:
    """Average of H via the integrated-by-parts split of the k1 integral.

    The k1 part of the H integral is an exact derivative of the tangent
    angle arctan(f r'/z') against (f h)^(n-1); integrating by parts moves
    the derivative off the angle, leaving a bounded integrand even where
    the curve has vertical tangents.  Requires r' = 0 at both endpoints.
    The angle is accumulated continuously along the curve (atan2 plus
    unwrapping), so full windings contribute through the boundary term.
    """
    e = _evaluate(space, curve)
    s, dz, dr, f, fp, h, hp = e.s, e.dz, e.dr, e.f, e.fp, e.h, e.hp
    n = space.n
    dr_scale = float(np.max(np.abs(dr)))
    if dr_scale > 0.0 and max(abs(dr[0]), abs(dr[-1])) > endpoint_tol * dr_scale:
        raise ValueError("endpoint r' must vanish for the by-parts formula")

    theta = np.unwrap(np.arctan2(f * dr, dz))
    fh_pow = (f * h) ** (n - 1)
    boundary = fh_pow[0] * theta[0] - fh_pow[-1] * theta[-1]
    i1 = boundary + quadrature(
        (n - 1) * (f * h) ** (n - 2) * (f * hp * dr + h * fp * dz) * theta,
        x=s, rule=rule)
    i2 = quadrature(((n - 1) * hp * dz / (h * f) - n * fp * dr) * f ** (n - 1) * h ** (n - 1),
                    x=s, rule=rule)
    denom = quadrature(e.speed * fh_pow, x=s, rule=rule)
    return (i1 + i2) / denom


@dataclass(frozen=True)
class GeometrySummary:
    """Per-node curvature data plus the scalar functionals of one state.

    The graph quantity v = speed/f satisfies v >= 1/f always, with
    equality exactly at critical points of r, and finite v is the graph
    condition; ``v_max`` is its largest value.  ``dissipation`` is the
    area-decay integral of (avg_H - H)^2 over the hypersurface, and
    ``r_max`` the largest radius.
    """

    k1: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    v: np.ndarray
    v_max: float
    area: float
    volume: float
    avg_H: float
    dissipation: float
    r_max: float


def summarize(space: AmbientSpace, profile: GraphProfile,
              rule: str = "trapezoid") -> GeometrySummary:
    """All geometric diagnostics of a graph state from one evaluation of
    the warping functions on it."""
    e = _evaluate(space, profile)
    n = space.n
    k1, k2 = _curvatures(e)
    H = mean_curvature(k1, k2, n)
    elem = _area_element(e, n)
    omega = unit_sphere_volume(n)
    denom = quadrature(elem, x=e.s, rule=rule)
    avg_H = quadrature(H * elem, x=e.s, rule=rule) / denom
    v = e.speed / e.f
    return GeometrySummary(
        k1=k1, k2=k2, H=H, v=v, v_max=float(v.max()), area=omega * denom,
        volume=_volume(space, e.z, e.f, e.r, rule),
        avg_H=avg_H,
        dissipation=omega * quadrature((avg_H - H) ** 2 * elem, x=e.s,
                                       rule=rule),
        r_max=float(np.max(e.r)),
    )
