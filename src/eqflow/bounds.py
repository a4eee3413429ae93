"""A-priori constants and runtime monitors for the volume-preserving flow.

Every quantitative estimate available for the flow is turned into a
number that can be checked against the evolving state:

* radius localization: the profile must cross the volume-equivalent
  radius, and an area budget caps how far above it the profile can reach;
* a bound on |averaged H| in terms of sup norms of the warping functions;
* an exponential-weight bound on the graph slope v;
* an area threshold sufficient for long-time existence;
* boundary derivative identities satisfied by flow states at the slab
  walls, evaluated as residuals with one-sided stencils.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ambient import (AmbientSpace, Rect, SupNorms, axial_measure,
                      radial_measure, radial_measure_inverse, sup_norms)
from .curve import GraphProfile
from .geometry import (GeometrySummary, mean_curvature, principal_curvatures,
                       unit_sphere_volume)

# Monitor tolerances.  The dissipation check compares the area's rate over a
# step with the trapezoid mean of the exact decay integral at its two ends;
# it is only meaningful while the step's area decrement stands out from
# roundoff, and it is made for steps up to MONITOR_DT_MAX, where its time
# error stays well inside DISSIPATION_RTOL.
AREA_INCREASE_TOL = 1e-12
DISSIPATION_RTOL = 0.05
DISSIPATION_FLOOR = 1e-10   # active while D*dt >= floor * area
VOLUME_DRIFT_TOL = 1e-6
MONITOR_DT_MAX = 1e-2


def slab_f_integral(space: AmbientSpace, slab: tuple[float, float]) -> float:
    """Integral of f^n over the slab, in closed form."""
    space.check_z(slab)
    return axial_measure(space, slab[1]) - axial_measure(space, slab[0])


def _far_measure(space: AmbientSpace) -> float:
    """R(h_zero), the radial measure up to the far axis; inf without one."""
    return math.inf if space.h_zero is None else radial_measure(space, space.h_zero)


def slab_volume(space: AmbientSpace, f_integral: float) -> float | None:
    """Total volume of the slab up to the far axis, None when infinite;
    ``f_integral`` is the slab's :func:`slab_f_integral`."""
    if space.h_zero is None:
        return None
    return unit_sphere_volume(space.n) * f_integral * _far_measure(space)


def radius_measures(space: AmbientSpace, f_integral: float, norms: SupNorms,
                    volume: float, area: float) -> tuple[float, float, float]:
    """Radius localization as radial measures R, ``(m_vol, s, m_cap)``:
    m_vol = V / (omega F) = R(r_volume), with F = ``f_integral`` the
    integral of f^n over the slab and omega the unit-sphere volume;
    s = sup(f^-n) / omega, read from the slab's ``norms``; and the
    area-budget cap m_cap = m_vol + s A, binding only below R(h_zero).
    R is strictly increasing."""
    omega = unit_sphere_volume(space.n)
    m_vol = volume / (omega * f_integral)
    s = norms["f^-n"] / omega
    return m_vol, s, m_vol + s * area


def radius_bounds(space: AmbientSpace, m_vol: float,
                  m_cap: float) -> tuple[float, float | None]:
    """Volume-equivalent radius and a-priori radius cap, the radii of the
    measures ``m_vol`` and ``m_cap`` of :func:`radius_measures`.

    ``r_volume``'s coaxial tube over the slab encloses exactly the
    volume, so any profile with that enclosed volume crosses it.
    ``r_cap`` caps the profile by the area budget; it is None when the
    cap reaches the zero of h, which is then the only constraint.
    """
    if not 0.0 < m_vol < m_cap:
        raise ValueError("volume and area must be positive")
    r_cap = (radial_measure_inverse(space, m_cap)
             if m_cap <= _far_measure(space) else None)
    return radial_measure_inverse(space, m_vol), r_cap


def _safe_exp(x: float) -> float:
    """exp that saturates to inf instead of raising; the slope-estimate
    constants blow up as the radius envelope approaches a coordinate
    zero, and an infinite cap is a vacuous bound, not an error."""
    return math.inf if x > 709.0 else math.exp(x)


def avg_H_bound(space: AmbientSpace, norms: SupNorms) -> float:
    """Upper bound for |averaged H| on graphs inside the rectangle of
    ``norms`` (the slab times the radius band).

    The constant is (n-1)(1 + pi/2) sup|h'/(f h)| + ((n-1) pi/2 + n)
    sup|f'/f| over the rectangle: the first term bounds the turning-angle
    integral of the profile curvature, the second the drift terms
    proportional to f'/f.
    """
    n = space.n
    return ((n - 1) * (1.0 + math.pi / 2.0) * norms["h'/(f h)"]
            + ((n - 1) * math.pi / 2.0 + n) * norms["f'/f"])


@dataclass(frozen=True)
class BoundSet:
    """All a-priori constants for one configuration, frozen at start.

    Attributes
    ----------
    r_volume, r_cap : radius localization (cap None when unconstraining).
    avg_H_cap : bound on |averaged H|.
    curv_const : ambient constant sup(f^2) sup|Ric| + (n-1)(sup|h''/h| +
        sup|h'/h|^2) entering the slope estimate.
    weight_rate : rate of the exponential weight e^(rate * r) in the slope
        estimate; curv_const + (n-1) sup|h'/h| + 1.
    decay_rate : weight_rate / sup(f^2).
    source_const : source bound of the slope inequality.
    v_cap : resulting sup bound for the slope v along the flow.
    longtime_area_cap : area threshold sufficient for long-time existence.
    slab_vol : total slab volume (None when infinite).
    vol_measure, area_rate, cap_measure : :func:`radius_measures`, unserialized.
    """

    n: int
    slab: tuple[float, float]
    r_lo: float
    r_hi: float
    max_v0: float
    volume0: float
    r_volume: float
    r_cap: float | None
    avg_H_cap: float
    curv_const: float
    weight_rate: float
    decay_rate: float
    source_const: float
    v_cap: float
    longtime_area_cap: float
    longtime_ok: bool
    slab_vol: float | None
    vol_measure: float
    area_rate: float
    cap_measure: float

    def to_json_dict(self) -> dict:
        """Plain-JSON view; unbounded (infinite) values serialize as null,
        matching the None convention of r_cap and slab_vol."""
        out = {}
        for name in ("n", "slab", "r_lo", "r_hi", "max_v0", "volume0",
                     "r_volume", "r_cap", "avg_H_cap", "curv_const",
                     "weight_rate", "decay_rate", "source_const", "v_cap",
                     "longtime_area_cap", "longtime_ok", "slab_vol"):
            val = getattr(self, name)
            if isinstance(val, tuple):
                val = list(val)
            if isinstance(val, float) and not math.isfinite(val):
                val = None
            out[name] = val
        return out


def graph_bound(space: AmbientSpace, norms: SupNorms, avg_H_cap: float,
                r_cap: float | None, max_v0: float):
    """Constants of the graph-slope estimate over the rectangle of
    ``norms``, with ``avg_H_cap`` the :func:`avg_H_bound` there.

    Returns ``(curv_const, weight_rate, decay_rate, source_const, v_cap)``
    with ``v_cap = max(e^(weight_rate * r_hi) * max_v0,
    source_const / decay_rate)``, r_hi the top of the radius band.
    """
    n = space.n
    curv_const = (norms["f^2"] * norms["ricci"]
                  + (n - 1) * (norms["h''/h"] + norms["h'^2/h^2"]))
    rate = curv_const + (n - 1) * norms["h'/h"] + 1.0
    decay = rate / norms["f^2"]
    r_eff = r_cap if r_cap is not None else space.h_zero
    if r_eff is None:
        raise ValueError("radius cap undefined in a space with no far axis")
    source = (rate * _safe_exp(rate * r_eff) * norms["f^-2"]
              * (avg_H_cap + 2.0 * norms["f'/f"] + rate * norms["f^-1"]))
    v_cap = max(_safe_exp(rate * norms.rect.r_hi) * max_v0, source / decay)
    return curv_const, rate, decay, source, v_cap


def longtime_area_check(space: AmbientSpace, m_vol: float, s: float,
                        area: float) -> tuple[float, bool]:
    """Area threshold sufficient for long-time existence, and the verdict;
    ``m_vol`` and ``s`` are those of :func:`radius_measures`.

    The threshold is min(V, vol(slab) - V) / (sup(f^-n) * integral f^n),
    divided through by omega F here; with an infinite slab volume it is V.
    """
    threshold = min(m_vol, _far_measure(space) - m_vol) / s
    return threshold, area <= threshold


def compute_bound_set(space: AmbientSpace, slab: tuple[float, float],
                      volume: float, area: float, r_lo: float, r_hi: float,
                      max_v0: float) -> BoundSet:
    """Assemble every a-priori constant for a configuration, all from one
    integral of f^n over the slab and one table of sup norms over the slab
    times [r_lo, r_hi]."""
    f_integral = slab_f_integral(space, slab)
    norms = sup_norms(space, Rect(slab[0], slab[1], r_lo, r_hi))
    m_vol, s, m_cap = radius_measures(space, f_integral, norms, volume, area)
    r_vol, r_cap = radius_bounds(space, m_vol, m_cap)
    h_cap = avg_H_bound(space, norms)
    curv_const, rate, decay, source, v_cap = graph_bound(
        space, norms, h_cap, r_cap, max_v0)
    threshold, ok = longtime_area_check(space, m_vol, s, area)
    return BoundSet(
        n=space.n, slab=slab, r_lo=r_lo, r_hi=r_hi, max_v0=max_v0,
        volume0=volume, r_volume=r_vol, r_cap=r_cap, avg_H_cap=h_cap,
        curv_const=curv_const, weight_rate=rate, decay_rate=decay,
        source_const=source, v_cap=v_cap, longtime_area_cap=threshold,
        longtime_ok=ok, slab_vol=slab_volume(space, f_integral),
        vol_measure=m_vol, area_rate=s, cap_measure=m_cap)


# -- boundary identities ---------------------------------------------------

def _stencil_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order at 0.

    Solves the Vandermonde moment system for nodes at ``offsets`` (in units
    of the grid step); exact on polynomials of degree len(offsets)-1.
    """
    offsets = np.asarray(offsets, dtype=float)
    m = len(offsets)
    rhs = np.zeros(m)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(np.vander(offsets, m, increasing=True).T, rhs)


def _endpoint_value_and_slope(values: np.ndarray, dz: float, left: bool):
    """Value and z-derivative at an endpoint from the three nearest
    interior nodes (the boundary node itself is not used, so a lower-order
    boundary closure elsewhere cannot pollute the estimate)."""
    if left:
        y = values[1:4]
        offs = np.array([1.0, 2.0, 3.0])
    else:
        y = values[-4:-1][::-1]
        offs = np.array([-1.0, -2.0, -3.0])
    w0 = _stencil_weights(offs, 0)
    w1 = _stencil_weights(offs, 1)
    return float(w0 @ y), float(w1 @ y) / dz


@dataclass(frozen=True)
class BoundaryResiduals:
    """Residuals of the wall identities, one value per endpoint (a, b)."""

    dH: tuple[float, float]
    dk2: tuple[float, float]


def boundary_identity_residuals(space: AmbientSpace, profile: GraphProfile,
                                avg_H: float) -> BoundaryResiduals:
    """Residuals of the two first-order wall identities.

    At the slab walls a flow state satisfies dH/dz = (H - avg_H) f'/f, and
    any orthogonal state satisfies dk2/dz = (f'/f)(k1 - k2).  Both sides
    are estimated from interior nodes by second-order one-sided stencils.
    """
    k1, k2 = principal_curvatures(space, profile)
    H = mean_curvature(k1, k2, space.n)
    dz = profile.dz
    out_H = []
    out_k2 = []
    for left, z_end in ((True, profile.a), (False, profile.b)):
        f, fp, _ = space.f(z_end)
        H_end, dH = _endpoint_value_and_slope(H, dz, left)
        k1_end, _ = _endpoint_value_and_slope(k1, dz, left)
        k2_end, dk2 = _endpoint_value_and_slope(k2, dz, left)
        out_H.append(dH - (H_end - avg_H) * float(fp / f))
        out_k2.append(dk2 - float(fp / f) * (k1_end - k2_end))
    return BoundaryResiduals(dH=(out_H[0], out_H[1]), dk2=(out_k2[0], out_k2[1]))


def boundary_compat_residual(space: AmbientSpace, profile: GraphProfile,
                             avg_H: float) -> tuple[float, float]:
    """Residual of the third-order compatibility relation at each wall.

    Differentiating the flow equation in z and evaluating where r' = 0
    leaves r''' + (n+1)(f'/f) r'' + 2(n-1) h' f'/(h f^3) - avg_H f'/f^2 = 0.
    The derivatives of r are taken directly from the state with one-sided
    second-order stencils.
    """
    n = space.n
    r = profile.r
    dz = profile.dz
    w2 = _stencil_weights(np.arange(4.0), 2)
    w3 = _stencil_weights(np.arange(5.0), 3)
    out = []
    for left, z_end, r_end in ((True, profile.a, r[0]), (False, profile.b, r[-1])):
        if left:
            rpp = float(w2 @ r[:4]) / dz**2
            rppp = float(w3 @ r[:5]) / dz**3
        else:
            rpp = float(w2 @ r[-4:][::-1]) / dz**2
            rppp = -float(w3 @ r[-5:][::-1]) / dz**3
        f, fp, _ = space.f(z_end)
        h, hp = space.h_slope(r_end)
        out.append(float(rppp + (n + 1) * (fp / f) * rpp
                         + 2.0 * (n - 1) * hp * fp / (h * f**3)
                         - avg_H * fp / f**2))
    return out[0], out[1]


# -- runtime monitors ------------------------------------------------------

@dataclass(slots=True)
class MonitorCheck:
    observed: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of every monitor at one recorded time."""

    time: float
    checks: dict[str, MonitorCheck] = field(repr=False)

    @property
    def failures(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]


def run_monitors(space: AmbientSpace, bound_set: BoundSet,
                 profile: GraphProfile | None, summary: GeometrySummary,
                 t: float,
                 prev_area: float | None = None,
                 prev_dissipation: float | None = None,
                 dt: float | None = None) -> ViolationReport:
    """Check the current state against every a-priori bound.

    ``summary`` is read for ``area``, ``volume``, ``avg_H``,
    ``dissipation``, the largest slope ``v_max`` and ``r_max``: a
    GeometrySummary, or the flow's own state evaluation.  A ``profile``,
    when given, supplies r_max in its place; the flow passes None and
    builds no profile for its monitors.
    The radius caps (the frozen one, that of the current area, the zero of
    h) are checked with no root finding, as ``space.admits(r_max)`` and
    R(r_max) < min(cap_measure, vol_measure + area_rate * area); the
    threshold is the frozen cap radius (else h_zero) on a pass, the
    binding cap on a failure.
    ``prev_*`` and ``dt`` feed the area-monotonicity and dissipation
    checks for the step that produced this state; pass None at t = 0.
    The dissipation check is the trapezoid rule in time: with D the
    decay integral at either end of the step and D_mean their mean, the
    mismatch is |(area - prev_area)/dt + D_mean| / D_mean, checked while
    D_mean dt >= DISSIPATION_FLOOR area and dt <= MONITOR_DT_MAX.
    """
    checks: dict[str, MonitorCheck] = {}

    r_max = summary.r_max if profile is None else float(profile.r.max())
    cap = min(bound_set.cap_measure,
              bound_set.vol_measure + bound_set.area_rate * summary.area)
    # the zero of h is compared as a radius (R is flat there), and R is
    # only evaluated in its domain
    below = space.admits(r_max) and radial_measure(space, r_max) < cap
    threshold = (bound_set.r_cap or space.h_zero if below else
                 radial_measure_inverse(space, min(cap, _far_measure(space))))
    checks["radius_cap"] = MonitorCheck(r_max, threshold, below)

    checks["avg_H_cap"] = MonitorCheck(abs(summary.avg_H), bound_set.avg_H_cap,
                                       abs(summary.avg_H) <= bound_set.avg_H_cap)

    v_max = summary.v_max
    checks["slope_cap"] = MonitorCheck(v_max, bound_set.v_cap,
                                       v_max <= bound_set.v_cap)

    if prev_area is not None:
        growth = summary.area - prev_area
        checks["area_monotone"] = MonitorCheck(growth, AREA_INCREASE_TOL,
                                               growth <= AREA_INCREASE_TOL)

    if (prev_area is not None and prev_dissipation is not None
            and dt is not None and dt <= MONITOR_DT_MAX):
        mean_d = 0.5 * (prev_dissipation + summary.dissipation)
        if mean_d * dt >= DISSIPATION_FLOOR * summary.area:
            rate = (summary.area - prev_area) / dt
            mismatch = abs(rate + mean_d) / mean_d
            checks["dissipation"] = MonitorCheck(
                mismatch, DISSIPATION_RTOL, mismatch <= DISSIPATION_RTOL)

    drift = abs(summary.volume - bound_set.volume0) / bound_set.volume0
    checks["volume_drift"] = MonitorCheck(drift, VOLUME_DRIFT_TOL,
                                          drift <= VOLUME_DRIFT_TOL)

    return ViolationReport(time=t, checks=checks)
