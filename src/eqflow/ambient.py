"""Rotationally symmetric ambient spaces with closed-form warping functions.

The ambient metric is the doubly warped product

    dz^2 + f(z)^2 dr^2 + f(z)^2 h(r)^2 g_{S^{n-1}},

where z ranges over an interval on which f > 0 and r over [0, z*] with z*
the first positive zero of h (z* may be infinite).  Six model families are
supported, each with exact first and second derivatives of f and h:

    C1  f = 1,            h = r            Euclidean slab
    C2  f = z,            h = sin r        Euclidean spherical crown
    C3  f = cosh(m z),    h = sinh(m r)/m  hyperbolic, equidistants to a plane
    C4  f = sinh(m z)/m,  h = sin r        hyperbolic, geodesic spheres
    C5  f = e^{m z},      h = r            hyperbolic, horospheres
    C6  f = cos(m z),     h = sin(m r)/m   round sphere, slice of parallels

with m = sqrt(|curvature|).  C3 and C6 additionally admit variants where
the rate in f and the rate in h differ (fields ``lam`` and ``lam_h``);
those variants are not space forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CASES = ("C1", "C2", "C3", "C4", "C5", "C6")


@dataclass(frozen=True)
class Rect:
    """Closed rectangle [z_lo, z_hi] x [r_lo, r_hi] in the (z, r) half plane."""

    z_lo: float
    z_hi: float
    r_lo: float
    r_hi: float

    def __post_init__(self):
        if not (self.z_lo < self.z_hi and self.r_lo < self.r_hi):
            raise ValueError(f"degenerate rectangle {self}")


@dataclass(frozen=True)
class CurvatureComponents:
    """Sectional curvatures of the three coordinate 2-plane types.

    ``axis_plane``   planes containing the axis direction d/dz,
    ``radial_plane`` the plane spanned by d/dr and one sphere direction,
    ``sphere_plane`` planes tangent to the orbit sphere.
    """

    axis_plane: float
    radial_plane: float
    sphere_plane: float


@dataclass(frozen=True)
class SupNorms:
    """Suprema of the named warping-function expressions over a rectangle.

    Values are exact for the supported model families (each expression is
    piecewise monotone per axis, so the supremum sits at a rectangle edge
    or at z = 0), and they are monotone under rectangle inclusion.
    """

    rect: Rect
    values: dict[str, float] = field(repr=False)

    def __getitem__(self, key: str) -> float:
        return self.values[key]


@dataclass(frozen=True)
class AmbientSpace:
    """One of the model families C1..C6, immutable once constructed.

    Attributes
    ----------
    case : str
        Model tag in ``CASES``.
    n : int
        Dimension of the revolution hypersurface (ambient dimension n+1).
    lam : float
        Curvature parameter; 0 for the flat cases C1 and C2.
    lam_h : float
        Rate parameter of h; equals ``lam`` except for the mismatched
        variants of C3 and C6.
    h_zero : float or None
        First positive zero of h, or None when h never vanishes again.
    z_domain : (float or None, float or None)
        Open interval on which f > 0; None marks an unbounded side.
    """

    case: str
    n: int
    lam: float
    lam_h: float
    h_zero: float | None
    z_domain: tuple[float | None, float | None]

    # -- closed-form warping functions ------------------------------------

    def f(self, z):
        """Return (f, f', f'') at ``z`` (scalar or array), exactly."""
        z = np.asarray(z, dtype=float)
        if self.unit_f:
            return np.ones(z.shape), np.zeros(z.shape), np.zeros(z.shape)
        if self.case == "C2":
            return z, np.ones(z.shape), np.zeros(z.shape)
        m = math.sqrt(abs(self.lam))
        if self.case == "C3":
            return np.cosh(m * z), m * np.sinh(m * z), m * m * np.cosh(m * z)
        if self.case == "C4":
            return np.sinh(m * z) / m, np.cosh(m * z), m * np.sinh(m * z)
        if self.case == "C5":
            e = np.exp(m * z)
            return e, m * e, m * m * e
        # C6
        return np.cos(m * z), -m * np.sin(m * z), -m * m * np.cos(m * z)

    def h(self, r):
        """Return (h, h', h'') at ``r`` (scalar or array), exactly."""
        r = np.asarray(r, dtype=float)
        h, hp = self.h_slope(r)
        if self.linear_h:
            return h, hp, np.zeros(r.shape)
        if self.case in ("C2", "C4"):
            return h, hp, -h
        m = math.sqrt(abs(self.lam_h))
        if self.case == "C3":
            return h, hp, m * np.sinh(m * r)
        return h, hp, -m * np.sin(m * r)    # C6

    def h_slope(self, r):
        """Return (h, h') at ``r``: :meth:`h` without h'', for the callers
        that do not read it."""
        r = np.asarray(r, dtype=float)
        h = self.h_value(r)
        if self.linear_h:
            return h, np.ones(r.shape)
        if self.case in ("C2", "C4"):
            return h, np.cos(r)
        m = math.sqrt(abs(self.lam_h))
        if self.case == "C3":
            return h, np.cosh(m * r)
        return h, np.cos(m * r)             # C6

    def h_value(self, r):
        """Return h at ``r``, without its derivatives."""
        r = np.asarray(r, dtype=float)
        if self.linear_h:
            return r
        if self.case in ("C2", "C4"):
            return np.sin(r)
        m = math.sqrt(abs(self.lam_h))
        if self.case == "C3":
            return np.sinh(m * r) / m
        return np.sin(m * r) / m            # C6

    # -- domain handling ---------------------------------------------------

    def check_z(self, z) -> None:
        """Raise if any z lies outside the open interval where f > 0."""
        z = np.asarray(z, dtype=float)
        lo, hi = self.z_domain
        if lo is not None and np.any(z <= lo):
            raise ValueError(f"z out of domain for {self.case}: min z = {z.min()} <= {lo}")
        if hi is not None and np.any(z >= hi):
            raise ValueError(f"z out of domain for {self.case}: max z = {z.max()} >= {hi}")

    def admits(self, r) -> bool:
        """True when every r lies in the open band (0, h_zero), the radii a
        state may take; NaN and infinities fail.  This is the one test of
        the band: states are checked with it where they enter, through
        :meth:`check_r`, and trial states of the flow directly."""
        hi = math.inf if self.h_zero is None else self.h_zero
        r = np.asarray(r)
        # a NaN anywhere makes the minimum NaN, and NaN compares false
        return bool(r.min() > 0.0 and r.max() < hi)

    def check_r(self, r) -> None:
        """Raise ValueError unless :meth:`admits` accepts every r."""
        r = np.asarray(r, dtype=float)
        if not self.admits(r):
            raise ValueError(f"r out of range (0, h_zero = {self.h_zero}) "
                             f"for {self.case}: min r = {r.min()}, "
                             f"max r = {r.max()}")

    def check_rect(self, rect: Rect) -> None:
        self.check_z([rect.z_lo, rect.z_hi])
        self.check_r([rect.r_lo, rect.r_hi])

    @property
    def is_space_form(self) -> bool:
        return self.lam_h == self.lam

    @property
    def unit_f(self) -> bool:
        """True when f = 1 and f' = 0 (C1), so that a factor f is a
        multiplication by one and a term in f' is zero."""
        return self.case == "C1"

    @property
    def linear_h(self) -> bool:
        """True when h(r) = r (C1 and C5)."""
        return self.case in ("C1", "C5")


def make_space(case: str, lam: float | None = None, n: int = 2,
               lam_h: float | None = None) -> AmbientSpace:
    """Construct a model ambient space.

    Parameters
    ----------
    case : str
        One of ``CASES``.
    lam : float, optional
        Curvature parameter.  Ignored for the flat cases C1/C2, required
        negative for C3/C4/C5 and positive for C6.
    n : int
        Hypersurface dimension, at least 2.
    lam_h : float, optional
        Independent rate for h (same sign constraint as ``lam``); only the
        C3 and C6 families admit this variant.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if n < 2:
        raise ValueError(f"hypersurface dimension must be >= 2, got {n}")

    if case in ("C1", "C2"):
        if lam_h is not None:
            raise ValueError(f"{case} does not admit an independent lam_h")
        lam = 0.0
    elif case in ("C3", "C4", "C5"):
        if lam is None or lam >= 0:
            raise ValueError(f"{case} requires a negative curvature parameter, got {lam}")
        if lam_h is not None and case != "C3":
            raise ValueError(f"{case} does not admit an independent lam_h")
        if lam_h is not None and lam_h >= 0:
            raise ValueError(f"lam_h must be negative for C3, got {lam_h}")
    else:  # C6
        if lam is None or lam <= 0:
            raise ValueError(f"C6 requires a positive curvature parameter, got {lam}")
        if lam_h is not None and lam_h <= 0:
            raise ValueError(f"lam_h must be positive for C6, got {lam_h}")
    lam = float(lam)
    lam_h = lam if lam_h is None else float(lam_h)

    m_f = math.sqrt(abs(lam))
    m_h = math.sqrt(abs(lam_h))
    if case in ("C2", "C4"):
        h_zero: float | None = math.pi
        z_domain: tuple[float | None, float | None] = (0.0, None)
    elif case == "C6":
        h_zero = math.pi / m_h
        z_domain = (-math.pi / (2 * m_f), math.pi / (2 * m_f))
    else:
        h_zero = None
        z_domain = (None, None)
    return AmbientSpace(case=case, n=n, lam=lam, lam_h=lam_h,
                        h_zero=h_zero, z_domain=z_domain)


def curvature_components(space: AmbientSpace, z, r) -> CurvatureComponents:
    """Sectional curvatures of the coordinate 2-planes at (z, r).

    For the standard families all three equal the constant curvature of
    the model (0 for C1/C2); the mismatched C3/C6 variants give genuinely
    position-dependent values.
    """
    space.check_z(z)
    space.check_r(r)
    f, fp, fpp = space.f(z)
    h, hp, hpp = space.h(r)
    axis = -fpp / f
    radial = -(hpp / h + fp * fp) / (f * f)
    sphere = (1.0 - hp * hp - h * h * fp * fp) / (f * f * h * h)
    return CurvatureComponents(axis, radial, sphere)


def z_extremes(z_lo: float, z_hi: float) -> np.ndarray:
    """Where an expression in z of the model families peaks over [z_lo,
    z_hi]: each is monotone on both sides of z = 0, so at an end, or at 0
    when 0 lies inside."""
    return np.asarray([z_lo, z_hi] + ([0.0] if z_lo < 0.0 < z_hi else []))


def ricci_normal_bound(space: AmbientSpace, rect: Rect) -> float:
    """Supremum of the Ricci operator norm over a rectangle.

    Space forms are handled exactly (n times |curvature|).  For the C3/C6
    mismatched variants, every diagonal Ricci entry reduces to a function
    of z alone (h''/h and (1 - h'^2)/h^2 are constant in these families).
    There f''/f is constant and f'^2/f^2 and 1/f^2 are affine in
    T = tanh^2(m z) (C3: 1/f^2 = 1 - T) or T = tan^2(m z) (C6:
    1/f^2 = 1 + T), so each entry is affine in T.  T is monotone in |z|,
    so each |entry| peaks at one of the :func:`z_extremes`, and the
    supremum taken there is exact.
    """
    space.check_rect(rect)
    n = space.n
    if space.is_space_form:
        return n * abs(space.lam)

    h1, hp1, hpp1 = space.h(rect.r_lo)
    b_const = float(hpp1 / h1)                  # h''/h, constant in C3/C6
    q_const = float((1.0 - hp1 * hp1) / (h1 * h1))  # (1 - h'^2)/h^2, constant

    f, fp, fpp = space.f(z_extremes(rect.z_lo, rect.z_hi))
    axis_term = -fpp / f
    ric_zz = n * axis_term
    ric_rr = axis_term - (n - 1) * (b_const + fp * fp) / (f * f)
    ric_sph = (axis_term - (b_const + fp * fp) / (f * f)
               + (n - 2) * (q_const - fp * fp) / (f * f))
    return float(max(np.max(np.abs(ric_zz)), np.max(np.abs(ric_rr)),
                     np.max(np.abs(ric_sph))))


def sup_norms(space: AmbientSpace, rect: Rect) -> SupNorms:
    """Suprema of the warping-function expressions over ``rect``: f^2,
    f^-1, f^-2, f^-n, f'/f, h'/h, h'/(f h), h''/h, h'^2/h^2 and the Ricci
    bound (:func:`ricci_normal_bound`).

    Each per-axis expression in the model families is piecewise monotone
    with interior extrema only at z = 0, so evaluating at the rectangle
    edges plus z = 0 (:func:`z_extremes`) gives the exact supremum.
    """
    space.check_rect(rect)
    r = np.asarray([rect.r_lo, rect.r_hi])
    f, fp, _ = space.f(z_extremes(rect.z_lo, rect.z_hi))
    h, hp, hpp = space.h(r)

    def fmax(expr):
        return float(np.max(np.abs(expr)))

    values = {
        "f^2": fmax(f * f),
        "f^-1": fmax(1.0 / f),
        "f^-2": fmax(1.0 / f**2),
        "f^-n": fmax(1.0 / f**space.n),
        "f'/f": fmax(fp / f),
        "h'/h": fmax(hp / h),
        "h''/h": fmax(hpp / h),
        "h'^2/h^2": fmax((hp / h) ** 2),
    }
    values["h'/(f h)"] = values["h'/h"] * values["f^-1"]
    values["ricci"] = ricci_normal_bound(space, rect)
    return SupNorms(rect=rect, values=values)


# -- cumulative volume factors ---------------------------------------------

def _unit_rule(nodes, weights):
    """A Gauss-Legendre rule on [-1, 1], given by its positive nodes and
    their weights, moved to [0, 1]: (nodes, weights)."""
    nodes, weights = np.array(nodes), np.array(weights)
    return (0.5 * np.concatenate([1.0 - nodes[::-1], 1.0 + nodes]),
            0.5 * np.concatenate([weights[::-1], weights]))


# Below a switch point the power-reduction recursions for sin^m and sinh^m
# cancel (their terms are O(x^(m-1)), the integral O(x^(m+1))), and the
# integral is a Gauss-Legendre rule's.  The cancellation grows with m, so
# the switch point does too.  Against mpmath, for m <= 4 the recursion is
# within 3.3e-15 relative from 0.5 up and the 12-point rule within
# 4.6e-16 below it; for 5 <= m <= 15 the recursion needs 1.0 (4.9e-15
# from there up; 2.9e-11 at 0.5 for m = 15) and the 16-point rule is
# within 2.5e-15 below it.  (switch point, unit nodes, unit weights):
_SMALL_ARG_LOW = (0.5, *_unit_rule(
    [0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
     0.7699026741943047, 0.9041172563704749, 0.9815606342467192],
    [0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
     0.16007832854334622, 0.10693932599531843, 0.04717533638651183]))
_SMALL_ARG_HIGH = (1.0, *_unit_rule(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
     0.6178762444026438, 0.755404408355003, 0.8656312023878318,
     0.9445750230732326, 0.9894009349916499],
    [0.1894506104550685, 0.18260341504492358, 0.16915651939500254,
     0.14959598881657674, 0.12462897125553388, 0.09515851168249279,
     0.062253523938647894, 0.027152459411754096]))


def _sin_power_recursion(m: int, x: np.ndarray):
    """Integral of sin^m over [0, x] by the power-reduction recursion."""
    if m == 0:
        return x.copy()
    if m == 1:
        return 1.0 - np.cos(x)
    return (-np.cos(x) * np.sin(x) ** (m - 1)
            + (m - 1) * _sin_power_recursion(m - 2, x)) / m


def _sinh_power_recursion(m: int, x: np.ndarray):
    """Integral of sinh^m over [0, x] by the power-reduction recursion."""
    if m == 0:
        return x.copy()
    if m == 1:
        return np.cosh(x) - 1.0
    return (np.cosh(x) * np.sinh(x) ** (m - 1)
            - (m - 1) * _sinh_power_recursion(m - 2, x)) / m


def _power_integral(fn, m: int, x):
    """Integral of fn^m over [0, x] for fn np.sin (0 <= x <= pi) or
    np.sinh (x >= 0): the power-reduction recursion, or a Gauss-Legendre
    rule below the switch point for m."""
    x = np.asarray(x, dtype=float)
    out = (_sin_power_recursion if fn is np.sin else _sinh_power_recursion)(m, x)
    small_arg, unit, weights = _SMALL_ARG_LOW if m <= 4 else _SMALL_ARG_HIGH
    if x.min() < small_arg:
        small = x < small_arg
        out = np.array(out)
        xs = x[small]
        # a sum per row, not a matrix product, so that each entry is the
        # same whatever the shape of x
        out[small] = xs * np.sum(fn(np.multiply.outer(xs, unit)) ** m
                                 * weights, axis=-1)
    return out


def _cos_power_integral(m: int, x: float) -> float:
    """Integral of cos^m over [0, x] for |x| <= pi/2, where every term of
    the recursion has the sign of x."""
    if m == 0:
        return x
    if m == 1:
        return math.sin(x)
    return (math.sin(x) * math.cos(x) ** (m - 1)
            + (m - 1) * _cos_power_integral(m - 2, x)) / m


def _cosh_power_integral(m: int, x: float) -> float:
    """Integral of cosh^m over [0, x]; every term has the sign of x."""
    if m == 0:
        return x
    if m == 1:
        return math.sinh(x)
    return (math.sinh(x) * math.cosh(x) ** (m - 1)
            + (m - 1) * _cosh_power_integral(m - 2, x)) / m


def axial_measure(space: AmbientSpace, z: float) -> float:
    """Closed-form integral of f^n over [0, z], for scalar z in the
    closure of the z domain; the integral over a slab [a, b] is the
    difference of its values at b and a."""
    n = space.n
    m = math.sqrt(abs(space.lam))
    if space.case == "C1":
        return z
    if space.case == "C2":
        return z ** (n + 1) / (n + 1)
    if space.case == "C3":
        return _cosh_power_integral(n, m * z) / m
    if space.case == "C4":
        return float(_power_integral(np.sinh, n, m * z)) / m ** (n + 1)
    if space.case == "C5":
        return math.expm1(n * m * z) / (n * m)
    return _cos_power_integral(n, m * z) / m   # C6


def radial_measure(space: AmbientSpace, R):
    """Closed-form integral of h^(n-1) over [0, R] (scalar or array).

    This is the cross-sectional volume factor pairing with f^n in the
    enclosed-volume formula; it is strictly increasing in R.  Its domain
    is 0 <= R <= h_zero, and it does not check R: callers pass admitted
    states (:meth:`AmbientSpace.admits`), h_zero itself or a root
    bracket inside the domain.
    """
    R = np.asarray(R, dtype=float)
    n = space.n
    if space.case in ("C1", "C5"):
        out = R ** n / n
    elif space.case in ("C2", "C4"):
        out = _power_integral(np.sin, n - 1, R)
    elif space.case == "C3":
        m = math.sqrt(abs(space.lam_h))
        out = _power_integral(np.sinh, n - 1, m * R) / m**n
    else:  # C6
        m = math.sqrt(abs(space.lam_h))
        out = _power_integral(np.sin, n - 1, m * R) / m**n
    return out if out.ndim else float(out)


# radial_measure_inverse stops once its root bracket is this narrow
INVERSE_XTOL = 1e-14
INVERSE_RTOL = 8.9e-16


def radial_measure_inverse(space: AmbientSpace, y: float) -> float:
    """Inverse of :func:`radial_measure` for scalar y >= 0.

    Raises ValueError when y exceeds the total measure of [0, h_zero]
    (only possible when h_zero is finite); y up to 1e-13 above it, and
    the total itself, give h_zero.

    R is strictly increasing with R' = h^(n-1) and R'' = (n-1) h^(n-2)
    h', so the root is found by Halley steps inside a bracket that each
    trial point shrinks: a step that leaves the bracket is replaced by
    bisection, and one shorter than the tolerance is lengthened to it,
    so that the bracket closes from both sides even where R' vanishes
    at h_zero.  It stops when the bracket is narrower than INVERSE_XTOL
    + INVERSE_RTOL x and returns the end with the smaller residual.
    """
    if y < 0:
        raise ValueError(f"negative measure {y}")
    if y == 0.0:
        return 0.0
    n = space.n
    if space.case in ("C1", "C5"):
        return float((n * y) ** (1.0 / n))
    if space.h_zero is not None:
        total = radial_measure(space, space.h_zero)
        if y > total * (1.0 + 1e-13):
            raise ValueError(f"measure {y} exceeds total {total} up to the zero of h")
        if y >= total:
            return space.h_zero
        lo, hi, gap_hi = 0.0, space.h_zero, total - y
    else:
        lo, hi = 0.0, 1.0
        while (gap_hi := radial_measure(space, hi) - y) < 0.0:
            lo, hi = hi, 2.0 * hi
        if gap_hi == 0.0:
            return hi
    gap_lo = -y
    x = (n * y) ** (1.0 / n)          # the root where h(r) = r, as a start
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while True:
        gap = radial_measure(space, x) - y
        if gap == 0.0:
            return x
        if gap < 0.0:
            lo, gap_lo = x, gap
        else:
            hi, gap_hi = x, gap
        tol = INVERSE_XTOL + INVERSE_RTOL * x
        if hi - lo <= tol:
            return lo if -gap_lo <= gap_hi else hi
        h, hp = space.h_slope(x)
        slope = float(h) ** (n - 1)
        den = slope * slope - 0.5 * gap * (n - 1) * float(h) ** (n - 2) * float(hp)
        step = gap * slope / den if slope > 0.0 and den > 0.0 else math.inf
        if abs(step) < 0.5 * tol:
            step = math.copysign(0.5 * tol, step)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
