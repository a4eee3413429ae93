"""Discrete generating curves: graph profiles, parametrized curves, calculus.

A ``GraphProfile`` stores radii on a uniform z grid over a slab [a, b] and
is the state variable of the flow.  A ``ParamCurve`` stores a general
parametrized curve (z(s), r(s)) with exact derivative arrays; it exists
for static geometry of curves that are not graphs over z.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

def _frozen_array(x) -> np.ndarray:
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class GraphProfile:
    """Radii r_i > 0 at the uniform nodes z_i = a + i (b - a)/N."""

    a: float
    b: float
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _frozen_array(self.r))
        if not self.a < self.b:
            raise ValueError(f"slab endpoints must satisfy a < b, got [{self.a}, {self.b}]")
        if self.r.ndim != 1 or self.N < 8:
            raise ValueError(f"need at least 9 nodes on a 1-d grid, got shape {self.r.shape}")
        if not np.all(np.isfinite(self.r)) or np.any(self.r <= 0.0):
            raise ValueError("radii must be finite and positive")

    @property
    def N(self) -> int:
        return len(self.r) - 1

    @property
    def dz(self) -> float:
        return (self.b - self.a) / self.N

    @property
    def z(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.N + 1)

    def with_radii(self, r) -> "GraphProfile":
        return GraphProfile(self.a, self.b, r)


@dataclass(frozen=True)
class ParamCurve:
    """Samples of a parametrized generating curve.

    ``dz``/``dr``/``d2z``/``d2r`` hold the exact derivatives with respect
    to the parameter.  The grid need not be uniform (the reference
    cycloid uses endpoint-graded spacing).
    """

    s: np.ndarray
    z: np.ndarray
    r: np.ndarray
    dz: np.ndarray
    dr: np.ndarray
    d2z: np.ndarray
    d2r: np.ndarray

    def __post_init__(self):
        for name in ("s", "z", "r", "dz", "dr", "d2z", "d2r"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if self.s.ndim != 1 or len(self.s) < 8:
            raise ValueError("need at least 8 samples")
        if np.any(np.diff(self.s) <= 0.0):
            raise ValueError("parameter grid must be strictly increasing")
        for name in ("z", "r", "dz", "dr", "d2z", "d2r"):
            if getattr(self, name).shape != self.s.shape:
                raise ValueError(f"array {name} does not match the parameter grid")
        if np.any(self.r <= 0.0):
            raise ValueError("radii must be positive")


def diff(profile: GraphProfile) -> tuple[np.ndarray, np.ndarray]:
    """Second-order first and second z-derivatives of the profile radii.

    Interior nodes use central differences.  Boundary nodes use ghost
    reflection (r[-1] = r[1] and r[N+1] = r[N-1]), which makes the first
    derivative exactly zero there; this encodes the orthogonality
    condition at the slab walls.
    """
    return diff_radii(profile.r, profile.dz)


def diff_radii(r: np.ndarray, dz: float) -> tuple[np.ndarray, np.ndarray]:
    """Same stencils on a bare radius array (the flow's inner loop)."""
    rdot = np.empty_like(r)
    rddot = np.empty_like(r)
    rdot[1:-1] = (r[2:] - r[:-2]) / (2.0 * dz)
    rdot[0] = 0.0
    rdot[-1] = 0.0
    rddot[1:-1] = (r[2:] - 2.0 * r[1:-1] + r[:-2]) / dz**2
    rddot[0] = 2.0 * (r[1] - r[0]) / dz**2
    rddot[-1] = 2.0 * (r[-2] - r[-1]) / dz**2
    return rdot, rddot


def quadrature(values, x, rule: str = "trapezoid") -> float:
    """Composite quadrature of values sampled at the positions ``x``
    (possibly non-uniform).  ``rule`` is "trapezoid" (default,
    positivity-preserving) or "simpson"."""
    values = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise ValueError("need a 1-d array with at least 2 samples")
    if x.shape != values.shape:
        raise ValueError("mismatched sample positions")
    if rule == "trapezoid":
        return float(np.trapezoid(values, x=x))
    if rule != "simpson":
        raise ValueError(f"unknown rule {rule!r}; expected trapezoid or simpson")
    # Simpson serves the reference routes only, off the path of a run
    from scipy.integrate import simpson
    return float(simpson(values, x=x))


def quad_weights(n_nodes: int, dx: float) -> np.ndarray:
    """Trapezoid weights w with w @ values == quadrature(values, x) on
    ``n_nodes`` uniform nodes ``dx`` apart."""
    w = np.full(n_nodes, dx)
    w[0] = w[-1] = dx / 2.0
    return w


# -- profile snapshot format ----------------------------------------------

def profile_to_csv(profile: GraphProfile) -> str:
    """Serialize a profile as CSV with header ``z,r``, full precision."""
    buf = io.StringIO()
    buf.write("z,r\n")
    for zi, ri in zip(profile.z, profile.r):
        buf.write(f"{zi:.17g},{ri:.17g}\n")
    return buf.getvalue()
