"""Extrinsic geometry: curvatures, functionals, averages, invariances."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqflow.ambient import AmbientSpace, make_space
from eqflow.curve import GraphProfile, ParamCurve
from eqflow.geometry import (
    area,
    averaged_H_by_parts,
    averaged_H_direct,
    enclosed_volume,
    mean_curvature,
    principal_curvatures,
    summarize,
    unit_sphere_volume,
    weingarten_norm,
)

C1 = make_space("C1", n=2)
C2 = make_space("C2", n=2)


def _cylinder(radius=1.0, N=200, a=0.0, b=1.0):
    return GraphProfile(a, b, np.full(N + 1, float(radius)))


def _perturbed_profile(N=200, radius=1.0, amp=0.1):
    z = np.linspace(0.0, 1.0, N + 1)
    return GraphProfile(0.0, 1.0, radius + amp * np.cos(math.pi * z))


def _perturbed_curve(M=200, radius=1.0, amp=0.1):
    """Same shape with exact derivatives, as a parametrized curve."""
    z = np.linspace(0.0, 1.0, M + 1)
    return ParamCurve(
        s=z, z=z, r=radius + amp * np.cos(math.pi * z),
        dz=np.ones_like(z), dr=-amp * math.pi * np.sin(math.pi * z),
        d2z=np.zeros_like(z), d2r=-amp * math.pi**2 * np.cos(math.pi * z))


def test_unit_sphere_volume():
    assert unit_sphere_volume(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert unit_sphere_volume(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


# -- stationary reference states ------------------------------------------

def test_unit_cylinder_curvatures():
    k1, k2 = principal_curvatures(C1, _cylinder())
    assert np.all(k1 == 0.0)
    assert np.allclose(k2, 1.0, atol=1e-15)
    assert np.allclose(mean_curvature(k1, k2, 2), 1.0, atol=1e-15)
    assert np.allclose(weingarten_norm(k1, k2, 2), 1.0, atol=1e-15)


def test_cylinder_mean_curvature_dimension_scaling():
    sp = make_space("C1", n=3)
    k1, k2 = principal_curvatures(sp, _cylinder(radius=2.0))
    H = mean_curvature(k1, k2, 3)
    assert np.allclose(H, 1.0, atol=1e-15)


def test_unit_cylinder_functionals():
    prof = _cylinder()
    assert area(C1, prof) == pytest.approx(2.0 * math.pi, rel=1e-13)
    assert enclosed_volume(C1, prof) == pytest.approx(math.pi, rel=1e-13)
    assert averaged_H_direct(C1, prof) == pytest.approx(1.0, rel=1e-13)


def test_equatorial_plane_is_totally_geodesic():
    prof = _cylinder(radius=math.pi / 2, a=1.0, b=2.0)
    k1, k2 = principal_curvatures(C2, prof)
    assert np.all(k1 == 0.0)
    assert np.max(np.abs(k2)) <= 1e-15
    assert abs(averaged_H_direct(C2, prof)) <= 1e-15


def test_equatorial_annulus_functionals_closed_form():
    prof = _cylinder(radius=math.pi / 2, N=1000, a=1.0, b=2.0)
    assert area(C2, prof, rule="simpson") == pytest.approx(
        3.0 * math.pi, rel=1e-10)
    assert enclosed_volume(C2, prof, rule="simpson") == pytest.approx(
        14.0 * math.pi / 3.0, rel=1e-10)


def test_enclosed_volume_rejects_radii_off_the_band():
    for radius in (3.3, math.pi):
        with pytest.raises(ValueError, match="r out of range"):
            enclosed_volume(C2, _cylinder(radius, a=1.0, b=2.0))


# -- perturbed cylinder spot values ---------------------------------------

def test_perturbed_cylinder_curvatures_at_crest():
    curve = _perturbed_curve()
    k1, k2 = principal_curvatures(C1, curve)
    assert k1[0] == pytest.approx(0.1 * math.pi**2, rel=1e-12)
    assert k1[0] == pytest.approx(0.986960, abs=1e-6)
    assert k2[0] == pytest.approx(1.0 / 1.1, rel=1e-12)
    assert k2[0] == pytest.approx(0.909091, abs=1e-6)
    H = mean_curvature(k1, k2, 2)
    assert H[0] == pytest.approx(0.1 * math.pi**2 + 1.0 / 1.1, rel=1e-12)
    assert H[0] == pytest.approx(1.896051, abs=1e-6)
    L = weingarten_norm(k1, k2, 2)
    assert L[0] == pytest.approx(
        math.hypot(0.1 * math.pi**2, 1.0 / 1.1), rel=1e-12)


def test_perturbed_cylinder_slope_at_midpoint():
    prof = _perturbed_profile(N=200)
    v = summarize(C1, prof).v
    # midpoint node; discrete slope differs from the exact one by O(dz^2)
    assert v[100] == pytest.approx(math.sqrt(1.0 + 0.01 * math.pi**2),
                                   abs=2e-5)


def test_graph_slope_constant_latitude():
    prof = _cylinder(radius=1.0, a=1.0, b=2.0)
    v = summarize(C2, prof).v
    assert np.allclose(v, 1.0 / prof.z, rtol=1e-14)


# -- pointwise identities --------------------------------------------------

@given(st.integers(2, 5))
def test_mean_curvature_is_weighted_sum(n):
    rng = np.random.default_rng(n)
    k1 = rng.normal(size=17)
    k2 = rng.normal(size=17)
    assert np.array_equal(mean_curvature(k1, k2, n), k1 + (n - 1) * k2)


def test_slope_lower_bound_with_equality_at_critical_points():
    prof = _perturbed_profile(N=64)
    rdot = np.empty(65)
    rdot[1:-1] = (prof.r[2:] - prof.r[:-2])
    rdot[0] = rdot[-1] = 0.0
    v = summarize(C1, prof).v
    f = C1.f(prof.z)[0]
    at_critical = rdot == 0.0
    assert np.allclose(v[at_critical], 1.0 / f[at_critical], rtol=1e-15)
    assert np.all(v[~at_critical] > 1.0 / f[~at_critical])


@given(
    radius=st.floats(0.9, 1.4),
    a1=st.floats(-0.08, 0.08), a2=st.floats(-0.05, 0.05),
    a3=st.floats(-0.03, 0.03),
)
def test_average_lies_between_curvature_extremes(radius, a1, a2, a3):
    z = np.linspace(1.0, 2.0, 129)
    x = math.pi * (z - 1.0)
    r = (radius + a1 * np.cos(x) + a2 * np.cos(2 * x) + a3 * np.cos(3 * x))
    for space in (C1, C2):
        prof = GraphProfile(1.0, 2.0, r)
        k1, k2 = principal_curvatures(space, prof)
        H = mean_curvature(k1, k2, space.n)
        avg = averaged_H_direct(space, prof)
        assert np.min(H) - 1e-12 <= avg <= np.max(H) + 1e-12


# -- two averaging formulas ------------------------------------------------

def test_by_parts_average_on_cylinder():
    z = np.linspace(0.0, 1.0, 101)
    curve = ParamCurve(s=z, z=z, r=np.ones_like(z), dz=np.ones_like(z),
                       dr=np.zeros_like(z), d2z=np.zeros_like(z),
                       d2r=np.zeros_like(z))
    assert averaged_H_by_parts(C1, curve) == pytest.approx(1.0, rel=1e-12)
    assert averaged_H_direct(C1, curve) == pytest.approx(1.0, rel=1e-12)


@given(amp=st.floats(0.0, 0.12), radius=st.floats(0.9, 1.3))
def test_average_formulas_agree_on_smooth_graphs(amp, radius):
    curve = _perturbed_curve(M=800, radius=radius, amp=amp)
    direct = averaged_H_direct(C1, curve, rule="simpson")
    parts = averaged_H_by_parts(C1, curve, rule="simpson")
    assert parts == pytest.approx(direct, rel=1e-7, abs=1e-9)


def test_by_parts_requires_flat_endpoints():
    z = np.linspace(0.0, 1.0, 101)
    curve = ParamCurve(s=z, z=z, r=1.0 + 0.1 * z, dz=np.ones_like(z),
                       dr=np.full_like(z, 0.1), d2z=np.zeros_like(z),
                       d2r=np.zeros_like(z))
    with pytest.raises(ValueError):
        averaged_H_by_parts(C1, curve)


# -- invariances -----------------------------------------------------------

def test_translation_invariance_in_flat_family():
    base = _perturbed_profile(N=150)
    shifted = GraphProfile(2.5, 3.5, base.r)
    assert area(C1, shifted) == pytest.approx(area(C1, base), rel=1e-14)
    assert enclosed_volume(C1, shifted) == pytest.approx(
        enclosed_volume(C1, base), rel=1e-14)
    assert averaged_H_direct(C1, shifted) == pytest.approx(
        averaged_H_direct(C1, base), rel=1e-13)


@pytest.mark.parametrize("t", [0.5, 2.0, 3.7])
def test_scaling_covariance_in_flat_family(t):
    base = _perturbed_profile(N=150)
    scaled = GraphProfile(0.0, t, t * base.r)
    assert area(C1, scaled) == pytest.approx(t**2 * area(C1, base), rel=1e-12)
    assert enclosed_volume(C1, scaled) == pytest.approx(
        t**3 * enclosed_volume(C1, base), rel=1e-12)
    k1s, k2s = principal_curvatures(C1, scaled)
    k1, k2 = principal_curvatures(C1, base)
    assert np.allclose(k1s, k1 / t, rtol=1e-10, atol=1e-12)
    assert np.allclose(k2s, k2 / t, rtol=1e-10, atol=1e-12)
    assert averaged_H_direct(C1, scaled) == pytest.approx(
        averaged_H_direct(C1, base) / t, rel=1e-11)


# -- high-resolution reference oracle --------------------------------------

def test_area_matches_million_node_reference():
    ref = area(C1, _perturbed_curve(M=1_000_000), rule="simpson")
    val = area(C1, _perturbed_profile(N=10_000))
    assert abs(val - ref) / ref <= 1e-8


def test_volume_matches_million_node_reference():
    ref = enclosed_volume(C1, _perturbed_profile(N=1_000_000), rule="simpson")
    val = enclosed_volume(C1, _perturbed_profile(N=1000), rule="simpson")
    assert abs(val - ref) / ref <= 1e-8


# -- summary ---------------------------------------------------------------

def test_summary_is_consistent_with_parts():
    prof = _perturbed_profile(N=120)
    summ = summarize(C1, prof)
    k1, k2 = principal_curvatures(C1, prof)
    assert np.array_equal(summ.k1, k1)
    assert np.array_equal(summ.H, k1 + k2)
    assert summ.area == pytest.approx(area(C1, prof), rel=1e-15)
    assert summ.volume == pytest.approx(enclosed_volume(C1, prof), rel=1e-15)
    assert summ.avg_H == pytest.approx(averaged_H_direct(C1, prof), rel=1e-13)
    assert unit_sphere_volume(C1.n) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert abs(summ.avg_H) <= np.max(np.abs(summ.H))
    assert np.all(summ.v >= 1.0 / C1.f(prof.z)[0] - 1e-15)


@pytest.mark.parametrize("space,slab", [
    (C1, (0.0, 1.0)),
    (C2, (1.0, 2.0)),
    (make_space("C6", lam=1.0), (-0.5, 0.5)),
])
def test_summary_evaluates_the_state_once(monkeypatch, space, slab):
    z = np.linspace(slab[0], slab[1], 65)
    prof = GraphProfile(slab[0], slab[1],
                        1.0 + 0.1 * np.cos(math.pi * (z - slab[0])))
    counts = {"f": 0, "h": 0, "check_r": 0}

    def counting(name):
        fn = getattr(AmbientSpace, name)

        def wrapper(self, *args):
            counts[name] += 1
            return fn(self, *args)
        return wrapper

    for name in counts:
        monkeypatch.setattr(AmbientSpace, name, counting(name))
    summarize(space, prof)
    assert counts == {"f": 1, "h": 1, "check_r": 1}
