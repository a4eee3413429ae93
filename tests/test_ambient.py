"""Ambient-space families: closed forms, curvature, norms, radial measure."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eqflow.ambient import (
    Rect,
    axial_measure,
    curvature_components,
    make_space,
    radial_measure,
    radial_measure_inverse,
    ricci_normal_bound,
    sup_norms,
)
from fd_curvature import plane_curvatures

# every expression sup_norms bounds
SUP_NORM_KEYS = ("f^2", "f^-1", "f^-2", "f^-n", "f'/f",
                 "h'/h", "h'/(f h)", "h''/h", "h'^2/h^2", "ricci")

# One space-form representative per family with a window that stays away
# from the coordinate degeneracies (r = 0, r = zero of h, f = 0).
IDENTITY_WINDOWS = [
    ("C1", None, (-1.0, 1.0), (0.3, 2.0)),
    ("C2", None, (0.5, 2.5), (0.3, 2.8)),
    ("C3", -1.0, (-1.0, 1.0), (0.3, 2.0)),
    ("C4", -1.0, (0.4, 2.0), (0.3, 2.8)),
    ("C5", -1.0, (-1.0, 1.0), (0.3, 2.0)),
    ("C6", 1.0, (-0.6, 0.6), (0.3, 2.8)),
]


# -- construction ----------------------------------------------------------

def test_flat_slab_model():
    sp = make_space("C1", n=2)
    assert sp.lam == 0.0 and sp.h_zero is None
    f, fp, fpp = sp.f(0.37)
    assert (f, fp, fpp) == (1.0, 0.0, 0.0)
    h, hp, hpp = sp.h(1.4)
    assert (h, hp, hpp) == (1.4, 1.0, 0.0)


def test_spherical_crown_model():
    sp = make_space("C2", n=2)
    assert sp.h_zero == math.pi
    assert sp.z_domain == (0.0, None)
    f, fp, fpp = sp.f(2.0)
    assert (f, fp, fpp) == (2.0, 1.0, 0.0)


def test_parallel_slice_model():
    sp = make_space("C6", lam=1.0, n=2)
    assert sp.h_zero == pytest.approx(math.pi, abs=0)
    assert sp.z_domain == (-math.pi / 2, math.pi / 2)
    assert sp.f(0.3)[0] == pytest.approx(math.cos(0.3), rel=1e-15)
    assert sp.h(0.3)[0] == pytest.approx(math.sin(0.3), rel=1e-15)


@pytest.mark.parametrize("case,lam", [
    ("C3", 1.0), ("C4", 0.5), ("C5", 0.0), ("C6", -1.0),
    ("C3", None), ("C6", None),
])
def test_wrong_curvature_sign_rejected(case, lam):
    with pytest.raises(ValueError):
        make_space(case, lam=lam, n=2)


def test_low_dimension_rejected():
    with pytest.raises(ValueError):
        make_space("C1", n=1)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        make_space("C9", n=2)


@pytest.mark.parametrize("case,lam", [("C1", None), ("C4", -1.0), ("C5", -1.0)])
def test_independent_h_rate_only_where_meaningful(case, lam):
    with pytest.raises(ValueError):
        make_space(case, lam=lam, n=2, lam_h=-2.0)


def test_mismatched_variant_is_not_space_form():
    sp = make_space("C3", lam=-1.0, n=2, lam_h=-2.0)
    assert not sp.is_space_form
    assert make_space("C3", lam=-1.0, n=2).is_space_form


# -- pointwise evaluation --------------------------------------------------

def test_eval_crown_at_quarter_turn():
    sp = make_space("C2", n=2)
    f, fp, fpp = sp.f(2.0)
    h, hp, hpp = sp.h(math.pi / 2)
    assert (f, fp, fpp) == (2.0, 1.0, 0.0)
    assert h == pytest.approx(1.0, abs=1e-15)
    assert hp == pytest.approx(0.0, abs=1e-15)
    assert hpp == pytest.approx(-1.0, abs=1e-15)


def test_eval_flat_anywhere():
    sp = make_space("C1", n=2)
    assert (*sp.f(-3.7), *sp.h(1.25)) == (1.0, 0.0, 0.0, 1.25, 1.0, 0.0)


def test_eval_equidistant_family_at_origin():
    sp = make_space("C3", lam=-1.0, n=2)
    f, fp, fpp = sp.f(0.0)
    h, hp, hpp = sp.h(0.7)
    assert (f, fp, fpp) == (1.0, 0.0, 1.0)
    assert h == pytest.approx(math.sinh(0.7), rel=1e-15)
    assert hp == pytest.approx(math.cosh(0.7), rel=1e-15)
    assert hpp == pytest.approx(math.sinh(0.7), rel=1e-15)


# -- curvature -------------------------------------------------------------

def test_flat_curvature_vanishes():
    sp = make_space("C1", n=2)
    c = curvature_components(sp, 0.3, 1.2)
    assert (c.axis_plane, c.radial_plane, c.sphere_plane) == (0.0, 0.0, 0.0)


def test_crown_curvature_cancels():
    c = curvature_components(make_space("C2", n=2), 1.5, 0.8)
    for val in (c.axis_plane, c.radial_plane, c.sphere_plane):
        assert abs(val) <= 1e-13


def test_hyperbolic_curvature_value_and_oracle():
    sp = make_space("C3", lam=-1.0, n=2)
    c = curvature_components(sp, 0.5, 0.7)
    for val in (c.axis_plane, c.radial_plane, c.sphere_plane):
        assert val == pytest.approx(-1.0, abs=1e-12)
    oracle = plane_curvatures(make_space("C3", lam=-1.0, n=3), 0.5, 0.7)
    for name, val in oracle.items():
        assert val == pytest.approx(-1.0, abs=1e-6), name


def test_band_predicate_is_the_open_band():
    crown, flat = make_space("C2", n=2), make_space("C1", n=2)
    assert crown.admits(np.array([1e-300, 3.14159]))
    assert flat.admits(np.array([1e-300, 1e300]))
    for bad in (0.0, -1.0, math.pi, 4.0, math.nan, math.inf, -math.inf):
        assert not crown.admits(np.array([1.0, bad]))
        with pytest.raises(ValueError, match="r out of range"):
            crown.check_r([1.0, bad])
    for bad in (0.0, math.nan, math.inf):
        assert not flat.admits(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        flat.check_r([1.0, math.nan])
    assert not crown.admits(3.3) and crown.admits(3.1)


def test_curvature_rejects_degenerate_radius():
    sp = make_space("C2", n=2)
    with pytest.raises(ValueError):
        curvature_components(sp, 1.5, 0.0)
    with pytest.raises(ValueError):
        curvature_components(sp, 1.5, math.pi)
    with pytest.raises(ValueError):
        curvature_components(sp, -1.0, 0.5)


@pytest.mark.parametrize("case,lam,z_win,r_win", IDENTITY_WINDOWS)
def test_space_form_identity(case, lam, z_win, r_win):
    sp = make_space(case, lam=lam, n=2)
    rng = np.random.default_rng(11)
    z = rng.uniform(*z_win, 1000)
    r = rng.uniform(*r_win, 1000)
    c = curvature_components(sp, z, r)
    for arr in (c.axis_plane, c.radial_plane, c.sphere_plane):
        assert np.max(np.abs(arr - sp.lam)) <= 1e-9


@pytest.mark.parametrize("case,lam,z_win,r_win", IDENTITY_WINDOWS)
def test_finite_difference_oracle_matches(case, lam, z_win, r_win):
    sp = make_space(case, lam=lam, n=3)
    rng = np.random.default_rng(7)
    for _ in range(2):
        z = float(rng.uniform(*z_win))
        r = float(rng.uniform(*r_win))
        closed = curvature_components(sp, z, r)
        fd = plane_curvatures(sp, z, r)
        for name in ("axis_plane", "radial_plane", "sphere_plane"):
            assert fd[name] == pytest.approx(getattr(closed, name),
                                             abs=1e-5), (name, z, r)


def test_oracle_matches_mismatched_variant():
    # position-dependent curvature, so this exercises more than constants
    sp = make_space("C3", lam=-1.0, n=3, lam_h=-2.0)
    closed = curvature_components(sp, 0.4, 0.9)
    fd = plane_curvatures(sp, 0.4, 0.9)
    for name in ("axis_plane", "radial_plane", "sphere_plane"):
        assert fd[name] == pytest.approx(getattr(closed, name), abs=1e-5)


# -- Ricci bound -----------------------------------------------------------

def test_ricci_bound_flat_cases():
    rect = Rect(0.5, 2.0, 0.3, 1.5)
    assert ricci_normal_bound(make_space("C1", n=2), rect) == 0.0
    assert ricci_normal_bound(make_space("C2", n=2), rect) == 0.0


def test_ricci_bound_space_form_is_einstein_constant():
    rect = Rect(-1.0, 1.0, 0.3, 1.5)
    assert ricci_normal_bound(make_space("C3", lam=-1.0, n=2), rect) == 2.0
    assert ricci_normal_bound(make_space("C3", lam=-1.0, n=3), rect) == 3.0


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("case,lam,lam_h", [
    ("C3", -1.0, -2.0), ("C3", -2.5, -0.3),
    ("C6", 1.0, 3.0), ("C6", 0.5, 0.2),
])
@pytest.mark.parametrize("z_lo,z_hi", [(-0.5, 0.8), (0.2, 0.9), (-1.0, -0.1)])
def test_ricci_bound_of_mismatched_variant_matches_dense_sample(
        case, lam, lam_h, n, z_lo, z_hi):
    # Reference: the Ricci entries from the sectional curvatures on a dense
    # z sample (plus z = 0 when inside), at one r, since the entries do not
    # depend on r in these families.
    sp = make_space(case, lam=lam, n=n, lam_h=lam_h)
    rect = Rect(z_lo, z_hi, 0.2, 0.6)
    z = np.linspace(z_lo, z_hi, 400_001)
    if z_lo < 0.0 < z_hi:
        z = np.append(z, 0.0)
    k = curvature_components(sp, z, np.full_like(z, 0.4))
    entries = (n * k.axis_plane,
               k.axis_plane + (n - 1) * k.radial_plane,
               k.axis_plane + k.radial_plane + (n - 2) * k.sphere_plane)
    sampled = max(float(np.max(np.abs(e))) for e in entries)
    assert ricci_normal_bound(sp, rect) == pytest.approx(sampled, rel=1e-15)


def test_ricci_bound_rejects_rect_touching_axis():
    sp = make_space("C2", n=2)
    with pytest.raises(ValueError):
        ricci_normal_bound(sp, Rect(1.0, 2.0, 0.0, 1.0))


# -- sup norms -------------------------------------------------------------

def test_sup_norms_flat_slab():
    norms = sup_norms(make_space("C1", n=2), Rect(0.0, 1.0, 0.5, 2.0))
    assert norms["f'/f"] == 0.0
    assert norms["h'/h"] == 2.0
    assert norms["h'^2/h^2"] == 4.0


def test_sup_norms_crown():
    norms = sup_norms(make_space("C2", n=2), Rect(1.0, 2.0, 0.5, math.pi / 2))
    assert norms["f'/f"] == 1.0
    assert norms["f^-n"] == 1.0


def test_sup_norms_horospherical():
    norms = sup_norms(make_space("C5", lam=-1.0, n=2), Rect(0.0, 1.0, 0.5, 2.0))
    assert norms["f^2"] == pytest.approx(math.e**2, rel=1e-15)
    assert norms["f'/f"] == pytest.approx(1.0, rel=1e-15)


def test_sup_norms_has_every_advertised_key():
    norms = sup_norms(make_space("C4", lam=-1.0, n=2), Rect(0.5, 1.5, 0.4, 2.0))
    assert set(norms.values) == set(SUP_NORM_KEYS)
    for key in SUP_NORM_KEYS:
        assert norms[key] >= 0.0


@given(
    z0=st.floats(-0.9, 0.0), z1=st.floats(0.1, 0.9),
    r0=st.floats(0.2, 0.9), r1=st.floats(1.0, 2.4),
    shrink=st.floats(0.05, 0.45),
)
def test_sup_norms_monotone_under_inclusion(z0, z1, r0, r1, shrink):
    sp = make_space("C3", lam=-1.0, n=2, lam_h=-2.0)
    outer = Rect(z0, z1, r0, r1)
    dz = shrink * (z1 - z0)
    dr = shrink * (r1 - r0)
    # shrink < 1/2 keeps inner inside outer
    inner = Rect(z0 + dz, z1 - dz, r0 + dr, r1 - dr)
    big = sup_norms(sp, outer)
    small = sup_norms(sp, inner)
    for key in SUP_NORM_KEYS:
        assert small[key] <= big[key] * (1.0 + 1e-12)


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        Rect(1.0, 1.0, 0.5, 2.0)


# -- radial measure --------------------------------------------------------

def test_radial_measure_flat():
    assert radial_measure(make_space("C1", n=2), 2.0) == 2.0


def test_radial_measure_crown():
    sp = make_space("C2", n=2)
    assert radial_measure(sp, math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_radial_measure_crown_higher_dimension():
    sp = make_space("C2", n=3)
    # integral of sin^2 over [0, pi/2]
    assert radial_measure(sp, math.pi / 2) == pytest.approx(math.pi / 4,
                                                            rel=1e-14)


def test_radial_measure_equidistant_family():
    sp = make_space("C3", lam=-1.0, n=2)
    val = radial_measure(sp, 1.0)
    assert val == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-14)
    assert val == pytest.approx(0.5430806348152437, rel=1e-13)


@pytest.mark.parametrize("case,lam", [
    ("C1", None), ("C2", None), ("C3", -1.0), ("C4", -1.0),
    ("C5", -1.0), ("C6", 1.0),
])
@given(frac=st.floats(0.05, 0.95))
def test_radial_measure_round_trip(case, lam, frac):
    sp = make_space(case, lam=lam, n=2)
    top = sp.h_zero if sp.h_zero is not None else 3.0
    R = frac * top
    back = radial_measure_inverse(sp, radial_measure(sp, R))
    assert back == pytest.approx(R, abs=1e-10)


def test_radial_measure_strictly_increasing():
    sp = make_space("C4", lam=-1.0, n=3)
    R = np.linspace(0.05, math.pi - 0.05, 200)
    vals = radial_measure(sp, R)
    assert np.all(np.diff(vals) > 0.0)


def test_radial_measure_inverse_rejects_overflow():
    sp = make_space("C2", n=2)
    with pytest.raises(ValueError):
        radial_measure_inverse(sp, 2.5)   # total measure up to pi is 2


def test_radial_measure_inverse_unbounded_side():
    sp = make_space("C1", n=2)
    assert radial_measure_inverse(sp, 50.0) == pytest.approx(10.0, rel=1e-14)


# (case, lam, lam_h) of every family with a curved h, mismatched rates
# included
CURVED_H = [("C2", None, None), ("C3", -1.0, None), ("C3", -1.0, -2.0),
            ("C4", -1.0, None), ("C6", 1.0, None), ("C6", 1.0, 3.0)]
CURVED_H_IDS = ["C2", "C3", "C3-mismatched", "C4", "C6", "C6-mismatched"]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case,lam,lam_h", CURVED_H, ids=CURVED_H_IDS)
def test_radial_measure_inverse_round_trip_to_the_last_bits(case, lam,
                                                            lam_h, n):
    # away from r = 0 and from the zero of h, where R itself loses bits
    sp = make_space(case, lam=lam, n=n, lam_h=lam_h)
    top = sp.h_zero if sp.h_zero is not None else 3.0
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        R = frac * top
        assert radial_measure_inverse(sp, radial_measure(sp, R)) \
            == pytest.approx(R, rel=0.0, abs=1e-14)


def _quad(fn, x):
    """Adaptive quadrature of fn over [0, x] to 1e-14 relative."""
    from scipy.integrate import quad
    return quad(fn, 0.0, x, epsabs=1e-300, epsrel=1e-14, limit=200)[0]


# the reference asks quad for the last digits it can give
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case,lam,lam_h", CURVED_H, ids=CURVED_H_IDS)
def test_radial_measure_keeps_its_relative_accuracy_near_the_axis(case, lam,
                                                                  lam_h, n):
    # near r = 0 the closed form's recursion cancels to O(r^(n+1))
    sp = make_space(case, lam=lam, n=n, lam_h=lam_h)
    for R in (1e-3, 1e-2, 3e-2, 0.1):
        got = radial_measure(sp, R)
        want = _quad(lambda r: float(sp.h(r)[0]) ** (n - 1), R)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert radial_measure_inverse(sp, got) \
            == pytest.approx(R, rel=0.0, abs=2e-14)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_axial_measure_keeps_its_relative_accuracy_near_zero():
    sp = make_space("C4", lam=-1.0, n=4)
    want = _quad(lambda z: float(sp.f(z)[0]) ** 4, 0.01)
    assert axial_measure(sp, 0.01) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("case,lam,lam_h",
                         [c for c in CURVED_H if c[0] != "C3"],
                         ids=[i for i in CURVED_H_IDS if "C3" not in i])
def test_radial_measure_inverse_is_exact_at_the_far_axis(case, lam, lam_h,
                                                         n):
    sp = make_space(case, lam=lam, n=n, lam_h=lam_h)
    total = radial_measure(sp, sp.h_zero)
    assert radial_measure_inverse(sp, total) == sp.h_zero
    assert radial_measure_inverse(sp, total * (1.0 + 1e-13)) == sp.h_zero
    with pytest.raises(ValueError, match="exceeds total"):
        radial_measure_inverse(sp, total * (1.0 + 2e-13))
    # one ulp below the total, where R' = h^(n-1) all but vanishes
    below = radial_measure_inverse(sp, math.nextafter(total, 0.0))
    assert 0.0 < sp.h_zero - below < 1e-3


def test_space_is_hashable_and_immutable():
    sp = make_space("C6", lam=1.0, n=2)
    assert {sp: "ok"}[make_space("C6", lam=1.0, n=2)] == "ok"
    with pytest.raises(Exception):
        sp.n = 4
