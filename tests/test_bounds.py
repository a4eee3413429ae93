"""A-priori constants, boundary identities, and runtime monitors."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from eqflow import ambient, bounds, flow
from eqflow.ambient import Rect, make_space, sup_norms
from eqflow.bounds import (
    _stencil_weights,
    avg_H_bound,
    boundary_compat_residual,
    boundary_identity_residuals,
    compute_bound_set,
    graph_bound,
    longtime_area_check,
    radius_bounds,
    radius_measures,
    run_monitors,
    slab_f_integral,
    slab_volume,
)
from eqflow.curve import GraphProfile, quadrature
from eqflow.geometry import (
    GraphGrid,
    area,
    averaged_H_direct,
    enclosed_volume,
    principal_curvatures,
    summarize,
)
from eqflow.reference_cases import make_initial

C1 = make_space("C1", n=2)
C2 = make_space("C2", n=2)


def _cylinder(radius, N=200, a=0.0, b=1.0):
    return GraphProfile(a, b, np.full(N + 1, float(radius)))


def _perturbed(radius, amp, N=200, a=0.0, b=1.0):
    z = np.linspace(a, b, N + 1)
    return GraphProfile(a, b, radius + amp * np.cos(math.pi * (z - a) / (b - a)))


def _norms(space, slab, r_lo=0.5, r_hi=1.0):
    return sup_norms(space, Rect(slab[0], slab[1], r_lo, r_hi))


def _measures(space, slab, volume, area):
    """``radius_measures`` from the values a freeze derives once (the
    radius band of the sup norms does not enter)."""
    return radius_measures(space, slab_f_integral(space, slab),
                           _norms(space, slab), volume, area)


# -- slab volume and radius localization -----------------------------------

def test_slab_volume_infinite_when_h_never_returns():
    assert slab_volume(C1, slab_f_integral(C1, (0.0, 1.0))) is None


def test_slab_volume_crown():
    # 2 pi * int_1^2 z^2 dz * int_0^pi sin = 2 pi * 7/3 * 2
    assert slab_volume(C2, slab_f_integral(C2, (1.0, 2.0))) == pytest.approx(
        28.0 * math.pi / 3.0, rel=1e-12)


def test_radius_bounds_flat_cylinder():
    m_vol, _, m_cap = _measures(C1, (0.0, 1.0), math.pi, 2.0 * math.pi)
    r_vol, r_cap = radius_bounds(C1, m_vol, m_cap)
    assert r_vol == pytest.approx(1.0, rel=1e-12)
    assert r_cap == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_radius_bounds_crown_plane():
    m_vol, _, m_cap = _measures(C2, (1.0, 2.0), 14.0 * math.pi / 3.0,
                                3.0 * math.pi)
    r_vol, r_cap = radius_bounds(C2, m_vol, m_cap)
    assert r_vol == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert r_cap is None   # area budget exceeds the measure up to the far axis


def test_radius_bounds_rejects_nonpositive_inputs():
    for volume, area_ in ((0.0, 1.0), (1.0, -2.0)):
        m_vol, _, m_cap = _measures(C1, (0.0, 1.0), volume, area_)
        with pytest.raises(ValueError):
            radius_bounds(C1, m_vol, m_cap)


@given(volume=st.floats(0.1, 40.0), extra=st.floats(0.01, 50.0))
def test_radius_gap_is_strict(volume, extra):
    m_vol, _, m_cap = _measures(C1, (0.0, 1.0), volume, extra)
    r_vol, r_cap = radius_bounds(C1, m_vol, m_cap)
    assert r_cap is not None
    assert 0.0 < r_vol < r_cap


@given(radius=st.floats(0.5, 1.4), amp=st.floats(0.0, 0.3))
def test_profile_stays_below_own_radius_cap(radius, amp):
    prof = _perturbed(radius, amp, N=64)
    for space in (C1, C2) if radius + amp < math.pi else (C1,):
        a, b = (0.0, 1.0)
        if space is C2:
            prof_s = GraphProfile(1.0, 2.0, prof.r)
            a, b = 1.0, 2.0
        else:
            prof_s = prof
        V = enclosed_volume(space, prof_s)
        A = area(space, prof_s)
        m_vol, _, m_cap = _measures(space, (a, b), V, A)
        _, r_cap = radius_bounds(space, m_vol, m_cap)
        if r_cap is not None:
            assert float(np.max(prof_s.r)) < r_cap


# -- averaged-curvature bound ----------------------------------------------

def test_avg_H_bound_flat_closed_form():
    assert avg_H_bound(C1, _norms(C1, (0.0, 1.0), 0.5, 2.0)) == pytest.approx(
        2.0 + math.pi, rel=1e-14)


def test_avg_H_bound_crown_closed_form():
    expect = (1.0 + math.pi / 2.0) / math.tan(0.5) + (math.pi / 2.0 + 2.0)
    norms = _norms(C2, (1.0, 2.0), 0.5, math.pi / 2.0)
    assert avg_H_bound(C2, norms) == pytest.approx(expect, rel=1e-14)


@given(rho=st.floats(0.2, 0.8), top=st.floats(1.2, 2.6),
       shrink=st.floats(0.0, 0.3))
def test_avg_H_bound_monotone_in_radius_band(rho, top, shrink):
    wide = avg_H_bound(C2, _norms(C2, (1.0, 2.0), rho, top))
    narrow = avg_H_bound(C2, _norms(C2, (1.0, 2.0), rho + shrink,
                                    top - shrink * 0.5))
    assert narrow <= wide * (1.0 + 1e-12)


@given(radius=st.floats(0.8, 2.4), amp=st.floats(0.0, 0.25))
def test_average_curvature_respects_bound(radius, amp):
    prof = _perturbed(radius, amp, N=96, a=1.0, b=2.0)
    avg = averaged_H_direct(C2, prof)
    # margined band, as the run-time monitors freeze it; also keeps the
    # rectangle nondegenerate when the profile is constant
    lo = float(np.min(prof.r)) * 0.999
    hi = float(np.max(prof.r)) * 1.001
    assert abs(avg) <= avg_H_bound(C2, _norms(C2, (1.0, 2.0), lo, hi)) + 1e-12


# -- graph-slope estimate --------------------------------------------------

def test_graph_bound_flat_constants():
    norms = _norms(C1, (0.0, 1.0), 0.5, 2.0)
    curv, rate, decay, source, v_cap = graph_bound(
        C1, norms, avg_H_bound(C1, norms), math.sqrt(3.0), 1.0)
    assert curv == pytest.approx(4.0, rel=1e-14)
    assert rate == pytest.approx(7.0, rel=1e-14)
    assert decay == pytest.approx(7.0, rel=1e-14)
    expect = 7.0 * math.exp(7.0 * math.sqrt(3.0)) * (2.0 + math.pi + 7.0)
    assert source == pytest.approx(expect, rel=1e-13)
    assert source == pytest.approx(1.566e7, rel=2e-3)
    # e^{rate * r_hi} = e^14 ~ 1.2e6 loses to source/decay ~ 2.24e6
    assert math.exp(14.0) < source / decay
    assert v_cap == pytest.approx(source / decay, rel=1e-15)


def test_graph_bound_needs_some_radius_cap():
    with pytest.raises(ValueError):
        graph_bound(C1, _norms(C1, (0.0, 1.0), 0.5, 2.0), 1.0, None, 1.0)


def test_graph_bound_uses_far_axis_when_cap_undefined():
    norms = _norms(C2, (1.0, 2.0), 0.5, 2.0)
    curv, rate, decay, source, v_cap = graph_bound(
        C2, norms, avg_H_bound(C2, norms), None, 1.0)
    assert all(map(math.isfinite, (curv, rate, decay, source, v_cap)))
    assert rate >= 1.0


def test_slope_constants_saturate_instead_of_overflowing():
    bset = compute_bound_set(C1, (0.0, 1.0), math.pi, 2.0 * math.pi,
                             0.01, 2.0, 1.0)
    assert math.isinf(bset.source_const) and math.isinf(bset.v_cap)
    payload = bset.to_json_dict()
    assert payload["source_const"] is None and payload["v_cap"] is None
    json.dumps(payload)


# -- long-time area threshold ----------------------------------------------

def _longtime(space, slab, volume, area_):
    m_vol, s, _ = _measures(space, slab, volume, area_)
    return longtime_area_check(space, m_vol, s, area_)


def test_longtime_thresholds_flat_cylinders():
    thr, ok = _longtime(C1, (0.0, 1.0), 9.0 * math.pi, 6.0 * math.pi)
    assert thr == pytest.approx(9.0 * math.pi, rel=1e-14) and ok
    thr, ok = _longtime(C1, (0.0, 1.0), math.pi, 2.0 * math.pi)
    assert thr == pytest.approx(math.pi, rel=1e-14) and not ok


def test_longtime_zero_volume_never_passes():
    thr, ok = _longtime(C1, (0.0, 1.0), 0.0, 1.0)
    assert thr == 0.0 and not ok


@given(volume=st.floats(0.5, 20.0), a1=st.floats(0.1, 50.0),
       frac=st.floats(0.1, 1.0))
def test_longtime_monotone_in_area(volume, a1, frac):
    thr1, ok1 = _longtime(C1, (0.0, 1.0), volume, a1)
    thr2, ok2 = _longtime(C1, (0.0, 1.0), volume, a1 * frac)
    assert thr1 == thr2
    if ok1:
        assert ok2


def test_longtime_uses_finite_slab_volume_for_crown():
    V = 14.0 * math.pi / 3.0
    thr, _ = _longtime(C2, (1.0, 2.0), V, 1.0)
    vol_g = slab_volume(C2, slab_f_integral(C2, (1.0, 2.0)))
    # f^-n sup = 1 on [1,2]; integral of f^2 = 7/3
    assert thr == pytest.approx(min(V, vol_g - V) / (7.0 / 3.0), rel=1e-12)


# -- assembled bound set ---------------------------------------------------

def test_bound_set_fields_and_serialization():
    bset = compute_bound_set(C1, (0.0, 1.0), math.pi, 2.0 * math.pi,
                             0.9, 1.1, 1.0)
    assert bset.n == 2
    assert 0.0 < bset.r_volume < bset.r_cap
    assert bset.weight_rate >= 1.0
    assert bset.v_cap >= 1.0
    assert bset.slab_vol is None
    payload = bset.to_json_dict()
    assert payload["slab"] == [0.0, 1.0]
    text = json.dumps(payload)
    assert "NaN" not in text and "Infinity" not in text


# -- finite-difference stencils for wall identities ------------------------

def test_stencil_weights_reproduce_polynomials():
    offs = np.array([1.0, 2.0, 3.0])
    poly = lambda x: 3.0 + 2.0 * x + 1.5 * x * x
    w0 = _stencil_weights(offs, 0)
    w1 = _stencil_weights(offs, 1)
    vals = poly(offs)
    assert w0 @ vals == pytest.approx(3.0, rel=1e-12)
    assert w1 @ vals == pytest.approx(2.0, rel=1e-12)
    w2 = _stencil_weights(np.arange(4.0), 2)
    cubic = lambda x: 1.0 + x - 2.0 * x**2 + 0.5 * x**3
    assert w2 @ cubic(np.arange(4.0)) == pytest.approx(-4.0, rel=1e-10)


def test_wall_identities_trivial_in_flat_family():
    # residuals are sums of stencil weights times constants; the weights
    # come from a linear solve, so "zero" means roundoff over dz^3
    prof = _cylinder(1.0)
    res = boundary_identity_residuals(C1, prof, 1.0)
    assert max(abs(v) for v in res.dH + res.dk2) <= 1e-9
    compat = boundary_compat_residual(C1, prof, 1.0)
    assert max(abs(v) for v in compat) <= 1e-7


def test_orbit_curvature_identity_on_constant_latitude():
    # k2 = cot(r0)/z in the crown family; its wall identity holds exactly
    # in the continuum, so the residual is pure stencil truncation.
    r0 = 0.8
    res_sizes = []
    for N in (100, 200, 400):
        prof = _cylinder(r0, N=N, a=1.0, b=2.0)
        avg = averaged_H_direct(C2, prof)
        res = boundary_identity_residuals(C2, prof, avg)
        res_sizes.append(max(abs(res.dk2[0]), abs(res.dk2[1])))
    assert res_sizes[2] <= 1e-3
    for lo, hi in zip(res_sizes[1:], res_sizes[:-1]):
        assert math.log2(hi / lo) >= 1.8


def test_compat_residual_vanishes_on_equatorial_plane():
    prof = _cylinder(math.pi / 2.0, N=100, a=1.0, b=2.0)
    res = boundary_compat_residual(C2, prof, 0.0)
    assert max(abs(res[0]), abs(res[1])) <= 1e-8


# -- dissipation integral --------------------------------------------------

def test_dissipation_zero_on_constant_curvature_state():
    assert summarize(C1, _cylinder(1.0)).dissipation == 0.0


@pytest.mark.parametrize("space,slab", [
    (C1, (0.0, 1.0)), (C2, (1.0, 2.0)), (make_space("C6", lam=1.0), (-0.5, 0.5)),
], ids=["C1", "C2", "C6"])
def test_summary_dissipation_matches_the_flow_state(space, slab):
    # run_monitors reads D from either evaluation of a state
    prof = make_initial(space, slab, 100, kind="perturbed", radius=1.0,
                        amplitude=0.1)
    summ = summarize(space, prof)
    state = flow._full_eval(GraphGrid(space, prof), prof.r)
    assert summ.dissipation > 0.0
    assert state.dissipation == pytest.approx(summ.dissipation, rel=1e-10)


def test_dissipation_matches_direct_quadrature():
    prof = _perturbed(1.0, 0.1, N=300)
    k1, k2 = principal_curvatures(C1, prof)
    H = k1 + k2
    avg = averaged_H_direct(C1, prof)
    z = prof.z
    rdot = np.gradient(prof.r, z)
    rdot[0] = rdot[-1] = 0.0
    elem = np.sqrt(1.0 + rdot**2) * prof.r
    ref = 2.0 * math.pi * quadrature((avg - H) ** 2 * elem, x=z)
    val = summarize(C1, prof).dissipation
    assert val > 0.0
    assert val == pytest.approx(ref, rel=2e-2)


# -- runtime monitors ------------------------------------------------------

def _healthy_setup():
    prof = _cylinder(1.0)
    summ = summarize(C1, prof)
    bset = compute_bound_set(C1, (0.0, 1.0), summ.volume, summ.area,
                             0.99, 1.01, float(np.max(summ.v)))
    return prof, summ, bset


def test_monitors_pass_on_stationary_state():
    prof, summ, bset = _healthy_setup()
    report = run_monitors(C1, bset, prof, summ, 0.0)
    assert report.failures == []
    assert {"radius_cap", "avg_H_cap", "slope_cap",
            "volume_drift"} <= set(report.checks)
    assert "dissipation" not in report.checks   # needs a previous step


def test_slope_check_reads_the_largest_slope_of_the_summary():
    prof, summ, bset = _healthy_setup()
    assert summ.v_max == float(np.max(summ.v))
    steep = dataclasses.replace(summ, v_max=2.0 * bset.v_cap)
    check = run_monitors(C1, bset, prof, steep, 0.0).checks["slope_cap"]
    assert check.observed == 2.0 * bset.v_cap and not check.passed


def test_monitors_flag_corrupted_radius():
    prof, summ, bset = _healthy_setup()
    bad = prof.with_radii(prof.r * 10.0)
    bad_summ = summarize(C1, bad)
    report = run_monitors(C1, bset, bad, bad_summ, 0.1)
    assert "radius_cap" in report.failures
    assert "volume_drift" in report.failures
    check = report.checks["radius_cap"]
    assert check.observed == pytest.approx(10.0, rel=1e-12)
    assert not check.passed
    # without a profile, r_max is the summary's
    assert bad_summ.r_max == float(np.max(bad.r))
    assert run_monitors(C1, bset, None, bad_summ, 0.1) == report


# One space per family, as the benchmark flows them; C3 is the mismatched
# n = 3 variant.
MONITOR_SPACES = [
    (dict(case="C1"), (0.0, 1.0)),
    (dict(case="C2"), (1.0, 2.0)),
    (dict(case="C3", lam=-1.0, lam_h=-2.0, n=3), (-0.5, 0.5)),
    (dict(case="C4", lam=-1.0), (1.0, 2.0)),
    (dict(case="C5", lam=-1.0), (0.0, 1.0)),
    (dict(case="C6", lam=1.0), (-0.5, 0.5)),
]


# (id, space, slab) of every family on slabs inside its z domain,
# mismatched rates included
F_SLABS = [
    ("C1", dict(case="C1"), (0.0, 1.0)),
    ("C2", dict(case="C2"), (1.0, 2.0)),
    ("C2-wide", dict(case="C2"), (0.05, 3.0)),
    ("C3", dict(case="C3", lam=-1.0), (-0.5, 0.5)),
    ("C3-mismatched", dict(case="C3", lam=-2.0, lam_h=-0.5), (0.2, 1.7)),
    ("C4", dict(case="C4", lam=-1.0), (1.0, 2.0)),
    ("C4-thin", dict(case="C4", lam=-0.5), (0.1, 0.4)),
    ("C5", dict(case="C5", lam=-1.0), (0.0, 1.0)),
    ("C5-wide", dict(case="C5", lam=-2.0), (-3.0, 5.0)),
    ("C6", dict(case="C6", lam=1.0), (-0.5, 0.5)),
    ("C6-mismatched", dict(case="C6", lam=1.0, lam_h=2.0), (-1.5, 1.2)),
    ("C6-thin", dict(case="C6", lam=4.0), (0.1, 0.7)),
]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kwargs,slab", [c[1:] for c in F_SLABS],
                         ids=[c[0] for c in F_SLABS])
def test_slab_f_integral_matches_adaptive_quadrature(kwargs, slab, n):
    space = make_space(n=n, **kwargs)
    ref, _ = quad(lambda z: float(space.f(z)[0]) ** n, slab[0], slab[1],
                  epsabs=0.0, epsrel=1.2e-14, limit=200)
    assert slab_f_integral(space, slab) == pytest.approx(ref, rel=1e-13)


def _monitor_setup(kwargs, slab, area_scale=1.0):
    """A flow-like initial state and its bound set, frozen at area
    ``area0``: ``area_scale`` times the state's (a large scale makes the
    zero of h bind)."""
    space = make_space(**kwargs)
    prof = make_initial(space, slab, 64, kind="perturbed", radius=1.0,
                        amplitude=0.1, mode=1)
    summ = summarize(space, prof)
    area0 = area_scale * summ.area
    bset = compute_bound_set(space, slab, summ.volume, area0,
                             0.99 * float(np.min(prof.r)),
                             1.01 * float(np.max(prof.r)),
                             float(np.max(summ.v)))
    return space, prof, summ, bset, area0


def _radius_space_cap(space, bset, area):
    """The radius cap as radii: the stricter of the frozen cap, the cap of
    the current area and the zero of h."""
    _, r_cap_now = radius_bounds(space, bset.vol_measure,
                                 bset.vol_measure + bset.area_rate * area)
    caps = [c for c in (bset.r_cap, r_cap_now, space.h_zero) if c is not None]
    return min(caps)


@pytest.mark.parametrize("kwargs,slab", MONITOR_SPACES,
                         ids=[k["case"] for k, _ in MONITOR_SPACES])
def test_measure_space_radius_cap_matches_radius_space(kwargs, slab):
    setups = [_monitor_setup(kwargs, slab)]
    if kwargs["case"] in ("C2", "C6"):
        setups.append(_monitor_setup(kwargs, slab, area_scale=1e3))
    for space, prof, summ, bset, area0 in setups:
        for area in (0.5 * area0, 0.9 * area0, 1.5 * area0, 3.0 * area0):
            cap = _radius_space_cap(space, bset, area)
            if bset.r_cap is None:
                assert cap == space.h_zero
            for rel in (-1e-11, -1e-6, 1e-6, 1e-11):
                r_max = cap * (1.0 + rel)
                state = prof.with_radii(prof.r * (r_max / float(np.max(prof.r))))
                report = run_monitors(space, bset, state,
                                      dataclasses.replace(summ, area=area), 0.1)
                check = report.checks["radius_cap"]
                assert check.observed == float(np.max(state.r))
                assert check.passed == (check.observed < cap) == (rel < 0.0)
                if check.passed:
                    frozen = bset.r_cap if bset.r_cap is not None else space.h_zero
                    assert check.threshold == frozen
                else:
                    assert check.threshold == pytest.approx(cap, rel=1e-12)


def test_radius_cap_check_finds_no_root_on_a_passing_record(monkeypatch):
    counts = {"inverse": 0, "integral": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bounds, "radial_measure_inverse",
                        counting("inverse", bounds.radial_measure_inverse))
    monkeypatch.setattr(bounds, "slab_f_integral",
                        counting("integral", bounds.slab_f_integral))
    for kwargs, slab in MONITOR_SPACES:
        space, prof, summ, bset, _ = _monitor_setup(kwargs, slab)
        counts.update(inverse=0, integral=0)
        report = run_monitors(space, bset, prof, summ, 0.1,
                              prev_area=summ.area * (1.0 + 1e-9),
                              prev_dissipation=1.0, dt=1e-5)
        assert report.checks["radius_cap"].passed
        assert counts == {"inverse": 0, "integral": 0}
        bad = prof.with_radii(prof.r * (1.01 * bset.r_cap / np.max(prof.r)))
        report = run_monitors(space, bset, bad, summ, 0.1)
        assert not report.checks["radius_cap"].passed
        assert counts == {"inverse": 1, "integral": 0}


@pytest.mark.parametrize("kwargs,slab", [MONITOR_SPACES[i] for i in (0, 1, 5)],
                         ids=["C1", "C2", "C6"])
def test_freeze_integrates_f_once_and_takes_sup_norms_once(monkeypatch,
                                                           kwargs, slab):
    space, _, summ, bset, area0 = _monitor_setup(kwargs, slab)
    counts = {"integral": 0, "sup_norms": 0, "ricci": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bounds, "slab_f_integral",
                        counting("integral", bounds.slab_f_integral))
    monkeypatch.setattr(bounds, "sup_norms",
                        counting("sup_norms", bounds.sup_norms))
    monkeypatch.setattr(ambient, "ricci_normal_bound",
                        counting("ricci", ambient.ricci_normal_bound))
    again = compute_bound_set(space, slab, bset.volume0, area0, bset.r_lo,
                              bset.r_hi, bset.max_v0)
    assert counts == {"integral": 1, "sup_norms": 1, "ricci": 1}
    assert again == bset


def test_monitors_flag_area_growth():
    prof, summ, bset = _healthy_setup()
    report = run_monitors(C1, bset, prof, summ, 0.1,
                          prev_area=summ.area - 1e-6,
                          prev_dissipation=0.0, dt=1e-5)
    assert "area_monotone" in report.failures


def _trapezoid_pair(summ, dt):
    """The current state with D = 1 and the previous area of a step of
    ``dt`` from D = 3, along which the area falls by their mean; against
    the first decay integral alone the mismatch would be 1/3."""
    return (dataclasses.replace(summ, dissipation=1.0),
            dict(prev_area=summ.area + 2.0 * dt, prev_dissipation=3.0, dt=dt))


def test_dissipation_check_skipped_for_large_steps():
    prof, summ, bset = _healthy_setup()
    report = run_monitors(C1, bset, prof, summ, 0.1, prev_area=summ.area,
                          prev_dissipation=1.0, dt=1.0)
    assert "dissipation" not in report.checks
    # nor is an exact pair checked just above the window
    now, prev = _trapezoid_pair(
        summ, math.nextafter(bounds.MONITOR_DT_MAX, math.inf))
    report = run_monitors(C1, bset, prof, now, 0.1, **prev)
    assert "dissipation" not in report.checks


@pytest.mark.parametrize("dt", [1e-5, bounds.MONITOR_DT_MAX])
def test_dissipation_check_passes_an_exact_trapezoid_pair(dt):
    prof, summ, bset = _healthy_setup()
    now, prev = _trapezoid_pair(summ, dt)
    check = run_monitors(C1, bset, prof, now, 0.1, **prev).checks[
        "dissipation"]
    assert check.passed
    assert check.observed == pytest.approx(0.0, abs=1e-9)
