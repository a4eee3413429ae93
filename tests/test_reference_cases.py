"""Rolling-curve benchmark, graded grids, and initial-state builders."""

import math

import numpy as np
import pytest

from eqflow.ambient import make_space
from eqflow.curve import ParamCurve
from eqflow.reference_cases import (BENCHMARK_CASES, benchmark_space,
                                    build_cycloid_curve, cycloid_rdot,
                                    cycloid_report, cycloid_state, cycloid_xy,
                                    find_turning_points, graded_parameters,
                                    lambda_sweep, make_initial)

# Frozen values computed once with this code at 1e4 graded samples and
# cross-checked by the direct and the integrated-by-parts averaging
# routes; the short forms are the published six-digit roundings.
TURNS_FROZEN = (4.334532154386674, 12.757068780228101)
TURNS_SHORT = (4.33453, 12.7571)
NORMALIZED_FROZEN = {"C2": -1.555531556116209, "C5": -9.724884718961616e24}
NORMALIZED_SHORT = {"C2": -1.55553, "C5": -9.72488e24}


@pytest.fixture(scope="module")
def reports():
    return {case: cycloid_report(case, samples=10000)
            for case in BENCHMARK_CASES}


# ---------------------------------------------------------------- curve


def test_cycloid_point_at_zero():
    z, r = cycloid_state(0.0)[:2]
    assert z == pytest.approx(math.hypot(2.0 * math.pi, 1.0), rel=1e-15)
    assert r == pytest.approx(math.atan2(2.0 * math.pi, 1.0), rel=1e-15)
    assert z == pytest.approx(6.362265, abs=5e-6)
    assert r == pytest.approx(1.412965, abs=5e-6)


def test_cycloid_point_at_two_pi():
    x, y = cycloid_xy(2.0 * math.pi)
    assert x == pytest.approx(6.0 * math.pi, rel=1e-15)
    assert y == pytest.approx(3.0, rel=1e-15)
    z = cycloid_state(2.0 * math.pi)[0]
    assert z == pytest.approx(math.sqrt(36.0 * math.pi ** 2 + 9.0),
                              rel=1e-15)


def test_cycloid_state_matches_finite_differences():
    s = np.linspace(4.0, 12.0, 7)
    eps = 1e-5
    z, r, dz, dr, ddz, ddr = cycloid_state(s)
    zp, rp = cycloid_state(s + eps)[:2]
    zm, rm = cycloid_state(s - eps)[:2]
    assert np.max(np.abs((zp - zm) / (2 * eps) - dz)) <= 1e-8
    assert np.max(np.abs((rp - rm) / (2 * eps) - dr)) <= 1e-8
    assert np.max(np.abs((zp - 2 * z + zm) / eps ** 2 - ddz)) <= 1e-4
    assert np.max(np.abs((rp - 2 * r + rm) / eps ** 2 - ddr)) <= 1e-4


# ---------------------------------------------------------------- turning points


def test_turning_points_frozen_digits():
    roots = find_turning_points()
    assert len(roots) == 2
    for got, frozen, short in zip(roots, TURNS_FROZEN, TURNS_SHORT):
        assert got == pytest.approx(frozen, abs=1e-12)
        assert got == pytest.approx(short, abs=5e-5)
        assert abs(cycloid_rdot(got)) <= 1e-10


def test_turning_points_narrow_window_single_root():
    roots = find_turning_points(3.0, 6.0)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(TURNS_FROZEN[0], abs=1e-12)


def test_turning_points_need_a_sign_change():
    with pytest.raises(ValueError):
        find_turning_points(rdot=lambda s: np.ones_like(np.asarray(s)))


# ---------------------------------------------------------------- graded grid


def test_graded_parameters_shape_and_monotonicity():
    s = graded_parameters(2.0, 5.0, 1000)
    assert len(s) == 1000
    assert s[0] == 2.0 and s[-1] == 5.0
    assert np.all(np.diff(s) > 0.0)
    # endpoint layers are far denser than the uniform spacing
    uniform = 3.0 / 999
    assert s[1] - s[0] < uniform * 1e-6
    assert s[-1] - s[-2] < uniform * 1e-6


def test_graded_parameters_minimum_size():
    with pytest.raises(ValueError):
        graded_parameters(0.0, 1.0, 8)


def test_build_cycloid_curve_is_valid_param_curve():
    curve = build_cycloid_curve(*TURNS_FROZEN, 500)
    assert isinstance(curve, ParamCurve)
    assert np.all(np.diff(curve.s) > 0.0)
    assert np.all(curve.r > 0.0)
    uniform = build_cycloid_curve(*TURNS_FROZEN, 500, graded=False)
    assert np.allclose(np.diff(uniform.s), uniform.s[1] - uniform.s[0])


# ---------------------------------------------------------------- benchmark


def test_benchmark_space_cases():
    sp2 = benchmark_space("C2")
    assert sp2.case == "C2" and sp2.n == 2
    sp5 = benchmark_space("C5")
    assert sp5.case == "C5" and sp5.lam == -1.0 and sp5.n == 2
    with pytest.raises(ValueError):
        benchmark_space("C1")


@pytest.mark.parametrize("case", BENCHMARK_CASES)
def test_benchmark_normalized_average(reports, case):
    rep = reports[case]
    assert rep["s_turn"] == pytest.approx(TURNS_FROZEN, abs=1e-12)
    assert rep["normalized_avg"] == pytest.approx(
        NORMALIZED_FROZEN[case], rel=1e-9)
    assert rep["normalized_avg"] == pytest.approx(
        NORMALIZED_SHORT[case], rel=1e-3)


@pytest.mark.parametrize("case", BENCHMARK_CASES)
def test_benchmark_cross_route_agreement(reports, case):
    rep = reports[case]
    assert rep["cross_rel_diff"] <= 1e-6
    assert rep["avg_H_direct"] == pytest.approx(rep["avg_H_by_parts"],
                                                rel=1e-6)


def test_benchmark_stable_under_sample_doubling():
    lo = cycloid_report("C2", samples=4000)["normalized_avg"]
    hi = cycloid_report("C2", samples=8000)["normalized_avg"]
    assert hi == pytest.approx(lo, rel=2e-6)


def test_benchmark_report_layout(reports):
    rep = reports["C2"]
    assert set(rep) == {"case", "n", "lam", "samples", "s_turn",
                        "area_over_sphere", "avg_H_direct",
                        "avg_H_by_parts", "cross_rel_diff",
                        "normalized_avg"}
    assert rep["case"] == "C2" and rep["n"] == 2
    assert rep["samples"] == 10000
    assert rep["area_over_sphere"] > 0.0


def test_lambda_sweep_layout_and_trend():
    out = lambda_sweep(lams=(-1.0, -0.5), samples=2000)
    assert [d["lam"] for d in out] == [-1.0, -0.5]
    for d in out:
        assert set(d) == {"lam", "area_over_sphere", "avg_H_by_parts",
                          "normalized_avg"}
    # weaker curvature scale shrinks the exponential weights drastically
    assert abs(out[1]["normalized_avg"]) < abs(out[0]["normalized_avg"])


# ---------------------------------------------------------------- initial states


def test_make_initial_cylinder():
    space = make_space("C1")
    prof = make_initial(space, (0.0, 1.0), 50, kind="cylinder", radius=1.0)
    assert prof.N == 50
    assert np.all(prof.r == 1.0)


def test_make_initial_perturbed_closed_form():
    space = make_space("C1")
    prof = make_initial(space, (0.0, 2.0), 64, kind="perturbed",
                        radius=1.0, amplitude=0.1, mode=2)
    want = 1.0 + 0.1 * np.cos(2.0 * math.pi * (prof.z - 0.0) / 2.0)
    assert np.max(np.abs(prof.r - want)) <= 1e-15
    # wall values sit at the extremes of the cosine, so the one-sided
    # discrete slope vanishes at second order
    est = abs(-3 * prof.r[0] + 4 * prof.r[1] - prof.r[2]) / (2 * prof.dz)
    assert est <= 1e-2


def test_make_initial_custom_passthrough():
    space = make_space("C1")
    radii = 1.0 + 0.05 * np.sin(np.linspace(0.0, 1.0, 33)) ** 2
    prof = make_initial(space, (0.0, 1.0), 32, kind="custom", radii=radii)
    assert np.array_equal(prof.r, radii)


def test_make_initial_validation():
    space = make_space("C1")
    with pytest.raises(ValueError):
        make_initial(space, (0.0, 1.0), 50, kind="perturbed",
                     radius=1.0, amplitude=2.0, mode=1)
    with pytest.raises(ValueError):
        make_initial(space, (0.0, 1.0), 50, kind="perturbed",
                     radius=1.0, amplitude=0.1, mode=0)
    with pytest.raises(ValueError):
        make_initial(space, (0.0, 1.0), 50, kind="cylinder", radius=-1.0)
    with pytest.raises(ValueError):
        make_initial(space, (0.0, 1.0), 50, kind="custom",
                     radii=np.ones(17))
    with pytest.raises(ValueError):
        make_initial(space, (0.0, 1.0), 50, kind="wavelet", radius=1.0)


def test_make_initial_respects_ambient_band():
    band = make_space("C2")
    with pytest.raises(ValueError):
        make_initial(band, (0.5, 1.5), 50, kind="cylinder", radius=4.0)
