"""Acceptance gate: every headline capability, one verdict line each.

Each test prints `criterion N: PASS/FAIL (measured ...)` through the
shared reporter in conftest, which echoes the lines after capture ends.
The benchmark goldens were frozen from an independent computation with
exact rolling-curve derivatives and cross-checked by two averaging
routes before being pinned here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import criterion, flow_rhs
from eqflow.ambient import curvature_components, make_space
from eqflow.bounds import (boundary_compat_residual,
                           boundary_identity_residuals)
from eqflow.cli import _VERIFY_RECTS
from eqflow.cli import main as cli_main
from eqflow.flow import DtPolicy, FlowConfig, averaged_for_step, run
from eqflow.geometry import area, averaged_H_by_parts, enclosed_volume
from eqflow.reference_cases import (build_cycloid_curve, cycloid_report,
                                    lambda_sweep, make_initial)

import fd_curvature

PLANE_NAMES = ("axis_plane", "radial_plane", "sphere_plane")


@pytest.fixture(scope="module")
def perturbed_cylinder_run():
    """The headline conservation run: r0 = 1 + 0.1 cos(pi z) on C1."""
    space = make_space("C1")
    initial = make_initial(space, (0.0, 1.0), 400, kind="perturbed",
                           radius=1.0, amplitude=0.1, mode=1)
    t0 = time.perf_counter()
    result = run(space, initial, FlowConfig())
    return result, time.perf_counter() - t0


def test_criterion_1_benchmark_c2(tmp_path, capsys):
    t0 = time.perf_counter()
    code = cli_main(["appendix-b", "--case", "C2", "--samples", "10000"])
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    s1, s2 = report["s_turn"]
    normalized = report["normalized_avg"]
    ok = (code == 0
          and abs(s1 - 4.33453) <= 5e-5
          and abs(s2 - 12.7571) <= 5e-5
          and abs(normalized - (-1.55553)) <= 1e-3 * 1.55553
          and elapsed <= 2.0)
    assert criterion(
        1, ok, f"s1={s1:.6f} s2={s2:.6f} normalized={normalized:.6f} "
               f"runtime={elapsed:.2f}s")


def test_criterion_2_benchmark_c5():
    report = cycloid_report("C5", samples=10000)
    got = report["normalized_avg"]
    want = -9.72488e24
    ok = abs(got - want) <= 1e-3 * abs(want)
    if not ok:
        # leave the sensitivity evidence next to the test log before
        # failing; the flat-family benchmark stays binding either way
        out = Path("criterion2_lambda_sweep.json")
        out.write_text(json.dumps({"sweep": lambda_sweep()}, indent=2) + "\n",
                       encoding="utf-8")
    assert criterion(2, ok, f"normalized={got:.6e} target={want:.6e}")


def test_criterion_3_space_form_curvature_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    cases = (("C1", None), ("C2", None), ("C3", -1.0),
             ("C4", -1.0), ("C5", -1.0), ("C6", 1.0))
    worst = 0.0
    worst_fd = 0.0
    for case, lam in cases:
        (z_lo, z_hi), (r_lo, r_hi) = _VERIFY_RECTS[case]
        z = rng.uniform(z_lo, z_hi, 1000)
        r = rng.uniform(r_lo, r_hi, 1000)
        space = make_space(case, lam=lam, n=2)
        comps = curvature_components(space, z, r)
        dev = max(float(np.max(np.abs(getattr(comps, k) - space.lam)))
                  for k in PLANE_NAMES)
        worst = max(worst, dev)

        oracle_space = make_space(case, lam=lam, n=3)
        for zi, ri in zip(z[:2], r[:2]):
            got = curvature_components(oracle_space, zi, ri)
            ref = fd_curvature.plane_curvatures(oracle_space, zi, ri)
            fd_dev = max(abs(float(getattr(got, k)) - ref[k])
                         for k in PLANE_NAMES)
            worst_fd = max(worst_fd, fd_dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_fd <= 1e-5 and elapsed <= 5.0
    assert criterion(
        3, ok, f"max_dev={worst:.3e} fd_dev={worst_fd:.3e} "
               f"runtime={elapsed:.2f}s")


def test_criterion_4_stationary_states():
    flat = make_space("C1")
    cyl = make_initial(flat, (0.0, 1.0), 400, kind="cylinder", radius=1.0)
    band = make_space("C2")
    plane = make_initial(band, (1.0, 2.0), 400, kind="cylinder",
                         radius=math.pi / 2.0)
    rhs_cyl = float(np.max(np.abs(flow_rhs(flat, cyl, 1.0))))
    rhs_plane = float(np.max(np.abs(flow_rhs(band, plane, 0.0))))
    res_cyl = run(flat, cyl, FlowConfig(T_max=1.0))
    res_plane = run(band, plane, FlowConfig(T_max=1.0))
    ok = (rhs_cyl <= 1e-12 and rhs_plane <= 1e-12
          and res_cyl.termination == "steady" and res_cyl.t_final == 0.0
          and res_plane.termination == "steady" and res_plane.t_final == 0.0)
    assert criterion(
        4, ok, f"rhs_cylinder={rhs_cyl:.2e} rhs_plane={rhs_plane:.2e} "
               f"steady_at_t=({res_cyl.t_final},{res_plane.t_final})")


def test_criterion_5_closed_form_geometry():
    flat = make_space("C1")
    cyl = make_initial(flat, (0.0, 1.0), 1000, kind="cylinder", radius=1.0)
    band = make_space("C2")
    annulus = make_initial(band, (1.0, 2.0), 1000, kind="cylinder",
                           radius=math.pi / 2.0)
    pairs = (
        (area(flat, cyl, rule="simpson"), 2.0 * math.pi),
        (enclosed_volume(flat, cyl, rule="simpson"), math.pi),
        (area(band, annulus, rule="simpson"), 3.0 * math.pi),
        (enclosed_volume(band, annulus, rule="simpson"),
         14.0 * math.pi / 3.0),
    )
    rel = max(abs(got - want) / want for got, want in pairs)
    ok = rel <= 1e-10
    assert criterion(5, ok, f"max_rel_err={rel:.3e}")


def test_criterion_6_conservation_dissipation_run(perturbed_cylinder_run):
    result, elapsed = perturbed_cylinder_run
    drift = float(np.max(np.abs(result.record.column("vol_drift"))))
    area_diffs = np.diff(result.record.column("area"))
    area_ok = bool(np.all(area_diffs <= 1e-12))
    sup_dev = result.record.rows[-1].sup_H_dev
    ok = (result.termination == "steady"
          and drift <= 1e-6
          and area_ok
          and result.dissipation_checked > 0
          and result.dissipation_worst <= 0.05
          and sup_dev <= 1e-5
          and elapsed <= 60.0)
    assert criterion(
        6, ok, f"drift={drift:.2e} area_monotone={area_ok} "
               f"dissipation_worst={result.dissipation_worst:.4f} "
               f"sup_dev={sup_dev:.2e} runtime={elapsed:.1f}s")


def test_criterion_7_monitors_clean(perturbed_cylinder_run):
    result, _ = perturbed_cylinder_run
    columns = {"radius_cap": "viol_r2", "avg_H_cap": "viol_h2",
               "slope_cap": "viol_vbound"}
    counts = {name: int(np.sum(result.record.column(col)))
              for name, col in columns.items()}
    checked = len(result.record.rows)
    ok = sum(counts.values()) == 0 and checked > 0
    assert criterion(7, ok, f"checked={checked} violations={counts}")


def test_criterion_8_boundary_identity_orders():
    space = make_space("C2")
    slab = (1.0, 2.0)
    res_H, res_k2, res_compat = [], [], []
    for N, dt in ((100, 2e-5), (200, 5e-6), (400, 1.25e-6)):
        initial = make_initial(space, slab, N, kind="perturbed",
                               radius=1.0, amplitude=0.1, mode=1)
        cfg = FlowConfig(T_max=0.02, dt=DtPolicy(dt_max=dt, dt_min=dt))
        result = run(space, initial, cfg)
        assert result.termination == "reached_T"
        prof = result.profile
        avg = averaged_for_step(space, prof)
        idents = boundary_identity_residuals(space, prof, avg)
        res_H.append(max(abs(v) for v in idents.dH))
        res_k2.append(max(abs(v) for v in idents.dk2))
        res_compat.append(max(abs(v) for v in
                              boundary_compat_residual(space, prof, avg)))

    def orders(seq):
        return [math.log2(seq[i] / seq[i + 1]) for i in range(2)]

    o_H, o_k2, o_c = orders(res_H), orders(res_k2), orders(res_compat)
    ok = min(min(o_H), min(o_k2), min(o_c)) >= 1.0
    assert criterion(
        8, ok, f"orders dH={o_H[0]:.2f},{o_H[1]:.2f} "
               f"dk2={o_k2[0]:.2f},{o_k2[1]:.2f} "
               f"compat={o_c[0]:.2f},{o_c[1]:.2f}")


def test_criterion_9_convergence_orders():
    band = make_space("C2")
    roots_report = cycloid_report("C2", samples=2000)
    s1, s2 = roots_report["s_turn"]
    avg_vals = []
    for M in (2000, 4000, 8000):
        curve = build_cycloid_curve(s1, s2, M, graded=False)
        avg_vals.append(averaged_H_by_parts(band, curve, rule="trapezoid"))
    avg_slope = math.log2(abs(avg_vals[0] - avg_vals[1])
                          / abs(avg_vals[1] - avg_vals[2]))

    flat = make_space("C1")

    def initial(N):
        return make_initial(flat, (0.0, 1.0), N, kind="perturbed",
                            radius=1.0, amplitude=0.1, mode=1)

    areas = [area(flat, initial(N)) for N in (250, 500, 1000)]
    area_slope = math.log2(abs(areas[0] - areas[1])
                           / abs(areas[1] - areas[2]))

    vols = [enclosed_volume(flat, initial(N)) for N in (250, 500, 1000)]
    vol_diffs = [abs(vols[0] - vols[1]), abs(vols[1] - vols[2])]
    # the cosine-polynomial integrand is summed exactly by the uniform
    # trapezoid rule, so the volume differences sit at rounding level
    # and no order is measurable; accept that as converged
    if max(vol_diffs) <= 1e-13 * abs(vols[-1]):
        vol_note = "roundoff"
        vol_ok = True
    else:
        vol_slope = math.log2(vol_diffs[0] / vol_diffs[1])
        vol_note = f"{vol_slope:.2f}"
        vol_ok = vol_slope >= 1.9
    ok = avg_slope >= 1.9 and area_slope >= 1.9 and vol_ok
    assert criterion(
        9, ok, f"avgH_slope={avg_slope:.3f} area_slope={area_slope:.3f} "
               f"volume={vol_note}")


def test_criterion_10_pinching_detector():
    space = make_space("C1")
    initial = make_initial(space, (0.0, 1.0), 400, kind="perturbed",
                           radius=0.25, amplitude=0.12, mode=1)
    cfg = FlowConfig(T_max=0.1)
    result = run(space, initial, cfg)
    r_final = result.record.rows[-1].r_min
    positive = bool(np.all(result.record.column("r_min") > 0.0)
                    and np.all(result.profile.r > 0.0))
    ok = (result.termination == "singular_axis"
          and result.singular_side == "axis_min"
          and abs(r_final - cfg.eps_axis) <= 0.1 * cfg.eps_axis
          and positive)
    assert criterion(
        10, ok, f"termination={result.termination} r_min={r_final:.4e} "
                f"eps_axis={cfg.eps_axis} all_positive={positive}")
