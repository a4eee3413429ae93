"""Flows over every ambient case: exact discrete volume conservation.

The IMEX update picks its multiplier so that the discrete enclosed volume
stays at its initial value to rounding, whatever the step size.  Each
case is flowed from a perturbed cylinder: one step at the largest step
the dissipation monitor checks, a short run at the default step policy
with every monitor clean, and a run to steady.  The wide starts (r0 =
2.5) on C2, C4 and C6 have a negative average mean curvature at t = 0.
On C1, C2 and C6 the dissipation check must catch a decay integral off
by 10 % at every record it checks, unless the scaling drops the record
below the check's activity floor.  Random smooth starts on C1, C2 and
C6 check the same properties on drawn shapes.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqflow import flow
from eqflow.ambient import make_space
from eqflow.bounds import DISSIPATION_FLOOR, MONITOR_DT_MAX, run_monitors
from eqflow.curve import GraphProfile
from eqflow.flow import FlowConfig, run, step
from eqflow.geometry import enclosed_volume
from eqflow.reference_cases import make_initial

# (radius, amplitude) of the perturbed cylinder a case starts from
NARROW = (1.0, 0.1)
WIDE = (2.5, 0.125)

# (id, make_space arguments, slab, start)
CASES = [
    ("C1", {"case": "C1"}, (0.0, 1.0), NARROW),
    ("C1-n3", {"case": "C1", "n": 3}, (0.0, 1.0), NARROW),
    ("C1-n4", {"case": "C1", "n": 4}, (0.0, 1.0), NARROW),
    ("C2", {"case": "C2"}, (1.0, 2.0), NARROW),
    ("C2-n4", {"case": "C2", "n": 4}, (1.0, 2.0), NARROW),
    ("C2-wide", {"case": "C2"}, (1.0, 2.0), WIDE),
    ("C3-mismatched-n3", {"case": "C3", "lam": -1.0, "lam_h": -2.0, "n": 3},
     (-0.5, 0.5), NARROW),
    ("C4", {"case": "C4", "lam": -1.0}, (1.0, 2.0), NARROW),
    ("C4-wide", {"case": "C4", "lam": -1.0}, (1.0, 2.0), WIDE),
    ("C5", {"case": "C5", "lam": -1.0}, (0.0, 1.0), NARROW),
    ("C6", {"case": "C6", "lam": 1.0}, (-0.5, 0.5), NARROW),
    ("C6-mismatched", {"case": "C6", "lam": 1.0, "lam_h": 3.0},
     (-0.5, 0.5), NARROW),
    ("C6-wide", {"case": "C6", "lam": 1.0}, (-0.5, 0.5), WIDE),
]


def initial_state(args, slab, start, N=100):
    space = make_space(**args)
    radius, amplitude = start
    return space, make_initial(space, slab, N, kind="perturbed",
                               radius=radius, amplitude=amplitude, mode=1)


@pytest.mark.parametrize("args,slab,start", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_imex_step_keeps_discrete_volume(args, slab, start):
    space, prof = initial_state(args, slab, start)
    out = step(space, prof, MONITOR_DT_MAX)
    v0 = enclosed_volume(space, prof)
    assert np.max(np.abs(out.r - prof.r)) > 1e-5
    assert abs(enclosed_volume(space, out) - v0) <= 1e-14 * v0


@pytest.mark.parametrize("args,slab,start", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_short_run_conserves_volume_with_clean_monitors(args, slab, start):
    space, prof = initial_state(args, slab, start)
    # the shortest horizon (on a 1e-4 grid) at which every case takes
    # ten steps: C1 and its n = 3, 4 variants take exactly ten
    res = run(space, prof, FlowConfig(T_max=3.7e-3))
    assert res.termination == "reached_T"
    assert res.steps >= 10
    assert res.monitor_failures == {}
    assert res.dissipation_checked > 0
    assert np.max(np.abs(res.record.column("vol_drift"))) <= 1e-13
    assert np.all(np.diff(res.record.column("area")) <= 0.0)


@pytest.mark.parametrize("args,slab,start", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_run_to_steady_conserves_volume_with_clean_monitors(args, slab,
                                                            start):
    # 200 cells, since on 100 the O(dz^2) gap between the discrete area
    # and the flow's H shows near steady, where D is small and the steps
    # reach the 1e-2 cap: C2, C2-n4, C2-wide and C5 miss the dissipation
    # identity there, and C2-n4 and C2-wide raise their area
    space, prof = initial_state(args, slab, start, N=200)
    res = run(space, prof, FlowConfig(T_max=2.0))
    assert res.termination == "steady"
    assert res.monitor_failures == {}
    assert res.dissipation_checked > 0
    assert np.max(np.abs(res.record.column("vol_drift"))) <= 1e-13
    assert np.all(np.diff(res.record.column("area")) <= 0.0)


CASE_ARGS = {c[0]: c[1:] for c in CASES}


@pytest.mark.parametrize("case", ["C1", "C2", "C6"])
def test_dissipation_check_fails_on_a_scaled_decay_integral(monkeypatch,
                                                            case):
    # replay every checked record of a run to steady on the benchmark's
    # grid with both decay integrals of the step scaled by 0.9, then 1.1
    checked = []

    def recording(*args, **kwargs):
        report = run_monitors(*args, **kwargs)
        if "dissipation" in report.checks:
            checked.append((args, kwargs))
        return report

    monkeypatch.setattr(flow, "run_monitors", recording)
    space, prof = initial_state(*CASE_ARGS[case], N=400)
    res = run(space, prof, FlowConfig(T_max=2.0))
    assert res.termination == "steady" and res.monitor_failures == {}
    assert len(checked) == res.dissipation_checked > 0
    assert max(kw["dt"] for _, kw in checked) == MONITOR_DT_MAX
    for scale in (0.9, 1.1):
        for (sp, bset, p, summ, t), kw in checked:
            scaled = dataclasses.replace(
                summ, dissipation=scale * summ.dissipation)
            report = run_monitors(
                sp, bset, p, scaled, t, prev_area=kw["prev_area"],
                prev_dissipation=scale * kw["prev_dissipation"],
                dt=kw["dt"])
            mean_d = 0.5 * (scale * kw["prev_dissipation"]
                            + scaled.dissipation)
            if mean_d * kw["dt"] < DISSIPATION_FLOOR * scaled.area:
                # scaled below the activity floor: not checked, so not
                # passed either
                assert "dissipation" not in report.checks
            else:
                assert not report.checks["dissipation"].passed


# (space, slab) of the random smooth starts
SMOOTH = {
    "C1": (make_space("C1"), (0.0, 1.0)),
    "C2": (make_space("C2"), (1.0, 2.0)),
    "C6": (make_space("C6", lam=1.0), (-0.5, 0.5)),
}


def _smooth(case, r0, modes, amps):
    """(space, slab, r) with r(x) = r0 (1 + sum a_k cos(k x)), x in [0, pi]."""
    space, slab = SMOOTH[case]

    def r(x):
        return r0 * (1.0 + sum(a * np.cos(k * x) for k, a in zip(modes, amps)))

    return space, slab, r


@st.composite
def smooth_starts(draw):
    """Three modes k <= 6 with sum |a_k| = 0.1 and r0 in [0.5, 1.5]."""
    case = draw(st.sampled_from(sorted(SMOOTH)))
    modes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
                   .filter(lambda w: sum(map(abs, w)) >= 0.1))
    r0 = draw(st.floats(0.5, 1.5))
    scale = 0.1 / sum(map(abs, weights))
    return _smooth(case, r0, modes, [scale * w for w in weights])


def _sampled(slab, r, N):
    a, b = slab
    return GraphProfile(a, b, r(np.linspace(0.0, math.pi, N + 1)))


@settings(max_examples=60)
@given(start=smooth_starts())
@example(start=_smooth("C2", 1.5, (6, 6, 6), (0.1, 0.0, 0.0)))
def test_random_smooth_start_conserves_volume_with_clean_monitors(start):
    space, slab, r = start
    # at the default step policy the smoothest draw (mode 1 at r0 = 0.5
    # on C1) takes ten steps to this horizon
    cfg = FlowConfig(T_max=7e-3)
    res = run(space, _sampled(slab, r, 128), cfg)
    assert res.termination == "reached_T"
    assert res.steps >= 10
    assert res.dissipation_checked > 0
    assert np.max(np.abs(res.record.column("vol_drift"))) <= 1e-13
    assert np.all(np.diff(res.record.column("area")) <= 0.0)
    failures = dict(res.monitor_failures)
    if failures.pop("dissipation", 0):
        # the discrete dissipation identity holds to O(dz^2), so at 128
        # cells the sharpest starts (the example: mode 6 at r0 = 1.5 on
        # C2, mismatch 0.057) miss it by over 5 %; such a miss must be
        # spatial: gone on twice the grid, the mismatch shrinking ~4-fold
        fine = run(space, _sampled(slab, r, 256), cfg)
        assert fine.monitor_failures == {}
        assert fine.dissipation_worst <= res.dissipation_worst / 2.5
    assert failures == {}
