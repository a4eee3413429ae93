"""Flows over every ambient case: exact discrete volume conservation.

The IMEX update picks its multiplier so that the discrete enclosed volume
stays at its initial value to rounding, whatever the step size.  Each
case is flowed from a perturbed cylinder: one step at the largest step
the dissipation monitor checks, and a short run at the default step
policy with every monitor clean.  The wide starts (r0 = 2.5) on C2, C4
and C6 have a negative average mean curvature at t = 0.  Random smooth
starts on C1, C2 and C6 check the same properties on drawn shapes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqflow.ambient import make_space
from eqflow.bounds import MONITOR_DT_MAX
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


def initial_state(args, slab, start):
    space = make_space(**args)
    radius, amplitude = start
    return space, make_initial(space, slab, 100, kind="perturbed",
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
    res = run(space, prof, FlowConfig(T_max=2e-3))
    assert res.termination == "reached_T"
    assert res.steps >= 10
    assert res.monitor_failures == {}
    assert res.dissipation_checked > 0
    assert np.max(np.abs(res.record.column("vol_drift"))) <= 1e-13
    assert np.all(np.diff(res.record.column("area")) <= 0.0)


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
    cfg = FlowConfig(T_max=1e-3)
    res = run(space, _sampled(slab, r, 128), cfg)
    assert res.termination == "reached_T"
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
