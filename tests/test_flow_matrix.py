"""Flows over every ambient case: exact discrete volume conservation.

The IMEX update picks its multiplier so that the discrete enclosed volume
stays at its initial value to rounding, whatever the step size.  Each
case is flowed from a perturbed cylinder: one step at the largest step
the dissipation monitor checks, and a short run at the default step
policy with every monitor clean.  The wide starts (r0 = 2.5) on C2, C4
and C6 have a negative average mean curvature at t = 0.
"""

import numpy as np
import pytest

from eqflow.ambient import make_space
from eqflow.bounds import MONITOR_DT_MAX
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
