"""Third-order steps: a state with three predecessors takes a
variable-step SBDF3 step, estimated by Milne's device.

Its update and error estimate equal, bit for bit, the reference kept in
conftest, while a state with one or two predecessors still takes the
SBDF2 step of that reference.  From an accurate history the step's
local error falls 16-fold per halving of dt and the estimate tracks it.
The grow cap keeps every step ratio where variable-step BDF3 is
zero-stable."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import (flow_rhs, reference_sbdf3_error, reference_sbdf3_update,
                      reference_step_error, reference_terms, reference_update)
from eqflow import flow
from eqflow.ambient import make_space
from eqflow.flow import averaged_for_step
from eqflow.geometry import GraphGrid
from eqflow.reference_cases import make_initial
from test_arithmetic_order import (CASES, GRIDS, same_bits, smooth_state,
                                   spy_dgtsv)


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("args,slab", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_sbdf3_updates_match_the_reference(monkeypatch, args, slab, N):
    space, prof = smooth_state(args, slab, N, seed=N + 2)
    g = GraphGrid(space, prof)
    systems = spy_dgtsv(monkeypatch)
    target = flow._volume_measure(g, prof.r)
    dts = (2e-3, 3e-3, 2.5e-3, 2.8e-3)

    # IMEX-Euler, then SBDF2 from the states with one and two
    # predecessors, then SBDF3 from the state with three
    evs, refs, r = [], [], prof.r
    for k, dt in enumerate(dts):
        ev = flow._full_eval(g, r)
        s = reference_terms(g, r)
        if evs:
            ev.prev, ev.dt_prev = evs[-1], dts[k - 1]
        evs.append(ev)
        refs.append(s)
        r = flow._imex_update(g, ev, dt, target)
        err = flow._step_error(g, ev, dt, r)
        if k == 0:
            *system, want = reference_update(g, s, dt, target)
            want_err = reference_step_error(g, s, dt, want)
        elif k < 3:
            *system, want = reference_update(g, s, dt, target,
                                             prev=refs[-2], dt_prev=dts[k - 1])
            want_err = reference_step_error(g, s, dt, want, prev=refs[-2],
                                            dt_prev=dts[k - 1])
        else:
            hist = [(refs[k - j], dts[k - j]) for j in (1, 2, 3)]
            *system, want = reference_sbdf3_update(g, s, dt, target, hist[:2])
            want_err = reference_sbdf3_error(g, s, dt, want, hist)
        assert r is not None and same_bits(r, want), k
        assert all(same_bits(a, b) for a, b in zip(systems[-1], system)), k
        assert err == want_err, k
    # a retry from the same state solves the same system again
    flow._imex_update(g, evs[-1], dts[-1], target)
    assert all(same_bits(a, b) for a, b in zip(systems[-1], system))


def _exact(space, prof, times):
    """States of the semi-discrete flow at ``times``, integrated from
    ``prof`` at t = 0, segment by segment, at a relative tolerance of
    1e-12."""
    def rhs(_, r):
        p = prof.with_radii(r)
        return flow_rhs(space, p, averaged_for_step(space, p))

    states, r, t = [], prof.r, 0.0
    for t_next in times:
        if t_next > t:
            sol = solve_ivp(rhs, (t, t_next), r, method="Radau",
                            rtol=1e-12, atol=1e-14)
            assert sol.success
            r, t = sol.y[:, -1], t_next
        states.append(r)
    return states


@pytest.mark.parametrize("case,args,slab", [
    ("C1", {"case": "C1"}, (0.0, 1.0)),
    ("C2", {"case": "C2"}, (1.0, 2.0)),
    ("C6", {"case": "C6", "lam": 1.0}, (-0.5, 0.5)),
])
def test_sbdf3_local_error_is_fourth_order_and_estimated(case, args, slab):
    # one SBDF3 step of dt from exact states a step of 0.9 dt, 1.1 dt
    # and 0.8 dt apart, from t = 0.1 on, when the fast modes the start
    # excites have decayed: its error is O(dt^4), so 16-fold smaller
    # per halving of dt, and Milne's estimate is within 3x of it
    space = make_space(**args)
    prof = make_initial(space, slab, 50, kind="perturbed", radius=1.0,
                        amplitude=0.1)
    g = GraphGrid(space, prof)
    target = flow._volume_measure(g, prof.r)
    start = _exact(space, prof, [0.1])[0]
    errors, estimates = [], []
    for dt in (8e-3, 4e-3, 2e-3):
        gaps = (0.8 * dt, 1.1 * dt, 0.9 * dt, dt)
        *hist, exact = _exact(space, prof.with_radii(start),
                              [0.0, *np.cumsum(gaps)])
        evs = []
        for r, dt_prev in zip(hist, (0.0, *gaps)):
            ev = flow._full_eval(g, r)
            # an update from each state forms its explicit part, as in a run
            flow._imex_update(g, ev, dt, target)
            if evs:
                ev.prev, ev.dt_prev = evs[-1], dt_prev
            evs.append(ev)
        r_new = flow._imex_update(g, evs[-1], dt, target)
        errors.append(float(np.abs(r_new - exact).max()))
        estimates.append(flow._step_error(g, evs[-1], dt, r_new))
    rates = [a / b for a, b in zip(errors, errors[1:])]
    assert all(13.0 <= q <= 19.0 for q in rates), (rates, errors)
    assert all(1 / 3 <= e / x <= 3.0 for e, x in zip(estimates, errors)), \
        (estimates, errors)


def _difference_map(w, u):
    """The map (d_n, d_(n-1)) -> (d_(n+1), d_n) of the differences d of
    a solution of the variable-step BDF3 formula with f = 0, for the
    step ratios w = h_(n+1)/h_n and u = h_(n-1)/h_n, with the weights
    derived afresh from the Lagrange interpolant through the four times."""
    times = np.array([0.0, -w, -w - 1.0, -w - 1.0 - u])
    alpha = []
    for j, tj in enumerate(times):
        others = np.delete(times, j)
        # derivative at 0 of the Lagrange basis polynomial of node j
        alpha.append(sum(np.prod(0.0 - np.delete(others, i))
                         for i in range(3)) / np.prod(tj - others))
    a0, a1, a2, _ = alpha
    return np.array([[-(a0 + a1) / a0, -(a0 + a1 + a2) / a0], [1.0, 0.0]])


def test_grow_cap_keeps_variable_step_bdf3_zero_stable():
    # step ratios anywhere between the shrink floor 0.1 and GROW3: the
    # solutions of the homogeneous formula stay bounded, here decaying
    # over random ratio sequences and over the constant largest ratio
    rng = np.random.default_rng(3)
    for _ in range(20):
        ratios = rng.uniform(0.1, flow.GROW3, 200)
        P = np.eye(2)
        for prev, cur in zip(ratios, ratios[1:]):
            P = _difference_map(cur, 1.0 / prev) @ P
        assert np.abs(P).max() <= 1e-6
    w = flow.GROW3
    rho = max(abs(np.linalg.eigvals(_difference_map(w, 1.0 / w))))
    assert rho <= 0.6
    # the constant-ratio limit (1 + sqrt 5)/2 is the formula's own
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    for w, stable in ((0.999 * golden, True), (1.001 * golden, False)):
        rho = max(abs(np.linalg.eigvals(_difference_map(w, 1.0 / w))))
        assert (rho < 1.0) == stable
