"""Time stepping: right-hand side identities, single steps, and full runs."""

import math

import numpy as np
import pytest

from conftest import flow_rhs
from eqflow import flow
from eqflow.ambient import AmbientSpace, make_space
from eqflow.curve import GraphProfile, diff, quad_weights
from eqflow.flow import (DtPolicy, FlowConfig, FlowRecord, FlowStepError,
                         RecordRow, averaged_for_step, detect_steady,
                         initial_bound_set, run, step)
from eqflow.geometry import mean_curvature, principal_curvatures, summarize
from eqflow.reference_cases import make_initial

FLAT = make_space("C1")
SPHERE_BAND = make_space("C2")


def cylinder(radius=1.0, N=100, slab=(0.0, 1.0)):
    return make_initial(FLAT, slab, N, kind="cylinder", radius=radius)


def perturbed(radius=1.0, amplitude=0.1, N=100, slab=(0.0, 1.0), mode=1):
    return make_initial(FLAT, slab, N, kind="perturbed", radius=radius,
                        amplitude=amplitude, mode=mode)


def quick_config(**kw):
    # a cap below the default keeps these short runs many steps long
    kw.setdefault("T_max", 2e-4)
    kw.setdefault("dt", DtPolicy(dt_max=2e-5))
    return FlowConfig(**kw)


# ---------------------------------------------------------------- rhs


def test_rhs_vanishes_on_cylinder_with_matching_average():
    prof = cylinder()
    assert np.max(np.abs(flow_rhs(FLAT, prof, 1.0))) <= 1e-12


def test_rhs_vanishes_on_equatorial_band():
    prof = make_initial(SPHERE_BAND, (0.5, 1.5), 100, kind="cylinder",
                        radius=math.pi / 2.0)
    assert np.max(np.abs(flow_rhs(SPHERE_BAND, prof, 0.0))) <= 1e-12


def test_rhs_wall_node_closed_form():
    # flat space, wall slope zero: rhs_0 = rddot_0 - 1/r_0 + avg
    prof = perturbed()
    rddot0 = 2.0 * (prof.r[1] - prof.r[0]) / prof.dz ** 2
    avg = 1.3
    want = rddot0 - 1.0 / 1.1 + avg
    got = flow_rhs(FLAT, prof, avg)[0]
    assert got == pytest.approx(want, rel=1e-14)


HYPERBOLIC_N3 = make_space("C3", lam=-1.0, lam_h=-2.0, n=3)
SPHERICAL = make_space("C6", lam=1.0)


@pytest.mark.parametrize("space,prof", [
    (FLAT, perturbed()),
    (SPHERE_BAND, make_initial(make_space("C2"), (0.5, 1.5), 80,
                               kind="perturbed", radius=1.2,
                               amplitude=0.2, mode=2)),
    (HYPERBOLIC_N3, make_initial(HYPERBOLIC_N3, (-0.5, 0.5), 120,
                                 kind="perturbed", radius=1.0,
                                 amplitude=0.1, mode=1)),
    (SPHERICAL, make_initial(SPHERICAL, (-0.5, 0.5), 120, kind="perturbed",
                             radius=1.0, amplitude=0.1, mode=2)),
])
def test_rhs_equals_deviation_times_gradient_factor(space, prof):
    # the update is (avg - H) |c'| / f with discrete derivatives
    avg = 0.7
    k1, k2 = principal_curvatures(space, prof)
    H = mean_curvature(k1, k2, space.n)
    rdot, _ = diff(prof)
    f, _, _ = space.f(prof.z)
    speed = np.sqrt(1.0 + (f * rdot) ** 2)
    want = (avg - H) * speed / f
    got = flow_rhs(space, prof, avg)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------- averages


def test_average_is_one_on_unit_cylinder_both_modes():
    prof = cylinder()
    assert averaged_for_step(FLAT, prof) == pytest.approx(1.0, abs=1e-13)


def test_average_is_zero_on_equatorial_band_both_modes():
    prof = make_initial(SPHERE_BAND, (0.5, 1.5), 100, kind="cylinder",
                        radius=math.pi / 2.0)
    assert abs(averaged_for_step(SPHERE_BAND, prof)) <= 1e-13


def test_geometric_mode_matches_direct_average_route():
    # the volume-consistent integrand equals -H |c'|/f pointwise, so the
    # flow's average is the area-weighted mean of H up to rounding
    from eqflow.geometry import averaged_H_direct
    exp_space = make_space("C5", lam=-1.0, n=2)
    states = [(FLAT, perturbed()),
              (exp_space, make_initial(exp_space, (0.0, 1.0), 200,
                                       kind="perturbed", radius=1.0,
                                       amplitude=0.1))]
    for space, prof in states:
        assert averaged_for_step(space, prof) == pytest.approx(
            averaged_H_direct(space, prof), rel=1e-12)


def test_volume_consistent_average_kills_discrete_volume_derivative():
    # sum_i w_i f_i^n h(r_i)^{n-1} rhs_i = 0 by construction of the average
    for space, prof in [(FLAT, perturbed()),
                        (SPHERE_BAND,
                         make_initial(make_space("C2"), (0.5, 1.5), 90,
                                      kind="perturbed", radius=1.0,
                                      amplitude=0.3, mode=1))]:
        avg = averaged_for_step(space, prof)
        rhs = flow_rhs(space, prof, avg)
        f, _, _ = space.f(prof.z)
        h, _, _ = space.h(prof.r)
        w = quad_weights(prof.N + 1, prof.dz)
        dens = f ** space.n * h ** (space.n - 1)
        total = float(w @ (dens * rhs))
        scale = float(w @ (dens * np.abs(rhs)))
        assert abs(total) <= 1e-13 * scale


# ---------------------------------------------------------------- steady test


def test_detect_steady_on_exact_states():
    assert detect_steady(FLAT, cylinder(), 1e-12)
    plane = make_initial(SPHERE_BAND, (0.5, 1.5), 100, kind="cylinder",
                         radius=math.pi / 2.0)
    assert detect_steady(SPHERE_BAND, plane, 1e-12)


def test_detect_steady_rejects_perturbed_state():
    # the initial deviation is order one, far above any useful tolerance
    assert not detect_steady(FLAT, perturbed(), 1e-5)
    assert not detect_steady(FLAT, perturbed(), 0.5)


# ---------------------------------------------------------------- single steps


def test_step_preserves_cylinder():
    out = step(FLAT, cylinder(), 1e-3)
    assert np.max(np.abs(out.r - 1.0)) <= 1e-12


# Perturbed starts on a flat, a crown and a spherical slab, N = 100.
ORDER_STARTS = {
    "C1": (FLAT, (0.0, 1.0)),
    "C2": (SPHERE_BAND, (1.0, 2.0)),
    "C6": (make_space("C6", lam=1.0), (-0.5, 0.5)),
}


def _order_start(case):
    space, slab = ORDER_STARTS[case]
    return space, make_initial(space, slab, 100, kind="perturbed",
                               radius=1.0, amplitude=0.1)


@pytest.mark.parametrize("case", list(ORDER_STARTS))
def test_step_is_consistent_with_rhs(case):
    # a step differs from forward Euler on flow_rhs, driven by the
    # state's average, only at second order in dt: the implicit part
    # and the volume multiplier each move r by O(dt^2)
    space, prof = _order_start(case)
    avg = averaged_for_step(space, prof)
    gaps = []
    for dt in (1e-5, 1e-6):
        euler = prof.r + dt * flow_rhs(space, prof, avg)
        gaps.append(np.max(np.abs(step(space, prof, dt).r - euler)))
    assert gaps[1] <= 1e-8
    assert gaps[0] / gaps[1] >= 50.0


@pytest.mark.parametrize("case", list(ORDER_STARTS))
def test_fixed_dt_self_convergence_is_first_order(case):
    # states at T from 20, 40, 80 and 160 equal steps: for a method of
    # order p each halving of dt shrinks the successive differences 2^p-fold
    space, prof = _order_start(case)
    T = 2e-3
    ends = []
    for m in (20, 40, 80, 160):
        p = prof
        for _ in range(m):
            p = step(space, p, T / m)
        ends.append(p.r)
    diffs = [np.max(np.abs(b - a)) for a, b in zip(ends, ends[1:])]
    slopes = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(0.9 <= s <= 1.1 for s in slopes), slopes


@pytest.mark.parametrize("case", list(ORDER_STARTS))
def test_run_fixed_dt_self_convergence_is_second_order(case):
    # run at a pinned dt: the IMEX-Euler starter, then SBDF2 steps, every
    # one accepted; its states at T shrink 4-fold per halving of dt
    space, prof = _order_start(case)
    T = 2e-3
    ends = []
    for m in (40, 80, 160, 320):
        dt = T / m
        res = run(space, prof, FlowConfig(
            T_max=T, dt=DtPolicy(dt_max=dt, dt_min=dt)))
        assert res.termination == "reached_T"
        assert res.stats["rejected"] == 0
        ends.append(res.profile.r)
    diffs = [np.max(np.abs(b - a)) for a, b in zip(ends, ends[1:])]
    slopes = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert all(1.9 <= s <= 2.1 for s in slopes), slopes


def rough_start(N=400):
    """The hardest rough C1 start of the benchmark: three cosine modes."""
    z = np.linspace(0.0, 1.0, N + 1)
    return GraphProfile(0.0, 1.0, 1.0 + 0.05 * np.cos(6 * math.pi * z)
                        + 0.075 * np.cos(7 * math.pi * z)
                        + 0.1 * np.cos(12 * math.pi * z))


def test_run_makes_one_update_per_attempt(monkeypatch):
    calls = []
    update = flow._imex_update

    def counting_update(*args):
        calls.append(args)
        return update(*args)

    monkeypatch.setattr(flow, "_imex_update", counting_update)
    res = run(FLAT, perturbed(), quick_config())
    assert res.stats["rejected"] == 0
    assert len(calls) == res.steps
    calls.clear()
    res = run(FLAT, rough_start(100), FlowConfig(T_max=0.005))
    assert res.stats["rejected"] > 0
    assert len(calls) == res.stats["attempts"]


def test_run_keeps_one_predecessor(monkeypatch):
    # each state links the state it came from and cuts that one's link,
    # so the history does not grow with the step count
    states = []
    full_eval = flow._full_eval

    def keeping_full_eval(g, r):
        states.append(full_eval(g, r))
        return states[-1]

    monkeypatch.setattr(flow, "_full_eval", keeping_full_eval)
    res = run(FLAT, perturbed(), quick_config())
    assert len(states) == res.steps + 1
    last = states[-1]
    assert last.prev is states[-2] and last.prev.prev is None
    assert last.dt_prev == res.record.rows[-1].dt
    assert all(s.prev is None for s in states[:-1])


def test_sbdf2_keeps_dissipation_margin_on_rough_start():
    # an IMEX-Euler step per attempt takes this start over the 5 %
    # dissipation tolerance; the second-order step stays inside 4 %
    res = run(FLAT, rough_start(), FlowConfig(T_max=0.03))
    assert res.termination == "reached_T"
    assert res.monitor_failures == {}
    assert res.dissipation_checked > 0
    assert res.dissipation_worst <= 0.04


def test_run_stats_count_attempts_and_dt_range():
    res = run(FLAT, rough_start(100), FlowConfig(T_max=0.005))
    stats = res.stats
    assert stats["rejected"] > 0
    assert stats["attempts"] - stats["rejected"] == res.steps
    dts = res.record.column("dt")[1:]
    assert len(dts) == res.steps
    assert stats["dt_min"] == dts.min() and stats["dt_max"] == dts.max()
    assert stats["dt_mean"] == pytest.approx(dts.mean(), rel=1e-12)


def test_run_stats_give_the_largest_accepted_error_ratio(monkeypatch):
    errors = []
    step_error = flow._step_error

    def recording(*args):
        errors.append(step_error(*args))
        return errors[-1]

    monkeypatch.setattr(flow, "_step_error", recording)
    res = run(FLAT, rough_start(100), FlowConfig(T_max=0.005))
    accepted = [e for e in errors if e <= flow.STEP_TOL]
    assert len(accepted) == res.steps < len(errors)
    assert res.stats["err_ratio_max"] == max(accepted) / flow.STEP_TOL
    assert 0.0 < res.stats["err_ratio_max"] <= 1.0


def test_run_stats_of_a_run_without_steps():
    res = run(FLAT, cylinder(), quick_config())
    assert res.stats == {"attempts": 0, "rejected": 0, "dt_min": None,
                         "dt_max": None, "dt_mean": None,
                         "err_ratio_max": None}


def test_step_keeps_discrete_wall_slopes_flat():
    prof = perturbed()
    for _ in range(20):
        prof = step(FLAT, prof, 1e-5)
    rdot, _ = diff(prof)
    assert rdot[0] == 0.0 and rdot[-1] == 0.0
    for k in (0, -1):
        r0, r1, r2 = prof.r[k], prof.r[k - 1 if k else 1], \
            prof.r[k - 2 if k else 2]
        one_sided = abs(-3.0 * r0 + 4.0 * r1 - r2) / (2.0 * prof.dz)
        assert one_sided <= 5e-3


def test_step_raises_when_state_leaves_band():
    prof = perturbed(radius=0.3, amplitude=0.25)
    with pytest.raises(FlowStepError):
        step(FLAT, prof, 10.0)


# ---------------------------------------------------------------- radius band

# Every public entry that takes a graph state, as a call on (space, profile).
STATE_ENTRIES = {
    "run": lambda s, p: run(s, p, FlowConfig(T_max=1e-3)),
    "step_imex": lambda s, p: step(s, p, 1e-6),
    "averaged_for_step": averaged_for_step,
    "detect_steady": lambda s, p: detect_steady(s, p, 1e-5),
    "initial_bound_set": initial_bound_set,
    "summarize": summarize,
}


def _off_band_c2_states():
    """C2 states leaving the open band (0, pi): max r = 3.3, and r = pi."""
    z = np.linspace(1.0, 2.0, 65)
    return {"max_3.3": GraphProfile(1.0, 2.0, 3.2 + 0.1 * np.cos(math.pi * (z - 1.0))),
            "at_pi": GraphProfile(1.0, 2.0, np.full(65, math.pi))}


@pytest.mark.parametrize("state", ["max_3.3", "at_pi"])
@pytest.mark.parametrize("entry", list(STATE_ENTRIES))
def test_entries_reject_states_off_the_radius_band(entry, state):
    prof = _off_band_c2_states()[state]
    with pytest.raises(ValueError, match="r out of range"):
        STATE_ENTRIES[entry](SPHERE_BAND, prof)


def _count_band_checks(monkeypatch):
    """Record the radii every check_r and every admits call is given."""
    seen = {"check_r": [], "admits": []}
    check_r, admits = AmbientSpace.check_r, AmbientSpace.admits

    def counting_check_r(self, r):
        seen["check_r"].append(r)
        return check_r(self, r)

    def counting_admits(self, r):
        seen["admits"].append(r)
        return admits(self, r)

    monkeypatch.setattr(AmbientSpace, "check_r", counting_check_r)
    monkeypatch.setattr(AmbientSpace, "admits", counting_admits)
    return seen


def test_imex_step_checks_its_state_once_and_each_trial_once(monkeypatch):
    prof = make_initial(SPHERE_BAND, (1.0, 2.0), 64, kind="perturbed",
                        radius=1.0, amplitude=0.1)
    seen = _count_band_checks(monkeypatch)
    volume_sums = []
    volume_measure = flow._volume_measure

    def counting_volume_measure(g, r):
        volume_sums.append(r)
        return volume_measure(g, r)

    monkeypatch.setattr(flow, "_volume_measure", counting_volume_measure)
    step(SPHERE_BAND, prof, 1e-4)
    assert len(seen["check_r"]) == 1 and seen["check_r"][0] is prof.r
    # the entry check tests the state, then every Newton trial is tested
    # once, right before its volume sum (the first sum is the target's)
    trials = volume_sums[1:]
    assert len(trials) >= 1
    assert len(seen["admits"]) == 1 + len(trials)
    assert seen["admits"][0] is prof.r
    assert all(a is t for a, t in zip(seen["admits"][1:], trials))


def test_run_band_checks_do_not_grow_with_steps(monkeypatch):
    prof = make_initial(SPHERE_BAND, (1.0, 2.0), 64, kind="perturbed",
                        radius=1.0, amplitude=0.1)
    seen = _count_band_checks(monkeypatch)
    counts = []
    for T in (1e-3, 2e-3):
        seen["check_r"].clear()
        res = run(SPHERE_BAND, prof, FlowConfig(T_max=T))
        counts.append((res.steps, len(seen["check_r"])))
    (steps1, checks1), (steps2, checks2) = counts
    assert steps2 > steps1 > 0
    assert checks1 == checks2


# ---------------------------------------------------------------- full runs


def test_run_stops_steady_immediately_on_cylinder():
    res = run(FLAT, cylinder(), quick_config())
    assert res.termination == "steady"
    assert res.t_final == 0.0
    assert res.steps == 0
    assert len(res.record.rows) == 1
    assert res.record.rows[0].t == 0.0
    assert np.array_equal(res.profile.r, cylinder().r)


def test_run_stops_steady_on_equatorial_band():
    plane = make_initial(SPHERE_BAND, (0.5, 1.5), 100, kind="cylinder",
                         radius=math.pi / 2.0)
    res = run(SPHERE_BAND, plane, quick_config())
    assert res.termination == "steady"
    assert res.steps == 0


def test_short_run_record_structure():
    res = run(FLAT, perturbed(), quick_config())
    assert res.termination == "reached_T"
    assert res.t_final == pytest.approx(2e-4, rel=1e-9)
    assert res.steps >= 5
    ts = res.record.column("t")
    assert np.all(np.diff(ts) > 0.0)
    assert ts[0] == 0.0 and res.record.rows[0].dt == 0.0
    area = res.record.column("area")
    assert np.all(np.diff(area) <= 1e-12)
    drift = res.record.column("vol_drift")
    assert np.max(np.abs(drift)) <= 1e-13
    assert res.monitor_failures == {}
    for name in ("viol_r2", "viol_h2", "viol_vbound", "viol_area"):
        assert np.all(res.record.column(name) == 0)


def test_run_is_deterministic():
    cfg = quick_config()
    a = run(FLAT, perturbed(), cfg)
    b = run(FLAT, perturbed(), cfg)
    assert a.record.to_csv() == b.record.to_csv()
    assert np.array_equal(a.profile.r, b.profile.r)


def test_run_output_every_thins_record():
    cfg = quick_config(output_every=5)
    res = run(FLAT, perturbed(), cfg)
    assert res.steps >= 10
    # first row, every fifth step, and a final partial row
    assert len(res.record.rows) <= res.steps // 5 + 2


def test_run_snapshots_cover_start_and_end():
    res = run(FLAT, perturbed(), quick_config(), snapshot_every=3)
    assert res.snapshots[0][0] == 0
    assert res.snapshots[-1][0] == res.steps
    assert np.array_equal(res.snapshots[-1][2].r, res.profile.r)
    for s, t, prof in res.snapshots:
        assert s % 3 == 0 or s == res.steps
        assert isinstance(prof, GraphProfile)


@pytest.mark.parametrize("every", [0, 3])
def test_run_builds_profiles_only_for_snapshots_and_the_end(monkeypatch,
                                                            every):
    built = []
    post_init = GraphProfile.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    initial = perturbed()
    monkeypatch.setattr(GraphProfile, "__post_init__", counting)
    res = run(FLAT, initial, quick_config(), snapshot_every=every)
    kept = {id(prof) for _, _, prof in res.snapshots if prof is not initial}
    assert res.steps >= 10
    assert sorted(map(id, built)) == sorted(kept | {id(res.profile)})


def test_run_records_on_cadence_and_snapshots_recorded_states():
    # a pinch that ends off both cadences: a row every 7 steps, a
    # snapshot at each recorded multiple of 3, and the last state in both
    res = run(FLAT, perturbed(radius=0.25, amplitude=0.12),
              FlowConfig(T_max=0.1, output_every=7), snapshot_every=3)
    steps = res.steps
    assert res.termination == "singular_axis" and steps % 7 and steps % 3
    assert len(res.record.rows) == steps // 7 + 2
    assert [s for s, _, _ in res.snapshots] == [*range(0, steps, 21), steps]
    assert res.record.rows[-1].t == res.snapshots[-1][1] == res.t_final
    assert res.snapshots[-1][2] is res.profile


def test_run_detects_axis_pinching():
    initial = perturbed(radius=0.25, amplitude=0.12)
    cfg = FlowConfig(T_max=0.1)
    res = run(FLAT, initial, cfg)
    assert res.termination == "singular_axis"
    assert res.singular_side == "axis_min"
    assert 0.0 < res.record.rows[-1].r_min <= cfg.eps_axis
    assert np.all(res.record.column("r_min") > 0.0)


def test_run_reports_step_failure_when_dt_is_pinned_too_large():
    cfg = FlowConfig(T_max=1.0, dt=DtPolicy(dt_max=10.0, dt_min=10.0))
    res = run(FLAT, perturbed(radius=0.3, amplitude=0.25), cfg)
    assert res.termination == "step_failure"


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(T_max=0.0)
    with pytest.raises(ValueError):
        FlowConfig(dt=DtPolicy(dt_max=1e-6, dt_min=1e-3))
    with pytest.raises(ValueError):
        FlowConfig(output_every=0)


def test_record_round_trip_layout():
    rec = FlowRecord(rows=[RecordRow(t=0.0, dt=0.0, area=1.0, volume=2.0,
                                     avgH=1.0, r_min=1.0, r_max=1.0,
                                     v_max=1.0, L_max=1.0, sup_H_dev=0.0,
                                     viol_r2=0, viol_h2=0, viol_vbound=0,
                                     viol_area=0, vol_drift=0.0)])
    text = rec.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(lines[0].split(","))
