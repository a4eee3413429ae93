"""Time integration of the volume-preserving flow for graph profiles.

The radial graph r(z, t) moves by (avg_H - H) in the normal direction,
which for graphs is the scalar equation

    dr/dt = r'' / |c'|^2 + (f'/f) (1/|c'|^2 + n) r'
            - (n-1) h' / (h f^2) + avg_H |c'| / f,

with |c'|^2 = 1 + (f r')^2 and Neumann walls r'(a) = r'(b) = 0.  In the
continuous flow the average is the Lagrange multiplier that holds the
enclosed volume fixed.

Each step treats the second-derivative term implicitly with a frozen
or extrapolated coefficient (a tridiagonal solve) and everything else
explicitly.  The update is affine in the average, so each step solves
for two right-hand sides and picks the multiplier by Newton so that the
discrete volume of the new state equals the run's initial volume to
rounding; the state's own average is the Newton start.  A step from a
state that carries its predecessor is a variable-step SBDF2 step
(Ascher, Ruuth and Spiteri 1997), second order in time; without one it
is an IMEX-Euler step, first order.  The first step of a run and every
public :func:`step` are of the second kind.  A run makes one update per
attempt and estimates its error from the accepted history, so each step
costs one solve; the step size is controlled against a fixed per-step
tolerance, under a cap at the largest step the dissipation monitor
checks.

A run is a stepper and an observer.  The stepper (:func:`_stepper`)
does the step control on bare radius arrays: it takes the steps,
decides every termination and yields each accepted state.  The
observer (:func:`run`) refreezes the bounds, runs the monitors and
writes the records and snapshots from the state evaluation; a profile
object is built only for a snapshot and for the final state.  The
radii must stay in the ambient's open band (0, h_zero): a state
entering through a public function is checked once, when its
``GraphGrid`` is built, and each trial state of a step (a Newton
iterate) is tested once with ``AmbientSpace.admits``; an inadmissible
trial rejects the attempt.

The tridiagonal solves call LAPACK's dgtsv, loaded from scipy's
compiled LAPACK extension by :func:`_load_dgtsv`, so a run imports
numpy and that one extension but no scipy subpackage.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .ambient import AmbientSpace, radial_measure
from .bounds import MONITOR_DT_MAX, BoundSet, compute_bound_set, run_monitors
from .curve import GraphProfile
from .geometry import GraphGrid, GraphTerms, graph_terms, weingarten_norm

STEP_TOL = 1e-6          # per-step error bound of the step control
RECT_MARGIN = 0.01       # radius envelope margin for the frozen bounds
MAX_RETRIES = 60
# Newton on the volume multiplier: at most NEWTON_MAX trial states, done
# when the volume gap is within NEWTON_RTOL of the target (rounding moves
# the gap by about one ulp, so a tighter stop may never be met)
NEWTON_MAX = 6
NEWTON_RTOL = 1e-15


def _load_dgtsv():
    """LAPACK's dgtsv as ``scipy.linalg.lapack`` exports it, taken from
    the compiled ``scipy.linalg._flapack`` extension loaded by file under
    its own name.  This skips the ``scipy.linalg`` package import (its
    array-API shim, ``numpy.f2py`` and ``numpy.testing``), which costs a
    fresh run more time than the run's own steps.  A later import of
    ``scipy.linalg`` finds the extension already loaded and exports the
    same function.  Without the file, the public import is used."""
    spec = importlib.util.find_spec("scipy")
    folders = spec.submodule_search_locations if spec else None
    for folder in folders or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(folder, "linalg", "_flapack" + suffix)
            if path.is_file():
                ext = importlib.util.spec_from_file_location(
                    "scipy.linalg._flapack", path)
                module = importlib.util.module_from_spec(ext)
                ext.loader.exec_module(module)
                return module.dgtsv
    from scipy.linalg.lapack import dgtsv
    return dgtsv


dgtsv = _load_dgtsv()


def _reject(problems: list[str]) -> None:
    """Raise one ValueError whose args are all the "field: message"
    problems found, so a parser can report each under its own path."""
    if problems:
        raise ValueError(*problems)


@dataclass(frozen=True)
class DtPolicy:
    dt_max: float = MONITOR_DT_MAX
    dt_min: float = 1e-12

    def __post_init__(self):
        if not 0.0 < self.dt_min <= self.dt_max < math.inf:
            raise ValueError("dt_min: need 0 < dt_min <= dt_max < inf")


@dataclass(frozen=True)
class FlowConfig:
    T_max: float = 2.0
    dt: DtPolicy = field(default_factory=DtPolicy)
    eps_cmc: float = 1e-5
    eps_axis: float = 1e-3
    output_every: int = 1

    def __post_init__(self):
        problems = []
        if not 0.0 < self.T_max < math.inf:
            problems.append("T_max: must be positive and finite")
        for name in ("eps_cmc", "eps_axis"):
            if not 0.0 <= getattr(self, name) < math.inf:
                problems.append(f"{name}: must be non-negative and finite")
        if self.output_every < 1:
            problems.append("output_every: must be at least 1")
        _reject(problems)


class FlowStepError(RuntimeError):
    """A single update produced an invalid state."""


@dataclass
class _StateEval:
    """Terms, average and area of one state; the rest filled by _full_eval.
    Has the ``area``, ``volume``, ``avg_H``, ``dissipation``, ``v`` and
    ``r_max`` run_monitors reads.
    ``prev`` is the accepted state a step of size ``dt_prev`` came from,
    kept one level deep, so an update from this state is SBDF2."""

    r: np.ndarray
    terms: GraphTerms
    avg_H: float
    area: float
    v: np.ndarray | None = None
    volume: float = 0.0
    sup_dev: float = 0.0
    r_min: float = 0.0
    r_max: float = 0.0
    v_max: float = 0.0
    L_max: float = 0.0
    dissipation: float = 0.0
    prev: _StateEval | None = None
    dt_prev: float = 0.0


def _light_eval(g: GraphGrid, r: np.ndarray) -> _StateEval:
    """Terms plus the state's average; enough to take a step.

    The average makes the discrete volume derivative sum_i w_i f^n
    h^(n-1) rhs_i vanish; as the local term is -H |c'|/f node by node, it
    is also the area-weighted mean of H up to rounding.
    """
    t = graph_terms(g, r)
    den = float(g.w @ t.elem)
    avg = -float(g.w @ (g.f * t.gdens * t.local)) / den
    return _StateEval(r=r, terms=t, avg_H=avg, area=g.omega * den)


def _full_eval(g: GraphGrid, r: np.ndarray) -> _StateEval:
    """Light evaluation plus every recorded scalar."""
    n = g.space.n
    ev = _light_eval(g, r)
    t = ev.terms
    k1, k2, H = t.curvatures()
    ev.v = t.speed / g.f
    ev.volume = g.omega * _volume_measure(g, r)
    ev.sup_dev = float(np.max(np.abs(H - ev.avg_H)))
    ev.r_min = float(np.min(r))
    ev.r_max = float(np.max(r))
    ev.v_max = float(np.max(ev.v))
    ev.L_max = float(np.max(weingarten_norm(k1, k2, n)))
    ev.dissipation = g.omega * float(g.w @ ((ev.avg_H - H) ** 2 * t.elem))
    return ev


def _volume_measure(g: GraphGrid, r: np.ndarray) -> float:
    """The discrete enclosed volume of ``r`` without the factor omega."""
    return float(g.vol_w @ radial_measure(g.space, r))


def _imex_update(g: GraphGrid, ev: _StateEval, dt: float,
                 target: float) -> np.ndarray | None:
    """One implicit-explicit update whose discrete volume measure
    (:func:`_volume_measure`) is ``target``; None when Newton does not
    converge or a trial state is inadmissible.

    Write the flow as r_t = A r'' + E + lam v with A = 1/|c'|^2, v =
    |c'|/f and E the rest of the local term.  Without ``ev.prev`` the
    update is IMEX-Euler: A frozen at the state, E and v explicit.  With
    it, and w = dt/dt_prev, it is variable-step SBDF2:

        (1+2w)/(1+w) r+ - dt A* r+'' = (1+w) r - w^2/(1+w) r-
                                       + dt [(1+w) E - w E-]
                                       + lam dt [(1+w) v - w v-],

    with A* = (1+w) A - w A- extrapolated from the predecessor (the
    minus quantities).  Either way the implicit part is a tridiagonal
    solve; the ghost closure r''(a) = 2 (r_1 - r_0)/dz^2 keeps the
    Neumann walls exact.  The average enters only the explicit part, so
    one solve with two right-hand sides gives r+ = p + lam q for every
    lam, and lam is the root of sum w f^n R(p + lam q) = target, with
    derivative sum w f^n h^(n-1) q, found by Newton from the state's
    average.
    """
    t = ev.terms
    prev = ev.prev
    rhs = np.empty((len(ev.r), 2), order="F")
    if prev is None:
        lead = 1.0
        a = dt / (t.speed2 * g.dz ** 2)
        rhs[:, 0] = ev.r + dt * (t.local - t.rddot / t.speed2)
        rhs[:, 1] = dt * t.speed / g.f
    else:
        w = dt / ev.dt_prev
        tp = prev.terms
        lead = (1.0 + 2.0 * w) / (1.0 + w)
        a = dt * ((1.0 + w) / t.speed2 - w / tp.speed2) / g.dz ** 2
        rhs[:, 0] = ((1.0 + w) * ev.r - (w * w / (1.0 + w)) * prev.r
                     + dt * ((1.0 + w) * (t.local - t.rddot / t.speed2)
                             - w * (tp.local - tp.rddot / tp.speed2)))
        rhs[:, 1] = dt * ((1.0 + w) * t.speed - w * tp.speed) / g.f
    sub = -a[1:]
    sup = -a[:-1]
    sub[-1] *= 2.0
    sup[0] *= 2.0
    *_, sol, info = dgtsv(sub, lead + 2.0 * a, sup, rhs, overwrite_dl=True,
                          overwrite_d=True, overwrite_du=True,
                          overwrite_b=True)
    if info != 0:
        return None
    p, q = sol[:, 0], sol[:, 1]
    space, n = g.space, g.space.n
    lam = ev.avg_H
    for _ in range(NEWTON_MAX):
        r_new = p + lam * q
        if not space.admits(r_new):
            return None
        gap = _volume_measure(g, r_new) - target
        if abs(gap) <= NEWTON_RTOL * target:
            return r_new
        lam -= gap / float(g.vol_w @ (space.h(r_new)[0] ** (n - 1) * q))
    return None


def _step_error(g: GraphGrid, ev: _StateEval, dt: float,
                r_new: np.ndarray) -> float:
    """Local error estimate of the update ``r_new`` from ``ev``, at no
    extra solve.

    With a predecessor it is the gap to the linear extrapolation of the
    last two accepted states, scaled by dt/(dt + dt_prev); without one,
    half the gap to forward Euler driven by the state's average.  Both
    are the O(dt^2) local error of a first-order step.
    """
    if ev.prev is None:
        t = ev.terms
        euler = ev.r + dt * (t.local + ev.avg_H * t.speed / g.f)
        return 0.5 * float(np.max(np.abs(r_new - euler)))
    w = dt / ev.dt_prev
    gap = r_new - ev.r - w * (ev.r - ev.prev.r)
    return dt / (dt + ev.dt_prev) * float(np.max(np.abs(gap)))


def averaged_for_step(space: AmbientSpace, profile: GraphProfile) -> float:
    """The state's average: the Newton start of the volume multiplier of
    a step from this state."""
    return _light_eval(GraphGrid(space, profile), profile.r).avg_H


def detect_steady(space: AmbientSpace, profile: GraphProfile,
                  eps: float) -> bool:
    """True when the mean curvature deviates from its average by at most
    eps in sup norm, i.e. the state is a constant-mean-curvature surface
    up to tolerance."""
    return _full_eval(GraphGrid(space, profile), profile.r).sup_dev <= eps


def step(space: AmbientSpace, profile: GraphProfile,
         dt: float) -> GraphProfile:
    """One IMEX-Euler update of size ``dt`` that keeps the discrete
    volume of ``profile`` to rounding.  It has no predecessor, so it is
    first order: the starter step of :func:`run`.  Raises FlowStepError
    when a trial state leaves the admissible radius band or the
    multiplier is not found."""
    g = GraphGrid(space, profile)
    r_new = _imex_update(g, _light_eval(g, profile.r), dt,
                         _volume_measure(g, profile.r))
    if r_new is None:
        raise FlowStepError("update left the admissible radius band")
    return profile.with_radii(r_new)


@dataclass(frozen=True)
class RecordRow:
    t: float
    dt: float
    area: float
    volume: float
    avgH: float
    r_min: float
    r_max: float
    v_max: float
    L_max: float
    sup_H_dev: float
    viol_r2: int
    viol_h2: int
    viol_vbound: int
    viol_area: int
    vol_drift: float


COLUMNS = tuple(f.name for f in fields(RecordRow))


@dataclass
class FlowRecord:
    rows: list[RecordRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [",".join(COLUMNS)]
        for row in self.rows:
            parts = []
            for name in COLUMNS:
                val = getattr(row, name)
                parts.append(str(val) if isinstance(val, int) else f"{val:.17g}")
            lines.append(",".join(parts))
        return "\n".join(lines) + "\n"

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows], dtype=float)


@dataclass
class RunResult:
    termination: str
    t_final: float
    steps: int
    profile: GraphProfile
    record: FlowRecord
    bound_set: BoundSet
    singular_side: str | None = None
    snapshots: list[tuple[int, float, GraphProfile]] = field(default_factory=list)
    # failing records per monitor; monitors that never failed are absent
    monitor_failures: dict[str, int] = field(default_factory=dict)
    dissipation_worst: float = 0.0
    dissipation_checked: int = 0
    # step control: attempts, rejected attempts and the accepted dt range
    stats: dict[str, int | float | None] = field(default_factory=dict)


def _freeze_bounds(space, slab, volume0, area0, r_lo, r_hi, max_v0) -> BoundSet:
    lo = r_lo * (1.0 - RECT_MARGIN)
    hi = r_hi * (1.0 + RECT_MARGIN)
    if space.h_zero is not None:
        hi = min(hi, math.nextafter(space.h_zero, 0.0))
    return compute_bound_set(space, slab, volume0, area0, lo, hi, max_v0)


def _initial_bounds(g: GraphGrid, ev: _StateEval) -> BoundSet:
    return _freeze_bounds(g.space, (g.a, g.b), ev.volume, ev.area,
                          ev.r_min, ev.r_max, ev.v_max)


def initial_bound_set(space: AmbientSpace, initial: GraphProfile) -> BoundSet:
    """The bound set :func:`run` freezes from this initial state."""
    g = GraphGrid(space, initial)
    return _initial_bounds(g, _full_eval(g, initial.r))


def _stepper(g: GraphGrid, ev: _StateEval, config: FlowConfig,
             target: float):
    """Step control of :func:`run`, from the initial state ``ev``.

    Yields ``(steps, t, ev, stop)`` for the initial state and for each
    accepted state.  ``stop`` is None while the run steps on from the
    state, and at the last state it is (termination, singular side,
    step-control stats).  Every termination is decided here, at the
    state it ends on: axis contact (not for the initial state), then
    steady, then the time horizon, then a step that no attempt passes:
    each attempt is one update, and a rejected one shrinks dt, down to
    ``dt_min`` and for at most MAX_RETRIES attempts.  The attempts from
    a state are made before it is yielded and its successor is
    evaluated after, so it links its predecessor while it is observed.
    """
    space, policy = g.space, config.dt
    t = 0.0
    steps = attempts = 0
    dt_lo, dt_hi, err_max = math.inf, 0.0, 0.0
    dt_next = policy.dt_max
    while True:
        end = side = None
        if steps and ev.r_min <= config.eps_axis:
            end, side = "singular_axis", "axis_min"
        elif (steps and space.h_zero is not None
              and ev.r_max >= space.h_zero - config.eps_axis):
            end, side = "singular_axis", "axis_max"
        elif ev.sup_dev <= config.eps_cmc:
            end = "steady"
        elif t >= config.T_max * (1.0 - 1e-14):
            end = "reached_T"
        else:
            dt = min(dt_next, config.T_max - t)
            for _ in range(MAX_RETRIES):
                attempts += 1
                r_new = _imex_update(g, ev, dt, target)
                err = (math.inf if r_new is None
                       else _step_error(g, ev, dt, r_new))
                if err <= STEP_TOL or dt <= policy.dt_min:
                    break
                shrink = 0.5 if not math.isfinite(err) else max(
                    0.1, min(0.5, 0.9 * math.sqrt(STEP_TOL / err)))
                dt = max(dt * shrink, policy.dt_min)
            if err > STEP_TOL:
                end = "step_failure"
        if end is not None:
            yield steps, t, ev, (end, side, {
                "attempts": attempts, "rejected": attempts - steps,
                "dt_min": dt_lo if steps else None,
                "dt_max": dt_hi if steps else None,
                "dt_mean": t / steps if steps else None,
                "err_ratio_max": err_max / STEP_TOL if steps else None})
            return
        yield steps, t, ev, None
        # a grow cap of 2 keeps the step ratio below 1 + sqrt(2), the
        # zero-stability limit of variable-step BDF2
        grow = 2.0 if err == 0.0 else min(2.0, 0.9 * math.sqrt(STEP_TOL / err))
        dt_next = min(policy.dt_max, dt * grow)
        t += dt
        steps += 1
        dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
        err_max = max(err_max, err)
        # the new state keeps this one as its predecessor, one level deep
        ev.prev = None
        new_ev = _full_eval(g, r_new)
        new_ev.prev, new_ev.dt_prev = ev, dt
        ev = new_ev


def _record_state(result: RunResult, space: AmbientSpace, ev: _StateEval,
                  t: float, volume0: float) -> None:
    """Run the monitors on a state against ``result.bound_set``, count
    what they find in ``result`` and append the state's record row."""
    prev = ev.prev
    report = run_monitors(
        space, result.bound_set, None, ev, t,
        prev_area=None if prev is None else prev.area,
        prev_dissipation=None if prev is None else prev.dissipation,
        dt=None if prev is None else ev.dt_prev)
    for name in report.failures:
        result.monitor_failures[name] = result.monitor_failures.get(name, 0) + 1
    c = report.checks
    if "dissipation" in c:
        result.dissipation_checked += 1
        result.dissipation_worst = max(result.dissipation_worst,
                                       c["dissipation"].observed)
    result.record.rows.append(RecordRow(
        t=t, dt=ev.dt_prev, area=ev.area, volume=ev.volume, avgH=ev.avg_H,
        r_min=ev.r_min, r_max=ev.r_max, v_max=ev.v_max, L_max=ev.L_max,
        sup_H_dev=ev.sup_dev,
        viol_r2=int(not c["radius_cap"].passed),
        viol_h2=int(not c["avg_H_cap"].passed),
        viol_vbound=int(not c["slope_cap"].passed),
        viol_area=int("area_monotone" in c and not c["area_monotone"].passed),
        vol_drift=(ev.volume - volume0) / volume0))


def run(space: AmbientSpace, initial: GraphProfile, config: FlowConfig,
        snapshot_every: int = 0) -> RunResult:
    """Integrate from the initial profile until a termination condition.

    Terminations: ``reached_T`` (time horizon), ``steady`` (sup |H -
    avg_H| <= eps_cmc, checked before each step so an exact constant mean
    curvature state stops at t = 0), ``singular_axis`` (min r within
    eps_axis of the axis, or max r within eps_axis of the far axis), and
    ``step_failure`` (no admissible step above dt_min).

    The steps come from :func:`_stepper`: IMEX-Euler first and SBDF2
    on the last two accepted states after, each attempt one update,
    accepted when its :func:`_step_error` is within STEP_TOL.  ``stats``
    counts the attempts and gives the accepted dt range and
    ``err_ratio_max``, the largest error / STEP_TOL of an accepted step.
    Every step conserves the discrete volume of the initial state to
    rounding.  The recorded ``avgH`` column is the state's own average,
    also the Newton start of the step from that state.

    This function observes each state the stepper yields.  It re-derives
    the frozen bound set (fresh 1% margins, the initial area) whenever
    the running radius envelope leaves the margined rectangle used to
    freeze it.  It records a state, running the monitors on it, every
    ``output_every`` steps and at the end, and snapshots a recorded
    state every ``snapshot_every`` steps and at the end.
    """
    g = GraphGrid(space, initial)
    ev = _full_eval(g, initial.r)
    volume0, area0 = ev.volume, ev.area
    run_lo, run_hi = ev.r_min, ev.r_max
    result = RunResult(termination="reached_T", t_final=0.0, steps=0,
                       profile=initial, record=FlowRecord(),
                       bound_set=_initial_bounds(g, ev))
    for steps, t, ev, stop in _stepper(g, ev, config, volume0 / g.omega):
        if run_lo > ev.r_min or run_hi < ev.r_max:
            run_lo = min(run_lo, ev.r_min)
            run_hi = max(run_hi, ev.r_max)
            frozen = result.bound_set
            if run_lo < frozen.r_lo or run_hi > frozen.r_hi:
                result.bound_set = _freeze_bounds(
                    space, (g.a, g.b), volume0, area0, run_lo, run_hi,
                    frozen.max_v0)
        last = stop is not None
        if not last and steps % config.output_every:
            continue
        _record_state(result, space, ev, t, volume0)
        snap = snapshot_every > 0 and (last or steps % snapshot_every == 0)
        if snap or last:
            profile = initial.with_radii(ev.r) if steps else initial
        if snap:
            result.snapshots.append((steps, t, profile))
    # the loop ends on the state the stepper stopped at
    result.termination, result.singular_side, result.stats = stop
    result.t_final, result.steps, result.profile = t, steps, profile
    return result
