"""Shared test configuration, the flow's pointwise right-hand side, a
reference of the flow's arithmetic order and the acceptance-line
reporter."""

import numpy as np
from hypothesis import HealthCheck, settings

from eqflow.ambient import radial_measure
from eqflow.curve import diff_radii
from eqflow.flow import NEWTON_MAX, NEWTON_RTOL, dgtsv
from eqflow.geometry import GraphGrid, graph_terms

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def flow_rhs(space, profile, avg_H):
    """Pointwise time derivative of the radii for a given average: the
    local term plus avg_H |c'|/f, from the flow's own graph terms."""
    g = GraphGrid(space, profile)
    t = graph_terms(g, profile.r)
    return t.local + avg_H * t.speed / g.f


# The flow's per-node terms, recorded scalars and update written out in
# the order of operations that produced the committed records: a
# rewrite of the package that is meant to be cheaper must match these
# bit for bit, because reruns and older records are compared byte for
# byte.


def reference_terms(g, r):
    """The graph terms, curvatures and recorded scalars of the radii
    ``r`` on the grid ``g``, by name."""
    space, f, fp, n = g.space, g.f, g.fp, g.space.n
    rdot, rddot = diff_radii(r, g.dz)
    h, hp, _ = space.h(r)
    speed2 = 1.0 + (f * rdot) ** 2
    speed = np.sqrt(speed2)
    local = (rddot / speed2 + (fp / f) * (1.0 / speed2 + n) * rdot
             - (n - 1) * hp / (h * f * f))
    gdens = f ** (n - 1) * h ** (n - 1)
    elem = speed * gdens
    k1 = -(rddot * f / speed2
           + fp * rdot * (1.0 / speed2 + 1.0)) / speed
    k2 = (hp / (h * f) - fp * rdot) / speed
    H = k1 + (n - 1) * k2
    den = float(g.w @ elem)
    avg_H = -float(g.w @ (f * gdens * local)) / den
    v = speed / f
    return {
        "r": r, "rdot": rdot, "rddot": rddot, "speed2": speed2,
        "speed": speed, "h": h, "hp": hp, "gdens": gdens, "elem": elem,
        "local": local, "k1": k1, "k2": k2, "H": H, "v": v,
        "avg_H": avg_H, "area": g.omega * den,
        "volume": g.omega * float(g.vol_w @ radial_measure(space, r)),
        "sup_dev": float(np.max(np.abs(H - avg_H))),
        "r_min": float(np.min(r)), "r_max": float(np.max(r)),
        "v_max": float(np.max(v)),
        "L_max": float(np.max(np.sqrt(k1 * k1 + (n - 1) * k2 * k2))),
        "dissipation": g.omega * float(g.w @ ((avg_H - H) ** 2 * elem)),
    }


def reference_update(g, s, dt, target, prev=None, dt_prev=0.0):
    """The tridiagonal system and the volume-fixing Newton iteration of
    one update of size ``dt`` from the state ``s`` (a
    :func:`reference_terms` dict), SBDF2 when a predecessor ``prev`` is
    given and IMEX-Euler otherwise.  Returns ``(sub, diag, sup, rhs,
    r_new)``: the arguments dgtsv is given and the updated radii, or
    None in place of ``r_new`` where the update gives none."""
    rhs = np.empty((len(s["r"]), 2), order="F")
    if prev is None:
        lead = 1.0
        a = dt / (s["speed2"] * g.dz ** 2)
        rhs[:, 0] = s["r"] + dt * (s["local"] - s["rddot"] / s["speed2"])
        rhs[:, 1] = dt * s["speed"] / g.f
    else:
        w = dt / dt_prev
        lead = (1.0 + 2.0 * w) / (1.0 + w)
        a = dt * ((1.0 + w) / s["speed2"] - w / prev["speed2"]) / g.dz ** 2
        rhs[:, 0] = ((1.0 + w) * s["r"] - (w * w / (1.0 + w)) * prev["r"]
                     + dt * ((1.0 + w) * (s["local"] - s["rddot"] / s["speed2"])
                             - w * (prev["local"]
                                    - prev["rddot"] / prev["speed2"])))
        rhs[:, 1] = dt * ((1.0 + w) * s["speed"] - w * prev["speed"]) / g.f
    return _reference_solve(g, s, target, lead, a, rhs)


def reference_sbdf3_update(g, s, dt, target, hist):
    """As :func:`reference_update`, for the SBDF3 update from ``s``
    whose history ``hist`` is ``((p, dt_p), (q, dt_q))``: its
    predecessor ``p``, a step of ``dt_p`` back, and that one's
    predecessor ``q``, ``dt_q`` further back."""
    (p, dt_p), (q, dt_q) = hist
    w = dt / dt_p
    u = dt_q / dt_p
    b0 = (1.0 + w) * (1.0 + w + u) / (1.0 + u)
    b1 = -w * (1.0 + w + u) / u
    b2 = w * (1.0 + w) / ((1.0 + u) * u)
    lead = 1.0 + w / (1.0 + w) + w / (1.0 + w + u)
    a = dt * (b0 / s["speed2"] + b1 / p["speed2"] + b2 / q["speed2"]) \
        / g.dz ** 2
    explicit = [x["local"] - x["rddot"] / x["speed2"] for x in (s, p, q)]
    rhs = np.empty((len(s["r"]), 2), order="F")
    rhs[:, 0] = (b0 * s["r"] + (b1 * w / (1.0 + w)) * p["r"]
                 + (b2 * w / (1.0 + w + u)) * q["r"]
                 + dt * (b0 * explicit[0] + b1 * explicit[1]
                         + b2 * explicit[2]))
    rhs[:, 1] = dt * (b0 * s["speed"] + b1 * p["speed"]
                      + b2 * q["speed"]) / g.f
    return _reference_solve(g, s, target, lead, a, rhs)


def _reference_solve(g, s, target, lead, a, rhs):
    sub = -a[1:]
    sup = -a[:-1]
    sub[-1] *= 2.0
    sup[0] *= 2.0
    diag = lead + 2.0 * a
    system = (sub.copy(), diag.copy(), sup.copy(), rhs.copy(order="F"))
    *_, sol, info = dgtsv(sub, diag, sup, rhs)
    if info != 0:
        return (*system, None)
    p, q = sol[:, 0], sol[:, 1]
    space, n = g.space, g.space.n
    hi = np.inf if space.h_zero is None else space.h_zero
    lam = s["avg_H"]
    for _ in range(NEWTON_MAX):
        r_new = p + lam * q
        if not np.all((r_new > 0.0) & (r_new < hi)):
            break
        gap = float(g.vol_w @ radial_measure(space, r_new)) - target
        if abs(gap) <= NEWTON_RTOL * target:
            return (*system, r_new)
        lam -= gap / float(g.vol_w @ (space.h(r_new)[0] ** (n - 1) * q))
    return (*system, None)


def reference_step_error(g, s, dt, r_new, prev=None, dt_prev=0.0):
    """The local error estimate of the update ``r_new`` from ``s``."""
    if prev is None:
        euler = s["r"] + dt * (s["local"] + s["avg_H"] * s["speed"] / g.f)
        return 0.5 * float(np.max(np.abs(r_new - euler)))
    w = dt / dt_prev
    gap = r_new - s["r"] - w * (s["r"] - prev["r"])
    return dt / (dt + dt_prev) * float(np.max(np.abs(gap)))


def reference_sbdf3_error(g, s, dt, r_new, hist):
    """The error estimate of the SBDF3 update ``r_new`` from ``s``, whose
    history ``hist`` lists its three predecessors, latest first, each
    with the step from it to the state after it."""
    (p, dt_p), (q, dt_q), (o, dt_o) = hist
    w = dt / dt_p
    u = dt_q / dt_p
    v = dt_o / dt_p
    s2 = 1.0 + w
    s3 = s2 + u
    s4 = s3 + v
    gap = (r_new - (s2 * s3 * s4 / ((1.0 + u) * (1.0 + u + v))) * s["r"]
           + (w * s3 * s4 / (u * (u + v))) * p["r"]
           - (w * s2 * s4 / ((1.0 + u) * u * v)) * q["r"]
           + (w * s2 * s3 / ((1.0 + u + v) * (u + v) * v)) * o["r"])
    lead = 1.0 + w / s2 + w / s3
    return float(np.max(np.abs(gap))) / (1.0 + lead * s4 / w)


# One line per acceptance criterion, echoed after capture ends so the
# verdicts are visible in a plain `pytest -v` log.
ACCEPTANCE_LINES: list[str] = []


def criterion(num: int, passed: bool, detail: str) -> bool:
    line = f"criterion {num}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)
    return passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES,
                           key=lambda s: int(s.split()[1].rstrip(":"))):
            terminalreporter.write_line(line)
