"""The flow's arithmetic is frozen: on C1-C6 every per-node term,
recorded scalar, tridiagonal system and update of the package equals,
bit for bit, the reference kept in conftest, and the record and profile
writers give the bytes of a plain per-value formatting.  Records are
compared byte for byte across reruns and revisions, so a cheaper
rewrite may not move a single bit."""

import math

import numpy as np
import pytest

from conftest import reference_step_error, reference_terms, reference_update
from eqflow import flow
from eqflow.ambient import make_space
from eqflow.curve import GraphProfile, profile_to_csv
from eqflow.flow import COLUMNS, FlowRecord, RecordRow
from eqflow.geometry import GraphGrid

# (id, make_space arguments, slab)
CASES = [
    ("C1", {"case": "C1"}, (0.0, 1.0)),
    ("C1-n3", {"case": "C1", "n": 3}, (0.0, 1.0)),
    ("C1-n4", {"case": "C1", "n": 4}, (0.0, 1.0)),
    ("C2-n4", {"case": "C2", "n": 4}, (1.0, 2.0)),
    ("C3-mismatched-n3", {"case": "C3", "lam": -1.0, "lam_h": -2.0, "n": 3},
     (-0.5, 0.5)),
    ("C4", {"case": "C4", "lam": -1.0}, (1.0, 2.0)),
    ("C5", {"case": "C5", "lam": -1.0}, (0.0, 1.0)),
    ("C5-n3", {"case": "C5", "lam": -1.0, "n": 3}, (0.0, 1.0)),
    ("C6-mismatched", {"case": "C6", "lam": 1.0, "lam_h": 3.0}, (-0.5, 0.5)),
]
GRIDS = (50, 400)
SCALARS = ("avg_H", "area", "volume", "sup_dev", "r_min", "r_max", "v_max",
           "L_max", "dissipation")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def smooth_state(args, slab, N, seed):
    """A seeded random smooth start: r = 1 plus four cosine modes that
    keep the wall slopes zero."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, N + 1)
    modes = rng.integers(1, 6, size=4)
    amps = rng.uniform(-0.03, 0.03, size=4)
    r = 1.0 + sum(a * np.cos(k * math.pi * x) for k, a in zip(modes, amps))
    space = make_space(**args)
    return space, GraphProfile(slab[0], slab[1], r)


def spy_dgtsv(monkeypatch):
    """Record a copy of the system each dgtsv call of the flow solves."""
    systems = []
    real = flow.dgtsv

    def spying(dl, d, du, b, **kwargs):
        systems.append((dl.copy(), d.copy(), du.copy(), b.copy(order="F")))
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(flow, "dgtsv", spying)
    return systems


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("args,slab", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_state_evaluation_matches_the_reference(args, slab, N):
    space, prof = smooth_state(args, slab, N, seed=N)
    g = GraphGrid(space, prof)
    ref = reference_terms(g, prof.r)
    ev = flow._full_eval(g, prof.r)
    t = ev.terms
    for name in ("rdot", "rddot", "speed2", "speed", "h", "hp", "gdens",
                 "elem", "local"):
        assert same_bits(getattr(t, name), ref[name]), name
    for name, got in zip(("k1", "k2", "H"), t.curvatures()):
        assert same_bits(got, ref[name]), name
    assert same_bits(ev.v, ref["v"])
    for name in SCALARS:
        assert getattr(ev, name) == ref[name], name
    assert flow._light_eval(g, prof.r).avg_H == ref["avg_H"]


@pytest.mark.parametrize("N", GRIDS)
@pytest.mark.parametrize("args,slab", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_updates_match_the_reference(monkeypatch, args, slab, N):
    space, prof = smooth_state(args, slab, N, seed=N + 1)
    g = GraphGrid(space, prof)
    systems = spy_dgtsv(monkeypatch)
    target = flow._volume_measure(g, prof.r)
    dt0, dt1 = 2e-3, 3e-3

    # IMEX-Euler from a state without a predecessor
    ev0 = flow._full_eval(g, prof.r)
    s0 = reference_terms(g, prof.r)
    r1 = flow._imex_update(g, ev0, dt0, target)
    *system, want = reference_update(g, s0, dt0, target)
    assert r1 is not None and same_bits(r1, want)
    assert all(same_bits(a, b) for a, b in zip(systems[-1], system))
    assert flow._step_error(g, ev0, dt0, r1) == \
        reference_step_error(g, s0, dt0, want)

    # SBDF2 from the new state, which keeps the first as its predecessor
    ev1 = flow._full_eval(g, r1)
    ev1.prev, ev1.dt_prev = ev0, dt0
    s1 = reference_terms(g, want)
    for name in SCALARS:
        assert getattr(ev1, name) == s1[name], name
    r2 = flow._imex_update(g, ev1, dt1, target)
    *system, want = reference_update(g, s1, dt1, target, prev=s0,
                                     dt_prev=dt0)
    assert r2 is not None and same_bits(r2, want)
    assert all(same_bits(a, b) for a, b in zip(systems[-1], system))
    assert flow._step_error(g, ev1, dt1, r2) == \
        reference_step_error(g, s1, dt1, want, prev=s0, dt_prev=dt0)
    # a retry from the same state solves the same system again
    flow._imex_update(g, ev1, dt1, target)
    assert all(same_bits(a, b) for a, b in zip(systems[-1], system))


EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 0.1, 1e16, 1e17,
               123456789012345678.0, 1.7976931348623157e308, math.inf,
               -math.inf, math.nan)


def test_record_csv_is_a_per_value_format():
    rng = np.random.default_rng(5)
    values = list(EDGE_FLOATS) + list(
        rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40))
    rows = []
    for i in range(len(values)):
        kw = {name: values[(i + j) % len(values)]
              for j, name in enumerate(COLUMNS)}
        kw.update(viol_r2=i % 2, viol_h2=0, viol_vbound=1, viol_area=i % 3 // 2)
        rows.append(RecordRow(**kw))
    lines = [",".join(COLUMNS)]
    for row in rows:
        vals = [getattr(row, name) for name in COLUMNS]
        lines.append(",".join(str(v) if isinstance(v, int) else f"{v:.17g}"
                              for v in vals))
    assert FlowRecord(rows=rows).to_csv() == "\n".join(lines) + "\n"
    assert FlowRecord().to_csv() == ",".join(COLUMNS) + "\n"


def test_profile_csv_is_a_per_value_format():
    rng = np.random.default_rng(6)
    prof = GraphProfile(-0.3, 1.7, np.exp(rng.uniform(-700.0, 700.0, 65)))
    want = "z,r\n" + "".join(f"{z:.17g},{r:.17g}\n"
                             for z, r in zip(prof.z, prof.r))
    assert profile_to_csv(prof) == want
