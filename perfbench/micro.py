"""Microbenchmarks of single eqflow calls through the public functions.

Each entry times one call shape repeatedly and reports the median time
per call over its samples; one sample times a batch of calls long enough
(about 2 ms) for the clock to resolve it.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from time import perf_counter

import numpy as np

from eqflow import bounds, config, flow, geometry, reference_cases
from eqflow.ambient import make_space
from eqflow.reference_cases import make_initial

# Spaces and slabs as in the curved_short workload, plus C1.
CASES = {
    "C1": (dict(case="C1"), (0.0, 1.0)),
    "C2": (dict(case="C2"), (1.0, 2.0)),
    "C3": (dict(case="C3", lam=-1.0, lam_h=-2.0, n=3), (-0.5, 0.5)),
    "C4": (dict(case="C4", lam=-1.0), (1.0, 2.0)),
    "C5": (dict(case="C5", lam=-1.0), (0.0, 1.0)),
    "C6": (dict(case="C6", lam=1.0), (-0.5, 0.5)),
}
GRIDS = (100, 400, 1600)
BATCH_S = 0.002


def _state(case: str, N: int):
    kwargs, slab = CASES[case]
    space = make_space(**kwargs)
    prof = make_initial(space, slab, N, kind="perturbed", radius=1.0,
                        amplitude=0.1, mode=1)
    return space, slab, prof


def _bound_set(space, slab, prof):
    summ = geometry.summarize(space, prof)
    lo, hi = float(np.min(prof.r)), float(np.max(prof.r))
    return summ, bounds.compute_bound_set(space, slab, summ.volume, summ.area,
                                          0.99 * lo, 1.01 * hi,
                                          float(np.max(summ.v)))


def _record(rows: int):
    rng = random.Random(0)
    rec = flow.FlowRecord()
    for i in range(rows):
        vals = {name: rng.random() for name in flow.COLUMNS}
        for name in ("viol_r2", "viol_h2", "viol_vbound", "viol_area"):
            vals[name] = 0
        vals["t"] = i * 2e-5
        rec.rows.append(flow.RecordRow(**vals))
    return rec


def _cases():
    """(metric name, unit scale, zero-argument callable) per entry."""
    for case in ("C1", "C2"):
        for N in GRIDS:
            space, _, prof = _state(case, N)
            tag = f"{case}.N{N}"
            yield (f"flow.step_us.{tag}", 1e6,
                   lambda s=space, p=prof: flow.step(s, p, 1e-6))
            yield (f"flow.averaged_for_step_us.{tag}", 1e6,
                   lambda s=space, p=prof: flow.averaged_for_step(s, p))
            yield (f"flow.detect_steady_us.{tag}", 1e6,
                   lambda s=space, p=prof: flow.detect_steady(s, p, 1e-5))
            yield (f"geometry.summarize_us.{tag}", 1e6,
                   lambda s=space, p=prof: geometry.summarize(s, p))
    for case in CASES:
        space, slab, prof = _state(case, 400)
        summ, bset = _bound_set(space, slab, prof)
        yield (f"bounds.run_monitors_us.{case}", 1e6,
               lambda s=space, b=bset, p=prof, m=summ: bounds.run_monitors(
                   s, b, p, m, 0.1, prev_area=m.area * (1.0 + 1e-9),
                   prev_dissipation=1.0, dt=1e-5))
        lo, hi = bset.r_lo, bset.r_hi
        yield (f"bounds.compute_bound_set_ms.{case}", 1e3,
               lambda s=space, sl=slab, m=summ, lo=lo, hi=hi, v=bset.max_v0:
               bounds.compute_bound_set(s, sl, m.volume, m.area, lo, hi, v))
    doc = json.dumps({"space": {"case": "C1"}, "slab": {"a": 0.0, "b": 1.0},
                      "grid": {"N": 400},
                      "initial": {"kind": "perturbed", "radius": 1.0,
                                  "amplitude": 0.1, "mode": 1},
                      "flow": {"T_max": 2.0}})
    yield ("config.parse_config_us", 1e6, lambda: config.parse_config(doc))
    rec = _record(10_000)
    yield ("flow.record_to_csv_ms", 1e3, rec.to_csv)
    for case in ("C2", "C5"):
        yield (f"reference_cases.cycloid_report_ms.{case}", 1e3,
               lambda c=case: reference_cases.cycloid_report(c, 10_000))


def _time(fn, target_s: float, min_samples: int) -> tuple[float, int, int]:
    """Median seconds per call, sample count and calls per sample."""
    fn()
    start = perf_counter()
    fn()
    batch = max(1, int(BATCH_S / max(perf_counter() - start, 1e-9)))
    samples = []
    start = perf_counter()
    while len(samples) < min_samples or perf_counter() - start < target_s:
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        samples.append((perf_counter() - t0) / batch)
    return statistics.median(samples), len(samples), batch


def run_all(target_s: float = 0.1, min_samples: int = 11) -> dict:
    """Every microbenchmark as {name: {value, samples, batch}}."""
    out = {}
    for name, scale, fn in _cases():
        sec, samples, batch = _time(fn, target_s, min_samples)
        if not math.isfinite(sec) or sec <= 0.0:
            raise RuntimeError(f"{name}: bad timing {sec}")
        out[name] = {"value": sec * scale, "samples": samples,
                     "batch": batch}
    return out
