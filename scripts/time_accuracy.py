#!/usr/bin/env python3
"""Time error of the step control against a tightly controlled run.

Each case runs to T = 0.05 on N = 200 cells twice: once at the
package's per-step error bounds, and once as a reference with every
per-step bound of ``eqflow.flow`` (the module constants named
``STEP_TOL*``) set to 1e-11 for the duration of that run.  The script
prints the steps of both runs and the largest final-radius difference
between them, case by case, and the worst difference at the end.

The cases are the nine benchmark configurations of ``perfbench``'s
workloads at one seed (the headline cylinder, the five curved C2-C6
runs and the three rough C1 starts, their radii taken on every
N/200-th node so the start is the same function), and the 13 matrix
cases of ``tests/test_flow_matrix.py``.

    PYTHONPATH=src python scripts/time_accuracy.py [--seed 7]
"""

import argparse
import importlib.util
import json
import time
from pathlib import Path

import numpy as np

from eqflow import flow
from eqflow.ambient import make_space
from eqflow.config import parse_config
from eqflow.flow import FlowConfig
from eqflow.reference_cases import make_initial

N = 200
T = 0.05
REFERENCE_TOL = 1e-11
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the matrix of tests/test_flow_matrix.py: (id, make_space arguments,
# slab, (radius, amplitude) of the perturbed cylinder)
NARROW = (1.0, 0.1)
WIDE = (2.5, 0.125)
MATRIX = [
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


def benchmark_cases(seed: int):
    """(name, space, initial profile) of the benchmark's run configs at
    ``seed``, moved to N = 200 cells."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for label, make in workloads.WORKLOADS.items():
        for name, doc, _ in make(seed):
            initial = doc["initial"]
            if initial.get("radii") is not None:
                initial["radii"] = initial["radii"][::doc["grid"]["N"] // N]
            doc["grid"]["N"] = N
            cfg = parse_config(json.dumps(doc))
            space = cfg.build_space()
            yield f"{label}/{name}", space, cfg.build_initial(space)


def matrix_cases():
    for name, args, slab, (radius, amplitude) in MATRIX:
        space = make_space(**args)
        yield name, space, make_initial(space, slab, N, kind="perturbed",
                                        radius=radius, amplitude=amplitude,
                                        mode=1)


def reference_run(space, initial, config):
    """The run with every per-step bound of the flow at REFERENCE_TOL."""
    names = [name for name in vars(flow) if name.startswith("STEP_TOL")]
    saved = {name: getattr(flow, name) for name in names}
    try:
        for name in names:
            setattr(flow, name, REFERENCE_TOL)
        return flow.run(space, initial, config)
    finally:
        for name, value in saved.items():
            setattr(flow, name, value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7,
                    help="seed of the benchmark workloads (default 7)")
    args = ap.parse_args(argv)

    config = FlowConfig(T_max=T)
    cases = [*benchmark_cases(args.seed), *matrix_cases()]
    print(f"{'case':28s} {'steps':>6s} {'ref steps':>9s} {'error':>9s}"
          f" {'ref s':>6s}")
    worst, worst_name = -1.0, None
    for name, space, initial in cases:
        res = flow.run(space, initial, config)
        t0 = time.perf_counter()
        ref = reference_run(space, initial, config)
        took = time.perf_counter() - t0
        ends = {res.termination, ref.termination}
        err = float(np.abs(res.profile.r - ref.profile.r).max())
        note = "" if ends == {"reached_T"} else f"  {sorted(ends)}"
        print(f"{name:28s} {res.steps:6d} {ref.steps:9d} {err:9.2e}"
              f" {took:6.1f}{note}", flush=True)
        if err > worst:
            worst, worst_name = err, name
    print(f"worst {worst:.2e} on {worst_name} over {len(cases)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
