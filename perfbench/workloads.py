"""Run configurations of the three benchmark workloads.

Each workload is a list of ``(name, config document, expected
termination)`` triples generated from the workload seed.  The program
only ever sees the config documents, written as JSON files; the seed
stays inside the benchmark.  ``smoke`` shrinks grids and horizons so the
harness itself can be tested in seconds; it is never used for figures.
"""

from __future__ import annotations

import math
import random

_PERTURBED = {"kind": "perturbed", "radius": 1.0, "amplitude": 0.1,
              "mode": 1}


def _doc(space: dict, slab: tuple[float, float], N: int, initial: dict,
         flow: dict) -> dict:
    return {"space": space, "slab": {"a": slab[0], "b": slab[1]},
            "grid": {"N": N}, "initial": initial, "flow": flow}


def cylinder_steady(seed: int, smoke: bool = False) -> list:
    """The headline run: perturbed cylinder on C1 flowed to steady state.

    It has no seeded input: the run is the fixed reference problem of the
    paper, so every seed measures the same work.
    """
    if smoke:
        flow = {"T_max": 2.0, "eps_cmc": 1e-3,
                "dt_policy": {"dt_max": 1e-3}}
        return [("C1", _doc({"case": "C1", "n": 2}, (0.0, 1.0), 16,
                            _PERTURBED, flow), "steady")]
    return [("C1", _doc({"case": "C1", "n": 2}, (0.0, 1.0), 400,
                        _PERTURBED, {"T_max": 2.0}), "steady")]


# (name, space, slab) of the curved fixed-horizon runs.
_CURVED = (
    ("C2", {"case": "C2", "n": 2}, (1.0, 2.0)),
    ("C3", {"case": "C3", "lambda": -1.0, "lambda_h": -2.0, "n": 3},
     (-0.5, 0.5)),
    ("C4", {"case": "C4", "lambda": -1.0, "n": 2}, (1.0, 2.0)),
    ("C5", {"case": "C5", "lambda": -1.0, "n": 2}, (0.0, 1.0)),
    ("C6", {"case": "C6", "lambda": 1.0, "n": 2}, (-0.5, 0.5)),
)


def curved_short(seed: int, smoke: bool = False) -> list:
    """Short fixed-horizon runs on C2-C6; the seed only orders them."""
    N, T = (16, 0.002) if smoke else (400, 0.05)
    runs = [(name, _doc(space, slab, N, _PERTURBED, {"T_max": T}),
             "reached_T") for name, space, slab in _CURVED]
    random.Random(seed).shuffle(runs)
    return runs


_AMPLITUDES = (0.05, 0.075, 0.1)


def rough_start(seed: int, smoke: bool = False) -> list:
    """C1 runs from r = 1 plus three seeded cosine modes, one grid each.

    The modes are drawn one from each of 4-6, 7-9 and 10-12, and the
    amplitudes 0.05, 0.075 and 0.1 are dealt to them in a seeded order,
    so every run carries a low, a middle and a high mode of the same
    total amplitude: the seed changes the shape without changing much
    how rough the start is, and so how many steps the runs take.
    """
    rng = random.Random(seed)
    grids, T = ((24, 32, 48), 0.001) if smoke else ((400, 800, 1600), 0.03)
    runs = []
    for N in grids:
        modes = [rng.randint(lo, lo + 2) for lo in (4, 7, 10)]
        amps = rng.sample(_AMPLITUDES, len(_AMPLITUDES))
        radii = [1.0 + sum(a * math.cos(k * math.pi * i / N)
                           for k, a in zip(modes, amps))
                 for i in range(N + 1)]
        runs.append((f"N{N}", _doc({"case": "C1", "n": 2}, (0.0, 1.0), N,
                                   {"kind": "custom", "radii": radii},
                                   {"T_max": T}), "reached_T"))
    return runs


WORKLOADS = {"cylinder_steady": cylinder_steady,
             "curved_short": curved_short,
             "rough_start": rough_start}
