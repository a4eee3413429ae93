"""Command line interface.

Subcommands: ``run`` (integrate a configured flow and write its record),
``bounds`` (print the a-priori constants for a configuration),
``appendix-b`` (the rolling-curve averaged-curvature benchmark),
``verify-curvature`` (sampled check that the curvature components of a
space form equal its sectional curvature), and ``sweep`` (the C5
benchmark across curvature scales).

Exit codes for ``run``: 0 when the flow reaches the time horizon or a
steady state, 2 on axis contact, 3 on step failure; every subcommand
returns 1 on configuration errors and 4 on I/O failures.  A malformed
command line, an out-of-range ``--samples`` included, is a usage error:
argparse reports it and exits 2 before any work.  All file
output is written atomically (temp file then rename), so rerunning a
command cannot leave a half-written artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import ambient, flow, reference_cases
from .config import ConfigError, load_config
from .curve import profile_to_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SINGULAR = 2
EXIT_STEP_FAILURE = 3
EXIT_IO = 4

VERIFY_TOL = 1e-9

# Sampling rectangles for the curvature check, per case at |lambda| = 1.
# Kept away from coordinate zeros, where the component formulas hit
# 0/0 cancellation and lose digits without being wrong.
_VERIFY_RECTS = {
    "C1": ((-1.0, 1.0), (0.3, 2.0)),
    "C2": ((0.5, 2.5), (0.3, 2.8)),
    "C3": ((-1.0, 1.0), (0.3, 2.0)),
    "C4": ((0.4, 2.0), (0.3, 2.8)),
    "C5": ((-1.0, 1.0), (0.3, 2.0)),
    "C6": ((-0.6, 0.6), (0.3, 2.8)),
}


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _int_at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names it in "invalid int value"
    return parse


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    space = cfg.build_space()
    initial = cfg.build_initial(space)
    result = flow.run(space, initial, cfg.flow,
                      snapshot_every=cfg.snapshot_every)

    out_dir = Path(args.out or cfg.out_dir or ".")
    last = result.record.rows[-1]
    summary = {
        "termination": result.termination,
        "singular_side": result.singular_side,
        "t_final": result.t_final,
        "steps": result.steps,
        "records": len(result.record.rows),
        "final": {"area": last.area, "volume": last.volume,
                  "avgH": last.avgH, "sup_H_dev": last.sup_H_dev,
                  "r_min": last.r_min, "r_max": last.r_max,
                  "vol_drift": last.vol_drift},
        "monitor_failures": result.monitor_failures,
        "dissipation_checked": result.dissipation_checked,
        "dissipation_worst": result.dissipation_worst,
        "stats": result.stats,
        "bound_set": result.bound_set.to_json_dict(),
        "config": cfg.to_json_dict(),
    }
    _write_atomic(out_dir / "record.csv", result.record.to_csv())
    _write_atomic(out_dir / "summary.json", _json_text(summary))
    _write_atomic(out_dir / "final_profile.csv", profile_to_csv(result.profile))
    for step_idx, t, prof in result.snapshots:
        _write_atomic(out_dir / f"profile_{step_idx:08d}.csv",
                      profile_to_csv(prof))
    print(f"{result.termination} t={result.t_final:.6g} steps={result.steps}")
    if result.termination in ("reached_T", "steady"):
        return EXIT_OK
    if result.termination == "singular_axis":
        return EXIT_SINGULAR
    return EXIT_STEP_FAILURE


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    space = cfg.build_space()
    bset = flow.initial_bound_set(space, cfg.build_initial(space))
    print(_json_text(bset.to_json_dict()), end="")
    return EXIT_OK


def cmd_appendix_b(args) -> int:
    report = reference_cases.cycloid_report(args.case, args.samples)
    text = _json_text(report)
    if args.out:
        out_dir = Path(args.out)
        _write_atomic(out_dir / f"benchmark_{args.case}.json", text)
        curve = reference_cases.build_cycloid_curve(
            report["s_turn"][0], report["s_turn"][1], args.samples)
        lines = ["s,z,r"]
        for s, z, r in zip(curve.s, curve.z, curve.r):
            lines.append(f"{s:.17g},{z:.17g},{r:.17g}")
        _write_atomic(out_dir / f"benchmark_{args.case}_curve.csv",
                      "\n".join(lines) + "\n")
    print(text, end="")
    return EXIT_OK


def cmd_verify_curvature(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        space = cfg.build_space()
        z_range = cfg.slab
        if space.h_zero is not None:
            r_range = (0.1 * space.h_zero, 0.9 * space.h_zero)
        else:
            r_range = (0.3, 2.0)
    else:
        case = args.case or "C1"
        lam = None
        if case in ("C3", "C4", "C5"):
            lam = -1.0
        elif case == "C6":
            lam = 1.0
        space = ambient.make_space(case, lam=lam, n=2)
        z_range, r_range = _VERIFY_RECTS[case]

    if not space.is_space_form:
        print("verify-curvature requires matching curvature scales "
              "(a space form)", file=sys.stderr)
        return EXIT_CONFIG

    rng = np.random.default_rng(0)
    z = rng.uniform(z_range[0], z_range[1], args.samples)
    r = rng.uniform(r_range[0], r_range[1], args.samples)
    comps = ambient.curvature_components(space, z, r)
    dev = max(float(np.max(np.abs(getattr(comps, name) - space.lam)))
              for name in ("axis_plane", "radial_plane", "sphere_plane"))
    print(_json_text({"case": space.case, "lambda": space.lam,
                      "n": space.n, "samples": args.samples,
                      "max_deviation": dev, "tol": VERIFY_TOL}), end="")
    return EXIT_OK if dev <= VERIFY_TOL else EXIT_CONFIG


def cmd_sweep(args) -> int:
    results = reference_cases.lambda_sweep(samples=args.samples)
    text = _json_text({"case": "C5", "samples": args.samples,
                       "results": results})
    if args.out:
        out_dir = Path(args.out)
        _write_atomic(out_dir / "sweep.json", text)
        for entry in results:
            sub = out_dir / f"lam_{entry['lam']:+.4g}"
            _write_atomic(sub / "report.json", _json_text(entry))
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqflow",
        description="Volume-preserving curvature flow of revolution graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured flow")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds",
                              help="print a-priori constants for a config")
    p_bounds.add_argument("--config", required=True)
    p_bounds.set_defaults(func=cmd_bounds)

    p_app = sub.add_parser("appendix-b",
                           help="rolling-curve averaged-curvature benchmark")
    p_app.add_argument("--case", choices=reference_cases.BENCHMARK_CASES,
                       default="C2")
    p_app.add_argument("--samples", default=10000,
                       type=_int_at_least(reference_cases._MIN_SAMPLES))
    p_app.add_argument("--out", default=None)
    p_app.set_defaults(func=cmd_appendix_b)

    p_ver = sub.add_parser("verify-curvature",
                           help="sampled space-form curvature check")
    p_ver.add_argument("--config", default=None)
    p_ver.add_argument("--case", choices=ambient.CASES, default=None)
    p_ver.add_argument("--samples", type=_int_at_least(1), default=1000)
    p_ver.set_defaults(func=cmd_verify_curvature)

    p_sw = sub.add_parser("sweep",
                          help="benchmark across curvature scales")
    p_sw.add_argument("--samples", default=4000,
                      type=_int_at_least(reference_cases._MIN_SAMPLES))
    p_sw.add_argument("--out", default=None)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
