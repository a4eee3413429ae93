#!/usr/bin/env python3
"""Benchmark of the eqflow simulator.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cylinder_steady, curved_short, rough_start (see README.md in
this directory).  The benchmark generates the workload's run configs from
the seed, writes them as JSON, and runs them as a closed loop: one
single-threaded child process at a time, each running every config of
the workload once through ``eqflow.cli.main(["run", ...])``.  Passes
repeat until their runs have taken ``--seconds``; every rerun of a
config must give the same ``record.csv`` bytes as its first run.  Two
set-up probes precede the passes.  Every run's outputs are checked.
Set-up and run times are scaled to a reference host speed measured
alongside them (``hostclock.py``); the raw times are kept in the detail.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics.  With ``--trace 1`` one untraced and one
traced pass are run, followed by the microbenchmarks, and the last line
carries the per-layer metrics.  Earlier lines print every metric with
its unit, and one JSON line with the environment, the seed and the raw
per-run figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PROBES = 2                # set-up-only children before the first pass
DEADLINE_S = 170.0        # a child still running then is killed
BUDGET_S = 150.0          # no new pass starts once it would end past this
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# record.csv flag columns and the monitor each one reports.
FLAG_MONITORS = {"viol_r2": "radius_cap", "viol_h2": "avg_H_cap",
                 "viol_vbound": "slope_cap", "viol_area": "area_monotone"}
# Tolerance of the volume_drift monitor (eqflow.bounds.VOLUME_DRIFT_TOL);
# rows are checked against the summary's failure count, so a change of
# the program's tolerance shows as failed runs, not as a silent shift.
VOLUME_DRIFT_TOL = 1e-6

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "monitor_pass_share": "share", "run_pass_share": "share",
}
PER_LAYER = {
    "flow.accepted_steps": "count", "flow.step_attempts": "count",
    "flow.rejected_share": "share", "flow.solves": "count",
    "flow.solves_per_step": "1/step", "flow.solve_s": "s",
    "flow.eval_s": "s", "flow.us_per_step": "us", "flow.loop_s": "s",
    "flow.records": "count",
    "bounds.monitor_s": "s", "bounds.monitor_calls": "count",
    "bounds.freezes": "count", "bounds.freeze_s": "s",
    "ambient.radius_inversions": "count",
    "ambient.radius_inversions_per_record": "1/record",
    "ambient.inverse_s": "s",
    "config.load_s": "s", "cli.output_s": "s", "cli.record_bytes": "bytes",
    "monitor_fail_share": "share", "run_fail_share": "share",
    "trace.overhead_share": "share",
}
# (span, count metric, self-time metric) of each traced layer.
SPAN_METRICS = (
    ("flow.solve", "flow.solves", "flow.solve_s"),
    ("flow.eval", None, "flow.eval_s"),
    ("flow.run", None, "flow.loop_s"),
    ("bounds.monitor", "bounds.monitor_calls", "bounds.monitor_s"),
    ("bounds.freeze", "bounds.freezes", "bounds.freeze_s"),
    ("ambient.inverse", "ambient.radius_inversions", "ambient.inverse_s"),
    ("config.load", None, "config.load_s"),
    ("cli.run", None, "cli.output_s"),
)
_MICRO_GRID = [f"{c}.N{n}" for c in ("C1", "C2") for n in (100, 400, 1600)]
_ALL_CASES = [f"C{i}" for i in range(1, 7)]
MICRO = {
    **{f"flow.step_us.{g}": "us" for g in _MICRO_GRID},
    **{f"flow.averaged_for_step_us.{g}": "us" for g in _MICRO_GRID},
    **{f"flow.detect_steady_us.{g}": "us" for g in _MICRO_GRID},
    **{f"geometry.summarize_us.{g}": "us" for g in _MICRO_GRID},
    **{f"bounds.run_monitors_us.{c}": "us" for c in _ALL_CASES},
    **{f"bounds.compute_bound_set_ms.{c}": "ms" for c in _ALL_CASES},
    "config.parse_config_us": "us",
    "flow.record_to_csv_ms": "ms",
    "reference_cases.cycloid_report_ms.C2": "ms",
    "reference_cases.cycloid_report_ms.C5": "ms",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Invocation:
    """One invocation: its generated configs, work directory and children."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.start = _now()
        self.work = WORK / f"{workload}-seed{seed}"
        self.jobs = 0
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runs = []
        for name, doc, expect in WORKLOADS[workload](seed, smoke):
            path = self.work / f"config_{name}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n",
                            encoding="utf-8")
            self.runs.append({"name": name, "config": str(path),
                              "expect": expect, "N": doc["grid"]["N"]})

    def spawn(self, mode: str, trace: bool = False, outs=None,
              micro=None) -> dict:
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        result_path = self.work / f"result{self.jobs}.json"
        runs = [{"config": r["config"], "out": str(out) if out else None}
                for r, out in zip(self.runs, outs or [None] * len(self.runs))]
        job_path.write_text(json.dumps({
            "mode": mode, "trace": trace, "runs": runs, "micro": micro,
            "src": str(SRC), "result": str(result_path)}), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.update({name: "1" for name in THREAD_VARS})
        t_spawn = _now()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path),
             repr(t_spawn)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(self.start + DEADLINE_S - _now(), 1.0))
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(result_path.read_text(encoding="utf-8"))

    def run_pass(self, trace: bool) -> dict:
        outs = [self.work / f"out{self.jobs + 1}_{r['name']}"
                for r in self.runs]
        child = self.spawn("pass", trace=trace, outs=outs)
        checked = []
        for meta, run, out in zip(self.runs, child["runs"], outs):
            checked.append(dict(check_run(meta, run, out), **run))
            shutil.rmtree(out, ignore_errors=True)
        return {"setup_s": child["setup_s"],
                "setup_raw_s": child["setup_raw_s"],
                "peak_rss_mb": child["peak_rss_mb"],
                "wall_s": sum(r["wall_s"] for r in child["runs"]),
                "raw_wall_s": sum(r["raw_wall_s"] for r in child["runs"]),
                "runs": checked}


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path.name}: ragged rows")
    return header, rows


def check_run(meta: dict, run: dict, out: Path) -> dict:
    """Check one run's exit code and output files.

    Returns the problems found plus the figures read from the outputs.
    Monitor failures are figures, not problems.
    """
    problems = []
    res = {"problems": problems, "digest": None, "records": 0, "steps": 0,
           "failing_records": 0, "checks": 0, "failed_checks": 0,
           "record_bytes": 0}
    if run["exit"] != 0:
        problems.append(f"exit code {run['exit']}")
    try:
        summary = json.loads((out / "summary.json").read_text("utf-8"))
        data = (out / "record.csv").read_bytes()
        header, rows = _read_csv(out / "record.csv")
        p_header, p_rows = _read_csv(out / "final_profile.csv")
    except (OSError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc}")
        return res
    res["digest"] = hashlib.sha256(data).hexdigest()
    res["record_bytes"] = len(data)
    if summary.get("termination") != meta["expect"]:
        problems.append(f"termination {summary.get('termination')!r}, "
                        f"expected {meta['expect']!r}")
    final = summary.get("final", {})
    for key in ("area", "volume"):
        if not isinstance(final.get(key), (int, float)) \
                or not math.isfinite(final[key]):
            problems.append(f"final {key} {final.get(key)!r}")
    if p_header != ["z", "r"] or len(p_rows) != meta["N"] + 1:
        problems.append("final_profile.csv does not hold the N+1 nodes")
    if len(rows) != summary.get("records"):
        problems.append(f"record.csv has {len(rows)} rows, summary says "
                        f"{summary.get('records')}")
    try:
        cols = {name: header.index(name)
                for name in (*FLAG_MONITORS, "vol_drift")}
    except ValueError as exc:
        problems.append(f"record.csv: {exc}")
        return res

    fails = {name: 0 for name in (*FLAG_MONITORS.values(), "volume_drift")}
    for row in rows:
        bad = [FLAG_MONITORS[c] for c in FLAG_MONITORS if row[cols[c]]]
        if abs(row[cols["vol_drift"]]) > VOLUME_DRIFT_TOL:
            bad.append("volume_drift")
        for name in bad:
            fails[name] += 1
        res["failing_records"] += bool(bad)
    reported = summary.get("monitor_failures", {})
    for name, count in fails.items():
        if reported.get(name, 0) != count:
            problems.append(f"{name}: {count} failing rows in record.csv, "
                            f"{reported.get(name, 0)} in summary.json")
    extra = reported.get("dissipation", 0)
    res["records"] = len(rows)
    res["steps"] = summary.get("steps", 0)
    res["checks"] = len(fails) * len(rows) + summary.get(
        "dissipation_checked", 0)
    res["failed_checks"] = sum(fails.values()) + extra
    return res


def _mark_reruns(passes: list[dict]) -> None:
    """Fail every rerun whose record.csv differs from the first pass."""
    for later in passes[1:]:
        for first, run in zip(passes[0]["runs"], later["runs"]):
            if run["digest"] != first["digest"]:
                run["problems"].append("record.csv differs from first run")


def _tally(passes: list[dict]) -> tuple[int, int]:
    runs = [r for p in passes for r in p["runs"]]
    return len(runs), sum(1 for r in runs if r["problems"])


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    first = passes[0]["runs"]
    attempted, failed = _tally(passes)
    checks = sum(r["checks"] for r in first)
    per_run = zip(*(p["runs"] for p in passes))
    return {
        "wall_s": sum(statistics.median(r["wall_s"] for r in runs)
                      for runs in per_run),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "monitor_pass_share":
            1.0 - sum(r["failed_checks"] for r in first) / checks
            if checks else 0.0,
        "run_pass_share": 1.0 - failed / attempted,
    }


def per_layer(plain: dict, traced: dict, micro: dict) -> dict:
    runs = traced["runs"]
    calls, self_s = {}, {}
    attempts = 0
    for run in runs:
        for name, n in run["spans"]["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in run["spans"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        attempts += run["spans"]["update_attempts"] // 2
    steps = sum(r["steps"] for r in runs)
    records = sum(r["records"] for r in runs)
    attempted, failed = _tally([plain, traced])
    out = {
        "flow.accepted_steps": steps,
        "flow.records": records,
        "flow.us_per_step": 1e6 * plain["wall_s"] / max(steps, 1),
        "cli.record_bytes": sum(r["record_bytes"] for r in runs),
        "monitor_fail_share":
            sum(r["failing_records"] for r in runs) / max(records, 1),
        "run_fail_share": failed / attempted,
        "trace.overhead_share":
            (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"],
    }
    if attempts:
        out["flow.step_attempts"] = attempts
        out["flow.rejected_share"] = 1.0 - steps / attempts
    for span, count, seconds in SPAN_METRICS:
        if span in calls:
            out[seconds] = self_s[span]
            if count:
                out[count] = calls[span]
    if "flow.solves" in out:
        out["flow.solves_per_step"] = out["flow.solves"] / max(steps, 1)
    if "ambient.radius_inversions" in out:
        out["ambient.radius_inversions_per_record"] = \
            out["ambient.radius_inversions"] / max(records, 1)
    out.update({name: m["value"] for name, m in micro.items()})
    return out


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "eqflow").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(), "source_sha256": src.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args) -> tuple[dict, dict, int, int]:
    """Run the workload; returns metrics, detail, attempted, failed."""
    inv = Invocation(args.workload, args.seed, args.smoke)
    # Every pass child also times its set-up; the probes give set-up
    # samples to workloads that make only one pass.
    probes = 0 if args.smoke else PROBES
    setups = [inv.spawn("probe")["setup_s"] for _ in range(probes)]
    passes = []

    def run_pass(trace: bool) -> float:
        passes.append(inv.run_pass(trace))
        return passes[-1]["raw_wall_s"]

    if args.trace:
        run_pass(False)
        run_pass(True)
        micro_args = ({"target_s": 0.0, "min_samples": 1} if args.smoke
                      else {"target_s": 0.1, "min_samples": 11})
        micro = inv.spawn("micro", micro=micro_args)["micro"]
    else:
        busy = run_pass(False)
        while busy < args.seconds and (
                _now() - inv.start + passes[-1]["raw_wall_s"] < BUDGET_S):
            busy += run_pass(False)
    _mark_reruns(passes)
    setups += [p["setup_s"] for p in passes]

    # In a traced run the end-to-end figures come from the untraced pass.
    totals = end_to_end(passes[:1] if args.trace else passes, setups)
    metrics = per_layer(passes[0], passes[1], micro) if args.trace else totals
    attempted, failed = _tally(passes)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(args.seed),
        "configs": [str(Path(r["config"]).relative_to(ROOT))
                    for r in inv.runs],
        "setup_s": setups,
        "passes": [{"wall_s": p["wall_s"], "raw_wall_s": p["raw_wall_s"],
                    "setup_s": p["setup_s"], "setup_raw_s": p["setup_raw_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "runs": [{k: r[k] for k in ("wall_s", "raw_wall_s",
                                                "speed", "units", "steps",
                                                "records", "problems",
                                                "digest")}
                             for r in p["runs"]]} for p in passes],
        "end_to_end": totals,
    }
    if args.trace:
        detail["micro"] = micro
    return metrics, detail, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids and horizons, to test the harness")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "eqflow" / "__init__.py").is_file():
        print(f"no eqflow sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, detail, attempted, failed = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    units = {**PER_LAYER, **MICRO} if args.trace else END_TO_END
    if args.trace:
        for name, value in detail["end_to_end"].items():
            print(f"{name:45s} {value:14.6g} {END_TO_END[name]}")
    micro = detail.get("micro", {})
    for name, value in metrics.items():
        note = (f"  median of {micro[name]['samples']} samples of "
                f"{micro[name]['batch']} calls" if name in micro else "")
        print(f"{name:45s} {value:14.6g} {units[name]}{note}")
    for p in detail["passes"]:
        for run in p["runs"]:
            for problem in run["problems"]:
                print(f"failed check: {problem}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
