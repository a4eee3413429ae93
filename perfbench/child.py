"""One measured process: set up, then run a workload pass or the
microbenchmarks, and write the timings to a JSON file.

Usage: python3 child.py JOB.json T_SPAWN

The job names the eqflow source directory and the config files.
T_SPAWN is the monotonic clock reading taken just before this process
was started, so that set-up time counts from a fresh interpreter.
Set-up and each run are timed with ``hostclock`` (raw and scaled to the
reference host speed); the microbenchmarks are timed raw.
"""

import json
import resource
import sys
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t_spawn = float(sys.argv[2])
    src = Path(job["src"]).resolve()

    from hostclock import HostClock
    host = HostClock()
    setup = host.mark(t_spawn)
    if job["mode"] != "micro":
        host.start()

    import eqflow
    from eqflow import cli
    from eqflow.config import load_config

    if src not in Path(eqflow.__file__).resolve().parents:
        print(f"eqflow imported from {eqflow.__file__}, not {src}",
              file=sys.stderr)
        return 1
    for run in job["runs"]:
        cfg = load_config(run["config"])
        cfg.build_initial(cfg.build_space())
    took = host.since(setup)
    result = {"setup_s": took["s"], "setup_raw_s": took["raw_s"]}

    if job["mode"] == "pass":
        tracer = None
        if job["trace"]:
            from spans import Tracer
            tracer = Tracer(clock=host.clock)
            tracer.install()
        runs = []
        for run in job["runs"]:
            start = host.mark()
            try:
                code = cli.main(["run", "--config", run["config"],
                                 "--out", run["out"]])
            except Exception as exc:  # a failed run, reported as such
                code = repr(exc)
            took = host.since(start)
            runs.append({"exit": code, "wall_s": took["s"],
                         "raw_wall_s": took["raw_s"],
                         "speed": took["speed"], "units": took["units"],
                         "spans": tracer.take() if tracer else None})
        result["runs"] = runs
    elif job["mode"] == "micro":
        import micro
        result["micro"] = micro.run_all(**job["micro"])

    host.stop()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
