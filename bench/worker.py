"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py PLAN.json setup|job|independent [--trace]

``setup`` imports toricsheaf, loads and validates the configs and builds the
engine; ``job`` then runs the workload; ``independent`` computes every result
by the independent path instead.  With ``--trace`` the job runs with the
layer spans of ``tracer.py`` installed.  The last line of standard output is
one JSON object.  ``setup_done`` is read from CLOCK_MONOTONIC, which is
shared by all processes, so the orchestrator can subtract the moment it
started this process.  ``calib_s`` holds lists of the times of
``calibrate.py``'s fixed work: one run right after setup and, for a job,
one run during the job (untraced only) and one right after it.  The
job's times leave out the time spent calibrating during it.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

CALIBRATIONS = 8     # calibrations after setup, and again after the job
PROBE_PERIOD_S = 0.1  # and one this often during an untraced job


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    plan = json.loads(Path(argv[1]).read_text())
    mode = argv[2]
    traced = "--trace" in argv[3:]
    root = Path(plan["root"])
    src = root / "src"
    sys.path.insert(0, str(src))
    import toricsheaf as ts

    if Path(ts.__file__).resolve().parent != (src / "toricsheaf").resolve():
        print(f"imported toricsheaf from {ts.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    out: dict = {}
    if mode == "independent":
        out["results"] = workloads.independent(ts, plan)
        print(json.dumps(out))
        return 0

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(ts)
    state = workloads.setup(ts, plan)
    out["setup_done"] = _monotonic()
    if tracer:
        tracer.end_setup()
    from calibrate import SpeedProbe, calibrate  # after setup, which it must not slow

    out["calib_s"] = [[calibrate() for _ in range(CALIBRATIONS)]]
    if mode == "setup":
        print(json.dumps(out))
        return 0

    # the spans would charge the probe's time to whatever layer it interrupts
    probe = SpeedProbe(0 if traced else PROBE_PERIOD_S)
    results: list = []
    first: list[float] = []

    def emit(value) -> None:
        if not first:
            first.append(time.perf_counter() - probe.spent_s)
        results.append(value)

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    probe.start()
    try:
        workloads.job(ts, plan, state, emit)
        out["error"] = None
    except Exception as exc:  # a raised result is counted, not fatal
        out["error"] = f"{type(exc).__name__}: {exc}"
    probe.stop()
    t1 = time.perf_counter() - probe.spent_s
    cpu1 = _cpu_seconds() - probe.spent_cpu_s
    out["calib_s"] += [probe.samples, [calibrate() for _ in range(CALIBRATIONS)]]
    out["job_s"] = t1 - t0
    out["first_result_s"] = (first[0] if first else t1) - t0
    out["cpu_s"] = cpu1 - cpu0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["results"] = results
    if tracer:
        tracer.uninstall()
        layers = tracer.snapshot()
        job_ns = round((t1 - t0) * 1e9)
        layers["unattributed_s"] = (job_ns - tracer.covered_ns()) / 1e9
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
