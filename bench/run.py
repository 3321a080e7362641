"""Benchmark of toricsheaf on four fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every repetition runs in a fresh interpreter, one process at a
time, because a CLI user gets cold caches on every call (``hilbert`` keeps
``lru_cache``s that would otherwise stay warm).  Repetitions start until
``--seconds`` have passed (at least three); each end-to-end metric is the
median over them.

The host is shared, and the same work runs up to twice as slowly at
times, switching within fractions of a second.  So every repetition also
times the fixed, stdlib-only work of ``calibrate.py``: after its setup,
every ``worker.PROBE_PERIOD_S`` during an untraced job (that time is taken
out of the job's times) and after its job.  It uses none of the program's
code, so a change to the program cannot move it.  Each repetition's times
are scaled to a reference speed before the medians are taken, by
``REFERENCE_CALIBRATION_S`` over the repetition's calibration time (see
``_calibration``).  The run log keeps the raw times and every sample.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1``,
traced and untraced repetitions alternate and it carries the per-layer
metrics.  The lines above it print every metric measured, with its unit.
Every result is checked by exact equality against an independent path of
the program and against the stored references, outside the timed region.
The machine, the load before and after each repetition and every sample
go to ``.bench_build/bench/runs/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "bench"
REFERENCE = BENCH / "reference.json"

HARD_LIMIT_S = 150.0      # no process is started, or left running, past this
# a typical calibrate() time on a 2-vCPU Intel Xeon (family 6 model 207) KVM
# guest with Python 3.11: reported times are near the raw ones there
REFERENCE_CALIBRATION_S = 0.0045
MIN_JOB_REPS = 3
MIN_SETUP_SAMPLES = 11    # topped up with setup-only processes


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


class Runner:
    """Starts worker processes one at a time and keeps every sample."""

    def __init__(self, plan_path: Path, start: float):
        self.plan_path = plan_path
        self.start = start
        self.log: list[dict] = []

    def remaining(self) -> float:
        return self.start + HARD_LIMIT_S - _monotonic()

    def child(self, mode: str, traced: bool = False) -> dict | None:
        """Run one worker; None when it failed, raised or ran out of time."""
        cmd = [sys.executable, str(BENCH / "worker.py"), str(self.plan_path), mode]
        if traced:
            cmd.append("--trace")
        entry = {"mode": mode, "traced": traced, "loadavg_before": _loadavg()}
        self.log.append(entry)
        spawned = _monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            entry["failure"] = "timed out"
            return None
        finally:
            entry["loadavg_after"] = _loadavg()
        if proc.returncode != 0:
            entry["failure"] = f"exit {proc.returncode}: {err.strip()[-2000:]}"
            return None
        data = json.loads(out.strip().splitlines()[-1])
        if "setup_done" in data:
            data["setup_s"] = data["setup_done"] - spawned
        entry.update({k: v for k, v in data.items() if k != "results"})
        if "calib_s" in data:
            _to_reference_speed(data)
            entry["speed"] = data["speed"]
        return data


def _calibration(lists: list[list[float]]) -> float:
    """One calibration time for a repetition, from its lists of samples.

    The speed switches within fractions of a second, so the probes taken
    during the job are averaged, as the job's time averages the speed;
    the median after setup and the median after the job stand for the
    two ends.
    """
    ends = [statistics.median(lists[0]), statistics.median(lists[-1])]
    return statistics.mean(ends + (lists[1] if len(lists) == 3 else []))


def _to_reference_speed(data: dict) -> None:
    """Scale one repetition's times by its own calibration, in place."""
    calibration = _calibration(data["calib_s"])
    speed = data["speed"] = REFERENCE_CALIBRATION_S / calibration
    for key in ("setup_s", "job_s", "first_result_s", "cpu_s"):
        if key in data:
            data[key] *= speed
    if "layers" in data:
        data["layers"] = {
            k: v * speed if k.endswith("_s") else v for k, v in data["layers"].items()
        }


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    start = _monotonic()

    missing = [f for f in workloads.REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"not a toricsheaf source checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    inputs = WORKDIR / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    plan = workloads.make_plan(args.workload, args.seed, False, ROOT, inputs)
    plan_path = inputs / f"plan-{args.workload}-{args.seed}.json"
    plan_path.write_text(json.dumps(plan, indent=1) + "\n")

    info = machine_info()
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: python {info['python']}, "
          f"nproc {info['nproc']}, {info['cpu_model']}, git {info['git_sha']}")
    runner = Runner(plan_path, start)
    runner.child("setup")  # untimed: compiles the bytecode a CLI user has cached

    jobs: list[dict | None] = []
    traced: list[dict | None] = []
    measure_start = _monotonic()
    while runner.remaining() > 0:
        elapsed = _monotonic() - measure_start
        if args.trace:
            if elapsed >= args.seconds and len(jobs) >= 2 and len(traced) >= 2:
                break
            want_traced = len(traced) <= len(jobs)
            rep = runner.child("job", traced=want_traced)
            (traced if want_traced else jobs).append(rep)
        else:
            if elapsed >= args.seconds and len(jobs) >= MIN_JOB_REPS:
                break
            jobs.append(runner.child("job"))
    setups = [r["setup_s"] for r in jobs if r]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES and runner.remaining() > 10:
        rep = runner.child("setup")
        if rep:
            setups.append(rep["setup_s"])

    other = runner.child("independent")
    reference = workloads.load_reference(REFERENCE, plan)
    expected = workloads.result_count(plan)
    attempted = failed = 0
    for rep in jobs + traced:
        attempted += expected
        if rep is None or other is None:
            failed += expected
            continue
        ok = workloads.check(plan, rep["results"], other["results"], reference)
        failed += expected - sum(ok)
        if rep["error"]:
            print(f"# repetition raised {rep['error']}")
    correct = failed == 0

    good = [r for r in jobs if r]
    good_traced = [r for r in traced if r]
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    if args.trace:
        for m in spec["per_layer"]:
            units[m["name"]] = m["unit"]
            if m["name"] == "trace.overhead_s":
                continue
            values = [r["layers"][m["name"]] for r in good_traced]
            if m["unit"] != "s" and len(set(values)) > 1:
                print(f"# {m['name']} differs between traced repetitions: {values}")
                correct = False
            samples[m["name"]] = values
    else:
        for m in spec["end_to_end"]:
            units[m["name"]] = m["unit"]
            samples[m["name"]] = setups if m["name"] == "setup_s" else [r[m["name"]] for r in good]
    if not good or (args.trace and not good_traced) or not all(samples.values()):
        print("# no repetition completed; see the run log", file=sys.stderr)
        _write_log(args, info, runner, correct)
        return 1
    print(f"# times at reference speed; speed factors "
          f"({_spread([r['speed'] for r in good + good_traced])})")
    # counts repeat exactly (checked above), so their first value is the value
    metrics = {
        name: statistics.median(v) if units[name] == "s" or not args.trace else v[0]
        for name, v in samples.items()
    }
    if args.trace:
        untraced_job = statistics.median(r["job_s"] for r in good)
        traced_job = statistics.median(r["job_s"] for r in good_traced)
        metrics["trace.overhead_s"] = traced_job - untraced_job
        samples["trace.overhead_s"] = []
        print(f"job_s {untraced_job:.6g} s untraced ({_spread([r['job_s'] for r in good])}), "
              f"{traced_job:.6g} s traced")
        _print_shares(good_traced)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]} ({_spread(samples[name])})")
    _write_log(args, info, runner, correct)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def _print_shares(reps: list[dict]) -> None:
    """Median self time of each layer as a share of the median traced job."""
    job = statistics.median(r["job_s"] for r in reps)
    # solve_s overlaps the box and lattice-point layers that call it
    overlapping = ("config.load_s", "rational_linalg.solve_s")
    names = [k for k in reps[0]["layers"] if k.endswith("_s") and k not in overlapping]
    rows = sorted(
        ((statistics.median(r["layers"][k] for r in reps), k) for k in names), reverse=True
    )
    print("# self time share of the traced job: " + ", ".join(
        f"{k} {100 * t / job:.1f}%" for t, k in rows if t > 0
    ))


def _write_log(args, info: dict, runner: Runner, correct: bool) -> None:
    runs = WORKDIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "machine": info,
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "processes": runner.log,
    }, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
