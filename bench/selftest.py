"""Self-test of the benchmark itself, on a shrunk size of each workload.

    python3 bench/selftest.py

Checks that
  * the tracer patches every namespace that binds a layer function, and
    restores them all;
  * two traced runs of each shrunk workload give identical counts and
    correct results, and each layer's self times plus the unattributed
    time add up to the traced job time;
  * each workload records work in the layer it is meant to load;
  * the speed probe samples while work runs, accounts for its own time
    and puts the default SIGALRM handling back;
  * ``run.py`` fails, printing no result, in a directory that holds only
    ``BENCHMARK.json`` and ``bench/``.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import SpeedProbe
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "selftest"

# a count each workload must make nonzero, for the layer it is meant to load
LOADED = {
    "h1_table": "cohomology.box_calls",
    "cech_threefold": "rational_linalg.rank_calls",
    "h0_far_twist": "cohomology.levels_calls",
    "hilbert_poly": "polytopes.psi_points_calls",
}


def check_patching(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import toricsheaf

    rank = toricsheaf.cohomology.matrix_rank
    tracer = Tracer()
    tracer.install(toricsheaf)
    names = tracer.patched_names()
    for expected in ("toricsheaf.cohomology.matrix_rank", "toricsheaf.cohomology.psi_points",
                     "toricsheaf.hilbert.psi_points", "toricsheaf.polytopes.solve_square",
                     "toricsheaf.cohomology.solve_square", "SheafCohomology.levels"):
        if expected not in names:
            failures.append(f"tracer did not patch {expected}")
    tracer.uninstall()
    if toricsheaf.cohomology.matrix_rank is not rank:
        failures.append("tracer did not restore cohomology.matrix_rank")


def check_probe(failures: list[str]) -> None:
    probe = SpeedProbe(0.01)
    t0 = time.perf_counter()
    probe.start()
    while time.perf_counter() - t0 < 0.2:
        pass
    probe.stop()
    if len(probe.samples) < 5 or abs(probe.spent_s - sum(probe.samples)) > 0.01:
        failures.append(f"speed probe: {len(probe.samples)} samples, {probe.spent_s} s spent")
    if signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL:
        failures.append("speed probe left its SIGALRM handler installed")
    print(f"speed probe: {len(probe.samples)} samples in 0.2 s")


def traced_run(plan_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), "job", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(name: str, failures: list[str]) -> None:
    plan = workloads.make_plan(name, 1, True, ROOT, WORKDIR)
    plan_path = WORKDIR / f"plan-{name}.json"
    plan_path.write_text(json.dumps(plan))
    runs = [traced_run(plan_path), traced_run(plan_path)]
    counts = [
        {k: v for k, v in r["layers"].items() if not k.endswith("_s")} for r in runs
    ]
    if counts[0] != counts[1]:
        diff = {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
        failures.append(f"{name}: counts differ between traced runs: {diff}")
    if not counts[0][LOADED[name]]:
        failures.append(f"{name}: {LOADED[name]} is zero")
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(plan_path), "independent"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    other = json.loads(out.strip().splitlines()[-1])["results"]
    for r in runs:
        if r["error"] or not all(workloads.check(plan, r["results"], other, None)):
            failures.append(f"{name}: wrong results {r['results']} (error {r['error']})")
        layers = r["layers"]
        spans = sum(v for k, v in layers.items() if k.endswith("_s")
                    and k not in ("config.load_s", "rational_linalg.solve_s"))
        if abs(spans - r["job_s"]) > 1e-3:
            failures.append(f"{name}: self times add up to {spans}, job took {r['job_s']}")
    print(f"{name}: counts repeat, {LOADED[name]} = {counts[0][LOADED[name]]}")


def check_stripped(failures: list[str]) -> None:
    stripped = WORKDIR / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    shutil.copytree(BENCH, stripped / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "h1_table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=stripped, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"run.py in a stripped directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")
    shutil.rmtree(stripped)
    print(f"stripped directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    check_patching(failures)
    check_probe(failures)
    for name in workloads.NAMES:
        check_workload(name, failures)
    check_stripped(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
