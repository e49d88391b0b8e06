"""paradiff-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and README.md) for about S seconds, one
fresh worker process at a time, and checks every run's verdicts against the
frozen reference.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``wall_s``, ``cpu_s``,
  ``peak_rss_mb`` and ``setup_s`` (medians over the runs and set-ups) and
  ``ok_frac`` (runs that finished with the reference verdicts / runs
  attempted, i.e. 1 - failed_frac);
* ``--trace 1``: the per-layer metrics of one traced run (tracer.py).

The line before it records the samples, scenario seeds, config, BLAS,
numpy and Python versions and ``nproc``; the same object is written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS, aggregate, layer_metrics, metric_unit
from verdicts import check_results, load_reference
from workloads import WORKLOADS, make_config, scenario_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

#: Every process the benchmark starts must end within this many seconds of
#: its start, leaving room under the 180 s a run may take.
HARD_LIMIT_S = 165.0
#: Set-up-only processes before each timed run, on top of the run's own.
SETUP_PROBES_PER_RUN = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The caller's environment with BLAS threads capped at nproc."""
    env = dict(os.environ)
    for var in BLAS_ENV:
        env[var] = str(nproc())
    return env


def spawn_worker(mode: str, workload: str, seed: int, out_dir: str,
                 env: dict, timeout: float) -> dict:
    """Start one worker and wait for it; raise RuntimeError on failure.

    Adds ``setup_s`` (spawn to validated config) and ``elapsed_s``."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload,
             str(seed), out_dir],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker killed after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"{mode} worker exited {proc.returncode}: "
                           + " | ".join(tail))
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    info["setup_s"] = info.pop("ready") - t_spawn
    info["elapsed_s"] = time.monotonic() - t_spawn
    return info


class Bench:
    """One invocation: spawns workers in turn and keeps their outcomes."""

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.start = time.monotonic()
        self.deadline = self.start + seconds
        self.env = child_env()
        self.reference = load_reference(workload)
        self.runs = []
        OUT_ROOT.mkdir(exist_ok=True)

    def remaining_hard(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def spawn(self, mode: str, seed: int, out_dir: str) -> dict:
        timeout = self.remaining_hard()
        if timeout <= 0:
            raise RuntimeError("no time left under the hard limit")
        return spawn_worker(mode, self.workload, seed, out_dir, self.env,
                            timeout)

    def setup(self) -> float:
        out_dir = tempfile.mkdtemp(prefix="setup-", dir=OUT_ROOT)
        try:
            return self.spawn("setup", scenario_seed(0, 0), out_dir)["setup_s"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run(self, mode: str, seed: int) -> dict:
        """One scenario run with its verdict check; never raises."""
        out_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=OUT_ROOT)
        outcome = {"mode": mode, "scenario_seed": seed, "ok": False}
        t0 = time.monotonic()
        try:
            outcome.update(self.spawn(mode, seed, out_dir))
            problems = check_results(self.reference, seed,
                                     Path(out_dir) / "results.json")
            if mode == "trace":
                outcome["record"] = json.loads(
                    (Path(out_dir) / "trace.json").read_text())
            if problems:
                outcome["error"] = f"{len(problems)} verdict mismatches: " \
                    + "; ".join(problems[:3])
            else:
                outcome["ok"] = True
        except (RuntimeError, OSError, ValueError) as exc:
            outcome["error"] = str(exc)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        outcome.setdefault("elapsed_s", time.monotonic() - t0)
        self.runs.append(outcome)
        return outcome

    def time_left_for(self, durations) -> bool:
        """True if one more run of median duration ends by the deadline."""
        need = statistics.median(durations)
        return (time.monotonic() + need <= self.deadline
                and need < self.remaining_hard())


def failed_frac(runs) -> float:
    """Runs that raised, exited non-zero, were killed or changed a verdict,
    over runs attempted."""
    return sum(not r["ok"] for r in runs) / len(runs)


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(bench: Bench, bench_seed: int) -> tuple:
    """Scenario runs until the deadline, with set-up probes spread between
    them so that set-up is sampled across the whole interval."""
    setups, durations = [], []
    i = 0
    while True:
        t0 = time.monotonic()
        setups += [bench.setup() for _ in range(SETUP_PROBES_PER_RUN)]
        bench.run("run", scenario_seed(bench_seed, i))
        durations.append(time.monotonic() - t0)
        i += 1
        if not bench.time_left_for(durations):
            break
    good = [r for r in bench.runs if r["ok"]]
    if not good:
        return None, setups
    setups += [r["setup_s"] for r in good]
    metrics = {
        "wall_s": (median_of(good, "wall_s"), "s"),
        "cpu_s": (median_of(good, "cpu_s"), "s"),
        "peak_rss_mb": (median_of(good, "peak_rss_kb") / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "ok_frac": (1.0 - failed_frac(bench.runs), "ratio"),
    }
    return metrics, setups


def per_layer(bench: Bench, bench_seed: int) -> tuple:
    """One traced run, bracketed by untraced runs of the same input for the
    tracing overhead; the untraced runs fill the rest of the time."""
    seed = scenario_seed(bench_seed, 0)
    durations = [bench.run("run", seed)["elapsed_s"]]
    traced = bench.run("trace", seed)
    while bench.time_left_for(durations):
        durations.append(bench.run("run", seed)["elapsed_s"])
    untraced = [r for r in bench.runs if r["ok"] and r["mode"] == "run"]
    if not (traced["ok"] and untraced):
        return None, []
    record = traced.pop("record")
    agg = aggregate(record["spans"])
    values = layer_metrics(agg, record, traced["wall_s"],
                           median_of(untraced, "wall_s"))
    checks = []
    covered = sum(v["self_s"] for v in agg.values())
    if covered > traced["wall_s"]:
        checks.append(f"sum of self times {covered:.4f} s exceeds the traced "
                      f"wall time {traced['wall_s']:.4f} s")
    (OUT_ROOT / f"spans_{bench.workload}.json").write_text(json.dumps(record))
    metrics = {name: (values[name], metric_unit(name))
               for name in LAYER_METRICS}
    return metrics, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "paradiff_lab").is_dir():
        print(f"error: no paradiff_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seconds)
    try:
        bench.setup()   # untimed: compiles bytecode, warms the file cache
    except RuntimeError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, checks = per_layer(bench, args.seed)
        setups = []
    else:
        metrics, setups = end_to_end(bench, args.seed)
        checks = []
    failed = sum(not r["ok"] for r in bench.runs)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "config": make_config(args.workload, scenario_seed(args.seed, 0)),
        "scenario_seeds": [r["scenario_seed"] for r in bench.runs],
        "failed_frac": failed_frac(bench.runs),
        "runs": bench.runs, "setup_samples": setups, "checks": checks,
        "env": {"nproc": nproc(),
                "blas_env": {v: bench.env[v] for v in BLAS_ENV},
                "python": platform.python_version(),
                **next((r["runtime"] for r in bench.runs if "runtime" in r),
                       {})},
    }
    text = json.dumps(detail, default=str)
    (OUT_ROOT / f"last_{args.workload}_trace{args.trace}.json").write_text(
        text)
    print(text)
    if metrics is None:
        for r in bench.runs:
            print(f"run failed: {r.get('error')}", file=sys.stderr)
        print("error: no run finished with the reference verdicts",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and not checks,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
