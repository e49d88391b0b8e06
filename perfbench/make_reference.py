"""Freeze the verdict reference of each workload at every scenario seed.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once per seed in ``workloads.SCENARIO_SEEDS``, each in a
fresh worker process exactly as the benchmark does, and writes the metrics
blocks to ``reference/<workload>.json``.  Run it only when a change is
meant to alter verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import OUT_ROOT, child_env, spawn_worker
from verdicts import ATOL, REFERENCE_DIR, RTOL, reference_path
from workloads import SCENARIO_SEEDS, WORKLOADS, make_config


def freeze(workload: str) -> dict:
    seeds = {}
    for seed in SCENARIO_SEEDS:
        out_dir = tempfile.mkdtemp(prefix="reference-", dir=OUT_ROOT)
        try:
            info = spawn_worker("run", workload, seed, out_dir, child_env(),
                                timeout=900)
            with open(f"{out_dir}/results.json") as fh:
                seeds[str(seed)] = json.load(fh)["metrics"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        print(f"{workload} seed {seed}: {info['wall_s']:.2f} s", flush=True)
    if any(m.get("summary", {}).get("all_pass") is False
           for m in seeds.values()):
        raise SystemExit(f"{workload}: all_pass is false; not freezing")
    return {"workload": workload,
            "config": make_config(workload, seed=None),
            "rtol": RTOL, "atol": ATOL, "seeds": seeds}


def main(argv) -> int:
    names = argv[1:] or sorted(WORKLOADS)
    OUT_ROOT.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        doc = freeze(name)
        reference_path(name).write_text(json.dumps(doc, indent=1,
                                                   sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
