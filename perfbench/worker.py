"""One benchmark process: set up, then optionally run one workload once.

    python3 perfbench/worker.py {setup,run,trace} WORKLOAD SEED OUT_DIR

Each process is a fresh interpreter, so per-process caches start cold as
in one ``paradiff-lab run``.  It calls the entry points the CLI uses:
``ExperimentConfig(...).normalized()``, ``run_scenario``, ``write_outputs``.
It prints one JSON line:

* ``ready``: ``time.monotonic()`` once ``paradiff_lab`` is imported and the
  config validated (the parent subtracts its own spawn time, the same
  system-wide clock);
* for ``run`` and ``trace``: ``wall_s`` and ``cpu_s`` (user+sys) over
  ``run_scenario`` + ``write_outputs``, ``peak_rss_kb``, and the numpy
  and BLAS it ran with.

``trace`` installs the tracer after set-up and writes its spans and
counters to ``OUT_DIR/trace.json`` after the timed interval.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def runtime_info() -> dict:
    """numpy version, BLAS name and version, and BLAS's live thread count."""
    import ctypes

    import numpy as np
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info = {"blas": blas.get("name"), "blas_version": blas.get("version")}
    except (AttributeError, KeyError):
        info = {"blas": None, "blas_version": None}
    info["numpy"] = np.__version__
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    mode, workload, seed, out_dir = argv[1], argv[2], int(argv[3]), argv[4]
    from paradiff_lab.experiments import (ExperimentConfig, run_scenario,
                                          write_outputs)
    from workloads import make_config
    cfg = ExperimentConfig(**make_config(workload, seed, out_dir)).normalized()
    out = {"ready": time.monotonic()}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import ROOT_SCENARIO, ROOT_WRITE, Tracer
            tracer = Tracer(run_id=f"{workload}-seed{seed}").install()
        t0, c0 = time.perf_counter(), cpu_seconds()
        if tracer is None:
            write_outputs(run_scenario(cfg), out_dir)
        else:
            record = tracer.call(ROOT_SCENARIO, run_scenario, cfg)
            tracer.call(ROOT_WRITE, write_outputs, record, out_dir)
        out["wall_s"] = time.perf_counter() - t0
        out["cpu_s"] = cpu_seconds() - c0
        out["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.uninstall()
            (Path(out_dir) / "trace.json").write_text(
                json.dumps(tracer.record()))
        out["runtime"] = runtime_info()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
