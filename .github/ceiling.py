"""Run one `paradiff-lab run` and print its wall time and peak RSS.

    python3 .github/ceiling.py [--rss-limit MB] [--all-pass] [--label TEXT]
                               -- SCENARIO [RUN ARGS ...] --out DIR

Exits non-zero when the run fails, when DIR/results.json is not strict
JSON (a bare NaN or Infinity token), when its peak RSS is above
``--rss-limit``, or, with ``--all-pass``, unless every check in
DIR/results.json passes and names its worst-case witness.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path


def reject_constant(token):
    """parse_constant hook: strict JSON has no NaN or Infinity token."""
    raise ValueError(f"results.json is not strict JSON: bare {token}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rss-limit", type=int, metavar="MB",
                        help="fail above this peak RSS")
    parser.add_argument("--all-pass", action="store_true",
                        help="fail unless every check passes with a witness")
    parser.add_argument("--label", help="text printed before the timing line")
    parser.add_argument("run_args", nargs="+", help="paradiff-lab run arguments")
    args = parser.parse_args()

    start = time.perf_counter()
    subprocess.run(["paradiff-lab", "run", *args.run_args], check=True)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    line = f"wall {time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MB"
    if args.rss_limit is not None:
        line += f" (limit {args.rss_limit} MB)"
    print(f"{args.label} {line}" if args.label else line, flush=True)
    failed = args.rss_limit is not None and peak_mb > args.rss_limit
    out = Path(args.run_args[args.run_args.index("--out") + 1])
    metrics = json.loads((out / "results.json").read_text(),
                         parse_constant=reject_constant)["metrics"]
    if args.all_pass:
        checks = [c for name, c in metrics.items() if name != "summary"]
        failed |= not (metrics["summary"]["all_pass"]
                       and all("witness" in c for c in checks))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
