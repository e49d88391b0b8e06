"""Command-line experiment runner.

    paradiff-lab run <scenario> [--config PATH] [--seed S] [--out DIR]
                                [--grid N] [--dim {1,2}]

The config JSON mirrors ExperimentConfig; flags override config values.
Outputs land under --out as results.json, tables/*.csv, and manifest.json.
The exit status is 0 when the run finishes and every asserted check
passes, 1 when a check fails (summary.all_pass is false) and 2 on a
config error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import ParadiffError
from .experiments import (SCENARIOS, ExperimentConfig, run_scenario,
                          write_outputs)

#: Small, fast defaults per scenario; a config file replaces them wholesale.
DEFAULT_CONFIGS = {
    "boundedness_sweep": dict(grid_sizes=(256,), corpus_size=2,
                              symbol_params={"J_values": [3, 4, 5]}),
    "ching_study": dict(grid_sizes=(256,), corpus_size=2,
                        symbol_params={"J_values": [3, 5],
                                       "s_values": [-1.0, 0.0, 1.0],
                                       "zero_orders": [0, 1]}),
    "modulation_study": dict(grid_sizes=(64, 128), corpus_size=2),
    "inequality_suite": dict(grid_sizes=(128,), corpus_size=2),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paradiff-lab",
        description="Desk-scale experiments with rough pseudo-differential "
                    "operators on the periodic grid.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment scenario")
    run.add_argument("scenario", choices=SCENARIOS)
    run.add_argument("--config", help="JSON config mirroring ExperimentConfig")
    run.add_argument("--seed", type=int, help="master random seed")
    run.add_argument("--out", help="output directory (default: ./out/<scenario>)")
    run.add_argument("--grid", type=int, help="override: single grid size N")
    run.add_argument("--dim", type=int, choices=(1, 2),
                     help="override: grid dimension n")
    return parser


def config_from_args(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        if cfg.scenario != args.scenario:
            raise ParadiffError(
                f"config is for scenario {cfg.scenario!r}, "
                f"CLI asked for {args.scenario!r}")
    else:
        cfg = ExperimentConfig(scenario=args.scenario,
                               **DEFAULT_CONFIGS[args.scenario]).normalized()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.grid is not None:
        cfg.grid_sizes = (args.grid,)
    if args.dim is not None:
        cfg.grid_n = args.dim
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        record = run_scenario(cfg)
        out_dir = cfg.out_dir or f"out/{cfg.scenario}"
        paths = write_outputs(record, out_dir)
    except ParadiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = record.metrics.get("summary", {})
    status = ""
    if "all_pass" in summary:
        status = " all_pass=" + str(summary["all_pass"])
    print(f"{record.scenario}: {len(record.metrics)} metrics in "
          f"{record.wall_time_s:.2f}s{status}")
    print(f"results: {paths['results']}")
    return 1 if summary.get("all_pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
