"""Verdict check: a run's metrics block against the frozen reference.

The reference (``reference/<workload>.json``) holds the metrics block of
one run per scenario seed, frozen from the commit that introduced the
benchmark.  Booleans, strings (verdicts, argmax names), None and integers
must match exactly; floating-point leaves must agree within ``RTOL``
relative or ``ATOL`` absolute, so that a later change in rounding (say from
a sparse ``apply``) is not a failure while a flipped verdict is.  Keys the
reference lacks are ignored, so a later change may add fields.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    """{scenario seed (str): metrics block} for one workload."""
    return json.loads(reference_path(workload).read_text())["seeds"]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(ref: float, got: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if math.isinf(ref) or math.isinf(got):
        return ref == got
    return math.isclose(ref, got, rel_tol=RTOL, abs_tol=ATOL)


def mismatches(ref, got, path: str = "metrics") -> list:
    """Human-readable differences between a reference tree and a result."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object, got {got!r}"]
        out = []
        for key, sub in ref.items():
            if key not in got:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(sub, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}, got {got!r}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(mismatches(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, float):
        if _is_number(got) and _close(ref, float(got)):
            return []
        return [f"{path}: expected {ref!r} (rtol {RTOL}, atol {ATOL}), "
                f"got {got!r}"]
    # bool, str, None, int: exact, type included (True is not 1)
    if type(ref) is type(got) and ref == got:
        return []
    return [f"{path}: expected {ref!r}, got {got!r}"]


def check_results(reference: dict, scenario_seed: int, results_path) -> list:
    """Mismatches between a written results.json and a workload's
    reference (as returned by :func:`load_reference`)."""
    key = str(scenario_seed)
    if key not in reference:
        return [f"no frozen reference for scenario seed {scenario_seed}"]
    record = json.loads(Path(results_path).read_text())
    return mismatches(reference[key], record.get("metrics"))
