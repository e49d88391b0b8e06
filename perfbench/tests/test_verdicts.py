"""The verdict check behind ok_frac / failed_frac."""

import copy
import json

import pytest

from run import Bench, failed_frac
from verdicts import ATOL, RTOL, load_reference, mismatches

REF = {"check": {"pass": True, "max_ratio": 0.5, "argmax": "random_0",
                 "rows": [{"converged": True, "stabilization_m": 3,
                           "profile": [1.0, 1e-14]}]}}


def test_identical_and_rounded_results_match():
    got = copy.deepcopy(REF)
    got["check"]["max_ratio"] *= 1 + RTOL / 10
    got["check"]["rows"][0]["profile"][1] = 1e-14 + ATOL / 10
    got["check"]["witness"] = "added later"
    assert mismatches(REF, got) == []


@pytest.mark.parametrize("path, value", [
    (("check", "pass"), False),
    (("check", "argmax"), "random_1"),
    (("check", "max_ratio"), 0.5 * (1 + 10 * RTOL)),
])
def test_flipped_or_moved_leaves_mismatch(path, value):
    got = copy.deepcopy(REF)
    got[path[0]][path[1]] = value
    assert len(mismatches(REF, got)) == 1


def test_nested_flags_counts_and_missing_keys_mismatch():
    got = copy.deepcopy(REF)
    got["check"]["rows"][0]["converged"] = False
    got["check"]["rows"][0]["stabilization_m"] = 4
    del got["check"]["argmax"]
    assert len(mismatches(REF, got)) == 3
    got = copy.deepcopy(REF)
    got["check"]["rows"][0]["stabilization_m"] = 3.0   # int vs float
    assert len(mismatches(REF, got)) == 1


def _perturb(tree):
    """Flip every boolean leaf of a metrics tree."""
    if isinstance(tree, dict):
        return {k: _perturb(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [_perturb(v) for v in tree]
    return (not tree) if isinstance(tree, bool) else tree


def test_perturbed_reference_makes_every_run_fail():
    bench = Bench("modlimit_2d", seconds=0.0)
    bench.reference = {
        seed: _perturb(metrics)
        for seed, metrics in load_reference("modlimit_2d").items()}
    outcome = bench.run("run", 0)
    assert not outcome["ok"]
    assert "verdict mismatches" in outcome["error"]
    assert failed_frac(bench.runs) == 1.0


def test_reference_covers_every_scenario_seed():
    from workloads import SCENARIO_SEEDS, WORKLOADS
    for name in WORKLOADS:
        ref = load_reference(name)
        assert sorted(ref) == sorted(str(s) for s in SCENARIO_SEEDS)
        json.dumps(ref)
