import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paradiff_lab import corpus, experiments, operators, pointwise
from paradiff_lab.cli import DEFAULT_CONFIGS, main as cli_main
from paradiff_lab.corpus import (corpus_members, lacunary_stack,
                                 offset_stack, optimal_stack_weights,
                                 random_band_limited_field,
                                 random_sparse_symbol, rng_for,
                                 single_band_input, standard_ching)
from paradiff_lab.errors import ConfigError
from paradiff_lab.experiments import (CLAIM_REGISTRY, ExperimentConfig,
                                      run_scenario, write_outputs)
from paradiff_lab.lp import make_modulation, make_partition
from paradiff_lab.operators import apply
from paradiff_lab.spaces import NormSpec, space_norm
from paradiff_lab.symbols import (ChingProfile, ching_default_J, ching_fits,
                                  ching_symbol)
from paradiff_lab.torus import TorusGrid


def small_cfg(scenario, **over):
    base = dict(
        boundedness_sweep=dict(grid_sizes=(64,), corpus_size=2,
                               symbol_params={"J_values": [3, 4]}),
        ching_study=dict(grid_sizes=(128,), corpus_size=2,
                         symbol_params={"J_values": [3, 4],
                                        "s_values": [-0.5, 0.5],
                                        "zero_orders": [0, 1]}),
        modulation_study=dict(grid_sizes=(64,), corpus_size=2),
        inequality_suite=dict(grid_sizes=(64,), corpus_size=2),
    )[scenario]
    base.update(over)
    return ExperimentConfig(scenario=scenario, **base).normalized()


# -- corpus determinism --------------------------------------------------------


def test_rng_streams_deterministic():
    g = TorusGrid(1, 64)
    u1 = random_band_limited_field(g, rng_for(9, 1, 2), 10.0)
    u2 = random_band_limited_field(g, rng_for(9, 1, 2), 10.0)
    assert np.array_equal(u1.coeffs, u2.coeffs)
    a1 = random_sparse_symbol(g, rng_for(9, 3), d=0.5)
    a2 = random_sparse_symbol(g, rng_for(9, 3), d=0.5)
    assert np.array_equal(a1.values, a2.values)


def test_corpus_sparse_supports_exact():
    g = TorusGrid(1, 64)
    u = random_band_limited_field(g, rng_for(9, 4), 9.0, modes=8)
    assert np.count_nonzero(u.coeffs != 0) <= 8
    assert u.band_limit() <= 9.0


def boundedness_corpus(grid, J, source_s, seed, profile, n_random=3):
    """The corpus at one source smoothness, built whole the way the sweeps
    built it for every spec and s: the reference for corpus_members."""
    items = [
        ("optimal_stack", lacunary_stack(grid,
                                         optimal_stack_weights(J, source_s))),
        ("uniform_stack", lacunary_stack(grid, np.ones(J + 1))),
        ("single_low", single_band_input(grid, 0)),
        ("single_mid", single_band_input(grid, max(1, J // 2))),
        ("single_top", single_band_input(grid, J)),
    ]
    if J >= 2:
        b = []
        for j in range(2, J + 1):
            shifted = ((2**j + 1) / 2**j,) + (0.0,) * (grid.n - 1)
            b.append(abs(complex(np.asarray(profile(*shifted)))))
        w = np.array(b) * 2.0 ** (-2.0 * source_s * np.arange(2, J + 1))
        off = offset_stack(grid, w)
        if off is not None:
            items.append(("adapted_offset_stack", off))
    for i in range(n_random):
        items.append((f"random_{i}", random_band_limited_field(
            grid, rng_for(seed, 7, i), 10.0)))
    return items


def per_spec_gain(a, items, spec_src, spec_dst, part):
    """The energy gain at one spec pair, with a#u for every member: the
    reference for experiments._grid_gain."""
    best = experiments._Worst()
    for name, u in items:
        src = space_norm(u, spec_src, part)
        if src == 0.0:
            continue
        best.see((space_norm(apply(a, u), spec_dst, part) / src) ** 2,
                 argmax=name)
    return {"gain": float(best.value), "argmax": best.where.get("argmax")}


def test_boundedness_corpus_members():
    g = TorusGrid(1, 256)
    [(J, members)] = corpus_members(g, [5], 7, ChingProfile())
    items = dict(members)
    assert J == 5
    assert {"optimal_stack", "uniform_stack", "single_low",
            "single_top"} <= set(items)
    assert {(1,), (32,)} <= set(g.points(items["uniform_stack"].support()))
    # every J, in the order given, and at every s the members are the
    # reference corpus, in its order
    J_values = [5, 3, 1, 4, 5]
    for profile in (ChingProfile(), ChingProfile(zero_order=1)):
        corpus = corpus_members(g, J_values, 7, profile, n_random=2)
        seen = []
        for J, members in corpus:
            seen.append(J)
            for s in (-1.0, 0.5):
                ref = boundedness_corpus(g, J, s, 7, profile, n_random=2)
                got = [(name, u(s) if callable(u) else u)
                       for name, u in members]
                got = [(name, u) for name, u in got if u is not None]
                assert [name for name, _ in got] == [name for name, _ in ref]
                assert all(np.array_equal(u.coeffs, v.coeffs)
                           for (_, u), (_, v) in zip(got, ref))
        assert seen == J_values


# -- config --------------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="ching_study", grid_sizes=(48,)).normalized()
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="ching_study",
                         symbol_family="weird").normalized()
    for n in (1, 2):  # Ching J=4 in the suite needs nyquist > 20
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="inequality_suite", grid_n=n,
                             grid_sizes=(32,)).normalized()


def test_config_json_round_trip(tmp_path):
    cfg = small_cfg("inequality_suite", seed=5)
    doc = {"scenario": "inequality_suite", "grid_sizes": [64],
           "corpus_size": 2, "seed": 5}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    loaded = ExperimentConfig.from_json(path)
    assert loaded.seed == cfg.seed and loaded.grid_sizes == cfg.grid_sizes
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "inequality_suite",
                               "grid_size": 64}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json(bad)


@pytest.mark.parametrize("doc", [
    {"grid_sizes": []},
    {"grid_sizes": 64},
    {"norm_specs": [["B", 1.0, 2.0]]},
    {"norm_specs": [["B", 1.0, 2.0, 2.0, 1.0]]},
    {"max_matrix_dim": 256},
    {"symbol_family": "random"},
    {"norm_specs": [["F", 0.0, 2.0, 2.0]]},
    {"seed": -1},
    {"seed": 1.5},
    {"corpus_size": 2.5},
    {"grid_n": True},
    {"scenario": "modulation_study", "symbol_params": {"d": "x"}},
    {"scenario": "modulation_study", "symbol_params": {"zero_order": "one"}},
    {"scenario": "modulation_study", "symbol_params": {"J": "four"}},
    {"grid_sizes": [64.9]},
    {"scenario": "modulation_study", "symbol_params": {"one_sided": "no"}},
    {"scenario": "modulation_study", "symbol_params": {"one_sided": 1}},
    {"scenario": "boundedness_sweep",
     "symbol_params": {"J_value": [3, 4], "zero_ordr": 1}},
    {"symbol_params": {"J": 9, "d": 3.0}},
    {"grid_sizes": [64, 128]},
    {"scenario": "ching_study", "grid_sizes": [64, 128]},
    {"scenario": "boundedness_sweep",
     "symbol_params": {"J_values": [3, 4], "one_sided": True,
                       "s_values": [1.0]}},
    {"scenario": "modulation_study", "symbol_params": {"J_values": [3, 4]}},
    {"scenario": "modulation_study", "grid_sizes": [64],
     "symbol_family": "identity",
     "symbol_params": {"J": 3, "one_sided": False, "d": 2.0}},
    {"partition_r": 1.0},
    {"partition_R": 2.0},
    {"scenario": "modulation_study",
     "modulations": [[1.0, 2.0], [1.5, 2.5], [0.75, 1.75]]},
    None,
    "{not json",
    "42",
], ids=["empty_grids", "scalar_grid",
        "short_spec", "long_spec", "stale_max_matrix_dim", "unread_family",
        "unread_specs", "negative_seed", "fractional_seed",
        "fractional_corpus_size", "bool_grid_n", "string_d",
        "string_zero_order", "string_J", "fractional_grid_size",
        "string_one_sided", "int_one_sided", "misspelled_sweep_params",
        "unread_suite_params", "two_suite_grids",
        "two_study_grids", "params_of_other_scenarios",
        "unread_modulation_params", "params_of_other_family",
        "removed_partition_r", "removed_partition_R", "removed_modulations",
        "missing_file", "not_json", "not_an_object"])
def test_malformed_config_exits_2(doc, tmp_path, capsys):
    """A config file that is absent, not a JSON object, holds a value that
    would crash the run, or a key its scenario does not read is a config
    error (exit 2, no traceback) that names a key of the config."""
    path = tmp_path / "cfg.json"
    scenario, names = "inequality_suite", [""]
    if isinstance(doc, dict):
        doc = {"scenario": scenario, **doc}
        scenario = doc["scenario"]
        names = [f"symbol_params.{key}" for key in doc.get("symbol_params", {})
                 ] or [key for key in doc if key != "scenario"]
        doc = json.dumps(doc)
    if doc is not None:
        path.write_text(doc)
    assert cli_main(["run", scenario, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and any(name in err for name in names)


def test_unread_fields_at_their_defaults_validate():
    """A field its scenario does not read counts as given only when it
    differs from its dataclass default."""
    ExperimentConfig(scenario="inequality_suite", grid_sizes=[64],
                     symbol_family="ching", norm_specs=[],
                     symbol_params={}).normalized()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert cli_main(["run", "boundedness_sweep", "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: seed")


@pytest.mark.parametrize("spec", [["X", 0.0, 2.0, 2.0],
                                  ["F", 0.0, "Infinity", 2.0],
                                  ["B", 0.0, 2.0, "NaN"]],
                         ids=["bad_scale", "f_at_p_inf", "nan_q"])
def test_sweep_bad_norm_spec_rejected_at_load(spec):
    with pytest.raises(ConfigError, match="norm spec"):
        small_cfg("boundedness_sweep", norm_specs=[spec])


def test_removed_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "ching_study", "--max-matrix-dim", "256",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


# -- scenarios -----------------------------------------------------------------


@pytest.mark.parametrize("scenario", sorted(CLAIM_REGISTRY))
def test_scenario_runs_and_covers_claims(scenario):
    rec = run_scenario(small_cfg(scenario, seed=3))
    assert CLAIM_REGISTRY[scenario] <= rec.covered_claims()
    assert rec.wall_time_s >= 0.0


@pytest.mark.parametrize("scenario", sorted(CLAIM_REGISTRY))
def test_metrics_payload_deterministic(scenario):
    rec1 = run_scenario(small_cfg(scenario, seed=11))
    rec2 = run_scenario(small_cfg(scenario, seed=11))
    assert rec1.metrics_payload() == rec2.metrics_payload()
    rec3 = run_scenario(small_cfg(scenario, seed=12))
    if scenario != "modulation_study":  # its metrics are seed-independent
        assert rec3.metrics_payload() != rec1.metrics_payload() or \
            scenario == "ching_study"


def test_suite_payload_independent_of_earlier_grids():
    """The lattice tables belong to their grid: the suite on grid A, then
    on grid B, then on A again gives A's payload byte for byte."""
    def suite(N):
        pointwise._memo.clear()
        return run_scenario(ExperimentConfig(
            scenario="inequality_suite", grid_sizes=(N,), corpus_size=2,
            seed=5).normalized()).metrics_payload()

    first = suite(64)
    assert suite(128) != first
    assert suite(64) == first


BLAS_PAYLOADS = """
from paradiff_lab.experiments import ExperimentConfig, run_scenario
for kw in (dict(scenario="inequality_suite", grid_n=1, grid_sizes=(128,)),
           # the suite_1d benchmark config, where a block holds few columns
           dict(scenario="inequality_suite", grid_n=1, grid_sizes=(512,)),
           dict(scenario="modulation_study", grid_n=2, grid_sizes=(16,)),
           dict(scenario="boundedness_sweep", grid_n=1, grid_sizes=(256,))):
    cfg = ExperimentConfig(corpus_size=2, seed=7, **kw).normalized()
    print(run_scenario(cfg).metrics_payload().decode())
"""


def test_metrics_payload_independent_of_blas_threads():
    src = str(Path(experiments.__file__).resolve().parents[1])
    payloads = []
    for threads in ("1", "2"):
        path = filter(None, (src, os.environ.get("PYTHONPATH")))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run([sys.executable, "-c", BLAS_PAYLOADS],
                              env=env, capture_output=True, text=True,
                              timeout=600, check=True)
        payloads.append(proc.stdout.splitlines())
    assert len(payloads[0]) == 4
    assert payloads[0] == payloads[1]


def test_inequality_suite_passes_small():
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    assert rec.metrics["summary"]["all_pass"]


def test_inequality_suite_witnesses():
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    checks = {k: v for k, v in rec.metrics.items() if k != "summary"}
    assert len(checks) == rec.metrics["summary"]["n_checks"]
    assert all("witness" in c for c in checks.values())
    fact = checks["factorization"]["witness"]
    assert fact["symbol"] in {"identity", "ching", "bessel_multiplier",
                              "random_0", "random_1"}
    assert fact["input"] in {"field_0", "field_1"}
    assert 0 <= fact["x"] < 64
    assert checks["peetre_hl_domination"]["witness"]["level"] in (2, 3)
    # a check whose worst value is 0 has no witness
    assert checks["spectral_support_rule"]["witness"] == {}
    para = checks["paraterm_pointwise"]
    assert para["witness"]["series"] in {"low_high", "diagonal_a",
                                         "diagonal_b", "high_low"}
    assert type(para["vanishing_majorant_terms"]) is int


def test_inequality_suite_by_member():
    """Checks whose worst case is an equality point also report each
    member's own worst ratio; the largest of them is the check's."""
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    members = {
        "mihlin_symbol_factor": {"identity", "ching", "bessel_multiplier",
                                 "random_0", "random_1"},
        "peetre_hl_domination": {f"field_{i}/level_{k}" for i in (0, 1)
                                 for k in (2, 3)}}
    for name, keys in members.items():
        check = rec.metrics[name]
        assert set(check["by_member"]) == keys, name
        assert max(check["by_member"].values()) == check["max_ratio"], name
    mihlin = rec.metrics["mihlin_symbol_factor"]
    assert mihlin["by_member"][mihlin["witness"]["symbol"]] == \
        mihlin["max_ratio"]


def test_inequality_suite_2d_n64():
    rec = run_scenario(small_cfg("inequality_suite", grid_n=2,
                                 grid_sizes=(64,), corpus_size=1, seed=0))
    checks = {k: v for k, v in rec.metrics.items() if k != "summary"}
    assert rec.metrics["summary"]["all_pass"]
    assert all("witness" in c for c in checks.values())


def test_worst_record_keeps_nan_and_first_witness():
    w = experiments._Worst()
    w.see(0.0, at="zero")
    assert w.where == {}
    w.see(2.0, at="first").see(2.0, at="tie").see(1.0, at="smaller")
    assert (w.value, w.where) == (2.0, {"at": "first"})
    w.see(float("nan"), at="nan").see(5.0, at="after").see(float("nan"),
                                                            at="second")
    assert np.isnan(w.value) and w.where == {"at": "nan"}


def test_inequality_suite_nan_ratio_fails(monkeypatch):
    # builtin max(0.0, nan) is 0.0: a NaN ratio must still fail its check
    monkeypatch.setattr(experiments, "marschall_check",
                        lambda *args, **kw: {"max_ratio": float("nan"),
                                             "x": None})
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    assert np.isnan(rec.metrics["marschall"]["max_ratio"])
    assert rec.metrics["marschall"]["pass"] is False
    # the first NaN stays the witness
    assert rec.metrics["marschall"]["witness"]["symbol"] == "ching"
    assert rec.metrics["summary"]["all_pass"] is False
    assert all(c["pass"] for name, c in rec.metrics.items()
               if name not in ("marschall", "summary"))


def test_modulation_study_flags_divergence():
    cfg = small_cfg("modulation_study", grid_sizes=(64, 128), seed=3)
    rec = run_scenario(cfg)
    assert rec.metrics["divergence_indicator"]["flag"]
    rows = rec.metrics["limits"]["rows"]
    for row in rows:
        if row["input"].startswith("random"):
            assert row["converged"]
            assert row["psi_discrepancy"] <= 1e-10


def test_ching_study_thresholds_step_down_per_zero_order():
    # the off-ray stack, adapted to each zero order's profile, reaches the
    # growth that a zero of order rho at e_1 leaves on the ray: at the
    # PARAMETERS defaults the thresholds step down one grid s per order
    rec = run_scenario(ExperimentConfig(scenario="ching_study").normalized())
    found = rec.metrics["stability_thresholds"]
    assert found["thresholds"] == {"rho0": 0.5, "rho1": -0.5, "rho2": -1.5}
    ordered = list(found["thresholds"].values())
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    assert found["monotone"]


def test_ching_study_cli_default_finds_rho1_growth():
    # the rho = 1 curve at s = -1 grows (1.00 / 3.00), where a corpus on
    # the ray alone read it flat (0.81 / 0.81)
    cfg = ExperimentConfig(scenario="ching_study",
                           **DEFAULT_CONFIGS["ching_study"]).normalized()
    curves = run_scenario(cfg).metrics["gain_curves"]["curves"]
    assert curves["rho1"]["-1.0"]["verdict"] == "growth"


def test_sweep_gains_match_per_spec_loop():
    # the shared gain path gives every row of the per-spec loop exactly
    d, specs = 0.25, ((0.0, 2.0, 2.0), (1.0, 2.0, 2.0))
    cfg = small_cfg("boundedness_sweep", grid_sizes=(64, 128), seed=5,
                    symbol_params={"d": d, "zero_order": 1,
                                   "J_values": [3, 5, 4]})
    rows = run_scenario(cfg).metrics["gain_table"]["rows"]
    profile = ChingProfile(zero_order=1)
    expect = []
    for N in (64, 128):
        grid = TorusGrid(1, N)
        part = make_partition(make_modulation(1.0, 2.0), grid)
        for J in (3, 5, 4):
            if 5 * 2 ** (J - 2) >= grid.nyquist:
                continue
            a = standard_ching(grid, d, J, 1)
            for s, p, q in specs:
                corp = boundedness_corpus(grid, J, s + d, 5, profile,
                                          n_random=2)
                res = per_spec_gain(a, corp, NormSpec("F", s + d, p, q),
                                    NormSpec("F", s, p, q), part)
                expect.append({"N": N, "J": J, "scale": "F", "s": s, "p": p,
                               "q": q, **res})
    assert len(rows) == 10
    assert rows == expect


@pytest.mark.parametrize("split", [True, False], ids=["plain", "probed"])
def test_ching_gains_match_per_s_loop(split):
    """Every gain is the per-s loop's over the whole corpus ("probed"), and
    is the larger of the gains over the on-ray members alone and over the
    adapted off-ray stack alone ("plain"): the probe only adds to the gain
    that a corpus on the ray reads."""
    d, s_values, J_values = 0.5, (-1.0, 0.0, 0.5), (3, 5, 4)
    cfg = small_cfg("ching_study", grid_sizes=(128,), seed=2, symbol_params={
        "d": d, "J_values": list(J_values), "s_values": list(s_values),
        "zero_orders": [0, 2]})
    curves = run_scenario(cfg).metrics["gain_curves"]["curves"]
    grid = TorusGrid(1, 128)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    for rho in (0, 2):
        profile = ChingProfile(zero_order=rho)
        for s in s_values:
            gains = []
            for J in J_values:
                corp = boundedness_corpus(grid, J, s + d, 2, profile,
                                          n_random=2)
                parts = [corp]
                if split:
                    off = [m[0] == "adapted_offset_stack" for m in corp]
                    assert sum(off) == 1
                    parts = [[m for m, o in zip(corp, off) if o is x]
                             for x in (False, True)]
                gain = max(per_spec_gain(standard_ching(grid, d, J, rho), c,
                                         NormSpec("F", s + d, 2.0, 2.0),
                                         NormSpec("F", s, 2.0, 2.0),
                                         part)["gain"] for c in parts)
                gains.append({"J": J, "gain": gain})
            assert curves[f"rho{rho}"][f"{s}"]["gains"] == gains


def test_summaries_match_their_definitions():
    """Every growth factor, stability span and refinement drift of a sweep
    is recomputed from its gain table, and every variation and verdict of
    a study from its gains: growth reads a curve at its least and largest
    J, whatever order they were listed in, and a span is max / min - 1
    over the positive gains, NaN when fewer than two are positive."""
    def span(gains):
        pos = [g for g in gains if g > 0]
        return max(pos) / min(pos) - 1.0 if len(pos) > 1 else float("nan")

    def same(a, b):
        return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    specs = [["F", 0.0, 2.0, 2.0], ["B", 1.0, 2.0, 1.0]]
    for grid_sizes, J_values in (((64, 128), [5, 3, 4]), ((128,), [3, 4])):
        cfg = small_cfg("boundedness_sweep", grid_sizes=grid_sizes,
                        norm_specs=specs, symbol_params={"J_values": J_values})
        metrics = run_scenario(cfg).metrics
        growth, spans, drift = {}, {}, {}
        for scale, s, p, q in specs:
            rows = [r for r in metrics["gain_table"]["rows"]
                    if [r["scale"], r["s"], r["p"], r["q"]] == [scale, s, p, q]]
            key = f"{scale}_s{s}_p{p}_q{q}"
            growth[key] = {}
            for N in grid_sizes:
                gain = {r["J"]: r["gain"] for r in rows if r["N"] == N}
                if len(gain) < 2:
                    continue
                lo, hi = min(gain), max(gain)
                growth[key][str(N)] = {
                    "J_lo": lo, "J_hi": hi, "gain_lo": gain[lo],
                    "gain_hi": gain[hi],
                    "factor": gain[hi] / gain[lo] if gain[lo] > 0 else 0.0}
            spans[key] = {"relative_span": span([r["gain"] for r in rows])}
            drift[f"{scale}_s{s}"] = span([r["gain"] for r in rows
                                           if r["J"] == min(J_values)])
        assert same(metrics["growth_factors"]["per_spec"], growth)
        assert same(metrics["stability_spans"]["per_spec"], spans)
        assert same(metrics["refinement_drift"]["per_spec"], drift)
        # one grid gives no drift to measure
        assert all(np.isnan(v) for v in drift.values()) == (len(grid_sizes) == 1)

    def study(J_values):
        cfg = small_cfg("ching_study", grid_sizes=(256,), symbol_params={
            "J_values": J_values, "s_values": [-1.0, -0.5, 0.5],
            "zero_orders": [0, 1]})
        metrics = run_scenario(cfg).metrics
        verdicts, thresholds = {}, {}
        for rho, per_s in metrics["gain_curves"]["curves"].items():
            for s, entry in per_s.items():
                assert [g["J"] for g in entry["gains"]] == J_values
                gain = {g["J"]: g["gain"] for g in entry["gains"]}
                variation = span(gain.values())
                assert same(entry["variation"], variation)
                verdicts[rho, s] = "stable" if variation < 0.2 else (
                    "growth" if gain[max(gain)]
                    >= 2.0 * gain[min(gain)] * (1.0 - 1e-9)
                    else "indeterminate")
                assert entry["verdict"] == verdicts[rho, s]
            thresholds[rho] = min((float(s) for s in per_s
                                   if verdicts[rho, s] == "stable"),
                                  default=np.inf)
        assert metrics["stability_thresholds"]["thresholds"] == thresholds
        return verdicts, thresholds

    listed, ordered = study([6, 5, 3]), study([3, 5, 6])
    assert listed == ordered
    assert listed[0]["rho0", "-1.0"] == "growth"


def count_shared_work(monkeypatch):
    """Counters of the Ching rows built, random fields built, apply calls,
    the fields they map and the scatters they run, during one run."""
    count = {"rows": 0, "random": 0, "apply": 0, "images": 0, "scatter": 0}

    def counted_ching(grid, d, A, J):
        count["rows"] += J + 1
        return ching_symbol(grid, d, A, J)

    def counted_random(*args, **kwargs):
        count["random"] += 1
        return random_band_limited_field(*args, **kwargs)

    def counted_apply(a, u):
        count["apply"] += 1
        out = apply(a, u)
        count["images"] += len(out)
        return out

    def counted_scatter(*args, **kwargs):
        count["scatter"] += 1
        return scatter(*args, **kwargs)

    scatter = operators._scatter
    monkeypatch.setattr(experiments, "ching_symbol", counted_ching)
    monkeypatch.setattr(corpus, "random_band_limited_field", counted_random)
    monkeypatch.setattr(experiments, "apply", counted_apply)
    monkeypatch.setattr(operators, "_scatter", counted_scatter)
    return count


def test_sweep_shares_symbols_and_applies(monkeypatch):
    """One Ching ladder and one build of each random field per grid; per
    (grid, J) one scatter for the fixed corpus members, and per (grid, J,
    spec) one for the two s-weighted stacks."""
    count = count_shared_work(monkeypatch)
    specs = [["F", 0.0, 2.0, 2.0], ["B", 1.0, 2.0, 1.0], ["F", 0.5, 1.0, 2.0]]
    cfg = small_cfg("boundedness_sweep", grid_sizes=(64, 128),
                    norm_specs=specs, symbol_params={"J_values": [3, 4, 5]})
    run_scenario(cfg)
    cells = 2 + 3                     # (grid, J) that fit: J <= 4, J <= 5
    fixed = 4 + cfg.corpus_size       # uniform stack, 3 single bands, randoms
    weighted = 2                      # optimal and adapted offset stacks
    assert count["apply"] == count["scatter"] == cells * (1 + len(specs))
    assert count["images"] == cells * (fixed + len(specs) * weighted)
    assert count["random"] == len(cfg.grid_sizes) * cfg.corpus_size
    assert count["rows"] == (4 + 1) + (5 + 1)


@pytest.mark.parametrize("J_values,weighted", [
    ([0, 1, 6], 1),     # below J = 2 the corpus holds no off-ray stack
    ([3, 4, 6], 2),     # optimal and adapted offset stacks
], ids=["plain", "probed"])
def test_ching_study_shares_symbols_and_applies(J_values, weighted,
                                                monkeypatch):
    """Per zero order one Ching ladder and one build of each random field
    (the adapted stack reads the zero order's profile); per (zero order, J)
    one scatter for the fixed members, and per s one for the s-weighted
    stacks."""
    count = count_shared_work(monkeypatch)
    s_values, zero_orders = [-1.0, 0.0, 0.5], [0, 1, 2]
    cfg = small_cfg("ching_study", grid_sizes=(128,), symbol_params={
        "J_values": J_values, "s_values": s_values,
        "zero_orders": zero_orders})
    run_scenario(cfg)
    cells = len(zero_orders) * 2      # J = 6 does not fit N = 128
    fixed = 4 + cfg.corpus_size
    assert count["apply"] == count["scatter"] == cells * (1 + len(s_values))
    assert count["images"] == cells * (fixed + len(s_values) * weighted)
    assert count["random"] == len(zero_orders) * cfg.corpus_size
    # one ladder per zero order up to its largest fitting J, and the
    # adjoint probe's J = 2, 4 ladder
    assert count["rows"] == len(zero_orders) * (J_values[1] + 1) + (4 + 1)


@pytest.mark.parametrize("scenario,params", [
    ("boundedness_sweep", {"J_values": []}),
    ("boundedness_sweep", {"J_values": [-1, 3]}),
    ("boundedness_sweep", {"J_values": ["a"]}),
    ("boundedness_sweep", {"J_values": [12]}),
    ("boundedness_sweep", {"J_values": [3, 3]}),
    ("ching_study", {"J_values": [3]}),
    ("ching_study", {"J_values": []}),
    ("ching_study", {"J_values": [3.0, 4.0]}),
    ("ching_study", {"s_values": []}),
    ("ching_study", {"s_values": [float("nan")]}),
    ("ching_study", {"s_values": ["0.5"]}),
    ("ching_study", {"zero_orders": []}),
    ("ching_study", {"zero_orders": [-1]}),
], ids=["sweep_no_J", "sweep_negative_J", "sweep_string_J",
        "sweep_J_too_large", "sweep_one_distinct_J", "ching_one_J",
        "ching_no_J", "ching_float_J", "no_s", "nan_s", "string_s",
        "no_zero_orders", "negative_zero_order"])
def test_bad_sweep_lists_exit_2(scenario, params, tmp_path, capsys):
    """A list that crashes a sweep or leaves its verdict vacuous (no gain
    curve of two J) is a config error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": scenario, "grid_sizes": [256],
                                "corpus_size": 1, "symbol_params": params}))
    assert cli_main(["run", scenario, "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("scenario", sorted(CLAIM_REGISTRY))
def test_parameter_defaults_written_out_change_nothing(scenario):
    """A config that writes out every default of PARAMETERS for its
    symbol_params (those of the default symbol_family) runs
    byte-identically to one that names none, and the CLI's default config
    validates."""
    defaults = json.loads(json.dumps({
        key: default for key, (_, default)
        in ExperimentConfig(scenario=scenario)._params_read().items()
        if default is not None}))
    over = dict(grid_sizes=(128,), corpus_size=1, seed=1)
    plain, written = (run_scenario(ExperimentConfig(
        scenario=scenario, symbol_params=params, **over).normalized())
        for params in ({}, defaults))
    assert written.params["symbol_params"] == defaults
    assert written.metrics_payload() == plain.metrics_payload()
    ExperimentConfig(scenario=scenario, **DEFAULT_CONFIGS[scenario]).normalized()


def test_ching_fit_rule_matches_formula():
    """Ching J fits the grid size N when 5 * 2^(J-2) < N/2; a J at or above
    the bit length of N is answered without forming the power.  The default
    J, one below the widest that fits, is the old float formula."""
    for N in [2**k + off for k in range(4, 21) for off in (-1, 0, 1)]:
        for J in range(41):
            assert ching_fits(J, N) == (5 * 2 ** (J - 2) < N // 2), (J, N)
    assert ching_fits(10**8, 256) is False
    for N in (2**k for k in range(4, 22)):
        J = ching_default_J(N)
        assert J == int(np.floor(np.log2(N // 2 / 1.25))) - 1, N
        assert ching_fits(J + 1, N) and not ching_fits(J + 2, N), N
    ladder = experiments._ching_ladder(TorusGrid(1, 64), 0.0, (3, 10**8, 4),
                                       ChingProfile())
    assert [J for J, _ in ladder] == [3, 4]
    ExperimentConfig(scenario="boundedness_sweep", grid_sizes=(256,),
                     symbol_params={"J_values": [3, 4, 10**8]}).normalized()


def test_outputs_layout(tmp_path):
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    paths = write_outputs(rec, tmp_path / "run")
    results = json.loads(Path(paths["results"]).read_text())
    assert results["scenario"] == "inequality_suite"
    assert "metrics" in results and "wall_time_s" in results
    manifest = json.loads(Path(paths["manifest"]).read_text())
    assert manifest["tool"] == "paradiff-lab"
    assert set(manifest["claims_covered"]) >= CLAIM_REGISTRY["inequality_suite"]
    assert paths["tables"], "expected at least one CSV table"
    table = Path(paths["tables"][0]).read_text().splitlines()
    assert table[0].startswith("check,")
    assert len(table) > 5


@pytest.mark.parametrize("scenario", sorted(CLAIM_REGISTRY))
def test_results_json_matches_deep_copy(scenario, tmp_path):
    """results.json, serialized from the record's own fields, has the bytes
    of the dataclasses.asdict deep copy it was once written from."""
    rec = run_scenario(small_cfg(scenario))
    want = json.dumps(experiments._strict_json(dataclasses.asdict(rec)),
                      sort_keys=True, indent=2, allow_nan=False)
    assert Path(write_outputs(rec, tmp_path)["results"]).read_text() == want


def test_suite_builds_one_ching_symbol(monkeypatch):
    """The suite's symbol list, its TDC symbol and its Marschall list share
    one standard Ching symbol."""
    built = []
    standard_ching = experiments.standard_ching
    monkeypatch.setattr(experiments, "standard_ching",
                        lambda *a: built.append(a) or standard_ching(*a))
    run_scenario(small_cfg("inequality_suite"))
    assert len(built) == 1


def _strict_loads(text):
    """json.loads that rejects the bare NaN, Infinity and -Infinity tokens."""
    def reject(token):
        raise ValueError(f"bare {token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("case", ["nan_drift", "inf_threshold"])
def test_results_are_strict_json(case, tmp_path):
    """results.json and the metrics payload write a non-finite float as
    the string "NaN", "Infinity" or "-Infinity"."""
    if case == "nan_drift":          # a one-grid sweep drifts by NaN
        rec = run_scenario(small_cfg("boundedness_sweep"))
        where, want = ("refinement_drift", "per_spec", "F_s0.0"), "NaN"
    else:                            # no stable s: the threshold is inf
        rec = run_scenario(small_cfg("ching_study", symbol_params={
            "J_values": [3, 4], "s_values": [-1.0], "zero_orders": [0]}))
        where, want = ("stability_thresholds", "thresholds", "rho0"), "Infinity"
    results = _strict_loads(Path(write_outputs(rec, tmp_path)["results"])
                            .read_text())
    for leaf in (results["metrics"], _strict_loads(rec.metrics_payload())):
        for key in where:
            leaf = leaf[key]
        assert leaf == want
    assert experiments._strict_json(
        {"a": [-np.inf, np.float64(np.nan)], "b": (1.5, 2)}) == \
        {"a": ["-Infinity", "NaN"], "b": [1.5, 2]}


def test_cli_smoke(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = cli_main(["run", "inequality_suite", "--seed", "3",
                     "--grid", "64", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "inequality_suite" in captured
    assert (out / "results.json").exists()
    assert (out / "manifest.json").exists()
    assert list((out / "tables").glob("*.csv"))


def test_cli_exit_status_follows_verdict(monkeypatch, tmp_path):
    """0 when every check passes, 1 when one fails (here a NaN ratio)."""
    args = ["run", "inequality_suite", "--seed", "3",
            "--out", str(tmp_path / "o")]
    assert cli_main(args) == 0
    monkeypatch.setattr(experiments, "marschall_check",
                        lambda *args, **kw: {"max_ratio": float("nan"),
                                             "x": None})
    assert cli_main(args) == 1


def test_cli_dim_sets_grid_dimension(tmp_path):
    out = tmp_path / "o"
    assert cli_main(["run", "modulation_study", "--dim", "2", "--grid", "16",
                     "--out", str(out)]) == 0
    params = json.loads((out / "results.json").read_text())["params"]
    assert (params["grid_n"], params["grid_sizes"]) == (2, [16])
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "modulation_study", "--dim", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("J", [6, 20000, 10**8])
def test_oversized_ching_J_exits_2(J, tmp_path, capsys):
    """A Ching J too wide for the grid is a config error with one line,
    however large: the fit is decided without forming 5 * 2^(J-2)."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": "modulation_study",
                                "grid_sizes": [64], "symbol_params": {"J": J}}))
    assert cli_main(["run", "modulation_study", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"J = {J} does not fit the grid N = 64" in err


def test_cli_config_scenario_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": "ching_study",
                                "grid_sizes": [64]}))
    code = cli_main(["run", "inequality_suite", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_custom_symbol_from_json_table(tmp_path):
    # a symbol serialized to the {d, xi, rows} table drives a scenario
    from paradiff_lab.experiments import build_symbol
    g = TorusGrid(1, 64)
    sym = random_sparse_symbol(g, rng_for(9, 8), d=0.25, x_band=6,
                               eta_band=8)
    table = tmp_path / "symbol.json"
    table.write_text(sym.to_json())
    cfg = small_cfg("modulation_study", symbol_family="custom",
                    symbol_params={"table": str(table)}, seed=4)
    loaded = build_symbol(cfg, g)
    assert loaded.d == 0.25
    assert np.array_equal(loaded.xi, sym.xi)
    assert np.array_equal(loaded.rows, sym.rows)
    rec = run_scenario(cfg)
    assert CLAIM_REGISTRY["modulation_study"] <= rec.covered_claims()


ROW = [1.0, 0.0] * 64   # one row over the 1-D N=64 lattice, re/im interleaved


@pytest.mark.parametrize("params,text", [
    ({}, None),
    ({"table": "absent.json"}, None),
    ({"table": "t.json"}, "{not json"),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "values": ROW * 64})),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "xi": [[0]]})),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "xi": [[0]],
                                      "rows": [ROW[:64]]})),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "xi": [[0]],
                                      "rows": [ROW[:-1] + [np.nan]]})),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "xi": [[3], [3]],
                                      "rows": [ROW, ROW]})),
    ({"table": "t.json"}, json.dumps({"d": 0.0, "xi": [[1.5]],
                                      "rows": [ROW]})),
], ids=["no_table", "missing_file", "not_json", "old_values_layout",
        "missing_rows", "row_shape", "non_finite", "coinciding_xi",
        "fractional_xi"])
def test_bad_custom_table_exits_2(params, text, tmp_path, capsys):
    """Every bad custom table is a config error naming the table layout."""
    params = {key: str(tmp_path / name) for key, name in params.items()}
    if text is not None:
        (tmp_path / "t.json").write_text(text)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "modulation_study",
                                "grid_sizes": [64], "corpus_size": 1,
                                "symbol_family": "custom",
                                "symbol_params": params}))
    assert cli_main(["run", "modulation_study", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "{d, xi, rows}" in err


def test_symbol_family_restriction():
    with pytest.raises(ConfigError):
        small_cfg("boundedness_sweep", symbol_family="identity")


def test_identity_gain_is_one():
    # the identity operator amplifies nothing, at any (s, p, q)
    from paradiff_lab import DiscreteSymbol, NormSpec, make_modulation, \
        make_partition
    from paradiff_lab.experiments import _grid_gain
    g = TorusGrid(1, 64)
    part = make_partition(make_modulation(1.0, 2.0), g)
    a = DiscreteSymbol.identity(g)
    items = [(f"u{i}", random_band_limited_field(g, rng_for(9, 5, i), 12.0))
             for i in range(4)]
    for s, p, q in ((0.0, 2.0, 2.0), (1.0, 2.0, 1.0), (-0.5, 1.0, np.inf)):
        spec = NormSpec("F" if p != np.inf else "B", s, p, q)
        [res] = _grid_gain(a, items, [(spec, spec)], part)
        assert res["gain"] <= (1.0 + 1e-6) ** 2
        assert res["gain"] >= (1.0 - 1e-6) ** 2
