import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from paradiff_lab import experiments
from paradiff_lab.cli import main as cli_main
from paradiff_lab.corpus import (boundedness_corpus, random_band_limited_field,
                                 random_sparse_symbol, rng_for)
from paradiff_lab.errors import ConfigError
from paradiff_lab.experiments import (CLAIM_REGISTRY, ExperimentConfig,
                                      run_scenario, write_outputs)
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
    assert len(u.support(threshold=0.0)) <= 8
    assert u.band_limit() <= 9.0


def test_boundedness_corpus_members():
    g = TorusGrid(1, 256)
    items = dict(boundedness_corpus(g, (1,), 5, 0.0, seed=7))
    assert {"optimal_stack", "uniform_stack", "single_low",
            "single_top"} <= set(items)
    assert items["uniform_stack"].support().points >= {(1,), (32,)}


# -- config --------------------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="nope").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="ching_study", grid_sizes=(48,)).normalized()
    with pytest.raises(ConfigError):
        ExperimentConfig(scenario="ching_study",
                         partition_r=3.0, partition_R=2.0).normalized()
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
    {"modulations": [[1.0, 2.0], [1.5]]},
    {"modulations": [1.0, 2.0]},
    {"norm_specs": [["B", 1.0, 2.0]]},
    {"norm_specs": [["B", 1.0, 2.0, 2.0, 1.0]]},
    {"max_matrix_dim": 256},
], ids=["empty_grids", "scalar_grid", "short_pair", "scalar_pair",
        "short_spec", "long_spec", "stale_max_matrix_dim"])
def test_malformed_config_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "inequality_suite", **doc}))
    assert cli_main(["run", "inequality_suite", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


BLAS_PAYLOADS = """
from paradiff_lab.experiments import ExperimentConfig, run_scenario
for kw in (dict(scenario="inequality_suite", grid_n=1, grid_sizes=(128,)),
           dict(scenario="modulation_study", grid_n=2, grid_sizes=(16,))):
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
    assert len(payloads[0]) == 2
    assert payloads[0] == payloads[1]


def test_inequality_suite_passes_small():
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    assert rec.metrics["summary"]["all_pass"]


def test_inequality_suite_nan_ratio_fails(monkeypatch):
    # builtin max(0.0, nan) is 0.0: a NaN ratio must still fail its check
    monkeypatch.setattr(experiments, "marschall_check",
                        lambda *args, **kw: {"max_ratio": float("nan")})
    rec = run_scenario(small_cfg("inequality_suite", seed=3))
    assert np.isnan(rec.metrics["marschall"]["max_ratio"])
    assert rec.metrics["marschall"]["pass"] is False
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


def test_ching_study_probe_offsets():
    # the off-ray probes only add inputs to the corpus, so no gain falls;
    # on the rho = 1 ray at s = -1 they reach the extremal direction and
    # the verdict turns from stable (0.81 / 0.81) to growth (1.00 / 3.00)
    def curves(probe):
        cfg = small_cfg("ching_study", grid_sizes=(256,), symbol_params={
            "J_values": [3, 5], "s_values": [-1.0, 0.0, 1.0],
            "zero_orders": [0, 1], "probe_offsets": probe})
        return run_scenario(cfg).metrics["gain_curves"]["curves"]

    plain, probed = curves(False), curves(True)
    for rho, per_s in plain.items():
        for s, entry in per_s.items():
            pairs = list(zip(entry["gains"], probed[rho][s]["gains"]))
            assert len(pairs) == 2
            for g0, g1 in pairs:
                assert g0["J"] == g1["J"] and g1["gain"] >= g0["gain"]
    rho1 = list(zip(plain["rho1"]["-1.0"]["gains"],
                    probed["rho1"]["-1.0"]["gains"]))
    assert any(g1["gain"] > g0["gain"] for g0, g1 in rho1)
    assert plain["rho1"]["-1.0"]["verdict"] == "stable"
    assert probed["rho1"]["-1.0"]["verdict"] == "growth"


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


def test_cli_config_scenario_mismatch(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"scenario": "ching_study",
                                "grid_sizes": [64]}))
    code = cli_main(["run", "inequality_suite", "--config", str(path),
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_custom_symbol_from_json_table(tmp_path):
    # a symbol serialized to the {d, values} table drives a scenario
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
    assert np.max(np.abs(loaded.values - sym.values)) < 1e-12
    rec = run_scenario(cfg)
    assert CLAIM_REGISTRY["modulation_study"] <= rec.covered_claims()


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
        res = _grid_gain(a, items, spec, spec, part)
        assert res["gain"] <= (1.0 + 1e-6) ** 2
        assert res["gain"] >= (1.0 - 1e-6) ** 2
