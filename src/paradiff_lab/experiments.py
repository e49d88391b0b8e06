"""Reproducible desk-scale experiment scenarios and their result records.

Every metric a scenario emits is tagged with the claim it probes, drawn
from a fixed per-scenario registry; a run fails if a registered claim ends
up with no executed check (coverage guard).  Identical config + seed gives
a byte-identical metrics payload.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (corpus_members, rng_for, random_band_limited_field,
                     random_sparse_symbol, lacunary_stack, standard_ching)
from .errors import BadExponent, ConfigError
from .lp import (STANDARD_CUTOFF, ModulationFunction, dyadic_block,
                 make_partition)
from .operators import (apply, compose_multiplier, discrete_adjoint_probe,
                        modulated_apply, modulation_limit, para_split,
                        spectral_support_bound, support_inclusions)
from .pointwise import (MaxParams, check_factorization, hl_max, max_ratio,
                        mihlin_bound, paraterm_pointwise_check, peetre_max,
                        symbol_factor, yamazaki_check)
from .spaces import (NormSpec, fefferman_stein_check, marschall_check,
                     space_norm)
from .symbols import (ChingProfile, DiscreteSymbol, LocalizationCutoff,
                      ching_default_J, ching_fits, ching_symbol, localize)
from .torus import TorusGrid

#: Claims each scenario must cover with at least one executed metric.
CLAIM_REGISTRY = {
    "boundedness_sweep": {
        "lacunary_growth_below_threshold",
        "stability_in_smooth_region",
        "refinement_stability",
    },
    "ching_study": {
        "zero_order_moves_threshold",
        "adjoint_seminorm_blowup",
    },
    "modulation_study": {
        "modulation_independence",
        "divergence_indicator",
    },
    "inequality_suite": {
        "factorization_inequality",
        "mihlin_type_symbol_factor_bound",
        "paradifferential_reconstruction",
        "corona_ball_inclusions",
        "tdc_diagonal_corona",
        "paraterm_pointwise_estimates",
        "cumulative_sum_inequality",
        "peetre_hardy_littlewood_domination",
        "fefferman_stein_chain",
        "marschall_inequality",
        "multiplier_composition_domain",
        "spectral_support_rule",
    },
}

#: Regression margins frozen from seeded calibration sweeps.
FROZEN_THRESHOLDS = {
    "factorization_ratio": 1.0 + 1e-6,
    "mihlin_margin": 2.0,
    "reconstruction_abs": 1e-10,
    "paraterm_max_ratio": 1.0 + 1e-6,
    "paraterm_slope": 0.5,
    "peetre_hl_constant": 3.0,
    "fs_chain_ratio": 4.0,
    "marschall_constant": 1.5,
    "composition_rel": 1e-10,
    "adjoint_growth": 2.0,
}


#: The cutoffs whose vanishing-modulation limits modulation_study compares.
MODULATIONS = (STANDARD_CUTOFF, ModulationFunction(1.5, 2.5),
               ModulationFunction(0.75, 1.75))


def _list_of(test):
    """The test of a non-empty list of values that pass ``test``."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 \
        and all(map(test, v))


# The kinds of parameter value, each a (test, what the test asks for) pair;
# a finite number is a JSON number that converts to a finite float.
_INDEX = (lambda v: type(v) is int and v >= 0, "an integer >= 0")
_NUMBER = (lambda v: type(v) in (int, float)
           and abs(v) <= np.finfo(float).max, "a finite number")
_FLAG = (lambda v: type(v) is bool, "true or false")
_INDICES = (_list_of(_INDEX[0]), "a non-empty list of integers >= 0")
_NUMBERS = (_list_of(_NUMBER[0]), "a non-empty list of finite numbers")
_SIZES = (_list_of(lambda N: type(N) is int and N >= 16 and N & (N - 1) == 0),
          "a non-empty list of powers of two >= 16")
_SIZE = (lambda v: _SIZES[0](v) and len(v) == 1,
         "a list of one power of two >= 16")
_DIM = (lambda v: type(v) is int and v in (1, 2), "1 or 2")
_FAMILY = (lambda v: v in ("ching", "multiplier", "identity", "random",
                           "custom"),
           "one of ching, multiplier, identity, random and custom")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")

#: The fields every scenario reads, with their kinds (None: checked where
#: they are read).
_COMMON = {"scenario": None, "grid_n": _DIM, "grid_sizes": _SIZES,
           "seed": _INDEX, "corpus_size": _INDEX, "out_dir": None,
           "symbol_params": _OBJECT}

#: Per scenario, the fields it reads beyond _COMMON with their kinds, and
#: the symbol_params keys it (or its symbol_family) reads with their kinds
#: and defaults.  A field that differs from its dataclass default, or a
#: symbol_params key, that its scenario does not list is a config error.
PARAMETERS = {
    "boundedness_sweep": (
        {"norm_specs": None},
        {"d": (_NUMBER, 0.0), "zero_order": (_INDEX, 0),
         "J_values": (_INDICES, (3, 4, 5, 6, 7, 8))}),
    "ching_study": (
        {"grid_sizes": _SIZE},
        {"d": (_NUMBER, 0.0), "J_values": (_INDICES, (3, 5, 6)),
         "zero_orders": (_INDICES, (0, 1, 2)),
         "s_values": (_NUMBERS, (-2, -1.5, -1, -0.5, 0, 0.5, 1))}),
    "modulation_study": (
        {"symbol_family": _FAMILY},
        # per symbol_family; J None: ching_default_J of the grid size
        {"ching": {"d": (_NUMBER, 0.0), "J": (_INDEX, None),
                   "zero_order": (_INDEX, 0), "one_sided": (_FLAG, True)},
         "multiplier": {"d": (_NUMBER, 0.0)}, "random": {"d": (_NUMBER, 0.0)},
         "identity": {}, "custom": {"table": (None, None)}}),
    "inequality_suite": ({"grid_sizes": _SIZE}, {}),
}
SCENARIOS = tuple(PARAMETERS)


@dataclass
class ExperimentConfig:
    """Validated description of one scenario run."""

    scenario: str
    grid_n: int = 1
    grid_sizes: tuple = (256,)
    symbol_family: str = "ching"
    symbol_params: dict = field(default_factory=dict)
    norm_specs: tuple = ()
    seed: int = 0
    corpus_size: int = 3
    out_dir: str | None = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {str(path)!r}: "
                              f"{type(exc).__name__}: {exc}") from None
        if not isinstance(doc, dict) or "scenario" not in doc:
            raise ConfigError(f"config {str(path)!r} must be a JSON object "
                              "with a scenario")
        extra = set(doc) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        return cls(**doc).normalized()

    def normalized(self) -> "ExperimentConfig":
        try:
            self.grid_sizes = tuple(self.grid_sizes)
            self.norm_specs = tuple((str(c), float(s), float(p), float(q))
                                    for c, s, p, q in self.norm_specs)
        except (TypeError, ValueError) as exc:
            raise ConfigError("grid_sizes and norm_specs must be lists of "
                              f"sizes and (scale, s, p, q) tuples: {exc}"
                              ) from None
        self.validate()
        return self

    def _params_read(self) -> dict:
        read, keys = PARAMETERS[self.scenario]
        return keys[self.symbol_family] if "symbol_family" in read else keys

    def param(self, key: str):
        """symbol_params[key], or its default in PARAMETERS."""
        return self.symbol_params.get(key, self._params_read()[key][1])

    def validate(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose one of {SCENARIOS}")
        kinds = {**_COMMON, **PARAMETERS[self.scenario][0]}

        def given():
            """(name, value, kind) of every field and symbol_params key
            given; kind is False where the scenario does not read it."""
            for f in fields(self):
                if f.name in kinds or getattr(self, f.name) != f.default:
                    yield f.name, getattr(self, f.name), kinds.get(f.name, False)
            # symbol_params and symbol_family have passed their kind checks
            for key, value in self.symbol_params.items():
                yield (f"symbol_params.{key}", value,
                       self._params_read().get(key, (False,))[0])

        for name, value, kind in given():
            if kind is False:
                raise ConfigError(f"{self.scenario} does not read {name}")
            if kind and not kind[0](value):
                raise ConfigError(f"{name} must be {kind[1]}")
        N = max(self.grid_sizes)
        if self.scenario == "inequality_suite" and not ching_fits(4, N):
            raise ConfigError("inequality_suite builds Ching J=4, which needs "
                              "a grid size >= 64")
        if self.symbol_family == "custom" and "table" not in self.symbol_params:
            raise ConfigError("symbol_family 'custom' needs symbol_params.table,"
                              " the path of a {d, xi, rows} JSON table")
        for spec in self.norm_specs:
            try:
                NormSpec(*spec)
            except BadExponent as exc:
                raise ConfigError(f"norm spec {list(spec)}: {exc}") from None
        if "J_values" in self._params_read() and len(
                {J for J in self.param("J_values") if ching_fits(J, N)}) < 2:
            raise ConfigError(f"fewer than two J_values fit the grid N = {N} "
                              "(5 * 2^(J-2) < N/2); a gain curve needs two")


@dataclass
class ResultRecord:
    """Scenario outcome; ``metrics`` is the deterministic payload."""

    scenario: str
    params: dict
    metrics: dict
    wall_time_s: float
    tool_version: str = __version__

    def metrics_payload(self) -> bytes:
        """Canonical bytes of the metrics block (used by determinism checks),
        strict JSON as ``results.json`` writes it."""
        return json.dumps(_strict_json(self.metrics), sort_keys=True,
                          separators=(",", ":"), allow_nan=False).encode()

    def covered_claims(self) -> set:
        return {m.get("claim") for m in self.metrics.values()
                if isinstance(m, dict) and "claim" in m}


def _f(x) -> float:
    return float(x)


@dataclass
class _Worst:
    """Largest value seen and ``where``: the keyword arguments of the first
    case that reached it ({} while nothing exceeded 0).  A NaN sticks, so a
    NaN ratio cannot pass (the builtin max(0.0, nan) is 0.0)."""

    value: float = 0.0
    where: dict = field(default_factory=dict)

    def see(self, value, **where) -> "_Worst":
        if not np.isnan(self.value) and (np.isnan(value) or value > self.value):
            self.value, self.where = value, where
        return self


def _grid_gain(a: DiscreteSymbol, members, cases, part) -> list:
    """Energy gains sup_u ||a#u||^2 / ||u||^2 (squared quasi-norm ratios)
    over one J's :func:`corpus_members`, one per (source, target) spec pair
    in ``cases``: the fixed members' a#u from one apply, and per case one
    apply of the stacks weighted by the source smoothness and one source
    and one target norm call over every member."""
    fixed = {name: u for name, u in members if not callable(u)}
    applied = dict(zip(fixed, apply(a, list(fixed.values()))))

    def gain(spec_src, spec_dst):
        inputs = {name: u(spec_src.s) if callable(u) else u
                  for name, u in members}
        inputs = {name: u for name, u in inputs.items() if u is not None}
        weighted = [name for name in inputs if name not in applied]
        images = {**applied, **dict(zip(weighted, apply(
            a, [inputs[name] for name in weighted])))}
        src = space_norm(list(inputs.values()), spec_src, part)
        dst = space_norm([images[name] for name in inputs], spec_dst, part)
        best = _Worst()
        for name, u_norm, au_norm in zip(inputs, src, dst):
            if u_norm != 0.0:
                best.see((au_norm / u_norm) ** 2, argmax=name)
        return {"gain": _f(best.value), "argmax": best.where.get("argmax")}
    # one case's weighted stacks and images are freed before the next's
    return [gain(*case) for case in cases]


def _ching_ladder(grid: TorusGrid, d: float, J_values,
                  profile: ChingProfile) -> list:
    """(J, ching_symbol(grid, d, profile, J)) for each J in ``J_values``
    that fits the grid: the symbol at the largest such J, cut to its first
    J + 1 rows (row j, at xi = -2^j e_1, does not depend on J)."""
    fits = [J for J in J_values if ching_fits(J, grid.N)]
    if not fits:
        return []
    top = ching_symbol(grid, d, profile, max(fits))
    return [(J, DiscreteSymbol(grid, d, top.xi[:J + 1], top.rows[:J + 1]))
            for J in fits]


def _gain_table(cfg: ExperimentConfig, grid: TorusGrid, part, zero_order: int,
                cases) -> list:
    """[(J, [{gain, argmax} per case])] of the Ching symbol of ``zero_order``
    for each J in ``J_values`` that fits the grid, over its corpus, whose
    off-ray stack is adapted to the zero order's profile."""
    profile = ChingProfile(zero_order=zero_order)
    ladder = _ching_ladder(grid, float(cfg.param("d")), cfg.param("J_values"),
                           profile)
    corpus = corpus_members(grid, [J for J, _ in ladder], cfg.seed, profile,
                            n_random=cfg.corpus_size)
    return [(J, _grid_gain(a, members, cases, part))
            for (J, a), (_, members) in zip(ladder, corpus)]


def _span(gains) -> float:
    """max / min - 1 over the positive ``gains``; NaN when fewer than two
    are positive, so a span over one gain cannot read as stable."""
    pos = [g for g in gains if g > 0]
    return _f(max(pos) / min(pos) - 1.0) if len(pos) > 1 else np.nan


def _growth(curve: dict) -> dict:
    """A gain curve {J: gain} read at J_lo = min J and J_hi = max J, in
    whatever order the J were listed."""
    lo, hi = min(curve), max(curve)
    return {"J_lo": lo, "J_hi": hi, "gain_lo": curve[lo], "gain_hi": curve[hi],
            "factor": _f(curve[hi] / curve[lo]) if curve[lo] > 0 else 0.0}


def run_boundedness_sweep(cfg: ExperimentConfig) -> dict:
    """Norm-ratio sweep over truncation levels and grid sizes.

    For each admissible (J, N) the energy gain of the lacunary symbol is
    estimated over an adversarial-plus-random corpus, for every requested
    (s, p, q).  Growth across J at the unbounded smoothness and stability
    in the bounded region are summarized per grid size.
    """
    d, J_min = float(cfg.param("d")), min(cfg.param("J_values"))
    specs = cfg.norm_specs or (("F", 0.0, 2.0, 2.0), ("F", 1.0, 2.0, 2.0))
    cases = [(NormSpec(scale, s + d, p, q), NormSpec(scale, s, p, q))
             for scale, s, p, q in specs]
    rows, norm_rows = [], []
    curves = {spec: {} for spec in specs}   # spec -> N -> {J: gain}
    for N in cfg.grid_sizes:
        grid = TorusGrid(cfg.grid_n, N)
        part = make_partition(STANDARD_CUTOFF, grid)
        ref = lacunary_stack(grid, np.ones(J_min + 1))
        for scale, s, p, q in specs:
            norm_rows.append({"scale": scale, "s": _f(s), "p": _f(p),
                              "q": _f(q), "N": N,
                              "value": _f(space_norm(
                                  ref, NormSpec(scale, s, p, q), part))})
        for J, results in _gain_table(cfg, grid, part, cfg.param("zero_order"),
                                      cases):
            for (scale, s, p, q), res in zip(specs, results):
                rows.append({"N": N, "J": J, "scale": scale, "s": _f(s),
                             "p": _f(p), "q": _f(q), "gain": res["gain"],
                             "argmax": res["argmax"]})
                curves[scale, s, p, q].setdefault(N, {})[J] = res["gain"]
    growth, stability, drift = {}, {}, {}
    for scale, s, p, q in specs:
        per_N = curves[scale, s, p, q]
        key = f"{scale}_s{s}_p{p}_q{q}"
        growth[key] = {str(N): _growth(curve) for N, curve in per_N.items()
                       if len(curve) > 1}
        stability[key] = {"relative_span": _span(
            [g for curve in per_N.values() for g in curve.values()])}
        # refinement stability: at the smallest listed J, on every grid it
        # fits, the gain must not drift across N (band-limited content is
        # grid-exact); NaN when it fits one grid only
        drift[f"{scale}_s{s}"] = _span([curve[J_min] for curve
                                        in per_N.values() if J_min in curve])
    return {
        "gain_table": {"claim": "lacunary_growth_below_threshold",
                       "rows": rows},
        "norm_table": {"claim": "refinement_stability", "rows": norm_rows},
        "growth_factors": {"claim": "lacunary_growth_below_threshold",
                           "per_spec": growth},
        "stability_spans": {"claim": "stability_in_smooth_region",
                            "per_spec": stability},
        "refinement_drift": {"claim": "refinement_stability",
                             "per_spec": drift},
    }


def run_ching_study(cfg: ExperimentConfig) -> dict:
    """Gain curves over smoothness s for profile zero orders 0, 1, 2.

    The empirical stability threshold (smallest s on the grid whose gain
    curve stays within 20% across truncations) must move down as the zero
    order increases; only this monotonicity is asserted, not the exact
    threshold location.
    """
    d = float(cfg.param("d"))
    zero_orders = cfg.param("zero_orders")
    s_values = tuple(float(s) for s in cfg.param("s_values"))
    [N] = cfg.grid_sizes
    grid = TorusGrid(cfg.grid_n, N)
    part = make_partition(STANDARD_CUTOFF, grid)
    cases = [(NormSpec("F", s + d, 2.0, 2.0), NormSpec("F", s, 2.0, 2.0))
             for s in s_values]
    curves, thresholds = {}, {}
    for rho in zero_orders:
        table = _gain_table(cfg, grid, part, rho, cases)
        per_s = {}
        for i, s in enumerate(s_values):
            gains = [{"J": J, "gain": res[i]["gain"]} for J, res in table]
            variation = _span([g["gain"] for g in gains])
            ends = _growth({g["J"]: g["gain"] for g in gains})
            verdict = "stable" if variation < 0.2 else (
                "growth" if ends["gain_hi"]
                >= 2.0 * ends["gain_lo"] * (1.0 - 1e-9) else "indeterminate")
            per_s[f"{s}"] = {"gains": gains, "variation": variation,
                             "verdict": verdict}
        curves[f"rho{rho}"] = per_s
        stable_s = [float(s) for s in s_values
                    if per_s[f"{s}"]["verdict"] == "stable"]
        thresholds[f"rho{rho}"] = _f(min(stable_s)) if stable_s else np.inf
    ordered = [thresholds[f"rho{rho}"] for rho in zero_orders]
    # the adjoint symbol on the study grid: its seminorms grow with the
    # truncation when the profile does not vanish on the ray (each adjoint
    # is dropped before the next is built)
    probe = {f"J{J}": {k: v["adjoint"] for k, v in
                       discrete_adjoint_probe(a)["seminorms"].items()}
             for J, a in _ching_ladder(grid, d, (2, 4), ChingProfile())}
    # the J=4 / J=2 ratio of the first eta-derivative; NaN (a fail) when
    # J=4 does not fit the grid
    growth = (probe["J4"]["alpha0_beta1"] / probe["J2"]["alpha0_beta1"]
              if "J4" in probe else np.nan)
    growth_min = FROZEN_THRESHOLDS["adjoint_growth"]
    return {
        "gain_curves": {"claim": "zero_order_moves_threshold",
                        "curves": curves},
        "stability_thresholds": {"claim": "zero_order_moves_threshold",
                                 "thresholds": thresholds,
                                 "monotone": bool(all(
                                     a >= b for a, b in zip(ordered, ordered[1:])))},
        "adjoint_probe": {"claim": "adjoint_seminorm_blowup",
                          "seminorms_by_J": probe, "growth": _f(growth),
                          "threshold": growth_min,
                          "pass": bool(growth >= growth_min)},
    }


def build_symbol(cfg: ExperimentConfig, grid: TorusGrid) -> DiscreteSymbol:
    """Materialize the configured symbol family on a grid."""
    family = cfg.symbol_family
    if family == "identity":
        return DiscreteSymbol.identity(grid)
    if family == "custom":
        table = cfg.param("table")
        try:
            return DiscreteSymbol.from_json(grid, Path(table).read_text())
        except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"custom symbol table {table!r} is not a "
                              f"{{d, xi, rows}} table for {grid}: "
                              f"{type(exc).__name__}: {exc}") from None
    d = float(cfg.param("d"))
    if family == "ching":
        J = cfg.param("J")
        if J is None:
            J = ching_default_J(grid.N)
        return standard_ching(grid, d, J, cfg.param("zero_order"),
                              one_sided=cfg.param("one_sided"))
    if family == "multiplier":
        return DiscreteSymbol.multiplier(
            grid, lambda *k: (1.0 + sum(x**2 for x in k)) ** (d / 2.0), d=d)
    return random_sparse_symbol(grid, rng_for(cfg.seed, 2), d=d,
                                x_band=grid.nyquist / 8,
                                eta_band=grid.nyquist / 4)


def run_modulation_study(cfg: ExperimentConfig) -> dict:
    """Vanishing-modulation limits across cutoffs, inputs, and refinements.

    Band-limited inputs must converge with cutoff-independent limits; the
    default one-sided lacunary symbol applied to its adversarial stack shows
    a non-decaying difference profile that persists under grid refinement
    (the divergence indicator; never reported as a proof)."""
    tail_by_N = {}
    conv_rows = []
    for N in cfg.grid_sizes:
        grid = TorusGrid(cfg.grid_n, N)
        J = ching_default_J(N)
        a = build_symbol(cfg, grid)
        # the nice corpus of random band-limited inputs, then the
        # adversarial stack riding the lacunary ray
        inputs = [(f"random_{i}", random_band_limited_field(
            grid, rng_for(cfg.seed, 3, i), 10.0))
            for i in range(cfg.corpus_size)]
        inputs.append(("lacunary_stack", lacunary_stack(grid, np.ones(J + 1))))
        for name, u in inputs:
            rep = modulation_limit(a, u, MODULATIONS)
            conv_rows.append({"N": N, "input": name,
                              "converged": rep.converged,
                              "verdict": "converged" if rep.converged
                              else "divergence_indicator",
                              "stabilization_m": rep.stabilization_m,
                              "psi_discrepancy": _f(rep.psi_discrepancy),
                              "profile": [_f(x) for x in rep.cauchy_profile[0]]})
        # the stack's last difference before the exact saturation tail
        nonzero = [x for x in rep.cauchy_profile[0] if x > 1e-13]
        tail_by_N[N] = _f(nonzero[-1]) if nonzero else 0.0
    Ns = sorted(tail_by_N)
    tails = [tail_by_N[N] for N in Ns]
    non_decaying = bool(all(b >= 0.5 * a for a, b in zip(tails, tails[1:]))
                        and tails[-1] > 1e-6) if len(tails) > 1 else False
    return {
        "limits": {"claim": "modulation_independence", "rows": conv_rows},
        "divergence_indicator": {
            "claim": "divergence_indicator",
            "pre_saturation_tail_by_N": {str(N): tail_by_N[N] for N in Ns},
            "flag": non_decaying,
        },
    }


def run_inequality_suite(cfg: ExperimentConfig) -> dict:
    """Every pointwise and summed inequality checker over a seeded corpus,
    with one pass/fail line per check against the frozen thresholds and
    the witness of its worst case."""
    [N] = cfg.grid_sizes
    grid = TorusGrid(cfg.grid_n, N)
    psi = STANDARD_CUTOFF
    part = make_partition(psi, grid)
    checks = []
    ching = standard_ching(grid, 0.0, 4)

    def add(name, claim, worst: _Worst, threshold, extra=None):
        checks.append({"name": name, "claim": claim,
                       "params": {"N": N, "seed": cfg.seed},
                       "max_ratio": _f(worst.value), "threshold": _f(threshold),
                       "pass": bool(worst.value <= threshold),
                       "witness": worst.where, **(extra or {})})

    symbols = [
        ("identity", DiscreteSymbol.identity(grid)),
        ("ching", ching),
        ("bessel_multiplier",
         DiscreteSymbol.multiplier(grid, lambda *k: (1.0 + sum(x**2 for x in k)) ** 0.5,
                                   d=1.0)),
    ]
    for i in range(cfg.corpus_size):
        symbols.append((f"random_{i}",
                        random_sparse_symbol(grid, rng_for(cfg.seed, 11, i),
                                             d=0.0, x_band=grid.nyquist / 8,
                                             eta_band=grid.nyquist / 8)))
    fields = [(f"field_{i}",
               random_band_limited_field(grid, rng_for(cfg.seed, 13, i), 12.0))
              for i in range(max(cfg.corpus_size, 2))]

    # factorization inequality
    p_fact = MaxParams(N=2.0, R=16.0)
    worst = _Worst()
    for sname, a in symbols:
        for uname, u in fields:
            res = check_factorization(a, u, p_fact)
            worst.see(res["max_ratio"], symbol=sname, input=uname, x=res["x"])
    add("factorization", "factorization_inequality", worst,
        FROZEN_THRESHOLDS["factorization_ratio"])

    # Mihlin-type bound on the symbol factor
    p_m = MaxParams(N=1.0, R=8.0)
    worst, by_member = _Worst(), {}
    for sname, a in symbols:
        ratio, x = max_ratio(symbol_factor(a, p_m, psi),
                             mihlin_bound(a, p_m, psi))
        worst.see(ratio, symbol=sname, x=x)
        by_member[sname] = _f(ratio)
    add("mihlin_symbol_factor", "mihlin_type_symbol_factor_bound", worst,
        FROZEN_THRESHOLDS["mihlin_margin"], {"by_member": by_member})

    # paradifferential reconstruction + corona/ball inclusions + pointwise;
    # one wide-band input keeps the upper dyadic levels active so the
    # scale-constant trend diagnostic has data
    u_wide = random_band_limited_field(grid, rng_for(cfg.seed, 29),
                                       0.8 * part.r * 2**part.J_max, modes=40)
    worst_rec, worst_viol, worst_ratio, worst_slope = [_Worst() for _ in range(4)]
    vanishing = 0
    m = part.J_max
    for sname, a in symbols:
        splits = para_split(a, [fields[0][1], u_wide], part, m)
        for uname, u in (fields[0], ("wide", u_wide)):
            # a split holds every level's triples: freed once checked
            split = splits.pop(0)
            ref = modulated_apply(a, u, psi, m)
            err, x = max_ratio(np.abs(split.total().values - ref.values),
                               max(ref.norm_inf(), 1.0))
            worst_rec.see(err, symbol=sname, input=uname, x=x)
            rep = support_inclusions(split)
            worst_viol.see(len(rep.violations), symbol=sname, input=uname)
            prep = paraterm_pointwise_check(split, MaxParams(2.0, part.R))
            worst_ratio.see(prep.max_factorization_ratio, symbol=sname,
                            input=uname, **prep.witness)
            vanishing += sum(np.isinf(rr) for rs in
                             prep.factorization_ratios.values() for rr in rs)
            for series, slope in prep.growth_slopes.items():
                worst_slope.see(slope, symbol=sname, input=uname, series=series)
        del split
    add("reconstruction", "paradifferential_reconstruction", worst_rec,
        FROZEN_THRESHOLDS["reconstruction_abs"])
    add("corona_ball_inclusions", "corona_ball_inclusions", worst_viol, 0)
    if not worst_slope.value <= FROZEN_THRESHOLDS["paraterm_slope"]:
        worst_ratio = _Worst(np.inf, worst_slope.where)
    # terms with mass where their majorant vanishes are counted, not
    # asserted: max_factorization_ratio leaves them out
    add("paraterm_pointwise", "paraterm_pointwise_estimates", worst_ratio,
        FROZEN_THRESHOLDS["paraterm_max_ratio"],
        {"max_scale_slope": _f(worst_slope.value),
         "slope_threshold": FROZEN_THRESHOLDS["paraterm_slope"],
         "slope_witness": worst_slope.where,
         "vanishing_majorant_terms": int(vanishing)})

    # twisted-diagonal enforced symbol: near-diagonal terms gain a corona
    eps = 0.25
    chi = LocalizationCutoff()
    a_tdc = ching - localize(ching, chi, eps)
    B = 2.0 / eps
    rep = support_inclusions(para_split(a_tdc, fields[0][1], part, m), tdc_B=B)
    add("tdc_diagonal_corona", "tdc_diagonal_corona",
        _Worst().see(len(rep.violations), symbol="ching_tdc",
                     input=fields[0][0]), 0, {"B": _f(B)})

    # cumulative-sum inequality
    rng = rng_for(cfg.seed, 17)
    worst = _Worst()
    for s in (-1.0, -0.5):
        for q in (1.0, 2.0, np.inf):
            res = yamazaki_check(rng.random((200, 24)), s, q)
            ratio, draw = max_ratio(res["lhs"], res["rhs_const"] * res["rhs"])
            worst.see(ratio, s=s, q=q, draw=draw)
    add("cumulative_sum_inequality", "cumulative_sum_inequality", worst,
        1.0 + 1e-12)

    # Peetre max dominated by the Hardy-Littlewood variant
    t_exp = 0.9
    worst, by_member = _Worst(), {}
    for uname, u in fields:
        for k in (2, 3):
            uk = dyadic_block(u, k, part)
            if uk.norm_inf() == 0.0:
                continue
            ratio, x = max_ratio(
                peetre_max(uk, MaxParams(grid.n / t_exp, part.R * 2**k)),
                hl_max(uk, t_exp))
            worst.see(ratio, input=uname, level=k, x=x)
            by_member[f"{uname}/level_{k}"] = _f(ratio)
    add("peetre_hl_domination", "peetre_hardy_littlewood_domination", worst,
        FROZEN_THRESHOLDS["peetre_hl_constant"], {"by_member": by_member})

    # Fefferman-Stein chain on the blocks of a corpus field
    blocks = [dyadic_block(fields[0][1], k, part)
              for k in range(part.J_max + 1)]
    fs = fefferman_stein_check(blocks, NormSpec("F", 1.0, 2.0, 2.0),
                               t=t_exp, N_decay=max(2.0, grid.n / t_exp),
                               R=part.R)
    worst = _Worst()
    for link in ("ratio_star_hl", "ratio_hl_blocks"):
        worst.see(fs[link], input=fields[0][0], link=link)
    add("fefferman_stein_chain", "fefferman_stein_chain", worst,
        FROZEN_THRESHOLDS["fs_chain_ratio"], {k: _f(v) for k, v in fs.items()})

    # Marschall inequality (rows must carry no zero-frequency mass, which the
    # homogeneous norm quotients out)
    k_m = int(np.log2(grid.nyquist))
    marschall_symbols = [("ching", ching)]
    for i in range(2):
        marschall_symbols.append(
            (f"random_{i}", random_sparse_symbol(
                grid, rng_for(cfg.seed, 23, i), d=0.0,
                x_band=grid.nyquist / 8, eta_band=grid.nyquist / 4,
                eta_min=2.0)))
    worst = _Worst()
    for sname, a in marschall_symbols:
        res = marschall_check(a, fields[0][1], k_m, t=1.0)
        worst.see(res["max_ratio"], symbol=sname, input=fields[0][0],
                  x=res["x"])
    add("marschall", "marschall_inequality", worst,
        FROZEN_THRESHOLDS["marschall_constant"])

    # multiplier composition: same output, and modulation levels match too
    # (the composed and the chained operator share their whole limit profile)
    b = DiscreteSymbol.multiplier(grid, lambda *k: (1.0 + sum(x**2 for x in k)) ** -0.5,
                                  d=-1.0)
    worst = _Worst()
    for sname, a in symbols[:3]:
        c = compose_multiplier(a, b)
        for uname, u in fields[:2]:
            denom = max(u.norm_inf(), 1e-300)
            outs = [(None, apply(c, u), apply(a, apply(b, u)))]
            outs += [(mm, modulated_apply(c, u, psi, mm),
                       modulated_apply(a, apply(b, u), psi, mm))
                      for mm in (1, part.J_max)]
            for level, lhs, rhs in outs:
                ratio, x = max_ratio(np.abs(lhs.values - rhs.values), denom)
                worst.see(ratio, symbol=sname, input=uname, level=level, x=x)
    add("composition_domain", "multiplier_composition_domain", worst,
        FROZEN_THRESHOLDS["composition_rel"])

    # spectral support rule over sparse pairs
    pairs, failed = 10, []
    for i in range(pairs):
        rng_i = rng_for(cfg.seed, 19, i)
        a = random_sparse_symbol(grid, rng_i, d=0.0,
                                 x_band=grid.nyquist / 8,
                                 eta_band=grid.nyquist / 8)
        u = random_band_limited_field(grid, rng_i, grid.nyquist / 8)
        if (apply(a, u).support() & ~spectral_support_bound(a, u)).any():
            failed.append(i)
    add("spectral_support_rule", "spectral_support_rule",
        _Worst().see(len(failed), pair=failed[0] if failed else None), 0,
        {"pairs": pairs})

    all_pass = all(c["pass"] for c in checks)
    metrics = {c["name"]: {"claim": c["claim"], **{k: v for k, v in c.items()
                                                   if k != "name"}}
               for c in checks}
    metrics["summary"] = {"claim": "spectral_support_rule",
                          "all_pass": all_pass,
                          "n_checks": len(checks)}
    return metrics


RUNNERS = {
    "boundedness_sweep": run_boundedness_sweep,
    "ching_study": run_ching_study,
    "modulation_study": run_modulation_study,
    "inequality_suite": run_inequality_suite,
}


def run_scenario(cfg: ExperimentConfig) -> ResultRecord:
    """Run the scenario's runner, time it, and record its metrics; a
    registered claim that no metric covers fails the run."""
    cfg.validate()
    t0 = time.monotonic()
    metrics = RUNNERS[cfg.scenario](cfg)
    partition_header = {"r": STANDARD_CUTOFF.r, "R": STANDARD_CUTOFF.R}
    for N in cfg.grid_sizes:
        part = make_partition(STANDARD_CUTOFF, TorusGrid(cfg.grid_n, N))
        partition_header[f"N{N}"] = {"h": part.h, "J_max": part.J_max}
    record = ResultRecord(
        scenario=cfg.scenario,
        params={"grid_n": cfg.grid_n, "grid_sizes": list(cfg.grid_sizes),
                "partition": partition_header,
                "symbol_family": cfg.symbol_family,
                "symbol_params": cfg.symbol_params,
                "modulations": [[m.r, m.R] for m in MODULATIONS],
                "seed": cfg.seed, "corpus_size": cfg.corpus_size},
        metrics=metrics,
        wall_time_s=time.monotonic() - t0,
    )
    missing = CLAIM_REGISTRY[cfg.scenario] - record.covered_claims()
    if missing:
        raise ConfigError(f"coverage guard: claims with no executed check: "
                          f"{sorted(missing)}")
    return record


# -- output writing ---------------------------------------------------------


def write_outputs(record: ResultRecord, out_dir) -> dict:
    """results.json, tables/*.csv, and manifest.json under ``out_dir``."""
    out = Path(out_dir)
    (out / "tables").mkdir(parents=True, exist_ok=True)
    results_path = out / "results.json"
    results_path.write_text(json.dumps(_strict_json(vars(record)),
                                       sort_keys=True, indent=2,
                                       allow_nan=False))
    tables = _write_tables(record, out / "tables")
    manifest = {
        "tool": "paradiff-lab",
        "version": record.tool_version,
        "scenario": record.scenario,
        "seed": record.params.get("seed"),
        "claims_covered": sorted(record.covered_claims()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "grids": record.params.get("grid_sizes"),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True,
                                                  indent=2))
    return {"results": str(results_path), "tables": tables,
            "manifest": str(out / "manifest.json")}


def _strict_json(obj):
    """``obj`` with each non-finite float as the string "NaN", "Infinity"
    or "-Infinity": strict JSON parsers reject the bare tokens that
    ``json.dumps`` writes for them by default."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return {np.inf: "Infinity", -np.inf: "-Infinity"}.get(obj, "NaN")
    return obj


def _write_tables(record: ResultRecord, table_dir: Path) -> list:
    written = []

    def write(name, header, rows):
        """The ``header`` columns of the dicts ``rows`` (blank where absent)."""
        path = table_dir / name
        with path.open("w", newline="") as fh:
            w = csv.DictWriter(fh, header, extrasaction="ignore")
            w.writeheader()
            w.writerows(rows)
        written.append(str(path))

    metrics = record.metrics
    if record.scenario == "boundedness_sweep":
        write("norm_ratios.csv",
              ["scale", "s", "p", "q", "N", "J", "gain", "argmax"],
              metrics["gain_table"]["rows"])
        write("norms.csv", ["scale", "s", "p", "q", "N", "value"],
              metrics["norm_table"]["rows"])
    elif record.scenario == "ching_study":
        rows = []
        for rho_key, per_s in sorted(metrics["gain_curves"]["curves"].items()):
            for s_key, entry in sorted(per_s.items(), key=lambda kv: float(kv[0])):
                rows += [{"zero_order": rho_key, "s": s_key, **g,
                          "verdict": entry["verdict"]} for g in entry["gains"]]
        write("gain_curves.csv", ["zero_order", "s", "J", "gain", "verdict"],
              rows)
    elif record.scenario == "modulation_study":
        write("limits.csv", ["N", "input", "converged", "stabilization_m",
                             "psi_discrepancy"], metrics["limits"]["rows"])
    elif record.scenario == "inequality_suite":
        write("checks.csv", ["check", "max_ratio", "threshold", "pass"],
              [{"check": name, **m} for name, m in sorted(metrics.items())
               if name != "summary"])
    return written
