"""Self-time arithmetic and the coverage of re-bound entry points."""

import numpy as np
import pytest

import paradiff_lab
from paradiff_lab import experiments, operators, pointwise, spaces
from paradiff_lab.corpus import random_band_limited_field, rng_for
from paradiff_lab.lp import make_modulation, make_partition
from paradiff_lab.symbols import DiscreteSymbol
from paradiff_lab.torus import TorusGrid

from tracer import Tracer, aggregate, layer_metrics


def test_self_time_of_nested_synthetic_spans():
    spans = [  # (id, parent, name, start, end), children close first
        (1, 0, "b", 1.0, 4.0),
        (3, 2, "d", 6.0, 7.0),
        (2, 0, "c", 5.0, 9.0),
        (0, None, "a", 0.0, 10.0),
    ]
    agg = aggregate(spans)
    assert agg["a"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert agg["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}
    assert agg["c"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert agg["d"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert sum(v["self_s"] for v in agg.values()) == 10.0


def test_recursion_counts_total_once():
    spans = [
        (2, 1, "f", 2.0, 3.0),       # f inside f
        (3, 1, "g", 3.5, 4.0),
        (1, 0, "f", 1.0, 5.0),
        (0, None, "root", 0.0, 6.0),
    ]
    agg = aggregate(spans)
    assert agg["f"]["calls"] == 2
    assert agg["f"]["total_s"] == 4.0           # the outer f only
    assert agg["f"]["self_s"] == 2.5 + 1.0      # 4 - (1 + 0.5) and 1 - 0
    assert agg["root"]["self_s"] == 2.0
    assert agg["g"]["self_s"] == 0.5


def small_inputs():
    grid = TorusGrid(1, 16)
    a = DiscreteSymbol.identity(grid)
    u = random_band_limited_field(grid, rng_for(0, 1), 3.0)
    return grid, a, u


def test_calls_through_each_rebound_name_are_counted():
    grid, a, u = small_inputs()
    orig = operators.apply
    assert experiments.apply is orig and pointwise.apply is orig \
        and spaces.apply is orig
    with Tracer() as tracer:
        for mod in (experiments, pointwise, spaces, operators, paradiff_lab):
            mod.apply(a, u)
    assert operators.apply is orig and experiments.apply is orig
    agg = aggregate(tracer.spans)
    assert agg["operators.apply"]["calls"] == 5
    assert tracer.counters["operators.apply.bytes"] == 5 * a.values.nbytes
    # each apply builds its output through SpectralField.from_values
    assert agg["torus.fft"]["calls"] >= 5
    assert agg["torus.fft"]["total_s"] <= agg["operators.apply"]["total_s"]


def test_methods_counters_and_repeat_keys():
    grid, a, u = small_inputs()
    part = make_partition(make_modulation(1.0, 2.0), grid)
    sym_init = DiscreteSymbol.__init__
    with Tracer() as tracer:
        b = a + a
        c = 2.0 * b
        for _ in range(2):
            operators.symbol_band(a, 1, part)
        operators.symbol_band(a, 1, part, cumulative=True)
        psi = make_modulation(1.0, 2.0)
        psi(np.arange(4.0))
        psi(np.arange(4.0))
        make_modulation(1.0, 3.0)(np.arange(4.0))
    assert DiscreteSymbol.__init__ is sym_init
    agg = aggregate(tracer.spans)
    assert agg["symbols.algebra"]["calls"] == 2
    assert agg["symbols.symbol_band"]["calls"] == 3
    assert tracer.repeats["symbols.symbol_band"] == 1
    assert tracer.repeats["lp.modulation_eval"] >= 1
    assert tracer.counters["symbols.construct.calls"] >= 5
    assert tracer.counters["symbols.dense_bytes"] >= 2 * c.values.nbytes
    values = layer_metrics(agg, tracer.record(), traced_wall_s=1.0,
                           untraced_wall_s=0.75)
    assert values["symbols.symbol_band.repeat_frac"] == pytest.approx(1 / 3)
    assert values["trace.overhead_s"] == 0.25
    assert values["trace.exceptions"] == 0
    assert values["spaces.marschall_check.total_s"] == 0.0


def test_escaping_exceptions_are_counted_and_reraised():
    grid, a, u = small_inputs()
    other = random_band_limited_field(TorusGrid(1, 32), rng_for(0, 2), 3.0)
    with Tracer() as tracer:
        with pytest.raises(paradiff_lab.GridMismatch):
            spaces.apply(a, other)
    assert tracer.exceptions == 1
    assert aggregate(tracer.spans)["operators.apply"]["calls"] == 1
