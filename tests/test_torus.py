import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paradiff_lab import (AliasingRisk, AnnulusOutOfRange, FreqSet,
                          SpectralField, TorusGrid, annulus_set, band_project,
                          sumset, transform)


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(3, 64)
    with pytest.raises(ValueError):
        TorusGrid(1, 48)  # not a power of two
    with pytest.raises(ValueError):
        TorusGrid(1, 8)   # too small


def test_grid_geometry(grid):
    assert grid.nyquist == 32
    assert grid.spacing == pytest.approx(2 * np.pi / 64)
    k = grid.axis_freqs()
    assert k.min() == -32 and k.max() == 31 and len(set(k)) == 64


# the inverse transform of an inf coefficient warns before the check raises
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_field_rejected(grid):
    vals = np.ones(64, dtype=complex)
    vals[5] = np.nan
    with pytest.raises(ValueError):
        SpectralField.from_values(grid, vals)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = np.inf
    with pytest.raises(ValueError):
        SpectralField.from_coeffs(grid, coeffs)


def test_constant_field_coeffs(grid):
    u = SpectralField.from_values(grid, np.ones(64))
    assert u.coeffs[0] == pytest.approx(1.0)
    assert np.max(np.abs(u.coeffs[1:])) < 1e-15
    assert u.support().sorted_points() == [(0,)]


def test_pure_mode_single_coefficient(grid):
    u = SpectralField.from_values(grid, np.exp(3j * grid.axis_points()))
    sup = u.support()
    assert sup.sorted_points() == [(3,)]
    assert u.coeffs[3] == pytest.approx(1.0)


def test_round_trip(grid):
    rng = np.random.default_rng(0)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    u = SpectralField.from_values(grid, vals)
    back = transform(transform(u, "forward"), "inverse")
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_round_trip_2d():
    grid = TorusGrid(2, 16)
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    u = SpectralField.from_values(grid, vals)
    back = transform(transform(u, "forward"), "inverse")
    assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))


def test_band_project_examples(grid):
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0
    u = SpectralField.from_coeffs(grid, coeffs)
    kept = band_project(u, 2, 4)
    assert np.max(np.abs(kept.values - u.values)) < 1e-12
    zeroed = band_project(u, 5, 8)
    assert zeroed.norm_inf() == 0.0
    rng = np.random.default_rng(2)
    w = SpectralField.from_values(grid, rng.standard_normal(64)
                                  + 1j * rng.standard_normal(64))
    full = band_project(w, 0, grid.nyquist)
    assert np.array_equal(full.coeffs, w.coeffs)


def test_band_project_idempotent_exact_projection(grid):
    rng = np.random.default_rng(3)
    u = SpectralField.from_values(grid, rng.standard_normal(64))
    once = band_project(u, 3, 9)
    twice = band_project(once, 3, 9)
    assert np.array_equal(once.coeffs, twice.coeffs)
    # retained coefficients are copies, removed ones exact zeros
    norms = grid.freq_norms()
    inside = (norms >= 3) & (norms <= 9)
    assert np.array_equal(once.coeffs[inside], u.coeffs[inside])
    assert np.all(once.coeffs[~inside] == 0)


def test_band_project_range_error(grid):
    u = SpectralField.zero(grid)
    with pytest.raises(AnnulusOutOfRange):
        band_project(u, 0, grid.nyquist + 1)


def test_sumset_examples(grid):
    A = FreqSet.from_points(grid, [(1,)])
    B = FreqSet.from_points(grid, [(2,)])
    assert sumset(A, B).sorted_points() == [(3,)]
    zero = FreqSet.from_points(grid, [(0,)])
    C = FreqSet.from_points(grid, [(-4,), (7,)])
    assert sumset(zero, C).points == C.points
    big_a = FreqSet.from_points(grid, [(k,) for k in range(-4, 5)])
    big_b = FreqSet.from_points(grid, [(k,) for k in range(28, 32)])
    with pytest.raises(AliasingRisk):
        sumset(big_a, big_b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-7, 7), min_size=1, max_size=6),
       st.lists(st.integers(-7, 7), min_size=1, max_size=6))
def test_sumset_commutative_and_bounded(xs, ys):
    grid = TorusGrid(1, 64)
    A = FreqSet.from_points(grid, [(x,) for x in xs])
    B = FreqSet.from_points(grid, [(y,) for y in ys])
    ab = sumset(A, B)
    ba = sumset(B, A)
    assert ab.points == ba.points
    assert ab.max_abs() <= A.max_abs() + B.max_abs()


def test_field_json_round_trip(grid):
    rng = np.random.default_rng(4)
    u = SpectralField.from_values(grid, rng.standard_normal(64)
                                  + 1j * rng.standard_normal(64))
    doc = json.loads(u.to_json())
    assert doc["n"] == 1 and doc["N"] == 64 and len(doc["values"]) == 128
    v = SpectralField.from_json(u.to_json())
    assert np.max(np.abs(v.values - u.values)) < 1e-12


def test_freqset_json_sorted(grid):
    s = FreqSet.from_points(grid, [(3,), (-1,), (0,)])
    assert json.loads(s.to_json()) == [[-1], [0], [3]]


def test_annulus_set_2d():
    grid = TorusGrid(2, 16)
    ring = annulus_set(grid, 1.0, 2.0)
    for pt in ring:
        assert 1.0 <= np.hypot(*pt) <= 2.0
    assert (1, 1) in ring.points and (2, 0) in ring.points
