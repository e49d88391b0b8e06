import numpy as np
import pytest

from paradiff_lab import (BadRadii, DiscreteSymbol, GridMismatch,
                          GridTooCoarse, LevelOutOfRange, NormSpec,
                          SpectralField, TorusGrid, cumulative_block,
                          dyadic_block, make_modulation, make_partition,
                          minimal_gap, space_norm, symbol_band)
from paradiff_lab.lp import block_corona


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def part(grid):
    return make_partition(make_modulation(1.0, 2.0), grid)


def test_modulation_plateau_and_support():
    psi = make_modulation(1.0, 2.0)
    assert psi.scalar(0.5) == 1.0
    assert psi.scalar(1.0) == 1.0
    assert psi.scalar(3.0) == 0.0
    mid = psi.scalar(1.5)
    assert 0.0 < mid < 1.0
    psi23 = make_modulation(2.0, 3.0)
    assert psi23.scalar(2.0) == 1.0
    assert 0.0 < psi23.scalar(2.5) < 1.0


def test_modulation_monotone_and_bounded():
    psi = make_modulation(1.0, 2.0)
    s = np.linspace(0, 4, 401)
    vals = psi(s)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.all(np.diff(vals) <= 1e-12)


def test_bad_radii():
    with pytest.raises(BadRadii):
        make_modulation(2.0, 2.0)
    with pytest.raises(BadRadii):
        make_modulation(-1.0, 2.0)


def test_minimal_gap():
    # 2R < r 2^h with r=1, R=2 forces h=3 (4 < 8)
    assert minimal_gap(make_modulation(1.0, 2.0)) == 3
    assert minimal_gap(make_modulation(1.0, 1.5)) == 2


def test_partition_parameters(grid, part):
    assert part.h == 3
    assert part.J_max == 4  # 2 * 2^4 = 32 = nyquist
    assert part.params() == {"r": 1.0, "R": 2.0, "h": 3, "J_max": 4}


def test_partition_grid_too_coarse():
    grid = TorusGrid(1, 16)
    with pytest.raises(GridTooCoarse):
        make_partition(make_modulation(4.0, 9.0), grid)


def test_partition_h_override(grid):
    psi = make_modulation(1.0, 2.0)
    assert make_partition(psi, grid, h=5).h == 5
    with pytest.raises(ValueError):
        make_partition(psi, grid, h=2)


def test_telescoping_identity_on_lattice(grid, part):
    norms = grid.freq_norms()
    for m in range(part.J_max + 1):
        acc = part.psi(norms)
        for j in range(1, m + 1):
            acc = acc + part.phi(norms / 2**j)
        assert np.max(np.abs(acc - part.psi(norms / 2**m))) <= 1e-12


def test_phi_corona_support(grid, part):
    # phi(2^-j eta) != 0  =>  r 2^(j-1) <= |eta| <= R 2^j; check at j=3
    norms = grid.freq_norms()
    w = part.phi(norms / 8)
    nz = norms[w != 0]
    assert np.all(nz >= 4.0) and np.all(nz <= 16.0)
    assert w[grid.index_of((6,))] != 0.0  # 4 <= 6 <= 16


def test_dyadic_block_single_mode(grid, part):
    u = SpectralField.from_values(grid, np.exp(6j * grid.axis_points()))
    u3 = dyadic_block(u, 3, part)
    expected = part.phi(np.array([6.0 / 8.0]))[0]
    assert u3.coeffs[6] == pytest.approx(expected)
    assert np.max(np.abs(np.delete(u3.coeffs, 6))) < 1e-15


def test_block_sum_reconstructs_band_limited(grid, part):
    rng = np.random.default_rng(5)
    coeffs = np.zeros(64, dtype=complex)
    # band-limit below r * 2^J_max = 16 so the block sum is exact
    for k in list(range(-15, 16)):
        coeffs[k] = rng.standard_normal() + 1j * rng.standard_normal()
    u = SpectralField.from_coeffs(grid, coeffs)
    total = SpectralField.zero(grid)
    for k in range(part.J_max + 1):
        total = total + dyadic_block(u, k, part)
    assert np.max(np.abs(total.values - u.values)) <= 1e-10


def test_constant_field_blocks(grid, part):
    u = SpectralField.from_values(grid, np.full(64, 2.0 + 0.0j))
    u0 = dyadic_block(u, 0, part)
    assert np.max(np.abs(u0.values - u.values)) < 1e-12
    for k in range(1, part.J_max + 1):
        assert dyadic_block(u, k, part).norm_inf() == 0.0


def test_negative_level_conventions(grid, part):
    rng = np.random.default_rng(6)
    u = SpectralField.from_values(grid, rng.standard_normal(64))
    assert dyadic_block(u, -1, part).norm_inf() == 0.0
    assert cumulative_block(u, -1, part).norm_inf() == 0.0
    with pytest.raises(LevelOutOfRange):
        dyadic_block(u, part.J_max + 1, part)


def test_cumulative_block_telescopes(grid, part):
    rng = np.random.default_rng(7)
    u = SpectralField.from_values(grid, rng.standard_normal(64)
                                  + 1j * rng.standard_normal(64))
    for k in range(part.J_max + 1):
        lhs = cumulative_block(u, k, part) - cumulative_block(u, k - 1, part)
        rhs = dyadic_block(u, k, part)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12


def test_cumulative_block_band_limited_identity(grid, part):
    coeffs = np.zeros(64, dtype=complex)
    coeffs[[1, 3, -9, 14]] = 1.0  # inside r 2^J_max = 16
    u = SpectralField.from_coeffs(grid, coeffs)
    top = cumulative_block(u, part.J_max, part)
    assert np.max(np.abs(top.values - u.values)) < 1e-12


def test_block_support_inside_corona(grid, part):
    rng = np.random.default_rng(8)
    u = SpectralField.from_values(grid, rng.standard_normal(64)
                                  + 1j * rng.standard_normal(64))
    for k in range(1, part.J_max + 1):
        inner, outer = block_corona(part, k)
        for pt in dyadic_block(u, k, part).support():
            assert inner <= abs(pt[0]) <= outer


def test_two_partitions_agree_on_band_limited(grid):
    p1 = make_partition(make_modulation(1.0, 2.0), grid)
    p2 = make_partition(make_modulation(1.5, 2.8), grid)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[[2, -5, 11]] = [1.0, 0.5j, -0.25]
    u = SpectralField.from_coeffs(grid, coeffs)
    # past the stabilization level both block sums equal u exactly
    sums = []
    for part in (p1, p2):
        total = SpectralField.zero(grid)
        for k in range(part.J_max + 1):
            total = total + dyadic_block(u, k, part)
        sums.append(total)
    assert np.max(np.abs(sums[0].values - sums[1].values)) <= 1e-10


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_level_weights_stored_once_and_read_only(n, N):
    grid = TorusGrid(n, N)
    psi = make_modulation(1.0, 2.0)
    part = make_partition(psi, grid)
    norms = grid.freq_norms()
    for k in range(part.J_max + 1):
        level = psi(norms) if k == 0 else \
            psi(norms / 2**k) - psi(2.0 * (norms / 2**k))
        assert np.array_equal(part.level_weights(k), level)
        assert np.array_equal(part.cumulative_weights(k), psi(norms / 2**k))
        assert part.level_weights(k) is part.level_weights(k)
        for w in (part.level_weights(k), part.cumulative_weights(k)):
            with pytest.raises(ValueError):
                w[(0,) * n] = 2.0
    for k in (-1, part.J_max + 1):
        with pytest.raises(LevelOutOfRange):
            part.level_weights(k)
        with pytest.raises(LevelOutOfRange):
            part.cumulative_weights(k)


@pytest.mark.parametrize("field_grid,part_grid", [((2, 32), (1, 32)),
                                                  ((1, 32), (2, 32)),
                                                  ((1, 64), (1, 32))])
def test_grid_mismatch_raises(field_grid, part_grid):
    # a 2-D field against a 1-D partition used to be weighted along its
    # last axis only, and a 1-D N=64 identity symbol against an N=32
    # partition read the weight at its one xi = 0 without complaint
    grid = TorusGrid(*field_grid)
    part = make_partition(make_modulation(1.0, 2.0), TorusGrid(*part_grid))
    u = SpectralField.from_values(
        grid, np.random.default_rng(8).standard_normal(grid.shape))
    a = DiscreteSymbol.identity(grid)
    calls = [lambda: dyadic_block(u, 1, part),
             lambda: cumulative_block(u, 1, part),
             lambda: symbol_band(a, 1, part),
             lambda: symbol_band(a, 1, part, cumulative=True)]
    calls += [lambda scale=scale: space_norm(u, NormSpec(scale, 1.0, 2.0, 2.0),
                                             part) for scale in ("B", "F")]
    for call in calls:
        with pytest.raises(GridMismatch):
            call()
