"""Two-dimensional smoke coverage of the generic-axes code paths."""

import numpy as np
import pytest

from paradiff_lab import (DiscreteSymbol, MaxParams, NormSpec, SpectralField,
                          TorusGrid, apply, check_factorization, ching_symbol,
                          make_modulation, make_partition, modulated_apply,
                          para_split, space_norm, spectral_support_bound,
                          support_inclusions)
from paradiff_lab.corpus import (random_band_limited_field,
                                 random_sparse_symbol, rng_for, standard_ching)


@pytest.fixture
def grid():
    return TorusGrid(2, 32)


@pytest.fixture
def part(grid):
    return make_partition(make_modulation(1.0, 2.0), grid)


def test_para_split_reconstruction_2d(grid, part):
    psi = part.psi
    rng = rng_for(61, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=4, eta_band=5,
                             entries=12)
    u = random_band_limited_field(grid, rng, 6.0, modes=8)
    m = part.J_max
    sp = para_split(a, u, part, m)
    ref = modulated_apply(a, u, psi, m)
    assert np.max(np.abs(sp.total().values - ref.values)) <= 1e-10
    assert not support_inclusions(sp).violations


def test_support_rule_2d(grid):
    rng = rng_for(61, 1)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=4, eta_band=4,
                             entries=10)
    u = random_band_limited_field(grid, rng, 4.0, modes=6)
    bound = spectral_support_bound(a, u)
    assert not (apply(a, u).support() & ~bound).any()


def test_single_mode_norm_2d(grid, part):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.index_of((4, 0))] = 1.0   # |eta| = 2^2 on one plateau
    u = SpectralField.from_coeffs(grid, coeffs)
    for scale in ("B", "F"):
        val = space_norm(u, NormSpec(scale, 0.6, 2.0, 2.0), part)
        assert val == pytest.approx(2.0 ** (0.6 * 2), rel=1e-12)


def test_ching_2d_disjoint_and_applied(grid):
    a = standard_ching(grid, 0.0, 2)
    assert np.max(grid.freq_norms()[a.xi_support()]) == pytest.approx(4.0)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.index_of((4, 0))] = 1.0
    u = SpectralField.from_coeffs(grid, coeffs)
    v = apply(a, u)
    # band j = 2 shifts the mode (4, 0) down to the origin
    assert v.support()[0, 0]


def test_factorization_2d(grid):
    rng = rng_for(61, 2)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=4, eta_band=4,
                             entries=10)
    u = random_band_limited_field(grid, rng, 4.0, modes=6)
    res = check_factorization(a, u, MaxParams(N=2.0, R=4.0))
    assert res["holds"]
