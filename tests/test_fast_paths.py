"""Fast paths against the per-level and per-row code they replace.

The shared Littlewood-Paley ladder must reproduce ``symbol_band`` /
``dyadic_block`` / ``cumulative_block`` level by level, and the batched
Marschall row norms must reproduce a per-row ``homog_besov_norm`` loop."""

import numpy as np
import pytest

from paradiff_lab import (DiscreteSymbol, LevelOutOfRange, SpectralField,
                          TorusGrid, apply, cumulative_block, dyadic_block,
                          hl_max, homog_besov_norm, make_modulation,
                          make_partition, marschall_check, para_split,
                          symbol_band, symbol_ladder)
from paradiff_lab.corpus import (random_band_limited_field,
                                 random_sparse_symbol, rng_for)
from paradiff_lab.spaces import lp_norm

GRIDS = [(1, 64), (2, 16)]


def setup(n, N):
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = random_sparse_symbol(grid, rng_for(71, n), d=0.0,
                             x_band=grid.nyquist, eta_band=grid.nyquist / 2)
    u = random_band_limited_field(grid, rng_for(72, n), grid.nyquist / 2)
    return grid, part, a, u


# -- one ladder per split ---------------------------------------------------


@pytest.mark.parametrize("n,N", GRIDS)
def test_ladder_matches_symbol_band(n, N):
    grid, part, a, _ = setup(n, N)
    bands, cumulative = symbol_ladder(a, part.J_max, part)
    assert len(bands) == len(cumulative) == part.J_max + 1
    scale = float(np.max(np.abs(a.values)))
    for k in range(part.J_max + 1):
        for got, cum in ((bands[k], False), (cumulative[k], True)):
            ref = symbol_band(a, k, part, cumulative=cum)
            assert got.d == ref.d and got.class_tag == ref.class_tag
            assert np.max(np.abs(got.values - ref.values)) <= 1e-12 * scale


def test_ladder_level_guard():
    grid, part, a, _ = setup(1, 64)
    with pytest.raises(LevelOutOfRange):
        symbol_ladder(a, part.J_max + 1, part)


@pytest.mark.parametrize("n,N", GRIDS)
def test_split_ladder_matches_per_level_blocks(n, N):
    grid, part, a, u = setup(n, N)
    lad = para_split(a, u, part, part.J_max).ladder
    for k in range(part.J_max + 1):
        assert np.array_equal(lad.blocks[k].coeffs,
                              dyadic_block(u, k, part).coeffs)
        assert np.array_equal(lad.cumulative_blocks[k].coeffs,
                              cumulative_block(u, k, part).coeffs)
        assert np.array_equal(lad.cumulative_block(k).coeffs,
                              cumulative_block(u, k, part).coeffs)
    assert lad.cumulative_block(-1).norm_inf() == 0.0
    assert lad.built_from(a, u)


# -- batched Marschall row norms ----------------------------------------------


def homog_besov_reference(b, s, p, q):
    """Shell-by-shell homogeneous norm of one field (the unbatched code)."""
    profile = make_modulation(1.0, 2.0)
    grid = b.grid
    norms = grid.freq_norms()
    j_min = int(np.ceil(-np.log2(profile.R)))
    j_max = int(np.ceil(np.log2(grid.max_freq_norm() / profile.r))) + 1
    terms = []
    for j in range(j_min, j_max + 1):
        w = profile(norms / 2.0**j) - profile(norms * 2.0 / 2.0**j)
        if (w != 0).any():
            block = SpectralField.from_coeffs(grid, b.coeffs * w)
            terms.append(2.0 ** (j * s) * lp_norm(block.values, p))
    terms = np.array(terms)
    return float(np.max(terms) if np.isinf(q) else np.sum(terms**q) ** (1 / q))


def marschall_loop(b, u, k, t):
    """max_x of the Marschall ratio, one homog_besov_norm call per row."""
    grid = b.grid
    n = grid.n
    s_h = n / t
    lhs = np.abs(apply(b, u).values)
    Mt = hl_max(u, t)
    scale = 2.0 ** (k * (s_h - n))
    ratios = np.zeros(grid.shape)
    for ix in np.ndindex(*grid.shape):
        row = SpectralField.from_values(grid, b.values[ix])
        den = scale * homog_besov_norm(row, s_h, 1.0, t) * Mt[ix]
        if den > 0:
            ratios[ix] = lhs[ix] / den
        else:
            ratios[ix] = 0.0 if lhs[ix] == 0 else np.inf
    return float(np.max(ratios))


def marschall_symbol(grid, zero_row, constant_row):
    vals = random_sparse_symbol(grid, rng_for(73, grid.n), d=0.0,
                                x_band=grid.nyquist / 4,
                                eta_band=grid.nyquist / 2,
                                eta_min=1.0).values.copy()
    vals[zero_row] = 0.0
    if constant_row is not None:
        vals[constant_row] = 1.0
    return DiscreteSymbol(grid, 0.0, vals)


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("t", [1.0, 0.5])
def test_batched_marschall_matches_row_loop(n, N, t):
    grid = TorusGrid(n, N)
    k = int(np.ceil(np.log2(grid.max_freq_norm())))
    u = random_band_limited_field(grid, rng_for(74, n), grid.nyquist / 2)
    # an all-zero row takes the 0/0 -> 0 branch
    b = marschall_symbol(grid, (0,) * n, None)
    got = marschall_check(b, u, k, t)["max_ratio"]
    ref = marschall_loop(b, u, k, t)
    assert np.isfinite(ref) and ref > 0
    assert got == pytest.approx(ref, rel=1e-12)
    # a constant row has zero homogeneous norm but acts: the x/0 -> inf branch
    b = marschall_symbol(grid, (0,) * n, (1,) * n)
    assert marschall_loop(b, u, k, t) == np.inf
    assert marschall_check(b, u, k, t)["max_ratio"] == np.inf


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("s,p,q", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5),
                                   (0.5, 2.0, np.inf)])
def test_homog_besov_norm_matches_shell_loop(n, N, s, p, q):
    grid = TorusGrid(n, N)
    b = random_band_limited_field(grid, rng_for(75, n), grid.nyquist)
    assert homog_besov_norm(b, s, p, q) == pytest.approx(
        homog_besov_reference(b, s, p, q), rel=1e-12)
