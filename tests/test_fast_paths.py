"""Fast paths against the per-level, per-row and dense code they replace.

The shared Littlewood-Paley ladder must reproduce ``symbol_band`` /
``dyadic_block`` / ``cumulative_block`` level by level, the batched
Marschall row norms must reproduce a per-row ``homog_besov_norm`` loop,
``apply`` must reproduce the dense sum over the whole lattice, and
``modulated_apply`` must reproduce ``apply`` of ``modulated_symbol``."""

import numpy as np
import pytest

from paradiff_lab import (DiscreteSymbol, GridMismatch, LevelOutOfRange,
                          SpectralField, TorusGrid, apply, cumulative_block,
                          dyadic_block, hl_max, homog_besov_norm,
                          make_modulation, make_partition, marschall_check,
                          modulated_apply, para_split, saturation_level,
                          symbol_band, symbol_ladder)
from paradiff_lab.corpus import (random_band_limited_field,
                                 random_sparse_symbol, rng_for)
from paradiff_lab.operators import modulated_symbol
from paradiff_lab.spaces import lp_norm

GRIDS = [(1, 64), (2, 16)]


def setup(n, N):
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = random_sparse_symbol(grid, rng_for(71, n), d=0.0,
                             x_band=grid.nyquist, eta_band=grid.nyquist / 2)
    u = random_band_limited_field(grid, rng_for(72, n), grid.nyquist / 2)
    return grid, part, a, u


# -- one application path over the input's modes ------------------------------


def dense_symbol(grid):
    """A symbol with every entry nonzero, so no column can be skipped."""
    rng = rng_for(76, grid.n)
    shape = grid.shape + grid.shape
    return DiscreteSymbol(grid, 0.0, rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))


def apply_inputs(grid):
    rng = rng_for(77, grid.n)
    dense = rng.standard_normal(grid.shape) \
        + 1j * rng.standard_normal(grid.shape)
    one = np.zeros(grid.shape, dtype=complex)
    one[grid.index_of((3,) * grid.n)] = 2.0 - 1.0j
    fields = {"sparse": random_band_limited_field(grid, rng, grid.nyquist / 2),
              "dense": SpectralField.from_coeffs(grid, dense),
              "one_mode": SpectralField.from_coeffs(grid, one),
              "zero": SpectralField.zero(grid)}
    size = grid.N**grid.n
    assert 1 < np.count_nonzero(fields["sparse"].coeffs) < size
    assert np.count_nonzero(fields["dense"].coeffs) == size
    return fields


def dense_apply(a, u):
    """sum_eta a(x, eta) c_eta e^{i x.eta} over the whole lattice."""
    grid = a.grid
    n, N = grid.n, grid.N
    x, k = grid.axis_points(), grid.axis_freqs().astype(float)
    phase = 0.0
    for ax in range(n):
        x_shape, k_shape = [1] * (2 * n), [1] * (2 * n)
        x_shape[ax] = k_shape[n + ax] = N
        phase = phase + x.reshape(x_shape) * k.reshape(k_shape)
    return np.sum(a.values * u.coeffs * np.exp(1j * phase),
                  axis=tuple(range(n, 2 * n)))


def assert_close(got, want):
    """Within 1e-12 of the reference's peak; exactly zero for a zero one."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,N", GRIDS)
def test_apply_matches_dense_sum(n, N):
    grid = TorusGrid(n, N)
    a = dense_symbol(grid)
    for u in apply_inputs(grid).values():
        got = apply(a, u)
        assert got.grid == grid
        assert_close(got.values, dense_apply(a, u))


@pytest.mark.parametrize("n,N", GRIDS)
def test_modulated_apply_matches_modulated_symbol(n, N):
    grid = TorusGrid(n, N)
    a = dense_symbol(grid)
    psi = make_modulation(1.0, 2.0)
    for u in apply_inputs(grid).values():
        for m in range(saturation_level(psi, grid) + 1):
            assert_close(modulated_apply(a, u, psi, m).values,
                         apply(modulated_symbol(a, psi, m), u).values)
    other = SpectralField.zero(TorusGrid(n, 2 * N))
    with pytest.raises(GridMismatch):
        modulated_apply(a, other, psi, 0)


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
