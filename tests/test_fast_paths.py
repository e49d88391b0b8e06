"""Fast paths against the per-level, per-row and dense code they replace.

The (weights, input, term) series of ``para_split`` must reproduce
``symbol_band`` / ``dyadic_block`` / ``cumulative_block`` level by level,
its row-weighted terms ``apply`` of the level symbols they stand for,
and its splits of a list of inputs each input's own split,
``space_norm`` and the mixed norms of ``fefferman_stein_check`` and
``corona_sum_check`` must reproduce their one-field-per-level list forms,
the batched Marschall row norms must reproduce a per-row
``homog_besov_norm`` loop,
``apply`` must reproduce the dense sum over the whole lattice, and over
a list of fields each field's own ``apply``, as ``space_norm`` over a list
must each field's own norm,
``modulated_apply`` must reproduce ``apply`` of ``modulated_symbol``,
``modulation_limit``, a block of levels per scatter and inverse FFT, must
reproduce one scatter and one field per (cutoff, level) bit for bit,
every operation on a xi-sparse symbol must reproduce the same operation on
its twin built from the dense array, the eta-side checks on the stored rows
must reproduce their dense formulas on ``a.values``,
``random_sparse_symbol`` must reproduce its dense fill, the row adjoint
must reproduce the conjugate transpose of the dense Fourier-basis matrix,
the translate sweeps of ``peetre_max`` and ``hl_max`` must reproduce
the index gather and the FFT ball-mask convolutions (the Peetre sweep
exactly, though it stops once no offset can win), the modulus view of
a symbol must reproduce the modulus of its dense columns, and both must
reproduce a direct sum over the symbol's rows."""

import tracemalloc

import numpy as np
import pytest

from paradiff_lab import (CoronaSpec, DiscreteSymbol, GridMismatch,
                          LocalizationCutoff, MaxParams, NormSpec,
                          RingWindow, SpectralField, TooLarge, TorusGrid,
                          apply, compose_multiplier, corona_sum_check,
                          cumulative_block, dyadic_block, estimate_seminorm,
                          fefferman_stein_check, hl_max, homog_besov_norm,
                          localize, make_modulation, make_partition,
                          marschall_check, mihlin_bound, modulated_apply,
                          modulation_limit, para_split, peetre_max,
                          saturation_level, space_norm,
                          spectral_support_bound, symbol_band,
                          symbol_factor, symbols, tdc_seminorm)
from paradiff_lab.corpus import (lacunary_stack, random_band_limited_field,
                                 random_sparse_symbol, rng_for,
                                 standard_ching)
from paradiff_lab.lp import STANDARD_CUTOFF, ModulationFunction
from paradiff_lab.operators import adjoint_symbol, modulated_symbol
from paradiff_lab import operators, pointwise, spaces
from paradiff_lab.pointwise import _mihlin_rhs, torus_offsets
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
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DiscreteSymbol.from_function(grid, lambda xs, ks: vals, 0.0)


def sparse_symbols(grid):
    """The xi-sparse builders: ching, multiplier, identity, zero, random."""
    J = max(j for j in range(8) if 5 * 2 ** (j - 2) < grid.nyquist)
    return {"ching": standard_ching(grid, 0.0, J),
            "multiplier": DiscreteSymbol.multiplier(
                grid, lambda *k: (1.0 + sum(x**2 for x in k)) ** 0.5, d=1.0),
            "identity": DiscreteSymbol.identity(grid),
            "zero": DiscreteSymbol.zero(grid),
            "random": random_sparse_symbol(grid, rng_for(78, grid.n))}


def all_symbols(grid):
    return {"dense": dense_symbol(grid), **sparse_symbols(grid)}


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


def assert_close(got, want, scale=0.0):
    """Within 1e-12 of the reference's peak (or of ``scale``, if larger);
    exactly zero for a zero one."""
    peak = max(float(np.max(np.abs(want), initial=0.0)), scale)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * peak


@pytest.mark.parametrize("n,N", GRIDS)
def test_apply_matches_dense_sum(n, N):
    grid = TorusGrid(n, N)
    for a in all_symbols(grid).values():
        for u in apply_inputs(grid).values():
            got = apply(a, u)
            assert got.grid == grid
            assert_close(got.values, dense_apply(a, u))


def input_lists(grid):
    """Input lists for the many-input apply: one field, two with disjoint
    modes, two with shared modes, a zero field among others, and none."""
    inputs = apply_inputs(grid)
    other = random_band_limited_field(grid, rng_for(79, grid.n),
                                      grid.nyquist / 2)
    top = np.zeros(grid.shape, dtype=complex)
    top[grid.index_of((-grid.nyquist,) * grid.n)] = 0.5j
    top = SpectralField.from_coeffs(grid, top)
    shared = inputs["sparse"].support() & other.support()
    assert shared.any() and not (top.support() & shared).any()
    return {"one": [inputs["sparse"]],
            "disjoint": [inputs["one_mode"], top],
            "shared": [inputs["sparse"], other],
            "with_zero": [inputs["zero"], other, inputs["dense"], top],
            "none": []}


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("per_block", [None, 2], ids=["one_block", "pairs"])
def test_apply_many_matches_one_at_a_time(n, N, per_block, monkeypatch):
    """apply over a list of fields, one scatter over the union of their
    modes per block of fields, gives each field's own apply bit for bit."""
    grid = TorusGrid(n, N)
    if per_block is not None:
        monkeypatch.setattr(operators, "BLOCK_ENTRIES", per_block * N**n)
    for a in all_symbols(grid).values():           # "zero" has K = 0 rows
        for fields in input_lists(grid).values():
            got = apply(a, fields)
            assert isinstance(got, list) and len(got) == len(fields)
            for v, u in zip(got, fields):
                assert v.grid == grid
                assert np.array_equal(v.coeffs, apply(a, u).coeffs)
    with pytest.raises(GridMismatch):
        apply(DiscreteSymbol.identity(grid), [
            SpectralField.zero(grid), SpectralField.zero(TorusGrid(n, 2 * N))])


@pytest.mark.parametrize("n,N", GRIDS)
def test_modulated_apply_matches_modulated_symbol(n, N):
    grid = TorusGrid(n, N)
    psi = make_modulation(1.0, 2.0)
    for a in all_symbols(grid).values():
        for u in apply_inputs(grid).values():
            for m in range(saturation_level(psi, grid) + 1):
                assert_close(modulated_apply(a, u, psi, m).values,
                             apply(modulated_symbol(a, psi, m), u).values)
    other = SpectralField.zero(TorusGrid(n, 2 * N))
    with pytest.raises(GridMismatch):
        modulated_apply(dense_symbol(grid), other, psi, 0)


# -- the modulation sweep, a block of levels at a time ------------------------


def level_apply(a, u, psi, m):
    """The level-m modulated operator as a scatter and a field of its own:
    ``apply`` from saturation on, else the rows weighted by psi(2^-m xi_k)
    and the input by psi(2^-m eta), added in (k, j) order."""
    grid = u.grid
    if m >= saturation_level(psi, grid):
        return apply(a, u)
    w = psi(grid.freq_norms() / 2**m)
    c = w * u.coeffs
    idx = np.nonzero(c)
    cols = a.rows[(slice(None),) + idx] * w[a.xi_index()][:, None]
    target = tuple((a.xi[:, ax, None] + i) % grid.N
                   for ax, i in enumerate(idx))
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    np.add.at(coeffs, target, cols * c[idx])
    return SpectralField.from_coeffs(grid, coeffs)


def per_level_limit(a, u, psis, tol=1e-10):
    """modulation_limit as one level_apply per (cutoff, level)."""
    profiles, finals, stabilizations = [], [], []
    for psi in psis:
        fields = [level_apply(a, u, psi, m)
                  for m in range(saturation_level(psi, u.grid) + 1)]
        diffs = [float(np.max(np.abs(g.values - f.values)))
                 for f, g in zip(fields, fields[1:])]
        profiles.append(diffs)
        finals.append(fields[-1])
        stabilizations.append(min(m for m in range(len(diffs) + 1)
                                  if all(d <= tol for d in diffs[m:])))
    disc = max(float(np.max(np.abs(f.values - g.values)))
               for i, f in enumerate(finals) for g in finals[i + 1:])
    return dict(cauchy_profile=profiles, stabilization_m=max(stabilizations),
                psi_discrepancy=disc, converged=disc <= tol, value=finals[0])


def limit_cases(grid):
    """Ching, identity and random symbols against a band-limited input and
    a lacunary stack, as ``modulation_study`` builds them."""
    J = int(np.floor(np.log2(grid.nyquist / 1.25))) - 1
    symbols_ = {"ching": standard_ching(grid, 0.0, J, one_sided=True),
                "identity": DiscreteSymbol.identity(grid),
                "random": random_sparse_symbol(
                    grid, rng_for(79, grid.n), x_band=grid.nyquist / 8,
                    eta_band=grid.nyquist / 4)}
    inputs = {"band_limited": random_band_limited_field(
                  grid, rng_for(80, grid.n), 10.0),
              "lacunary": lacunary_stack(grid, np.ones(J + 1))}
    return [(sn, a, un, u) for sn, a in symbols_.items()
            for un, u in inputs.items()]


LIMIT_PSIS = [make_modulation(1.0, 2.0), make_modulation(1.5, 2.5),
              make_modulation(0.75, 1.75)]


@pytest.mark.parametrize("n,N", [(1, 64), (1, 16384), (2, 16), (2, 32)])
def test_modulation_limit_matches_per_level_loop(n, N):
    grid = TorusGrid(n, N)
    if N == 16384:      # the levels span several blocks
        assert symbols.BLOCK_ENTRIES // N**n < saturation_level(
            LIMIT_PSIS[2], grid)
    for sn, a, un, u in limit_cases(grid):
        rep = modulation_limit(a, u, LIMIT_PSIS)
        want = per_level_limit(a, u, LIMIT_PSIS)
        for key in ("cauchy_profile", "stabilization_m", "psi_discrepancy",
                    "converged"):
            assert getattr(rep, key) == want[key], (sn, un, key)
        assert np.array_equal(rep.value.coeffs, want["value"].coeffs)
        assert np.array_equal(rep.value.values, want["value"].values)


def test_modulation_limit_of_zero_is_zero():
    grid = TorusGrid(2, 16)
    u = random_band_limited_field(grid, rng_for(80, 2), 10.0)
    ching = standard_ching(grid, 0.0, 1, one_sided=True)
    for a, v in ((ching, SpectralField.zero(grid)),
                 (DiscreteSymbol.zero(grid), u)):
        rep = modulation_limit(a, v, LIMIT_PSIS)
        assert all(d == 0.0 for prof in rep.cauchy_profile for d in prof)
        assert all(len(prof) > 0 for prof in rep.cauchy_profile)
        assert not np.any(rep.value.values)
    with pytest.raises(GridMismatch):
        modulation_limit(ching, SpectralField.zero(TorusGrid(2, 32)),
                         LIMIT_PSIS)


def test_modulation_limit_memory():
    """One block per level at 1-D N = 65536: a few grid arrays at a time."""
    grid = TorusGrid(1, 65536)
    a = standard_ching(grid, 0.0, 13, one_sided=True)
    for v in (random_band_limited_field(grid, rng_for(80, 1), 10.0),
              lacunary_stack(grid, np.ones(14))):
        tracemalloc.start()
        try:
            modulation_limit(a, v, LIMIT_PSIS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def dense_twin(a):
    return DiscreteSymbol.from_function(a.grid, lambda xs, ks: a.values, a.d)


def x_inverse(grid, pft):
    """a(x, eta) from a partial transform over the whole lattice."""
    return np.fft.ifftn(pft, axes=tuple(range(grid.n))) * grid.N**grid.n


def dense_pair_norms(grid):
    """(|xi+eta|, |eta|) over the (xi, eta) product lattice."""
    n = grid.n
    k = grid.axis_freqs().astype(float)
    ax = [k.reshape([grid.N if i == j else 1 for i in range(2 * n)])
          for j in range(2 * n)]
    return (np.sqrt(sum((ax[i] + ax[n + i]) ** 2 for i in range(n))),
            np.sqrt(sum(ax[n + i] ** 2 for i in range(n))))


@pytest.mark.parametrize("n,N", GRIDS)
def test_sparse_symbol_matches_dense_twin(n, N):
    """Each operation on a xi-sparse symbol and on its twin built from its
    dense array, against the dense formula on the twin's arrays."""
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    psi = part.psi
    chi = LocalizationCutoff()
    zeta, eta = dense_pair_norms(grid)
    xi_shape = grid.shape + (1,) * n
    u = random_band_limited_field(grid, rng_for(79, n), grid.nyquist / 4)
    symbols = sparse_symbols(grid)
    other = symbols["random"]
    mult = symbols["multiplier"]
    for s in symbols.values():
        twin = dense_twin(s)
        pft = twin.partial_ft()
        # what vanishes is exactly zero on the sparse side and roundoff on
        # the twin's: compare against the source's peak (and its bound
        # sup|a| sum|c| on outputs)
        peak = float(np.max(np.abs(s.values)))
        out_peak = peak * float(np.sum(np.abs(u.coeffs)))
        assert_close(s.partial_ft(), pft)
        assert np.array_equal(s.xi_support(), twin.xi_support())
        assert np.array_equal(spectral_support_bound(s, u),
                              spectral_support_bound(twin, u))
        assert_close(apply(s, u).values, apply(twin, u).values, out_peak)
        for m in range(saturation_level(psi, grid) + 1):
            assert_close(modulated_apply(s, u, psi, m).values,
                         modulated_apply(twin, u, psi, m).values, out_peak)
        want = [x_inverse(grid, pft * part.level_weights(k).reshape(xi_shape))
                for k in range(part.J_max + 1)]
        want += [x_inverse(grid, pft
                           * part.cumulative_weights(k).reshape(xi_shape))
                 for k in range(part.J_max + 1)]
        for a in (s, twin):
            got = [symbol_band(a, k, part, cumulative=cum)
                   for cum in (False, True) for k in range(part.J_max + 1)]
            for band, ref in zip(got, want):
                assert_close(band.values, ref, peak)
            assert_close(localize(a, chi, 0.25).values,
                         x_inverse(grid, pft * chi(zeta, 0.25 * eta)), peak)
            assert_close((a + other).values, twin.values + other.values,
                         peak)
            assert_close((a - other).values, twin.values - other.values,
                         peak)
            for b in (mult, dense_twin(mult)):
                got = compose_multiplier(a, b)
                assert got.d == s.d + b.d
                assert_close(got.values,
                             twin.values * mult.values[(0,) * n], peak)


# -- one ladder per split ---------------------------------------------------


@pytest.mark.parametrize("n,N", GRIDS)
def test_split_ladder_matches_per_level_blocks(n, N):
    """Every (weights, input, term) triple of the split is built from the
    per-level symbol bands and input blocks: its level symbol, read through
    the split, is the band, and its term that band applied to the input."""
    grid, part, a, u = setup(n, N)
    h = part.h
    split = para_split(a, u, part, part.J_max)

    def band(k, cum=False):
        return symbol_band(a, k, part, cumulative=cum)

    def u_cum(k):
        return cumulative_block(u, k, part)

    for k in range(part.J_max + 1):
        uk = dyadic_block(u, k, part)
        near = band(k, True) - band(k - h, True) if k >= h else band(k, True)
        want = {"low_high": (band(k - h, True) if k >= h else None, uk),
                "diagonal_a": (near, uk),
                "diagonal_b": (band(k), u_cum(k - 1) - u_cum(k - h)),
                "high_low": (band(k) if k >= h else None, u_cum(k - h))}
        for name, (sym, w) in want.items():
            weights, got_w, term = split.series[name][k]
            got_sym = split.level_symbol(weights)
            assert np.array_equal(got_w.coeffs, w.coeffs)
            if sym is None:
                assert got_sym is None and term.norm_inf() == 0.0
                continue
            assert np.array_equal(got_sym.xi, sym.xi)
            assert np.array_equal(got_sym.rows, sym.rows)
            assert np.array_equal(term.coeffs, apply(sym, w).coeffs)
    assert split.u is u


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("family", ["ching", "random", "multiplier"])
def test_split_of_many_matches_one_at_a_time(n, N, family):
    """A split over a list of inputs equals each input's own split term by
    term and shares its symbol and row weights across the inputs; the
    near-diagonal rows match the difference a^k - a^{k-h} of two
    cumulative bands."""
    grid, part, _, u1 = setup(n, N)
    a = sparse_symbols(grid)[family]
    u2 = random_band_limited_field(grid, rng_for(79, n), grid.nyquist)
    m, h = part.J_max, part.h
    many = para_split(a, [u1, u2], part, m)
    assert [s.u for s in many] == [u1, u2]
    for got, want in zip(many, (para_split(a, u, part, m) for u in (u1, u2))):
        assert list(got.series) == list(want.series)
        for name, triples in got.series.items():
            for k, (weights, w, term) in enumerate(triples):
                w_weights, w_in, w_term = want.series[name][k]
                sym = got.level_symbol(weights)
                w_sym = want.level_symbol(w_weights)
                assert np.array_equal(w.coeffs, w_in.coeffs)
                assert np.array_equal(term.coeffs, w_term.coeffs)
                assert (sym is None) == (w_sym is None)
                if sym is not None:
                    assert np.array_equal(sym.xi, w_sym.xi)
                    assert np.array_equal(sym.rows, w_sym.rows)
    assert many[0].a is many[1].a is a
    for name in many[0].series:
        for (s1, _, _), (s2, _, _) in zip(many[0].series[name],
                                          many[1].series[name]):
            assert s1 is s2
    for k, (weights, _, _) in enumerate(many[0].series["diagonal_a"]):
        near = many[0].level_symbol(weights)
        want = symbol_band(a, k, part, cumulative=True)
        if k >= h:    # the oracle: the old union-of-supports difference
            want = want - symbol_band(a, k - h, part, cumulative=True)
        peak = np.max(np.abs(want.partial_ft()), initial=0.0)
        assert np.max(np.abs(near.partial_ft() - want.partial_ft()),
                      initial=0.0) <= 1e-15 * peak


@pytest.mark.parametrize("n,N", GRIDS)
def test_lattice_tables_built_once_and_read_only(n, N):
    """Each input-independent lattice table is computed once per grid and
    handed out read-only; a radial table is f(|eta| / R) bit for bit, and
    each dyadic shell the difference of two of the standard cutoff's; the
    grids still compare and hash on (n, N), and the ring windows, which
    key their tables, on their parameters."""
    grid = TorusGrid(n, N)
    ring = RingWindow(0.25, 0.5, 1.0, 2.0)
    tables = {"axis_freqs": grid.axis_freqs, "freq_norms": grid.freq_norms,
              "dyadic_shells": lambda: spaces._dyadic_shells(grid),
              "radial": lambda: grid.radial(ring, 4.0)}
    for name, table in tables.items():
        first = table()
        assert table() is first, name
        with pytest.raises(ValueError, match="read-only"):
            first[(0,) * first.ndim] = 1
    for f in (ring, RingWindow(0.25, 0.5, 1.0, 1.5), make_modulation(1, 2)):
        for R in (2.0, 4.0):
            assert np.array_equal(grid.radial(f, R),
                                  f(grid.freq_norms() / R))
    psi = STANDARD_CUTOFF
    for j, shell in enumerate(spaces._dyadic_shells(grid)):
        assert np.array_equal(shell, grid.radial(psi, 2.0**j)
                              - grid.radial(psi, 2.0 ** (j - 1)))
    twin = TorusGrid(n, N)
    assert twin == grid and hash(twin) == hash(grid)
    assert np.array_equal(twin.freq_norms(), grid.freq_norms())
    same = RingWindow(0.25, 0.5, 1.0, 2.0)
    assert same == ring and hash(same) == hash(ring)
    assert RingWindow(0.25, 0.5, 1.0, 4.0) != ring


@pytest.mark.parametrize("n,N", GRIDS)
def test_each_radial_table_evaluated_once(n, N, monkeypatch):
    """The partition's stacks, the homogeneous shells and the windows of
    the symbol factor and its Mihlin majorant at R = 2^k read one radial
    table per (cutoff, R): built twice over, no cutoff is evaluated twice
    on the same radii."""
    grid = TorusGrid(n, N)
    psi, ident = STANDARD_CUTOFF, DiscreteSymbol.identity(grid)
    calls, call = [], ModulationFunction.__call__

    def counted(self, radii):
        calls.append((self, np.asarray(radii).tobytes()))
        return call(self, radii)

    monkeypatch.setattr(ModulationFunction, "__call__", counted)
    for _ in range(2):
        part = make_partition(psi, grid)
        part.level_stack()
        for k in range(part.J_max + 1):
            part.cumulative_weights(k)
        spaces._dyadic_shells(grid)
        for k in range(part.J_max + 1):
            p = MaxParams(1.0, 2.0**k)
            symbol_factor(ident, p, psi)
            _mihlin_rhs(ident, p, psi)
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("n,N", GRIDS)
def test_difference_drops_cancelled_rows(n, N):
    """a - a stores no row, and no near-diagonal symbol a^k - a^{k-h} keeps
    a row that cancelled exactly."""
    grid, part, a, u = setup(n, N)
    assert len((a - a).xi) == 0 and (a - a).rows.shape == (0,) + grid.shape
    split = para_split(a, u, part, part.J_max)
    eta_axes = tuple(range(1, n + 1))
    for weights, _, _ in split.series["diagonal_a"]:
        sym = split.level_symbol(weights)
        assert np.all(np.any(sym.rows != 0, axis=eta_axes))


def test_splits_hold_row_weights_not_level_symbols():
    """Two splits of one symbol hold their inputs and terms, and per level
    term K row weights: no weighted copy of the K x N rows.  At 1-D
    N = 2048 each level symbol would hold 39 rows of 32 KB, about 1.2 MB,
    and the ten levels' a_k, a^k and a^k - a^{k-h} about 11 MB."""
    grid = TorusGrid(1, 2048)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = random_sparse_symbol(grid, rng_for(0, 91))
    us = [random_band_limited_field(grid, rng_for(s, 92), grid.nyquist / 2,
                                    modes=40) for s in (0, 1)]
    para_split(a, us, part, part.J_max)    # the grid's tables, built once
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        splits = para_split(a, us, part, part.J_max)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(a.xi) == 39 and part.J_max == 9 and len(splits) == 2
    assert held < 6 * 2**20


@pytest.mark.parametrize("n,N", GRIDS)
def test_no_stored_row_is_all_zero(n, N):
    """Every construction path stores only rows with a nonzero entry, each
    drops the rows it zeroes, and ``apply`` matches the dense sum."""
    grid, part, _, _ = setup(n, N)
    eta_axes = tuple(range(1, n + 1))
    near, far = (-4,) + (0,) * (n - 1), (1,) + (0,) * (n - 1)
    norms = grid.freq_norms()
    # row 0 on |eta + xi| <= 1 (kept by localize), row 1 on |eta| <= 1
    # (where the cutoff and the multiplier vanish), row 2 zero
    rows = np.zeros((3,) + grid.shape, dtype=complex)
    rows[0] = (np.roll(norms, 4, axis=0) <= 1) * (1.0 + 2.0j)
    rows[1] = (norms <= 1) * (3.0 - 1.0j)
    a = DiscreteSymbol(grid, 0.0, xi=[near, far, (2,) * n], rows=rows)
    x_free = DiscreteSymbol.multiplier(grid, rows[0])
    made = {"rows": (a, 2),
            "from_function": (DiscreteSymbol.from_function(
                grid, lambda xs, ks: x_free.values, 0.0), 1),
            "partial_ft": (DiscreteSymbol.from_partial_ft(
                grid, 0.0, a.partial_ft()), 2),
            "zero_times": (0 * a, 0),
            "localize": (localize(a, LocalizationCutoff(), 0.5), 1),
            "compose_multiplier": (compose_multiplier(
                a, (norms > 1.5).astype(float)), 1),
            "symbol_band": (symbol_band(a, 0, part), 1)}
    for name, (sym, K) in made.items():
        assert len(sym.xi) == K, name
        assert np.all(np.any(sym.rows != 0, axis=eta_axes)), name
        for u in apply_inputs(grid).values():
            assert_close(apply(sym, u).values, dense_apply(sym, u))


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


def lq_reference(arr, q):
    return np.max(arr, axis=0) if np.isinf(q) else \
        np.sum(arr**q, axis=0) ** (1.0 / q)


def mixed_f_reference(items, s, p, q):
    """|| ( sum_j |2^{sj} f_j(.)|^q )^{1/q} ||_{L_p} of a list of fields
    or sample arrays, one level at a time (the list form)."""
    stack = np.stack([2.0 ** (s * j) * np.abs(getattr(f, "values", f))
                      for j, f in enumerate(items)])
    return lp_norm(lq_reference(stack, q), p)


def space_norm_reference(u, spec, part):
    """The quasi-norm from one dyadic_block field per level."""
    weights = [2.0 ** (spec.s * j) for j in range(part.J_max + 1)]
    blocks = [dyadic_block(u, j, part) for j in range(part.J_max + 1)]
    if spec.scale == "F":
        return mixed_f_reference(blocks, spec.s, spec.p, spec.q)
    seq = np.array([w * lp_norm(b.values, spec.p)
                    for w, b in zip(weights, blocks)])
    return float(lq_reference(seq, spec.q))


NORM_GRIDS = [(1, 64), (1, 256), (2, 16), (2, 32)]
EXPONENTS = (0.5, 1.0, 2.0, np.inf)


def norm_fields(grid):
    single = np.zeros(grid.shape, dtype=complex)
    single[grid.index_of((3,) + (1,) * (grid.n - 1))] = 1.5 - 0.5j
    return {"random": random_band_limited_field(grid, rng_for(77, grid.n),
                                                grid.nyquist / 2),
            "single": SpectralField.from_coeffs(grid, single),
            "zero": SpectralField.zero(grid)}


@pytest.mark.parametrize("n,N", NORM_GRIDS)
def test_space_norm_matches_block_loop(n, N):
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    for u in norm_fields(grid).values():
        for scale in ("B", "F"):
            for p in EXPONENTS:
                if scale == "F" and np.isinf(p):
                    continue
                for q in EXPONENTS:
                    spec = NormSpec(scale, 0.7, p, q)
                    assert space_norm(u, spec, part) == pytest.approx(
                        space_norm_reference(u, spec, part), rel=1e-13,
                        abs=0.0)


@pytest.mark.parametrize("n,N", NORM_GRIDS)
def test_level_norms_match_list_forms(n, N):
    """fefferman_stein_check and corona_sum_check against their per-level
    list forms, on the dyadic blocks of a random field."""
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    u = norm_fields(grid)["random"]
    blocks = [dyadic_block(u, k, part) for k in range(part.J_max + 1)]
    t = 0.9
    N_decay = max(2.0, n / t)
    for p, q in ((2.0, 2.0), (1.0, np.inf), (4.0, 1.5)):
        spec = NormSpec("F", 1.0, p, q)
        res = fefferman_stein_check(blocks, spec, t=t, N_decay=N_decay,
                                    R=part.R)
        star = [peetre_max(b, MaxParams(N_decay, part.R * 2.0**k))
                for k, b in enumerate(blocks)]
        hl = [hl_max(b, t) for b in blocks]
        for key, items in (("Q_star", star), ("Q_hl", hl),
                           ("Q_blocks", blocks)):
            assert res[key] == pytest.approx(
                mixed_f_reference(items, spec.s, p, q), rel=1e-13)
    total = blocks[0]
    for b in blocks[1:]:
        total = total + b
    for p, q in ((2.0, 2.0), (0.5, 1.0), (1.0, np.inf)):
        spec = CoronaSpec(A=2.5, theta=1.0, J=1, s=0.5, p=p, q=q,
                          s_prime=0.5)
        res = corona_sum_check(blocks, spec, part)
        assert res["F_bound"] == pytest.approx(
            mixed_f_reference(blocks, 0.5, p, q), rel=1e-13)
        assert res["norm_of_sum"] == pytest.approx(space_norm_reference(
            total, NormSpec("F", 0.5, p, q), part), rel=1e-13)


@pytest.mark.parametrize("n,N", NORM_GRIDS)
def test_space_norm_many_matches_one_at_a_time(n, N):
    """space_norm over a list of fields equals the per-field norms: within
    1e-15 relative at p = 2 (one gather for all fields, here fresh copies
    that keep no level energies yet), bit for bit at every other p (the
    per-field inverse FFT)."""
    grid = TorusGrid(n, N)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    other = random_band_limited_field(grid, rng_for(79, grid.n),
                                      grid.nyquist / 2)
    # a stack on the diagonal rays 2^j (1, ..., 1), at non-axis radii in 2-D
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(part.J_max + 1):
        coeffs[grid.index_of((2**j,) * n)] = 1.0
    stack = SpectralField.from_coeffs(grid, coeffs)
    fields = [*norm_fields(grid).values(), other, stack]
    for scale in ("B", "F"):
        for p in EXPONENTS:
            if scale == "F" and np.isinf(p):
                continue
            for q, s in zip(EXPONENTS, (-1.0, 0.0, 0.7, 1.5)):
                spec = NormSpec(scale, s, p, q)
                want = [space_norm(u, spec, part) for u in fields]
                order = list(range(len(fields)))
                for sub in (order, order[:1], order[::-1], []):
                    got = space_norm([SpectralField(grid, fields[i].coeffs)
                                      for i in sub], spec, part)
                    ref = [want[i] for i in sub]
                    if p == 2:
                        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)
                    else:
                        assert got == ref


def marschall_loop(b, u, k, t, vals=None):
    """max_x of the Marschall ratio, one homog_besov_norm call per row of
    ``vals`` (default ``b.values``); a row norm below 1e-10 of the largest
    and an output below 1e-10 of sup|b| sum|c| count as zero."""
    grid = b.grid
    vals = b.values if vals is None else vals
    n = grid.n
    s_h = n / t
    lhs = np.abs(apply(b, u).values)
    Mt = hl_max(u, t)
    scale = 2.0 ** (k * (s_h - n))
    norms = {ix: homog_besov_norm(SpectralField.from_values(grid, vals[ix]),
                                  s_h, 1.0, t)
             for ix in np.ndindex(*grid.shape)}
    top = max(norms.values())
    out_bound = np.max(np.abs(vals)) * np.sum(np.abs(u.coeffs))
    ratios = np.zeros(grid.shape)
    for ix, norm in norms.items():
        den = scale * norm * Mt[ix]
        if norm > 1e-10 * top and den > 0:
            ratios[ix] = lhs[ix] / den
        else:
            ratios[ix] = 0.0 if lhs[ix] <= 1e-10 * out_bound else np.inf
    return float(np.max(ratios))


def marschall_symbol(grid, zero_row, constant_row):
    """(symbol, its dense array): a random symbol with the x-row
    ``zero_row`` set to 0 and ``constant_row`` (if given) to 1."""
    vals = random_sparse_symbol(grid, rng_for(73, grid.n), d=0.0,
                                x_band=grid.nyquist / 4,
                                eta_band=grid.nyquist / 2,
                                eta_min=1.0).values.copy()
    vals[zero_row] = 0.0
    if constant_row is not None:
        vals[constant_row] = 1.0
    return DiscreteSymbol.from_function(grid, lambda xs, ks: vals, 0.0), vals


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("t", [1.0, 0.5])
def test_batched_marschall_matches_row_loop(n, N, t):
    grid = TorusGrid(n, N)
    k = int(np.ceil(np.log2(grid.max_freq_norm())))
    u = random_band_limited_field(grid, rng_for(74, n), grid.nyquist / 2)
    # an all-zero row takes the 0/0 -> 0 branch of the oracle
    b, vals = marschall_symbol(grid, (0,) * n, None)
    got = marschall_check(b, u, k, t)["max_ratio"]
    ref = marschall_loop(b, u, k, t, vals)
    assert np.isfinite(ref) and ref > 0
    assert got == pytest.approx(ref, rel=1e-12)
    # a constant row has zero homogeneous norm but acts: the x/0 -> inf branch
    b_inf, vals_inf = marschall_symbol(grid, (0,) * n, (1,) * n)
    assert marschall_loop(b_inf, u, k, t, vals_inf) == np.inf
    assert marschall_check(b_inf, u, k, t)["max_ratio"] == np.inf
    # the symbols are stored xi-sparse, so their zero and constant rows are
    # zero and constant only up to roundoff: the verdicts above hold anyway
    for a in (b, b_inf):
        assert np.any(a.values[(0,) * n] != 0)


@pytest.mark.parametrize("n,N", GRIDS)
@pytest.mark.parametrize("s,p,q", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5),
                                   (0.5, 2.0, np.inf)])
def test_homog_besov_norm_matches_shell_loop(n, N, s, p, q):
    grid = TorusGrid(n, N)
    b = random_band_limited_field(grid, rng_for(75, n), grid.nyquist)
    assert homog_besov_norm(b, s, p, q) == pytest.approx(
        homog_besov_reference(b, s, p, q), rel=1e-12)


# -- eta-side checks on the stored rows ---------------------------------------


def check_symbols(grid):
    """The sparse builders, a dense-born twin and a localized symbol."""
    out = sparse_symbols(grid)
    out["dense_born"] = dense_twin(out["random"])
    out["localized"] = localize(out["ching"], LocalizationCutoff(), 0.25)
    return out


def eta_axes(grid):
    return tuple(range(grid.n, 2 * grid.n))


def dense_eta_derivative(vals, grid, alpha):
    """Centered eta-differences of the dense array (eta axes last)."""
    out = np.fft.fftshift(vals, axes=eta_axes(grid))
    for ax, order in enumerate(alpha):
        for _ in range(order):
            out = np.gradient(out, 1.0, axis=grid.n + ax, edge_order=2)
    return np.fft.ifftshift(out, axes=eta_axes(grid))


def dense_symbol_factor(a, p, psi):
    grid = a.grid
    lead = (1,) * grid.n
    rows = a.values * psi(grid.freq_norms() / p.R).reshape(lead + grid.shape)
    G = (np.fft.ifftn(rows, axes=eta_axes(grid)) * grid.N**grid.n
         / (2.0 * np.pi)**grid.n)
    w = (1.0 + p.R * torus_offsets(grid)) ** p.N
    return (np.sum(np.abs(G) * w.reshape(lead + grid.shape),
                   axis=eta_axes(grid)) * grid.spacing**grid.n)


def dense_mihlin_rhs(a, p, psi):
    grid = a.grid
    depth = int(np.floor(p.N + grid.n / 2.0)) + 1
    region = psi(grid.freq_norms() / p.R) > 0
    total = np.zeros(grid.shape)
    for alpha in np.ndindex(*(depth + 1,) * grid.n):
        if sum(alpha) <= depth:
            sq = np.abs(dense_eta_derivative(a.values, grid, alpha)) ** 2
            total += np.sqrt(np.sum(sq * region, axis=eta_axes(grid))
                             * p.R ** (2 * sum(alpha) - grid.n))
    return total


def dense_seminorm(a, alpha, beta):
    grid = a.grid
    x_axes = tuple(range(grid.n))
    pft = np.fft.fftn(a.values, axes=x_axes)
    k = grid.axis_freqs().astype(float)
    for ax, order in enumerate(beta):
        shape = [1] * (2 * grid.n)
        shape[ax] = grid.N
        pft = pft * (1j * k.reshape(shape)) ** order
    work = dense_eta_derivative(np.fft.ifftn(pft, axes=x_axes), grid, alpha)
    expo = a.d - sum(alpha) + sum(beta)
    weight = (1.0 + grid.freq_norms()) ** (-expo)
    return float(np.max(np.abs(work) * weight.reshape((1,) * grid.n
                                                      + grid.shape)))


def dense_shell_seminorm(a, alpha):
    grid = a.grid
    deriv = dense_eta_derivative(a.values, grid, alpha)
    norms = grid.freq_norms().reshape((1,) * grid.n + grid.shape)
    best, R = 0.0, 1.0
    while R <= grid.nyquist / 2:
        sq = np.abs(deriv) ** 2 * ((norms >= R) & (norms <= 2 * R))
        per_x = np.sqrt(np.sum(sq, axis=eta_axes(grid))
                        * R ** (2 * sum(alpha) - grid.n))
        best = max(best, float(np.max(per_x)) * R ** (-a.d))
        R *= 2.0
    return best


def depths(n, top):
    return [t for t in np.ndindex(*(top + 1,) * n) if sum(t) <= top]


@pytest.mark.parametrize("n,N", GRIDS)
def test_eta_side_checks_match_dense_formulas(n, N):
    grid = TorusGrid(n, N)
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(2.0, grid.nyquist / 4)
    chi = LocalizationCutoff()
    ident = DiscreteSymbol.identity(grid)
    c = float(np.max(dense_symbol_factor(ident, p, psi)
                     / dense_mihlin_rhs(ident, p, psi)))
    for name, a in check_symbols(grid).items():
        assert_close(symbol_factor(a, p, psi), dense_symbol_factor(a, p, psi))
        assert_close(mihlin_bound(a, p, psi), c * dense_mihlin_rhs(a, p, psi))
        for alpha in depths(n, 4):
            for beta in depths(n, 4 - sum(alpha)):
                assert estimate_seminorm(a, alpha, beta).value == \
                    pytest.approx(dense_seminorm(a, alpha, beta), rel=1e-12,
                                  abs=0.0), (name, alpha, beta)
        for alpha in depths(n, 2):
            got = tdc_seminorm(a, chi, 0.25, alpha)
            want = [dense_shell_seminorm(localize(a, chi, e), alpha)
                    for e in (0.25,) + got.eps_values]
            assert (got.value,) + got.seminorm_values == \
                pytest.approx(want, rel=1e-12, abs=0.0), (name, alpha)


@pytest.mark.parametrize("n,N", GRIDS)
def test_eta_side_checks_run_above_the_dense_cap(n, N, monkeypatch):
    """The checks read the rows, not the dense view: with the cap below
    N^(2n) they give the same numbers while ``values`` raises."""
    grid = TorusGrid(n, N)
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(2.0, grid.nyquist / 4)
    chi = LocalizationCutoff()
    k = int(np.ceil(np.log2(grid.max_freq_norm())))
    u = random_band_limited_field(grid, rng_for(80, n), grid.nyquist / 2)

    def run():
        out = []
        for a in sparse_symbols(grid).values():
            out += [symbol_factor(a, p, psi), mihlin_bound(a, p, psi),
                    estimate_seminorm(a, (1,) * n, (1,) + (0,) * (n - 1)).value,
                    tdc_seminorm(a, chi, 0.25, (1,) * n).seminorm_values,
                    marschall_check(a, u, k, 1.0)["max_ratio"]]
        return out

    want = run()
    pointwise._memo.clear()   # so the second run computes every factor
    monkeypatch.setattr(symbols, "DENSE_ENTRY_CAP", N ** (2 * n) - 1)
    with pytest.raises(TooLarge):
        sparse_symbols(grid)["ching"].values  # noqa: B018
    got = run()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


# -- random symbols without a dense fill --------------------------------------


def dense_fill_random_symbol(grid, rng, d=0.0, x_band=None, eta_band=None,
                             eta_min=0.0, entries=40):
    """The dense-fill generator: every draw written into a whole partial
    transform, then its nonzero xi-rows kept."""
    x_band = grid.nyquist / 4 if x_band is None else x_band
    eta_band = grid.nyquist / 2 if eta_band is None else eta_band
    norms = grid.freq_norms()
    xi_ok = np.argwhere(norms <= x_band)
    eta_ok = np.argwhere((norms <= eta_band) & (norms >= eta_min))
    pft = np.zeros(grid.shape + grid.shape, dtype=np.complex128)
    k = grid.axis_freqs().astype(float)
    for _ in range(entries):
        xi = tuple(xi_ok[rng.integers(len(xi_ok))])
        eta = tuple(eta_ok[rng.integers(len(eta_ok))])
        eta_norm = float(np.sqrt(sum(k[i] ** 2 for i in eta)))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        pft[xi + eta] = amp * (1.0 + eta_norm) ** d
    peak = np.max(np.abs(pft))
    if peak > 0:
        pft /= peak
    return DiscreteSymbol.from_partial_ft(grid, d, pft)


@pytest.mark.parametrize("n,N,kw", [
    (1, 64, {}), (2, 16, {}), (1, 64, dict(d=1.5, eta_min=2.0)),
    (2, 16, dict(entries=0)),
    # 300 draws on 3 x 3 (1-D) or 5 x 5 (2-D) pairs: every pair repeats
    (1, 64, dict(entries=300, x_band=1.0, eta_band=1.0)),
    (2, 16, dict(entries=300, x_band=0.0, eta_band=1.0))])
def test_random_sparse_symbol_matches_dense_fill(n, N, kw):
    grid = TorusGrid(n, N)
    for seed in range(3):
        got = random_sparse_symbol(grid, rng_for(seed, 81), **kw)
        want = dense_fill_random_symbol(grid, rng_for(seed, 81), **kw)
        assert np.array_equal(got.xi, want.xi)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.d == want.d


def test_random_sparse_symbol_memory():
    grid = TorusGrid(1, 4096)
    tracemalloc.start()
    try:
        a = random_sparse_symbol(grid, rng_for(0, 82))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a.xi) > 0
    assert peak < 32 * 2**20


# -- the exact adjoint on the stored rows -------------------------------------


def fourier_pairs(grid):
    """Per-axis lattice indices (zeta - eta mod N, eta) at the flat lattice
    indices (zeta, eta) of the Fourier-basis matrix."""
    lat = np.indices(grid.shape).reshape(grid.n, -1)
    return (tuple((lat[:, :, None] - lat[:, None, :]) % grid.N)
            + tuple(lat[:, None, :]))


def operator_matrix(a):
    """Dense matrix of the operator in the Fourier basis, over flat lattice
    indices: column eta holds the output coefficients of a # e^{i x.eta},
    so entry (zeta, eta) is ahat(zeta - eta mod N, eta)."""
    return a.partial_ft()[fourier_pairs(a.grid)]


@pytest.mark.parametrize("n,N", GRIDS)
def test_adjoint_symbol_matches_matrix_oracle(n, N):
    grid = TorusGrid(n, N)
    for name, a in check_symbols(grid).items():
        adj = adjoint_symbol(a)
        want = np.zeros(grid.shape + grid.shape, dtype=np.complex128)
        want[fourier_pairs(grid)] = operator_matrix(a).conj().T
        assert np.array_equal(adj.partial_ft(), want), name
        oracle = DiscreteSymbol.from_partial_ft(grid, a.d, want)
        for alpha in depths(n, 2):
            for beta in depths(n, 2 - sum(alpha)):
                assert estimate_seminorm(adj, alpha, beta).value == \
                    estimate_seminorm(oracle, alpha, beta).value, \
                    (name, alpha, beta)
        back = adjoint_symbol(adj)
        assert np.array_equal(back.xi, a.xi), name
        assert np.array_equal(back.rows, a.rows), name
        assert back.d == a.d


def test_adjoint_symbol_above_the_dense_cap():
    """<a#u, v> = <u, a*#v> at a grid whose dense view raises."""
    grid = TorusGrid(1, 8192)
    rng = rng_for(83, 1)
    u, v = (SpectralField.from_coeffs(grid, rng.standard_normal(grid.shape)
                                      + 1j * rng.standard_normal(grid.shape))
            for _ in range(2))
    for a in (standard_ching(grid, 0.0, 10),
              random_sparse_symbol(grid, rng_for(83, 2))):
        adj = adjoint_symbol(a)
        with pytest.raises(TooLarge):
            adj.values  # noqa: B018
        lhs = np.vdot(v.coeffs, apply(a, u).coeffs)
        rhs = np.vdot(apply(adj, v).coeffs, u.coeffs)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


# -- both maximal functions as one translate sweep ----------------------------


def peetre_oracle(u, p):
    """The N x N index gather (n = 1) and the np.roll offset loop (n = 2)."""
    grid = u.grid
    w = (1.0 + p.R * torus_offsets(grid)) ** (-p.N)
    absu = np.abs(u.values)
    if grid.n == 1:
        k = np.arange(grid.N)
        idx = (k[:, None] - k[None, :]) % grid.N
        return np.max(absu[idx] * w, axis=1)
    out = np.zeros(grid.shape)
    for off in np.ndindex(grid.shape):
        shifted = np.roll(absu, shift=off, axis=(0, 1))
        np.maximum(out, shifted * w[off], out=out)
    return out


def hl_oracle(u, t):
    """One FFT convolution per ball mask |y| <= j*spacing, j = 1..N/2."""
    grid = u.grid
    d = torus_offsets(grid)
    ft = np.fft.fftn(np.abs(u.values) ** t)
    best = np.abs(u.values) ** t
    for j in range(1, grid.N // 2 + 1):
        mask = (d <= j * grid.spacing + 1e-12).astype(float)
        avg = np.real(np.fft.ifftn(ft * np.fft.fftn(mask))) / mask.sum()
        np.maximum(best, np.maximum(avg, 0.0), out=best)
    return best ** (1.0 / t)


def maximal_inputs(grid):
    u = random_band_limited_field(grid, rng_for(84, grid.n), grid.nyquist / 2)
    spike = np.zeros(grid.shape, dtype=complex)
    spike[(3,) * grid.n] = 1.0 / grid.spacing**grid.n
    one = np.zeros(grid.shape, dtype=complex)
    one[grid.index_of((5,) * grid.n)] = 0.5 + 2.0j
    return {"random": u,
            "spike": SpectralField.from_values(grid, spike),
            "zero": SpectralField.zero(grid),
            "tiny": SpectralField.from_values(grid, 1e-200 * u.values),
            "constant": SpectralField.from_values(
                grid, np.full(grid.shape, 1.5 - 0.5j)),
            "one_mode": SpectralField.from_coeffs(grid, one)}


@pytest.mark.parametrize("n,N", [(1, 64), (1, 256), (2, 16), (2, 32)])
def test_maximal_functions_match_oracles(n, N):
    grid = TorusGrid(n, N)
    for name, u in maximal_inputs(grid).items():
        for p in (MaxParams(2.0, 1.0), MaxParams(n / 0.5, 8.0)):
            assert np.array_equal(peetre_max(u, p), peetre_oracle(u, p)), \
                (name, p)
        for t in (1.0, 0.5):
            got, want = hl_max(u, t), hl_oracle(u, t)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), \
                (name, t)


def test_peetre_sweep_stops_once_dominated(monkeypatch):
    """The |y|-ordered sweep visits a fraction of the offsets: at most N/4
    for a band-limited field and 2 for a constant one (the full sweep
    visits all N), and still gives the full sweep's maximum exactly."""
    grid = TorusGrid(1, 256)
    p = MaxParams(2.0, 1.0)
    inputs = maximal_inputs(grid)
    visited = []
    sweep = pointwise._translates

    def counted(f, order):
        for y, shifted in sweep(f, order):
            visited.append(y)
            yield y, shifted

    monkeypatch.setattr(pointwise, "_translates", counted)
    for name, most in (("random", grid.N // 4), ("constant", 2)):
        visited.clear()
        pointwise._memo.clear()   # so the sweep runs
        u = inputs[name]
        assert np.array_equal(peetre_max(u, p), peetre_oracle(u, p)), name
        assert 0 < len(visited) <= most, (name, len(visited))


@pytest.mark.parametrize("fn,arg", [(peetre_max, MaxParams(2.0, 64.0)),
                                    (hl_max, 1.0)])
def test_maximal_function_memory(fn, arg):
    """No N x N transient and nothing held after the call (1-D N=4096) but
    the memo's entry, which is cleared before ``held`` is read."""
    grid = TorusGrid(1, 4096)
    u = random_band_limited_field(grid, rng_for(85, 1), grid.nyquist / 2)
    u.values    # computed on first read: the field's own, not the call's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(u, arg)
        peak = tracemalloc.get_traced_memory()[1]
        del out
        pointwise._memo.clear()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert held < 2**16


# -- the modulus view -----------------------------------------------------------


def rows_at(grid, xis, seed):
    """A xi-row at each point of ``xis``, random rows that vanish at
    eta = 0."""
    rng = rng_for(seed, grid.n)
    shape = (len(xis),) + grid.shape
    rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows[(slice(None),) + (0,) * grid.n] = 0.0
    return DiscreteSymbol(grid, 0.0, xi=xis, rows=rows)


def single_rows(grid):
    """Symbols whose xi_k share a coordinate: single rows and, in 2-D, rows
    on a line parallel to axis 0, to axis 1, and off the origin."""
    out = {"row_xi0": rows_at(grid, [(0,) * grid.n], 86),
           "row_xi": rows_at(grid, [(5, -3)[:grid.n]], 87)}
    if grid.n == 2:
        out.update(line_axis0=rows_at(grid, [(j, 0) for j in (-4, 1, 3)], 88),
                   line_axis1=rows_at(grid, [(0, j) for j in (-2, 2, 5)], 89),
                   line_at_3=rows_at(grid, [(j, 3) for j in (-6, 0, 1)], 90))
    return out


def shared_axes(a):
    """The x-axes on which every xi_k has the same coordinate."""
    return [ax for ax in range(a.grid.n) if len(set(a.xi[:, ax])) <= 1]


@pytest.mark.parametrize("n,N", GRIDS)
def test_moduli_match_dense_columns(n, N):
    """The view walks the blocks of ``columns`` and gives |block|, column
    axis first; its x-extent is N exactly on the axes where the xi_k
    differ, else 1."""
    grid = TorusGrid(n, N)
    for name, a in {**all_symbols(grid), **single_rows(grid)}.items():
        dense = np.abs(a.values).reshape(grid.shape + (-1,))
        peak = float(np.max(dense, initial=0.0))
        extent = tuple(1 if ax in shared_axes(a) else N for ax in range(n))
        got = [(c, m.copy()) for c, m in a.moduli()]   # a reused buffer
        assert [c.tolist() for c, _ in got] == \
            [c.tolist() for c, _ in a.columns()], name
        for cols, mod in got:
            assert mod.shape == cols.shape + extent, name
            assert np.max(np.abs(mod - np.moveaxis(dense[..., cols], -1, 0))) \
                <= 1e-13 * peak, name


def unchecked_grid(n, N):
    """A grid whose N the lattice rejects (not a power of two); the
    x-expansion itself does not rely on that rule."""
    grid = object.__new__(TorusGrid)
    object.__setattr__(grid, "n", n)
    object.__setattr__(grid, "N", N)
    return grid


def expansion_case(name):
    """(symbol, number of column blocks) for the direct-sum oracle."""
    rng = rng_for(91, 0)
    grid, xis, live = {
        "1d_512_four_blocks": (TorusGrid(1, 512), [-200, -3, 0, 7, 255], None),
        "1d_512_partial_block": (TorusGrid(1, 512), [-256, 1, 9], 300),
        "1d_48": (unchecked_grid(1, 48), [-24, -5, 1, 23], None),
        "2d_32_shared_coordinate": (TorusGrid(2, 32),
                                    [(j, 3) for j in (-16, -2, 0, 9)], None),
        "2d_32": (TorusGrid(2, 32), [(1, 2), (-3, 5), (7, -16)], None),
        "k0": (TorusGrid(1, 64), [], None),
        "k1": (TorusGrid(1, 64), [5], None),
    }[name]
    xi = np.reshape(np.array(xis, dtype=np.int64), (-1, grid.n))
    size = grid.N**grid.n
    flat = rng.standard_normal((len(xi), size)) \
        + 1j * rng.standard_normal((len(xi), size))
    flat[:, size if live is None else live:] = 0.0
    a = DiscreteSymbol(grid, 0.0, xi=xi, rows=flat.reshape((-1,) + grid.shape))
    live = size if live is None else live
    step = symbols.BLOCK_ENTRIES // size
    return a, (-(-live // step) if len(xi) else 0)


@pytest.mark.parametrize("name", ["1d_512_four_blocks", "1d_512_partial_block",
                                  "1d_48", "2d_32_shared_coordinate", "2d_32",
                                  "k0", "k1"])
def test_expansion_matches_direct_sum(name):
    """``values`` and ``moduli`` against sum_k rows_k(eta) e^{i x.xi_k},
    summed term by term here rather than by the FFT kernel behind both."""
    a, blocks = expansion_case(name)
    grid = a.grid
    x = np.meshgrid(*[grid.axis_points()] * grid.n, indexing="ij")
    want = np.zeros(grid.shape + (grid.N**grid.n,), dtype=np.complex128)
    for xi_k, row in zip(a.xi, a.rows):
        phase = np.exp(1j * sum(c * xc for c, xc in zip(xi_k, x)))
        want += phase[..., None] * row.ravel()
    tol = 1e-12 * max(1.0, float(np.sum(np.max(np.abs(a.rows), axis=tuple(
        range(1, grid.n + 1)), initial=0.0))))
    assert np.max(np.abs(a.values.reshape(want.shape) - want),
                  initial=0.0) <= tol
    extent = tuple(1 if ax in shared_axes(a) else grid.N
                   for ax in range(grid.n))
    got = [(c, m.copy()) for c, m in a.moduli()]   # a reused buffer
    assert len(got) == blocks
    live = np.flatnonzero(np.any(np.abs(want) > 0, axis=tuple(range(grid.n))))
    assert np.concatenate([c for c, _ in got] + [live[:0]]).tolist() == \
        live.tolist()
    for cols, mod in got:
        assert mod.shape == cols.shape + extent
        want_cols = np.moveaxis(want[..., cols], -1, 0)
        assert np.max(np.abs(np.broadcast_to(mod, want_cols.shape)
                             - np.abs(want_cols))) <= tol


@pytest.mark.parametrize("n,N", GRIDS)
def test_single_row_checks_match_dense_formulas(n, N):
    """The symbol factor of rows whose xi_k share a coordinate is constant
    along that x-axis; it and the seminorm, Mihlin and Marschall checks
    match their dense forms."""
    grid = TorusGrid(n, N)
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(2.0, grid.nyquist / 4)
    k = int(np.ceil(np.log2(grid.max_freq_norm())))
    u = random_band_limited_field(grid, rng_for(74, n), grid.nyquist / 2)
    for name, a in single_rows(grid).items():
        F = symbol_factor(a, p, psi)
        assert F.shape == grid.shape, name
        for ax in shared_axes(a):
            assert np.all(F == np.take(F, [0], axis=ax)), name
        assert_close(F, dense_symbol_factor(a, p, psi))
        assert_close(_mihlin_rhs(a, p, psi), dense_mihlin_rhs(a, p, psi))
        for alpha in depths(n, 2):
            for beta in depths(n, 2):
                assert estimate_seminorm(a, alpha, beta).value == \
                    pytest.approx(dense_seminorm(a, alpha, beta), rel=1e-12,
                                  abs=0.0), (name, alpha, beta)
        for t in (1.0, 0.5):
            assert marschall_check(a, u, k, t)["max_ratio"] == \
                pytest.approx(marschall_loop(a, u, k, t), rel=1e-12), name
