"""Fast paths against the per-level, per-row and dense code they replace.

The (symbol, input, term) series of ``para_split`` must reproduce
``symbol_band`` / ``dyadic_block`` / ``cumulative_block`` level by level,
``space_norm`` and the mixed norms of ``fefferman_stein_check`` and
``corona_sum_check`` must reproduce their one-field-per-level list forms,
the batched Marschall row norms must reproduce a per-row
``homog_besov_norm`` loop,
``apply`` must reproduce the dense sum over the whole lattice,
``modulated_apply`` must reproduce ``apply`` of ``modulated_symbol``,
every operation on a xi-sparse symbol must reproduce the same operation on
its twin built from the dense array, the eta-side checks on the stored rows
must reproduce their dense formulas on ``a.values``,
``random_sparse_symbol`` must reproduce its dense fill, the row adjoint
must reproduce the conjugate transpose of the dense Fourier-basis matrix,
and the translate sweeps of ``peetre_max`` and ``hl_max`` must reproduce
the index gather and the FFT ball-mask convolutions."""

import tracemalloc

import numpy as np
import pytest

from paradiff_lab import (CoronaSpec, DiscreteSymbol, GridMismatch,
                          LocalizationCutoff, MaxParams, NormSpec,
                          SpectralField, TooLarge, TorusGrid, apply,
                          compose_multiplier, corona_sum_check,
                          cumulative_block, dyadic_block, estimate_seminorm,
                          fefferman_stein_check, hl_max, homog_besov_norm,
                          localize, make_modulation, make_partition,
                          marschall_check, mihlin_bound, modulated_apply,
                          para_split, peetre_max, saturation_level,
                          space_norm, spectral_support_bound, symbol_band,
                          symbol_factor, symbols, tdc_seminorm)
from paradiff_lab.corpus import (random_band_limited_field,
                                 random_sparse_symbol, rng_for,
                                 standard_ching)
from paradiff_lab.operators import adjoint_symbol, modulated_symbol
from paradiff_lab.pointwise import torus_offsets
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


def dense_twin(a):
    return DiscreteSymbol(a.grid, a.d, a.values, a.class_tag)


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
        assert s.xi_support() == twin.xi_support()
        assert spectral_support_bound(s, u) == spectral_support_bound(twin, u)
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
    """Every (symbol, input, term) triple of the split is built from the
    per-level symbol bands and input blocks."""
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
            got_sym, got_w, term = split.series[name][k]
            assert np.array_equal(got_w.coeffs, w.coeffs)
            if sym is None:
                assert got_sym is None and term.norm_inf() == 0.0
                continue
            assert np.array_equal(got_sym.xi, sym.xi)
            assert np.array_equal(got_sym.rows, sym.rows)
            assert np.array_equal(term.coeffs, apply(sym, w).coeffs)
    assert split.u is u


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


def marschall_loop(b, u, k, t):
    """max_x of the Marschall ratio, one homog_besov_norm call per row; a
    row norm below 1e-10 of the largest and an output below 1e-10 of
    sup|b| sum|c| count as zero."""
    grid = b.grid
    n = grid.n
    s_h = n / t
    lhs = np.abs(apply(b, u).values)
    Mt = hl_max(u, t)
    scale = 2.0 ** (k * (s_h - n))
    norms = {ix: homog_besov_norm(SpectralField.from_values(grid, b.values[ix]),
                                  s_h, 1.0, t)
             for ix in np.ndindex(*grid.shape)}
    top = max(norms.values())
    out_bound = np.max(np.abs(b.values)) * np.sum(np.abs(u.coeffs))
    ratios = np.zeros(grid.shape)
    for ix, norm in norms.items():
        den = scale * norm * Mt[ix]
        if norm > 1e-10 * top and den > 0:
            ratios[ix] = lhs[ix] / den
        else:
            ratios[ix] = 0.0 if lhs[ix] <= 1e-10 * out_bound else np.inf
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
    b_inf = marschall_symbol(grid, (0,) * n, (1,) * n)
    assert marschall_loop(b_inf, u, k, t) == np.inf
    assert marschall_check(b_inf, u, k, t)["max_ratio"] == np.inf
    # the same symbols stored xi-sparse, whose zero and constant rows are
    # zero and constant only up to roundoff, give the same verdicts
    for a, want in ((b, got), (b_inf, np.inf)):
        for copy in (1.0 * a,
                     DiscreteSymbol.from_partial_ft(grid, 0.0, a.partial_ft())):
            assert np.any(copy.values[(0,) * n] != 0)
            assert marschall_check(copy, u, k, t)["max_ratio"] == \
                pytest.approx(want, rel=1e-12)


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
        assert got.d == want.d and got.class_tag == want.class_tag


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
    return {"random": u,
            "spike": SpectralField.from_values(grid, spike),
            "zero": SpectralField.zero(grid),
            "tiny": SpectralField.from_values(grid, 1e-200 * u.values)}


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


@pytest.mark.parametrize("fn,arg", [(peetre_max, MaxParams(2.0, 64.0)),
                                    (hl_max, 1.0)])
def test_maximal_function_memory(fn, arg):
    """No N x N transient and nothing held after the call (1-D N=4096)."""
    grid = TorusGrid(1, 4096)
    u = random_band_limited_field(grid, rng_for(85, 1), grid.nyquist / 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(u, arg)
        peak = tracemalloc.get_traced_memory()[1]
        del out
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert held < 2**16
