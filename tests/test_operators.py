import numpy as np
import pytest

from paradiff_lab import (AliasingRisk, ChingProfile, DiscreteSymbol,
                          GridMismatch, NotAMultiplier, SpectralField,
                          TooLarge, TorusGrid,
                          apply, ching_symbol, compose_multiplier,
                          discrete_adjoint_probe, make_modulation,
                          make_partition, modulated_apply, modulation_limit,
                          para_split, saturation_level,
                          spectral_support_bound, support_inclusions)
from paradiff_lab.corpus import (lacunary_stack, random_band_limited_field,
                                 random_sparse_symbol, rng_for, standard_ching)
from test_fast_paths import operator_matrix


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def psi():
    return make_modulation(1.0, 2.0)


@pytest.fixture
def part(grid, psi):
    return make_partition(psi, grid)


def mode(grid, k, amp=1.0):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.index_of(k if isinstance(k, tuple) else (k,))] = amp
    return SpectralField.from_coeffs(grid, coeffs)


# -- apply --------------------------------------------------------------------


def test_apply_identity(grid):
    rng = rng_for(31, 0)
    u = random_band_limited_field(grid, rng, 20.0)
    v = apply(DiscreteSymbol.identity(grid), u)
    assert np.max(np.abs(v.values - u.values)) < 1e-12


def test_apply_multiplier_mode(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + k**2), d=-2.0)
    u = mode(grid, 5)
    v = apply(b, u)
    assert v.coeffs[5] == pytest.approx(1.0 / 26.0)
    assert np.max(np.abs(np.delete(v.coeffs, 5))) < 1e-14


def test_apply_modulation_shifts_support(grid):
    theta = 3
    a = DiscreteSymbol.from_function(
        grid, lambda xs, ks: np.exp(1j * theta * xs[0]) * np.ones_like(ks[0]),
        d=0.0)
    rng = rng_for(31, 1)
    u = random_band_limited_field(grid, rng, 10.0)
    v = apply(a, u)
    x = grid.axis_points()
    assert np.max(np.abs(v.values - np.exp(1j * theta * x) * u.values)) < 1e-12
    shifted = [(p[0] + theta,) for p in grid.points(u.support())]
    assert grid.points(v.support()) == shifted


def test_apply_linearity(grid):
    rng = rng_for(31, 2)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=10, eta_band=12)
    u = random_band_limited_field(grid, rng, 12.0)
    w = random_band_limited_field(grid, rng, 12.0)
    lhs = apply(a, SpectralField.from_coeffs(grid, 2.0 * u.coeffs - 1.5j * w.coeffs))
    rhs = 2.0 * apply(a, u) - 1.5j * apply(a, w)
    scale = max(lhs.norm_inf(), 1.0)
    assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12 * scale


def test_apply_ching_beyond_the_dense_cap():
    # a ching symbol at 1-D N = 8192 holds J + 1 rows; its dense view would
    # hold N^2 = 2^26 entries.  On the uniform lacunary stack only the j-th
    # term meets the j-th mode, with A(1) = 1, so the output is J + 1.
    grid = TorusGrid(1, 8192)
    J = 10
    a = standard_ching(grid, 0.0, J)
    v = apply(a, lacunary_stack(grid, np.ones(J + 1)))
    assert np.max(np.abs(v.values - (J + 1))) <= 1e-12 * (J + 1)
    with pytest.raises(TooLarge):
        a.values
    with pytest.raises(TooLarge):
        a.partial_ft()


def test_apply_grid_mismatch(grid):
    other = TorusGrid(1, 128)
    with pytest.raises(GridMismatch):
        apply(DiscreteSymbol.identity(grid), SpectralField.zero(other))


def test_apply_2d_multiplier():
    grid = TorusGrid(2, 16)
    b = DiscreteSymbol.multiplier(grid, lambda kx, ky: kx + 2.0 * ky, d=1.0)
    u = mode(grid, (2, 3))
    v = apply(b, u)
    assert v.coeffs[grid.index_of((2, 3))] == pytest.approx(2.0 + 6.0)


# -- modulated apply and the limit -------------------------------------------


def test_modulated_apply_band_limited_exact(grid, psi):
    rng = rng_for(32, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=4, eta_band=4)
    u = random_band_limited_field(grid, rng, 4.0)
    m = 3  # r 2^3 = 8 >= both bandwidths
    v = modulated_apply(a, u, psi, m)
    w = apply(a, u)
    assert np.max(np.abs(v.values - w.values)) < 1e-12


def test_modulated_apply_m0_kills_high_input(grid, psi):
    a = DiscreteSymbol.identity(grid)
    u = mode(grid, 7)  # outside |eta| <= R = 2
    v = modulated_apply(a, u, psi, 0)
    assert v.norm_inf() < 1e-14


def test_modulated_apply_ching_term_activation(grid, psi):
    # oracle: with u a single mode at 2^j, the output appears exactly when
    # psi(2^-m eta) is nonzero at 2^j and the term's x-shift passes the cutoff
    a = standard_ching(grid, 0.0, 3)
    j = 3
    u = mode(grid, 2**j)
    prof = ChingProfile()
    for m in range(saturation_level(psi, grid) + 1):
        v = modulated_apply(a, u, psi, m)
        eta_gate = psi.scalar(2**j / 2**m)
        xi_gate = psi.scalar(2**j / 2**m)
        expected = abs(prof(np.array([1.0]))[0]) * eta_gate * xi_gate
        assert v.norm_inf() == pytest.approx(expected, abs=1e-12)


def test_saturation_clamps(grid, psi):
    rng = rng_for(32, 1)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=10, eta_band=20)
    u = random_band_limited_field(grid, rng, 20.0)
    m_sat = saturation_level(psi, grid)
    v1 = modulated_apply(a, u, psi, m_sat)
    v2 = modulated_apply(a, u, psi, m_sat + 5)
    assert np.array_equal(v1.values, v2.values)


def test_modulation_limit_band_limited(grid):
    psis = [make_modulation(1.0, 2.0), make_modulation(1.5, 2.5),
            make_modulation(0.75, 1.75)]
    rng = rng_for(33, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=8, eta_band=8)
    u = random_band_limited_field(grid, rng, 8.0)
    rep = modulation_limit(a, u, psis)
    assert rep.converged
    assert rep.psi_discrepancy <= 1e-12
    limit = apply(a, u)
    assert np.max(np.abs(rep.value.values - limit.values)) < 1e-12
    # stabilization at the analytically forced level: the largest over the
    # cutoffs of the smallest m with r 2^m covering both bandwidths
    bw = max(u.band_limit(), np.max(grid.freq_norms()[a.xi_support()]))
    predicted = max(int(np.ceil(np.log2(bw / p.r))) for p in psis)
    assert rep.stabilization_m == predicted


def test_modulation_limit_identity_stabilizes_at_bandwidth(grid):
    psis = [make_modulation(1.0, 2.0), make_modulation(1.25, 2.25)]
    a = DiscreteSymbol.identity(grid)
    u = mode(grid, 12)
    rep = modulation_limit(a, u, psis)
    assert rep.converged
    assert np.max(np.abs(rep.value.values - u.values)) < 1e-12
    assert rep.stabilization_m == 4  # 1 * 2^4 >= 12, and 2^3 < 12


def test_modulation_limit_divergence_profile(grid):
    # adversarial pair: one-sided lacunary symbol on its own ray; the
    # explicit geometric oracle says each new level adds an O(1) jump, so
    # the pre-saturation differences do not decay
    psis = [make_modulation(1.0, 2.0), make_modulation(1.5, 2.5)]
    a = standard_ching(grid, 0.0, 4, one_sided=True)
    u = lacunary_stack(grid, np.ones(5))
    rep = modulation_limit(a, u, psis)
    profile = rep.cauchy_profile[0]
    nonzero = [d for d in profile if d > 1e-12]
    assert len(nonzero) >= 3
    assert nonzero[-1] >= 0.5 * max(nonzero)


# -- composition --------------------------------------------------------------


def test_compose_identity(grid):
    a = standard_ching(grid, 0.0, 3)
    c = compose_multiplier(a, DiscreteSymbol.identity(grid))
    assert np.max(np.abs(c.values - a.values)) < 1e-14


def test_compose_matches_chained_apply(grid):
    rng = rng_for(34, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=8, eta_band=10)
    b = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** -0.5, d=-1.0)
    c = compose_multiplier(a, b)
    assert c.d == pytest.approx(-1.0)
    for i in range(3):
        u = random_band_limited_field(grid, rng_for(34, 1, i), 12.0)
        lhs = apply(c, u)
        rhs = apply(a, apply(b, u))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10 * u.norm_inf()


def test_compose_rejects_x_dependent(grid):
    a = DiscreteSymbol.identity(grid)
    with pytest.raises(NotAMultiplier):
        compose_multiplier(a, standard_ching(grid, 0.0, 2))


def test_compose_order_and_growth(grid):
    # taming: order-0 lacunary times an order -1 multiplier has order -1
    a = standard_ching(grid, 0.0, 3)
    b = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** -0.5, d=-1.0)
    c = compose_multiplier(a, b)
    # oracle scan: the d = -1 weighted sup of c stays comparable to the
    # d = 0 weighted sup of a
    w0 = np.max(np.abs(a.values))
    w1 = np.max(np.abs(c.values) * (1.0 + grid.freq_norms())[None, :])
    assert w1 <= 2.0 * w0


def test_compose_matched_cauchy_profiles(grid, psi):
    # composed and chained operators are defined simultaneously: their
    # whole modulation profiles agree, not only the limits
    rng = rng_for(34, 2)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=8, eta_band=10)
    b = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** -0.5, d=-1.0)
    c = compose_multiplier(a, b)
    u = random_band_limited_field(grid, rng, 12.0)
    bu = apply(b, u)
    for m in range(saturation_level(psi, grid) + 1):
        lhs = modulated_apply(c, u, psi, m)
        rhs = modulated_apply(a, bu, psi, m)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10 * u.norm_inf()


# -- paradifferential splitting ----------------------------------------------


def test_para_split_reconstruction(grid, psi, part, monkeypatch):
    ifftn, calls = np.fft.ifftn, []
    monkeypatch.setattr(np.fft, "ifftn",
                        lambda *args, **kw: calls.append(1) or ifftn(*args, **kw))
    for i in range(3):
        a = random_sparse_symbol(grid, rng_for(35, 1, i), d=0.0,
                                 x_band=8, eta_band=10)
        u = random_band_limited_field(grid, rng_for(35, 2, i), 12.0)
        for m in (2, part.J_max):
            # the split and its support checks read coefficients only
            calls.clear()
            sp = para_split(a, u, part, m)
            support_inclusions(sp, tdc_B=2.0)
            assert calls == []
            terms = [t for triples in sp.series.values() for _, _, t in triples]
            assert np.array_equal(sp.total().coeffs,
                                  sum(t.coeffs for t in terms))
            ref = modulated_apply(a, u, psi, m)
            err = np.max(np.abs(sp.total().values - ref.values))
            assert err <= 1e-10 * max(ref.norm_inf(), 1.0)


def test_para_split_multiplier_reduction(grid, psi, part):
    # x-independent symbol: bands a_k vanish for k >= 1, so the three
    # series collapse onto b(D) applied through the eta cutoffs
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + np.abs(k)))
    rng = rng_for(35, 3)
    u = random_band_limited_field(grid, rng, 12.0)
    m = part.J_max
    sp = para_split(b, u, part, m)
    for j in range(1, m + 1):
        assert sp.series["high_low"][j][2].norm_inf() < 1e-13
    ref = modulated_apply(b, u, psi, m)
    assert np.max(np.abs(sp.total().values - ref.values)) <= 1e-10
    bu = apply(b, u)
    assert np.max(np.abs(sp.total().values - bu.values)) <= 1e-10


def test_para_split_single_mode_few_blocks(grid, part):
    a = DiscreteSymbol.identity(grid)
    u = mode(grid, 12)
    sp = para_split(a, u, part, part.J_max)
    active = [k for k in range(part.J_max + 1)
              if (sp.series["low_high"][k][2].norm_inf() > 1e-13
                  or sp.series["diagonal_a"][k][2].norm_inf() > 1e-13)]
    # only levels whose band weight is nonzero at eta = 12 contribute
    weights = [part.level_weights(k)[grid.index_of((12,))] for k in
               range(part.J_max + 1)]
    expected = [k for k, w in enumerate(weights) if w != 0]
    assert active == expected and len(active) <= 2


def test_para_split_ching_diagonal_series(grid, part):
    # term bookkeeping oracle: on the lacunary ray the whole action is the
    # near-diagonal series, and the output of the j-th interaction sits at
    # frequency 2^j theta - 2^j theta = 0
    a = standard_ching(grid, 0.0, 4)
    u = lacunary_stack(grid, np.ones(5))
    sp = para_split(a, u, part, part.J_max)

    def series_sum(*names):
        return sum((t for name in names for _, _, t in sp.series[name]),
                   SpectralField.zero(grid))

    assert series_sum("low_high").norm_inf() < 1e-12
    assert series_sum("high_low").norm_inf() < 1e-12
    out = series_sum("diagonal_a", "diagonal_b")
    assert out.norm_inf() > 0.5
    prof = ChingProfile()
    expected_at_zero = sum(prof(np.array([1.0]))[0] for _ in range(5))
    assert abs(out.coeffs[0] - expected_at_zero) < 1e-10


def test_support_inclusions_formula_and_cleanliness(grid, part):
    # R_h = r/2 - R 2^-h = 0.25 for (r, R, h) = (1, 2, 3)
    rng = rng_for(36, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=10, eta_band=12)
    u = random_band_limited_field(grid, rng, 12.0)
    sp = para_split(a, u, part, part.J_max)
    rep = support_inclusions(sp)
    assert not rep.violations
    assert rep.corona_bounds[1] == (0.25 * 2, 1.25 * 2.0 * 2)
    assert rep.ball_bounds[2] == 2 * 2.0 * 4


def test_support_inclusions_zero_symbol(grid, part):
    sp = para_split(DiscreteSymbol.zero(grid), SpectralField.zero(grid),
                    part, 2)
    assert not support_inclusions(sp).violations


def test_support_inclusions_tdc_corona():
    # with the twisted-diagonal condition enforced at B, near-diagonal
    # outputs gain an inner radius (r / 2^{h+1} B) 2^k at large k
    from paradiff_lab import LocalizationCutoff, localize
    grid = TorusGrid(1, 256)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    ching = standard_ching(grid, 0.0, 4)
    eps = 0.5
    a = ching - localize(ching, LocalizationCutoff(), eps)
    u = random_band_limited_field(grid, rng_for(36, 1), 60.0, modes=30)
    sp = para_split(a, u, part, part.J_max)
    rep = support_inclusions(sp, tdc_B=2.0 / eps)
    assert rep.tdc_corona_checked
    assert not rep.violations


def test_support_inclusions_reports_term_outside_corona(grid, part):
    # negative control: the clean split of the test above, with the
    # low-high term of level 4 swapped for a mode inside the ball but
    # below the corona's inner radius 0.25 * 2^4 = 4
    rng = rng_for(36, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=10, eta_band=12)
    u = random_band_limited_field(grid, rng, 12.0)
    sp = para_split(a, u, part, part.J_max)
    sym, w, _ = sp.series["low_high"][4]
    sp.series["low_high"][4] = (sym, w, mode(grid, 1))
    rep = support_inclusions(sp)
    assert rep.violations == [("low_high", 4, [(1,)])]


def test_support_inclusions_tdc_corona_negative_control():
    # plain Ching breaks the twisted-diagonal condition: on a uniform
    # lacunary stack at N = 512 its near-diagonal term at k = 7 >= k_tdc
    # has mass at frequency 0, inside the TDC inner radius; the TDC symbol
    # has none
    from paradiff_lab import LocalizationCutoff, localize
    grid = TorusGrid(1, 512)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    assert part.J_max == 7
    ching = standard_ching(grid, 0.0, 7)
    u = lacunary_stack(grid, np.ones(8))
    eps = 0.25
    rep = support_inclusions(para_split(ching, u, part, part.J_max),
                             tdc_B=2.0 / eps)
    assert rep.violations == [("diagonal_a_tdc", 7, [(0,)])]
    a_tdc = ching - localize(ching, LocalizationCutoff(), eps)
    rep = support_inclusions(para_split(a_tdc, u, part, part.J_max),
                             tdc_B=2.0 / eps)
    assert not rep.violations


# -- spectral support rule ----------------------------------------------------


def test_support_rule_modulation_mode(grid):
    theta = 3
    a = DiscreteSymbol.from_function(
        grid, lambda xs, ks: np.exp(1j * theta * xs[0]) * np.ones_like(ks[0]),
        d=0.0)
    u = mode(grid, 5)
    bound = spectral_support_bound(a, u)
    assert grid.points(bound) == [(8,)]
    assert grid.points(apply(a, u).support()) == [(8,)]


def test_support_rule_multiplier(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: np.where(np.abs(k) <= 3,
                                                           1.0, 0.0))
    rng = rng_for(37, 0)
    u = random_band_limited_field(grid, rng, 6.0)
    bound = spectral_support_bound(b, u)
    b_sup = [p for p in grid.points(u.support()) if abs(p[0]) <= 3]
    assert grid.points(bound) == b_sup


def test_support_rule_dense_oracle(grid):
    rng = rng_for(37, 1)
    for i in range(5):
        a = random_sparse_symbol(grid, rng_for(37, 2, i), d=0.0,
                                 x_band=8, eta_band=10)
        u = random_band_limited_field(grid, rng_for(37, 3, i), 10.0)
        bound = spectral_support_bound(a, u)
        # dense oracle: the full-rank matrix action in the Fourier basis
        M = operator_matrix(a)
        out = M @ u.coeffs
        out_sup = {(int(grid.axis_freqs()[z]),)
                   for z in np.argwhere(np.abs(out) > 1e-10 * np.max(np.abs(out))).ravel()}
        assert out_sup <= set(grid.points(bound))
        got = apply(a, u).support()
        assert not (got & ~bound).any()


def test_support_rule_strict_inclusion_possible(grid):
    # cancellation: two xi-paths landing on the same output frequency wipe
    # it out while a third path keeps the output nonzero overall
    pft = np.zeros((64, 64), dtype=complex)
    pft[grid.index_of((2,))[0], grid.index_of((3,))[0]] = 1.0
    pft[grid.index_of((1,))[0], grid.index_of((4,))[0]] = -1.0
    pft[grid.index_of((0,))[0], grid.index_of((3,))[0]] = 0.7
    a = DiscreteSymbol.from_partial_ft(grid, 0.0, pft)
    coeffs = np.zeros(64, dtype=complex)
    coeffs[3] = 1.0
    coeffs[4] = 1.0
    u = SpectralField.from_coeffs(grid, coeffs)
    bound = spectral_support_bound(a, u)
    assert grid.points(bound) == [(3,), (5,)]
    got = apply(a, u).support()
    assert grid.points(got) == [(3,)]  # strict: mass at 5 cancels


def test_support_bound_examples(grid):
    def rows_at(*xis):
        return DiscreteSymbol(grid, 0.0, [[xi] for xi in xis],
                              np.ones((len(xis),) + grid.shape))

    def modes(*ks):
        return sum((mode(grid, k) for k in ks), SpectralField.zero(grid))

    assert grid.points(spectral_support_bound(rows_at(1), mode(grid, 2))) \
        == [(3,)]
    assert grid.points(spectral_support_bound(rows_at(0), modes(-4, 7))) \
        == [(-4,), (7,)]
    # max|xi| + max|eta| = 4 + 31 >= N/2: the sum could wrap around
    wide = rows_at(*range(-4, 5))
    with pytest.raises(AliasingRisk):
        spectral_support_bound(wide, modes(*range(28, 32)))
    # an empty operand gives the empty set and never raises, even with a
    # mode at -N/2
    for a, u in ((DiscreteSymbol.zero(grid), mode(grid, -32)),
                 (wide, SpectralField.zero(grid))):
        bound = spectral_support_bound(a, u)
        assert bound.shape == grid.shape and not bound.any()


# -- adjoint probe ------------------------------------------------------------


def test_adjoint_probe_real_multiplier(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + k**2), d=-2.0)
    probe = discrete_adjoint_probe(b)
    adj = probe["adjoint_symbol"]
    assert np.max(np.abs(adj.values - np.conj(b.values))) < 1e-12
    for rep in probe["seminorms"].values():
        assert rep["adjoint"] == pytest.approx(rep["symbol"], rel=1e-8)


def test_adjoint_probe_identity(grid):
    probe = discrete_adjoint_probe(DiscreteSymbol.identity(grid))
    adj = probe["adjoint_symbol"]
    assert np.max(np.abs(adj.values - 1.0)) < 1e-12


def test_adjoint_probe_ching_blowup():
    # adjoint seminorms grow with the truncation level: the canonical
    # non-membership signal for the self-adjoint subclass
    for grid, Js in ((TorusGrid(1, 256), (2, 5)), (TorusGrid(2, 64), (2, 4))):
        vals = []
        for J in Js:
            probe = discrete_adjoint_probe(standard_ching(grid, 0.0, J))
            vals.append(probe["seminorms"]["alpha0_beta1"]["adjoint"])
        assert vals[1] >= 2.0 * vals[0], grid
