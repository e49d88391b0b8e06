import numpy as np
import pytest

from paradiff_lab import (ChingProfile, DepthUnsupported, DiscreteSymbol,
                          GridTooCoarse, LevelOutOfRange, LocalizationCutoff,
                          TorusGrid, ching_symbol, estimate_seminorm, localize,
                          make_modulation, make_partition, partial_ft,
                          symbol_band, tdc_seminorm, twisted_diagonal_check)
from paradiff_lab.corpus import random_sparse_symbol, rng_for, standard_ching


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def part(grid):
    return make_partition(make_modulation(1.0, 2.0), grid)


def test_non_finite_symbol_rejected(grid):
    vals = np.ones(grid.shape + grid.shape, dtype=complex)
    vals[3, 7] = np.nan
    with pytest.raises(ValueError):
        DiscreteSymbol(grid, 0.0, vals)


# -- seminorms ---------------------------------------------------------------


def test_seminorm_identity(grid):
    a = DiscreteSymbol.identity(grid)
    assert estimate_seminorm(a, 0, 0).value == pytest.approx(1.0)


def test_seminorm_bessel_order_one(grid):
    a = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** 0.5, d=1.0)
    # sup (1+|eta|^2)^(1/2) / (1+|eta|) = 1, attained at eta = 0
    assert estimate_seminorm(a, 0, 0).value == pytest.approx(1.0)


def test_seminorm_ching_sup_scan_oracle(grid):
    a = standard_ching(grid, 0.0, 3)
    got = estimate_seminorm(a, 0, 0).value
    # oracle: direct lattice scan of |a| with the d=0 weight
    expected = float(np.max(np.abs(a.values)
                            / (1.0 + grid.freq_norms())[None, :] ** 0.0))
    assert got == pytest.approx(expected)


def test_seminorm_depth_cap(grid):
    a = DiscreteSymbol.identity(grid)
    with pytest.raises(DepthUnsupported):
        estimate_seminorm(a, 3, 2)


def test_seminorm_triangle_inequality(grid):
    rng = rng_for(21, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=8, eta_band=10)
    b = random_sparse_symbol(grid, rng, d=0.0, x_band=8, eta_band=10)
    for alpha, beta in ((0, 0), (1, 0), (0, 1), (2, 1)):
        lhs = estimate_seminorm(a + b, alpha, beta).value
        rhs = (estimate_seminorm(a, alpha, beta).value
               + estimate_seminorm(b, alpha, beta).value)
        assert lhs <= rhs * (1 + 1e-12)


# -- Ching symbols -----------------------------------------------------------


def test_ching_single_term(grid):
    prof = ChingProfile()
    a = ching_symbol(grid, 0.0, (1,), prof, 0)
    x = grid.axis_points()
    # at |eta| = 1 the only term contributes e^{-i x theta} A(eta)
    idx = grid.index_of((1,))[0]
    expected = np.exp(-1j * x) * prof(np.array([1.0]))[0]
    assert np.max(np.abs(a.values[:, idx] - expected)) < 1e-12


def test_ching_disjoint_supports(grid):
    a = standard_ching(grid, 0.0, 3)
    prof = ChingProfile()
    k = grid.axis_freqs().astype(float)
    # for every eta at most one term is active, so |a(x, eta)| equals the
    # modulus of that term for all x
    for j in range(4):
        contrib = [np.abs(prof(k / 2**jj)[grid.index_of((2**j,))]) > 0
                   for jj in range(4)]
        assert sum(contrib) == 1 and contrib[j]


def test_ching_dyadic_sample_nonzero_only_through_own_term(grid):
    prof = ChingProfile()
    k = grid.axis_freqs().astype(float)
    for j in range(4):
        eta = 2.0**j
        active = [jj for jj in range(4)
                  if abs(prof(np.array([eta / 2**jj]))[0]) > 0]
        assert active == [j]


def test_ching_zero_order_kills_ray():
    grid = TorusGrid(1, 128)
    a1 = standard_ching(grid, 0.0, 4, zero_order=1)
    k_idx = grid.index_of((8,))[0]  # eta = 2^3 exactly on the ray
    assert np.max(np.abs(a1.values[:, k_idx])) < 1e-14
    a0 = standard_ching(grid, 0.0, 4, zero_order=0)
    assert np.max(np.abs(a0.values[:, k_idx])) > 0.9


def test_ching_grid_too_coarse(grid):
    with pytest.raises(GridTooCoarse):
        ching_symbol(grid, 0.0, (1,), ChingProfile(), 5)  # 5*2^3 = 40 >= 32


def test_one_sided_profile():
    prof = ChingProfile(one_sided=True)
    assert prof(np.array([1.0]))[0] == pytest.approx(1.0)
    assert prof(np.array([-1.0]))[0] == 0.0


# -- partial transform -------------------------------------------------------


def test_partial_ft_constant(grid):
    a = DiscreteSymbol.identity(grid)
    pft = partial_ft(a)
    assert np.max(np.abs(pft[0] - 1.0)) < 1e-14
    assert np.max(np.abs(pft[1:])) < 1e-14


def test_partial_ft_ching_term_single_phase(grid):
    prof = ChingProfile()
    a = ching_symbol(grid, 0.0, (1,), prof, 2)
    pft = partial_ft(a)
    k = grid.axis_freqs().astype(float)
    for j in range(3):
        row = grid.index_of((-(2**j),))
        expected = prof(k / 2**j)
        assert np.max(np.abs(pft[row] - expected)) < 1e-12
    mass = np.max(np.abs(pft), axis=1)
    others = [i for i in range(64)
              if i not in {grid.index_of((-(2**j),))[0] for j in range(3)}]
    assert np.max(mass[others]) < 1e-12


def test_partial_ft_multiplier_zero_column(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + k**2), d=-2.0)
    pft = partial_ft(b)
    k = grid.axis_freqs().astype(float)
    assert np.max(np.abs(pft[0] - 1.0 / (1.0 + k**2))) < 1e-14


# -- twisted diagonal --------------------------------------------------------


def test_tdc_identity_holds(grid):
    res = twisted_diagonal_check(DiscreteSymbol.identity(grid), 1.0)
    assert res["holds"] and res["worst_violation"] == 0.0


def test_tdc_ching_fails_oracle(grid):
    a = standard_ching(grid, 0.0, 4)
    res = twisted_diagonal_check(a, 2.0)
    assert not res["holds"]
    # oracle: scan the sparse partial transform directly
    pft = partial_ft(a)
    k = grid.axis_freqs().astype(float)
    worst = 0.0
    peak = np.max(np.abs(pft))
    for i in range(64):
        for j in range(64):
            if 2.0 * (1.0 + abs(k[i] + k[j])) < abs(k[j]):
                worst = max(worst, abs(pft[i, j]) / peak)
    assert res["worst_violation"] == pytest.approx(worst)
    assert worst > 0.5  # mass at xi = -2^j theta, eta = 2^j theta


def test_localize_multiplier_vanishes(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: np.exp(-0.1 * k**2))
    chi = LocalizationCutoff()
    for eps in (0.5, 0.25):
        assert np.max(np.abs(localize(b, chi, eps).values)) == 0.0


def test_localize_support_rule(grid):
    a = standard_ching(grid, 0.0, 4)
    chi = LocalizationCutoff()
    eps = 0.5
    loc = localize(a, chi, eps)
    pft = loc.partial_ft()
    k = grid.axis_freqs().astype(float)
    peak = np.max(np.abs(pft))
    assert peak > 0  # ching retains mass near the twisted diagonal
    thr = 1e-12 * peak
    for i in range(64):
        for j in range(64):
            if abs(pft[i, j]) > thr:
                assert 1.0 + abs(k[i] + k[j]) <= 2 * eps * abs(k[j]) + 1e-9


def test_tdc_enforced_complement(grid):
    # complement a - a_{chi,eps} satisfies the vanishing condition with
    # B = 2/eps (derived; verified here by exact lattice scan)
    a = standard_ching(grid, 0.0, 4)
    chi = LocalizationCutoff()
    for eps in (0.5, 0.25):
        compl = a - localize(a, chi, eps)
        res = twisted_diagonal_check(compl, 2.0 / eps, tol=1e-12)
        assert res["holds"]


def test_tdc_symbol_localizes_to_zero(grid):
    # once the twisted-diagonal condition holds with constant B,
    # localization at 2 eps < 1/B removes everything
    a = standard_ching(grid, 0.0, 4)
    chi = LocalizationCutoff()
    compl = a - localize(a, chi, 0.5)   # satisfies the condition with B = 4
    eps = 0.1                           # 2 eps = 0.2 < 1/4
    gone = localize(compl, chi, eps)
    assert np.max(np.abs(gone.values)) < 1e-12 * np.max(np.abs(a.values))


def test_cutoff_homogeneity_witness():
    chi = LocalizationCutoff()
    assert chi.homogeneity_witness() < 1e-12
    # support and plateau constraints
    assert chi(np.array([3.0]), np.array([2.9]))[0] == 0.0  # |xi| > |eta|
    assert chi(np.array([0.5]), np.array([0.9]))[0] == 0.0  # |eta| < 1
    assert chi(np.array([1.0]), np.array([2.0]))[0] == 1.0  # plateau


def test_tdc_seminorm_zero_symbol(grid):
    z = DiscreteSymbol.zero(grid)
    chi = LocalizationCutoff()
    res = tdc_seminorm(z, chi, 0.25, 0)
    assert res.value == 0.0 and res.sigma_hat == np.inf


def test_tdc_seminorm_multiplier_sentinel(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** 0.25, d=0.5)
    res = tdc_seminorm(b, LocalizationCutoff(), 0.25, 0)
    assert res.sigma_hat == np.inf and res.c_hat == 0.0


def test_tdc_seminorm_s011_nonnegative_sigma():
    grid = TorusGrid(1, 128)
    a = standard_ching(grid, 0.0, 4)
    res = tdc_seminorm(a, LocalizationCutoff(), 0.25, 0)
    # the eps -> 0 decay never undershoots the universal rate: sigma >= 0
    # within the fit tolerance of the five-point family
    assert res.sigma_hat >= -0.35
    assert np.isfinite(res.c_hat)


# -- symbol bands ------------------------------------------------------------


def test_symbol_band_multiplier(grid, part):
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + np.abs(k)))
    b0 = symbol_band(b, 0, part)
    assert np.max(np.abs(b0.values - b.values)) < 1e-12
    for k in range(1, part.J_max + 1):
        assert np.max(np.abs(symbol_band(b, k, part).values)) < 1e-13


def test_symbol_band_telescoping(grid, part):
    rng = rng_for(22, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=14, eta_band=10)
    total = DiscreteSymbol.zero(grid)
    for k in range(part.J_max + 1):
        total = total + symbol_band(a, k, part)
    # x-band 14 < r 2^J_max = 16, so the band sum reproduces the symbol
    assert np.max(np.abs(total.values - a.values)) < 1e-10


def test_symbol_band_ching_lands_in_expected_band(grid, part):
    a = standard_ching(grid, 0.0, 3)
    # oracle: term j oscillates at xi = -2^j; it must appear in x-band k
    # with r 2^(k-1) <= 2^j <= R 2^k and in no others
    for j in range(4):
        hits = []
        for k in range(part.J_max + 1):
            bk = symbol_band(a, k, part)
            col = bk.partial_ft()[grid.index_of((-(2**j),))]
            if np.max(np.abs(col)) > 1e-12:
                hits.append(k)
        for k in hits:
            lo, hi = (0.0, part.R) if k == 0 else \
                (part.r * 2 ** (k - 1), part.R * 2**k)
            assert lo <= 2**j <= hi
        assert hits  # every term is captured somewhere


def test_symbol_band_level_conventions(grid, part):
    a = DiscreteSymbol.identity(grid)
    assert np.max(np.abs(symbol_band(a, -2, part).values)) == 0.0
    with pytest.raises(LevelOutOfRange):
        symbol_band(a, part.J_max + 1, part)


def test_symbol_json_round_trip(grid):
    rng = rng_for(23, 0)
    a = random_sparse_symbol(grid, rng, d=0.5, x_band=6, eta_band=6)
    b = DiscreteSymbol.from_json(grid, a.to_json())
    assert b.d == a.d
    assert np.max(np.abs(b.values - a.values)) < 1e-12
