import numpy as np
import pytest

from paradiff_lab import (BadExponent, DepthUnsupported, DiscreteSymbol,
                          MaxParams, RingWindow, SpectralField,
                          SupportViolation, TorusGrid, apply,
                          check_factorization, hl_max, make_modulation,
                          make_partition, mihlin_bound, para_split,
                          paraterm_pointwise_check, peetre_max,
                          symbol_factor, yamazaki_check, yamazaki_constant)
from paradiff_lab.corpus import (random_band_limited_field,
                                 random_sparse_symbol, rng_for, standard_ching)
from paradiff_lab import pointwise
from paradiff_lab.experiments import FROZEN_THRESHOLDS
from paradiff_lab.pointwise import torus_offsets


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def mode(grid, k):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.index_of((k,))] = 1.0
    return SpectralField.from_coeffs(grid, coeffs)


# -- Peetre maximal function ---------------------------------------------------


def test_peetre_constant(grid):
    u = SpectralField.from_values(grid, np.full(64, -3.0 + 0j))
    star = peetre_max(u, MaxParams(2.0, 1.0))
    assert np.max(np.abs(star - 3.0)) < 1e-14


def test_peetre_single_mode(grid):
    star = peetre_max(mode(grid, 9), MaxParams(3.0, 4.0))
    assert np.max(np.abs(star - 1.0)) < 1e-12


def test_peetre_spike(grid):
    vals = np.zeros(64, dtype=complex)
    vals[5] = 1.0
    u = SpectralField.from_values(grid, vals)
    star = peetre_max(u, MaxParams(2.0, 1.0))
    d = grid.axis_points()
    dist = np.minimum(np.abs(d - d[5]), 2 * np.pi - np.abs(d - d[5]))
    assert np.max(np.abs(star - (1.0 + dist) ** -2.0)) < 1e-12


def test_peetre_invariants(grid):
    rng = rng_for(41, 0)
    u = random_band_limited_field(grid, rng, 10.0)
    p_small = MaxParams(1.5, 8.0)
    p_big = MaxParams(3.0, 8.0)
    star_small = peetre_max(u, p_small)
    star_big = peetre_max(u, p_big)
    absu = np.abs(u.values)
    assert np.all(star_small >= absu - 1e-14)
    assert np.all(star_small >= star_big - 1e-14)  # non-increasing in N
    # modulus invariance under modulation
    x = grid.axis_points()
    mod = SpectralField.from_values(grid, np.exp(5j * x) * u.values)
    star_mod = peetre_max(mod, p_small)
    assert np.max(np.abs(star_mod - star_small)) < 1e-12


def test_peetre_translation_equivariance(grid):
    rng = rng_for(41, 1)
    u = random_band_limited_field(grid, rng, 12.0)
    p = MaxParams(2.0, 4.0)
    shifted = SpectralField.from_values(grid, np.roll(u.values, 7))
    lhs = peetre_max(shifted, p)
    rhs = np.roll(peetre_max(u, p), 7)
    assert np.array_equal(lhs, rhs)


def test_peetre_2d_constant():
    grid = TorusGrid(2, 16)
    u = SpectralField.from_values(grid, np.full((16, 16), 2.0 + 0j))
    star = peetre_max(u, MaxParams(2.0, 1.0))
    assert np.max(np.abs(star - 2.0)) < 1e-14


# -- Hardy-Littlewood ----------------------------------------------------------


def test_hl_constant(grid):
    u = SpectralField.from_values(grid, np.full(64, 1.5 + 0j))
    for t in (1.0, 0.5):
        assert np.max(np.abs(hl_max(u, t) - 1.5)) < 1e-12


def test_hl_dominates_modulus(grid):
    rng = rng_for(42, 0)
    u = random_band_limited_field(grid, rng, 10.0)
    M = hl_max(u, 1.0)
    assert np.all(M >= np.abs(u.values) * (1 - 1e-12))


def test_hl_spike_decay(grid):
    vals = np.zeros(64, dtype=complex)
    vals[0] = 1.0 / grid.spacing  # unit mass spike
    u = SpectralField.from_values(grid, vals)
    M = hl_max(u, 1.0)
    d = torus_offsets(grid)
    # the best radius reaches just to the spike: M ~ mass / radius
    far = d > 4 * grid.spacing
    ratio = M[far] * d[far]
    assert np.all(ratio > 0.4) and np.all(ratio < 2.1)


def test_hl_bad_exponent(grid):
    with pytest.raises(BadExponent):
        hl_max(SpectralField.zero(grid), 1.5)


def test_peetre_dominated_by_hl(grid):
    # u*(n/t, R; x) <= c M_t u(x); the constant is measured, not asserted
    part = make_partition(make_modulation(1.0, 2.0), grid)
    rng = rng_for(42, 1)
    t = 0.9
    worst = 0.0
    from paradiff_lab import dyadic_block
    for i in range(3):
        u = random_band_limited_field(grid, rng_for(42, 2, i), 14.0)
        for k in (2, 3):
            uk = dyadic_block(u, k, part)
            if uk.norm_inf() == 0:
                continue
            star = peetre_max(uk, MaxParams(grid.n / t, 2.0 * 2**k))
            M = hl_max(uk, t)
            mask = M > 0
            worst = max(worst, float(np.max(star[mask] / M[mask])))
    assert np.isfinite(worst) and worst <= 3.0  # frozen from calibration


# -- symbol factor --------------------------------------------------------------


def test_symbol_factor_identity_quadrature_oracle(grid):
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(2.0, 8.0)
    Fa = symbol_factor(DiscreteSymbol.identity(grid), p, psi)
    # oracle: direct quadrature of the windowed kernel
    k = grid.axis_freqs().astype(float)
    chi = psi(np.abs(k) / p.R)
    y = grid.axis_points()
    kernel = np.array([np.sum(chi * np.exp(1j * y_ * k)) for y_ in y]) / (2 * np.pi)
    dist = torus_offsets(grid)
    expected = np.sum((1 + p.R * dist) ** p.N * np.abs(kernel)) * grid.spacing
    assert np.max(np.abs(Fa - expected)) < 1e-10 * expected
    assert np.all(Fa >= 1.0 - 1e-9)  # integral of the kernel is chi(0) = 1
    assert np.max(Fa) - np.min(Fa) < 1e-12 * np.max(Fa)  # constant in x


def test_symbol_factor_x_independent_constant(grid):
    psi = make_modulation(1.0, 2.0)
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + k**2), d=-2.0)
    Fa = symbol_factor(b, MaxParams(2.0, 4.0), psi)
    assert np.max(Fa) - np.min(Fa) < 1e-12 * np.max(Fa)


@pytest.mark.parametrize("d", [-1.0, 0.0, 1.0])
def test_symbol_factor_order_scan(d):
    # with a window vanishing near the origin, F_a = O(R^d): fitted slope
    # within 0.2 of the declared order once the window ramps are resolved
    grid = TorusGrid(1, 512)
    ring = RingWindow(0.25, 0.5, 1.0, 2.0)
    a = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** (d / 2.0),
                                  d=d)
    Rs = [16.0, 32.0, 64.0, 128.0]
    vals = [float(np.max(symbol_factor(a, MaxParams(2.0, R), ring)))
            for R in Rs]
    slope = np.polyfit(np.log2(Rs), np.log2(vals), 1)[0]
    assert abs(slope - d) <= 0.2


def test_symbol_factor_window_agreement(grid):
    # two cutoffs that agree (both equal 1) on the symbol's frequency rows
    # give exactly the same symbol factor
    rng = rng_for(48, 0)
    a = random_sparse_symbol(grid, rng, d=0.0, x_band=10, eta_band=4)
    p = MaxParams(2.0, 8.0)
    f1 = symbol_factor(a, p, make_modulation(1.0, 2.0))
    f2 = symbol_factor(a, p, make_modulation(1.5, 2.5))
    assert np.array_equal(f1, f2)


def test_symbol_factor_window_range_check(grid):
    psi = make_modulation(1.0, 2.0)
    with pytest.raises(Exception):
        symbol_factor(DiscreteSymbol.identity(grid), MaxParams(2.0, 20.0), psi)
    # clipped mode computes anyway
    out = symbol_factor(DiscreteSymbol.identity(grid), MaxParams(2.0, 20.0),
                        psi, allow_clipped=True)
    assert np.all(out > 0)


# -- factorization inequality ---------------------------------------------------


@pytest.mark.parametrize("num, den, floor, ratio, x", [
    ([1.0, 6.0, 2.0], [2.0, 3.0, 4.0], 0.0, 2.0, 1),
    ([1.0, 2.0], [1.0, 0.0], 0.0, np.inf, 1),        # mass where den = 0
    ([1.0, 1e-14], [1.0, 0.0], 1e-13, 1.0, 0),       # below the floor
    ([1.0, 1e-13], [1.0, 0.0], 1e-13, 1.0, 0),       # at the floor
    ([0.0, 0.0], [0.0, 0.0], 0.0, 0.0, 0),           # 0 / 0
    ([1.0, np.nan], [1.0, 1.0], 0.0, np.nan, 1),     # NaN in num
    ([1.0, 1.0], [np.nan, 1.0], 0.0, np.nan, 0),     # NaN in den
    ([3.0, 1.0], [np.nan, 0.0], 0.0, np.nan, 0),     # NaN outranks inf
    (3.0, 2.0, 0.0, 1.5, 0),                         # 0-d
    (3.0, 0.0, 0.0, np.inf, 0),
    ([[1.0, 2.0], [8.0, 1.0]], 2.0, 0.0, 4.0, 2),    # flat row-major x
])
def test_max_ratio_rule(num, den, floor, ratio, x):
    got, at = pointwise.max_ratio(num, den, floor)
    assert at == x and isinstance(at, int)
    if np.isnan(ratio):
        assert np.isnan(got)
    else:
        assert got == ratio


def test_factorization_identity(grid):
    rng = rng_for(43, 0)
    u = random_band_limited_field(grid, rng, 8.0)
    res = check_factorization(DiscreteSymbol.identity(grid), u,
                              MaxParams(2.0, 8.0))
    assert res["holds"]


def test_factorization_multiplier_single_mode(grid):
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + k**2), d=-2.0)
    u = mode(grid, 6)
    p = MaxParams(2.0, 8.0)
    res = check_factorization(b, u, p)
    # oracle: |b(6)| / (F_b * 1) with u* identically 1
    Fa = symbol_factor(b, p, make_modulation(1.0, 2.0))
    expected = (1.0 / 37.0) / float(Fa[0])
    assert res["max_ratio"] == pytest.approx(expected, rel=1e-9)
    assert res["holds"] and 0 <= res["x"] < grid.N


def test_factorization_sweep(grid):
    worst = 0.0
    for i in range(10):
        a = random_sparse_symbol(grid, rng_for(43, 1, i), d=0.0,
                                 x_band=12, eta_band=10)
        u = random_band_limited_field(grid, rng_for(43, 2, i), 10.0)
        res = check_factorization(a, u, MaxParams(2.0, 12.0))
        worst = max(worst, res["max_ratio"])
    assert worst <= 1.0 + 1e-6


def test_factorization_support_violation(grid):
    u = mode(grid, 20)
    with pytest.raises(SupportViolation) as exc:
        check_factorization(DiscreteSymbol.identity(grid), u,
                            MaxParams(2.0, 8.0))
    assert exc.value.offenders == [(20,)]


# -- Mihlin-type bound ----------------------------------------------------------


def test_mihlin_identity_calibration(grid):
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(1.0, 8.0)
    a = DiscreteSymbol.identity(grid)
    Fa = symbol_factor(a, p, psi)
    rhs = mihlin_bound(a, p, psi)
    assert np.all(rhs > 0)
    assert np.max(Fa / rhs) == pytest.approx(1.0, rel=1e-9)


def test_mihlin_bounds_corpus(grid):
    psi = make_modulation(1.0, 2.0)
    p = MaxParams(1.0, 8.0)
    worst = 0.0
    syms = [standard_ching(grid, 0.0, 3),
            DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** 0.5,
                                      d=1.0)]
    for i in range(5):
        syms.append(random_sparse_symbol(grid, rng_for(44, i), d=0.0,
                                         x_band=10, eta_band=10))
    for a in syms:
        Fa = symbol_factor(a, p, psi)
        rhs = mihlin_bound(a, p, psi)
        mask = rhs > 0
        worst = max(worst, float(np.max(Fa[mask] / rhs[mask])))
    assert worst <= 2.0  # frozen margin over the identity calibration


def test_mihlin_depth_cap(grid):
    psi = make_modulation(1.0, 2.0)
    with pytest.raises(DepthUnsupported):
        mihlin_bound(DiscreteSymbol.identity(grid), MaxParams(4.0, 4.0), psi)


def test_mihlin_order_scaling():
    # the right-hand side inherits the O(R^d) scaling on annular windows
    grid = TorusGrid(1, 512)
    ring = RingWindow(0.25, 0.5, 1.0, 2.0)
    d = 1.0
    a = DiscreteSymbol.multiplier(grid, lambda k: (1.0 + k**2) ** 0.5, d=d)
    Rs = [16.0, 32.0, 64.0, 128.0]
    vals = [float(np.max(mihlin_bound(a, MaxParams(1.0, R), ring)))
            for R in Rs]
    slope = np.polyfit(np.log2(Rs), np.log2(vals), 1)[0]
    assert abs(slope - d) <= 0.25


# -- paradifferential pointwise estimates ---------------------------------------


def test_paraterm_identity(grid):
    part = make_partition(make_modulation(1.0, 2.0), grid)
    rng = rng_for(45, 0)
    u = random_band_limited_field(grid, rng, 14.0)
    sp = para_split(DiscreteSymbol.identity(grid), u, part, part.J_max)
    rep = paraterm_pointwise_check(sp, MaxParams(2.0, 2.0))
    assert rep.max_factorization_ratio <= 1 + 1e-6
    # x-independent symbol: the high-low series vanishes identically
    assert all(r == 0.0 for r in rep.factorization_ratios["high_low"])
    assert all(s <= FROZEN_THRESHOLDS["paraterm_slope"]
               for s in rep.growth_slopes.values())


def test_paraterm_multiplier_high_low_vacuous(grid):
    part = make_partition(make_modulation(1.0, 2.0), grid)
    b = DiscreteSymbol.multiplier(grid, lambda k: 1.0 / (1.0 + np.abs(k)))
    rng = rng_for(45, 1)
    u = random_band_limited_field(grid, rng, 14.0)
    sp = para_split(b, u, part, part.J_max)
    rep = paraterm_pointwise_check(sp, MaxParams(2.0, 2.0))
    assert rep.max_factorization_ratio <= 1 + 1e-6
    assert all(r == 0.0 for r in rep.factorization_ratios["high_low"])


def test_paraterm_ching_bounded(grid):
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = standard_ching(grid, 0.0, 3)
    rng = rng_for(45, 2)
    u = random_band_limited_field(grid, rng, 14.0)
    sp = para_split(a, u, part, part.J_max)
    rep = paraterm_pointwise_check(sp, MaxParams(2.0, 2.0))
    assert rep.max_factorization_ratio <= 1 + 1e-6
    assert np.isfinite(rep.max_factorization_ratio)


def test_paraterm_nan_majorant_fails(grid, monkeypatch):
    # a NaN majorant fails major > 0 like a vanishing one, which reads as
    # inf and is left out of the maximum; the NaN itself must not vanish
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = standard_ching(grid, 0.0, 3)
    u = random_band_limited_field(grid, rng_for(45, 4), 14.0)
    sp = para_split(a, u, part, part.J_max)
    monkeypatch.setattr(pointwise, "symbol_factor",
                        lambda *args, **kw: np.full(grid.shape, np.nan))
    rep = paraterm_pointwise_check(sp, MaxParams(2.0, 2.0))
    assert np.isnan(rep.max_factorization_ratio)
    assert not rep.max_factorization_ratio <= 1 + 1e-6
    assert set(rep.witness) == {"series", "level", "x"}


# -- the pointwise memo ----------------------------------------------------------


@pytest.fixture
def expansions(monkeypatch):
    """Empties the memo and counts the x-expansions built."""
    pointwise._memo.clear()
    count = [0]
    expand = DiscreteSymbol._expand

    def counted(self, rows, axes):
        count[0] += 1
        return expand(self, rows, axes)
    monkeypatch.setattr(DiscreteSymbol, "_expand", counted)
    return count


def test_second_input_reuses_symbol_factors(grid, expansions):
    # the factors depend on the symbol's bands only, so a split of the same
    # symbol against another input rebuilds none of them
    part = make_partition(make_modulation(1.0, 2.0), grid)
    a = random_sparse_symbol(grid, rng_for(46, 0), d=0.0, x_band=8.0)
    p = MaxParams(2.0, 2.0)
    first, second = (
        para_split(a, random_band_limited_field(grid, rng_for(46, s), 14.0),
                   part, part.J_max) for s in (1, 2))
    paraterm_pointwise_check(first, p)
    assert expansions[0] > 0
    built = expansions[0]
    rep = paraterm_pointwise_check(second, p)
    assert expansions[0] == built
    assert max(max(r) for r in rep.factorization_ratios.values()) > 0


def test_memo_hit_is_exact_and_read_only(grid, expansions):
    a = random_sparse_symbol(grid, rng_for(47, 0), d=0.0, x_band=8.0)
    p, psi = MaxParams(2.0, 4.0), make_modulation(1.0, 2.0)
    hit = symbol_factor(a, p, psi)
    assert symbol_factor(a.with_rows(a.rows.copy()), p, psi) is hit
    assert expansions[0] == 1
    pointwise._memo.clear()
    assert np.array_equal(hit, symbol_factor(a, p, psi))
    with pytest.raises(ValueError):
        hit[0] = 0.0


def test_memo_keys_on_exact_content(grid, expansions):
    # each variant changes F_a's content or parameters, so none may share
    a = random_sparse_symbol(grid, rng_for(48, 0), d=0.0, x_band=8.0,
                             eta_band=12.0)
    rows = a.rows.copy()
    rows[0, 1] += 1e-12
    psi = make_modulation(1.0, 2.0)
    variants = [(a, MaxParams(2.0, 4.0), psi),
                (a.with_rows(rows), MaxParams(2.0, 4.0), psi),
                (a, MaxParams(2.0, 5.0), psi),
                (a, MaxParams(3.0, 4.0), psi),
                (a, MaxParams(2.0, 4.0), make_modulation(1.5, 2.5)),
                (DiscreteSymbol(TorusGrid(1, 128), 0.0, xi=a.xi,
                                rows=np.tile(a.rows, 2)),
                 MaxParams(2.0, 4.0), psi)]
    results = [symbol_factor(*v) for v in variants]
    assert expansions[0] == len(variants) == len(pointwise._memo)
    assert len({id(F) for F in results}) == len(variants)


def test_memo_stays_within_its_bound(grid, expansions, monkeypatch):
    monkeypatch.setattr(pointwise, "_MEMO_ENTRIES", 3)
    ident = DiscreteSymbol.identity(grid)
    psi = make_modulation(1.0, 2.0)
    for R in (1.0, 2.0, 3.0, 4.0, 5.0):
        F = symbol_factor(ident, MaxParams(2.0, R), psi)
        assert len(pointwise._memo) <= 3
        assert symbol_factor(ident, MaxParams(2.0, R), psi) is F
    assert expansions[0] == 5
    symbol_factor(ident, MaxParams(2.0, 1.0), psi)    # evicted, built again
    assert expansions[0] == 6
    for seed in range(3):
        u = random_band_limited_field(grid, rng_for(51, seed), 14.0)
        peetre_max(u, MaxParams(2.0, 4.0))
        assert len(pointwise._memo) <= 3
        M = hl_max(u, 0.5)
        assert len(pointwise._memo) <= 3
    assert hl_max(u, 0.5) is M


MAXIMAL = [(peetre_max, MaxParams(2.0, 4.0)), (hl_max, 0.5)]


@pytest.mark.parametrize("fn,arg", MAXIMAL, ids=["peetre", "hl"])
def test_maximal_memo_hit_is_exact_and_read_only(grid, fn, arg):
    pointwise._memo.clear()
    u = random_band_limited_field(grid, rng_for(49, 0), 14.0)
    hit = fn(u, arg)
    same = SpectralField.from_coeffs(grid, u.coeffs.copy())
    assert fn(same, arg) is hit
    assert same._values is None    # a hit runs no inverse FFT
    pointwise._memo.clear()
    assert np.array_equal(hit, fn(u, arg))
    with pytest.raises(ValueError):
        hit[0] = 0.0


def test_maximal_memo_keys_on_exact_content(grid):
    # a 1e-12 change in one coefficient, another N, R or t: none may share
    pointwise._memo.clear()
    u = random_band_limited_field(grid, rng_for(50, 0), 14.0)
    coeffs = u.coeffs.copy()
    coeffs.flat[np.flatnonzero(coeffs)[0]] += 1e-12
    v = SpectralField.from_coeffs(grid, coeffs)
    calls = [(peetre_max, u, MaxParams(2.0, 4.0)),
             (peetre_max, v, MaxParams(2.0, 4.0)),
             (peetre_max, u, MaxParams(2.0, 5.0)),
             (peetre_max, u, MaxParams(3.0, 4.0)),
             (hl_max, u, 0.5), (hl_max, v, 0.5), (hl_max, u, 1.0)]
    results = [fn(w, arg) for fn, w, arg in calls]
    assert len(pointwise._memo) == len(calls)
    assert len({id(M) for M in results}) == len(calls)


# -- cumulative-sum inequality ---------------------------------------------------


def test_yamazaki_geometric_sharpness():
    # b = (1, 0, 0, ...): lhs/rhs approaches 1/(1 - 2^s), which the closed
    # constant reproduces exactly at q = 1
    s = -1.0
    b = np.zeros(200)
    b[0] = 1.0
    res = yamazaki_check(b, s, 1.0)
    assert res["rhs"] == 1.0
    assert res["lhs"] == pytest.approx(1.0 / (1.0 - 2.0**s), abs=1e-12)
    assert yamazaki_constant(s, 1.0) == pytest.approx(2.0)
    assert res["holds"]


def test_yamazaki_zero_sequence():
    res = yamazaki_check(np.zeros(10), -0.5, 2.0)
    assert res["lhs"] == 0.0 and res["rhs"] == 0.0 and res["holds"]


def test_yamazaki_random_sweep():
    rng = rng_for(46, 0)
    for s in (-1.0, -0.5):
        for q in (1.0, 2.0, np.inf, 0.5):
            for _ in range(250):
                b = rng.random(30)
                res = yamazaki_check(b, s, q)
                assert res["lhs"] <= res["rhs_const"] * res["rhs"] * (1 + 1e-12)


def test_yamazaki_bad_exponent():
    with pytest.raises(BadExponent):
        yamazaki_check(np.ones(4), 0.0, 1.0)
