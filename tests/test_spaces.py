import numpy as np
import pytest

from paradiff_lab import (AliasingRisk, BadExponent, CoronaSpec,
                          DiscreteSymbol, GridTooCoarse, NormSpec,
                          SpectralField, SupportViolation, TorusGrid,
                          corona_sum_check, dyadic_dilate, embedding_check,
                          embedding_constant, fefferman_stein_check, hl_max,
                          homog_besov_norm, make_modulation, make_partition,
                          marschall_check, space_norm, weierstrass_signal)
from paradiff_lab.corpus import (lacunary_stack, random_band_limited_field,
                                 rng_for)
from paradiff_lab.lp import dyadic_block
from paradiff_lab.spaces import _dyadic_norm, _dyadic_shells, lp_norm


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def part(grid):
    return make_partition(make_modulation(1.0, 2.0), grid)


def mode(grid, k, amp=1.0):
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[grid.index_of((k,))] = amp
    return SpectralField.from_coeffs(grid, coeffs)


# -- quasi-norms ----------------------------------------------------------------


@pytest.mark.parametrize("scale,s,p,q", [
    ("B", 0.7, 2.0, 1.0), ("F", 0.7, 2.0, 1.0),
    ("B", -1.3, 4.0, np.inf), ("F", 1.0, 2.0, 2.0),
    ("B", 2.0, np.inf, np.inf),
])
def test_single_mode_norm_exact(grid, part, scale, s, p, q):
    # a mode on the plateau of exactly one block: norm = 2^{s j0}
    j0 = 3
    u = mode(grid, 2**j0)
    val = space_norm(u, NormSpec(scale, s, p, q), part)
    assert val == pytest.approx(2.0 ** (s * j0), rel=1e-12)


def test_sobolev_convention_single_mode(grid, part):
    # F with q = 2 realizes the Sobolev convention; B and F agree on a mode
    j0 = 2
    u = mode(grid, 2**j0)
    s = 0.8
    f = space_norm(u, NormSpec("F", s, 2.0, 2.0), part)
    b = space_norm(u, NormSpec("B", s, 2.0, 2.0), part)
    assert f == pytest.approx(2.0 ** (s * j0), rel=1e-12)
    assert b == pytest.approx(f, rel=1e-12)


def test_zygmund_norm_single_mode(grid, part):
    # B with p = q = inf is the sup-based scale: sup_j 2^{sj} ||u_j||_inf
    u = mode(grid, 8)
    val = space_norm(u, NormSpec("B", 1.5, np.inf, np.inf), part)
    assert val == pytest.approx(2.0 ** (1.5 * 3), rel=1e-12)


def test_zero_field_norm(grid, part):
    assert space_norm(SpectralField.zero(grid),
                      NormSpec("F", 1.0, 2.0, 2.0), part) == 0.0


P2_SPECS = [NormSpec("B", s, 2.0, q) for s in (-1.0, 0.5)
            for q in (0.5, 1.0, 2.0, np.inf)] + \
    [NormSpec("F", s, 2.0, 2.0) for s in (-1.0, 0.0, 1.5)]


@pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
def test_parseval_route_matches_block_oracle(n, N):
    """At p = 2 the norm comes from the coefficients; the oracle takes the
    blocks u_j to x one at a time and reduces their grid samples."""
    g = TorusGrid(n, N)
    pt = make_partition(make_modulation(1.0, 2.0), g)
    fields = [random_band_limited_field(g, rng_for(seed, 5), N / 4)
              for seed in range(3)]
    fields += [lacunary_stack(g, 2.0 ** -np.arange(J + 1))
               for J in range(1, int(np.log2(N)) - 1)]
    levels = range(pt.J_max + 1)
    for u in fields:
        blocks = [dyadic_block(u, j, pt).values for j in levels]
        for spec in P2_SPECS:
            want = _dyadic_norm(spec.scale, blocks,
                                [2.0 ** (spec.s * j) for j in levels],
                                spec.p, spec.q)
            assert space_norm(u, spec, pt) == pytest.approx(want, rel=1e-12)


def test_space_norm_keeps_level_energies(grid, part, monkeypatch):
    """A field keeps its p = 2 level energies per partition: a warm field's
    norm equals a fresh copy's bit for bit, for B with q = 1, 2, inf and F
    with q = 2, in lists with repeats and warm and cold fields mixed, and
    a field normed under two partitions gets each partition's value."""
    def fresh(u):
        return SpectralField(u.grid, u.coeffs.copy())

    specs = [NormSpec("B", 0.5, 2.0, q) for q in (1.0, 2.0, np.inf)] + \
        [NormSpec("F", 0.5, 2.0, 2.0)]
    fields = [random_band_limited_field(grid, rng_for(seed, 5), 16.0)
              for seed in range(2)] + [lacunary_stack(grid, np.ones(4)),
                                       SpectralField.zero(grid)]
    other = make_partition(make_modulation(1.0, 3.0), grid)
    scans = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: scans.append(1) or flatnonzero(a))
    for spec in specs:
        for pt in (part, other, part):
            want = [space_norm(fresh(u), spec, pt) for u in fields]
            assert [space_norm(u, spec, pt) for u in fields] == want
            assert space_norm(fields + fields[:1], spec, pt) == \
                want + want[:1]
            assert space_norm([fresh(fields[0]), fields[1]], spec, pt) == \
                want[:2]
            assert space_norm([], spec, pt) == []
        assert space_norm(fields[0], spec, part) != \
            space_norm(fields[0], spec, other)
    # a warm field's modes are scanned again only when the partition changes
    space_norm(fields, specs[0], part)
    del scans[:]
    space_norm(fields, specs[0], other)
    assert len(scans) == len(fields)
    space_norm(fields, specs[-1], other)
    assert len(scans) == len(fields)


@pytest.mark.parametrize("spec,transforms", [
    *[(spec, 0) for spec in P2_SPECS],
    (NormSpec("F", 0.5, 2.0, 1.0), 1), (NormSpec("F", 0.5, 1.0, 2.0), 1),
    (NormSpec("B", 0.5, np.inf, np.inf), 1),
])
def test_space_norm_inverse_transforms(grid, part, monkeypatch, spec,
                                       transforms):
    u = random_band_limited_field(grid, rng_for(4, 5), 16.0)
    calls = []
    ifftn = np.fft.ifftn
    monkeypatch.setattr(np.fft, "ifftn",
                        lambda *a, **k: calls.append(1) or ifftn(*a, **k))
    space_norm(u, spec, part)
    assert len(calls) == transforms


def test_f_scale_requires_finite_p():
    with pytest.raises(BadExponent):
        NormSpec("F", 0.0, np.inf, 2.0)


def test_lambda_subadditivity_and_homogeneity(grid, part):
    rng = rng_for(51, 0)
    specs = [NormSpec("B", 0.5, 2.0, 1.0), NormSpec("F", -0.5, 1.5, 0.7),
             NormSpec("B", 1.0, 0.5, 2.0), NormSpec("F", 0.0, 2.0, np.inf)]
    for i in range(25):
        u = random_band_limited_field(grid, rng_for(51, 1, i), 14.0)
        v = random_band_limited_field(grid, rng_for(51, 2, i), 14.0)
        for spec in specs:
            lam = spec.lam
            nu = space_norm(u, spec, part)
            nv = space_norm(v, spec, part)
            nsum = space_norm(u + v, spec, part)
            assert nsum**lam <= nu**lam + nv**lam + 1e-8
            assert space_norm(2.5 * u, spec, part) == pytest.approx(
                2.5 * nu, rel=1e-12, abs=1e-300)


def test_partition_independence(grid):
    p1 = make_partition(make_modulation(1.0, 2.0), grid)
    p2 = make_partition(make_modulation(1.5, 2.8), grid)
    spec = NormSpec("F", 0.7, 2.0, 2.0)
    ratios = []
    for i in range(10):
        u = random_band_limited_field(grid, rng_for(51, 3, i), 14.0)
        ratios.append(space_norm(u, spec, p1) / space_norm(u, spec, p2))
    assert max(ratios) / min(ratios) <= 2.0  # equivalent quasi-norms


# -- homogeneous norm and dilation ------------------------------------------------


@pytest.mark.parametrize("n,N", [(1, 16), (1, 64), (1, 512), (1, 4096),
                                 (2, 16), (2, 64), (2, 128)])
def test_dyadic_shells_match_two_evaluation_oracle(n, N):
    """The shell table equals, bit for bit, the old table built with two
    cutoff evaluations per shell over a float range of j."""
    grid = TorusGrid(n, N)
    psi, norms = make_modulation(1.0, 2.0), grid.freq_norms()
    j_max = int(np.ceil(np.log2(grid.max_freq_norm() / psi.r))) + 1
    want = [(j, psi(norms / 2.0**j) - psi(norms * 2.0 / 2.0**j))
            for j in range(int(np.ceil(-np.log2(psi.R))), j_max + 1)]
    want = [(j, w) for j, w in want if (w != 0).any()]
    js, shells = _dyadic_shells(grid)
    assert js.tobytes() == np.array([j for j, _ in want]).tobytes()
    assert shells.dtype == np.float64 and shells.tobytes() == np.stack(
        [w for _, w in want]).tobytes()


def test_homog_norm_zero(grid):
    assert homog_besov_norm(SpectralField.zero(grid), 1.0) == 0.0


def test_homog_norm_single_shell_single_term(grid):
    # mode at 2^j0 on the plateau of one homogeneous block
    j0, t = 3, 0.5
    u = mode(grid, 2**j0)
    val = homog_besov_norm(u, 1.0 / t, 1.0, t)
    assert val == pytest.approx(2.0 ** (j0 / t), rel=1e-12)


def test_dilation_scaling_single_mode(grid):
    # ||b(2^k .)|| / ||b|| = 2^{k (n/t - n)} exactly on single modes
    t = 0.5
    s_h = 1.0 / t
    b = mode(grid, 2)
    for k in (1, 2, 3):
        bk = dyadic_dilate(b, k)
        ratio = homog_besov_norm(bk, s_h, 1.0, t) / homog_besov_norm(b, s_h, 1.0, t)
        assert ratio == pytest.approx(2.0 ** (k * (s_h - 1)), rel=1e-12)


def test_dilation_scaling_nonvanishing_shell():
    # multi-mode shell field without zeros: Riemann sums of |b| converge
    # spectrally, so the scaling identity holds to 1e-8
    grid = TorusGrid(1, 512)
    t = 0.5
    s_h = 1.0 / t
    coeffs = np.zeros(512, dtype=complex)
    coeffs[grid.index_of((4,))] = 3.0      # dominant mode: |b| stays positive
    coeffs[grid.index_of((-4,))] = 0.3
    b = SpectralField.from_coeffs(grid, coeffs)
    base = homog_besov_norm(b, s_h, 1.0, t)
    for k in (1, 2):
        bk = dyadic_dilate(b, k)
        ratio = homog_besov_norm(bk, s_h, 1.0, t) / base
        assert ratio == pytest.approx(2.0 ** (k * (s_h - 1)), rel=1e-8)


def test_dilate_aliasing_guard(grid):
    b = mode(grid, 20)
    with pytest.raises(AliasingRisk):
        dyadic_dilate(b, 1)
    # 4 * 2^62 wraps to 0 in int64; the guard must still see it
    with pytest.raises(AliasingRisk):
        dyadic_dilate(mode(grid, 4), 62)


# -- Marschall inequality ---------------------------------------------------------


def test_marschall_zero_symbol(grid):
    z = DiscreteSymbol.zero(grid)
    u = mode(grid, 3)
    res = marschall_check(z, u, 5, 1.0)
    assert res["max_ratio"] == 0.0


def test_marschall_single_shell_closed_form(grid):
    # x-independent symbol with a single-shell row against a single mode:
    # every factor of the ratio has a closed form
    t = 1.0
    j0, k0 = 3, 5
    b_row = mode(grid, 2**j0)  # row as a function of eta, one mode
    vals = np.broadcast_to(b_row.values[None, :], (64, 64))
    b = DiscreteSymbol.from_function(grid, lambda xs, ks: vals, 0.0)
    u = mode(grid, 2)
    res = marschall_check(b, u, k0, t)
    applied = np.abs(b_row.values[grid.index_of((2,))])
    row_norm = 2.0 ** (k0 * (1.0 / t - 1.0)) * homog_besov_norm(
        b_row, 1.0 / t, 1.0, t)
    mt = hl_max(u, t)
    expected = float(applied / (row_norm * mt.min()))
    assert res["max_ratio"] == pytest.approx(expected, rel=1e-9)


def test_marschall_sweep_bounded(grid):
    from paradiff_lab.corpus import random_sparse_symbol, standard_ching
    worst = 0.0
    u = random_band_limited_field(grid, rng_for(52, 0), 10.0)
    syms = [standard_ching(grid, 0.0, 3)]
    for i in range(4):
        syms.append(random_sparse_symbol(grid, rng_for(52, 1, i), d=0.0,
                                         x_band=8, eta_band=12, eta_min=2.0))
    for a in syms:
        res = marschall_check(a, u, 5, 1.0)
        worst = max(worst, res["max_ratio"])
    assert worst <= 1.5  # frozen from calibration


def test_marschall_support_guard(grid):
    b = DiscreteSymbol.identity(grid)
    u = mode(grid, 2)
    with pytest.raises(SupportViolation):
        marschall_check(b, u, 2, 1.0)  # rows fill the whole lattice


# -- corona criteria ---------------------------------------------------------------


def test_corona_single_term(grid, part):
    spec = CoronaSpec(A=2.0, theta=1.0, J=1, s=0.0, p=2.0, q=2.0, s_prime=0.0)
    u0 = mode(grid, 1, amp=2.0)
    res = corona_sum_check([u0], spec, part)
    assert res["F_bound"] == pytest.approx(2.0, rel=1e-12)
    assert np.isfinite(res["ratio"]) and res["ratio"] > 0


def test_corona_strict_theta_one(grid, part):
    # strict coronas allow any s with s' = s
    spec = CoronaSpec(A=2.5, theta=1.0, J=1, s=-1.0, p=2.0, q=2.0,
                      s_prime=-1.0)
    terms = []
    for j in range(5):
        c = np.zeros(64, dtype=complex)
        c[grid.index_of((2**j,))] = 2.0 ** (1.0 * j)  # s = -1 weights -> F ~ 1
        terms.append(SpectralField.from_coeffs(grid, c))
    res = corona_sum_check(terms, spec, part)
    assert res["ratio"] <= 4.0


def test_corona_support_violation(grid, part):
    spec = CoronaSpec(A=2.0, theta=1.0, J=1, s=0.0, p=2.0, q=2.0, s_prime=0.0)
    bad = mode(grid, 16)  # |xi| = 16 > A 2^1 at j = 1
    with pytest.raises(SupportViolation) as exc:
        corona_sum_check([mode(grid, 1), bad], spec, part)
    assert exc.value.offenders == [(1, (16,))]


def test_corona_admissibility_validation():
    # theta < 1 with s <= 0 requires s' < s / theta
    with pytest.raises(BadExponent):
        CoronaSpec(A=2.0, theta=0.5, J=1, s=0.0, p=2.0, q=2.0, s_prime=0.1)
    CoronaSpec(A=2.0, theta=0.5, J=1, s=0.0, p=2.0, q=2.0, s_prime=-0.1)


def test_corona_loss_construction_bounded():
    # theta = 1/2 series: supports [2^{j/2}/A, A 2^j]; the summed norm at
    # s' = -0.1 stays comparable to the bound quantity
    grid = TorusGrid(1, 256)
    part = make_partition(make_modulation(1.0, 2.0), grid)
    spec = CoronaSpec(A=2.0, theta=0.5, J=1, s=0.0, p=2.0, q=2.0,
                      s_prime=-0.1)
    rng = rng_for(53, 0)
    terms = []
    for j in range(1, 7):
        lo = 2.0 ** (0.5 * j) / spec.A
        hi = spec.A * 2.0**j
        c = np.zeros(256, dtype=complex)
        for m in (int(np.ceil(lo)) + 1, int(hi // 2)):
            c[grid.index_of((m,))] = rng.standard_normal() * 2.0 ** (-0.25 * j)
        terms.append(SpectralField.from_coeffs(grid, c))
    res = corona_sum_check(terms, spec, part)
    assert 0 < res["ratio"] <= 3.0


# -- Fefferman-Stein chain ----------------------------------------------------------


def test_fs_constant_block(grid):
    u0 = SpectralField.from_values(grid, np.full(64, 2.0 + 0j))
    res = fefferman_stein_check([u0], NormSpec("F", 1.0, 2.0, 2.0),
                                t=0.9, N_decay=2.0, R=2.0)
    assert res["ratio_star_hl"] == pytest.approx(1.0, rel=1e-9)
    assert res["ratio_hl_blocks"] == pytest.approx(1.0, rel=1e-9)


def test_fs_single_mode_blocks_closed_form(grid):
    # one mode per block: all three quantities collapse to the same
    # weighted l_q sum because |u_k|, u_k*, M_t u_k are the same constant
    s, p, q, t = 1.0, 2.0, 2.0, 0.9
    amps = [1.0, 0.5, 0.25]
    blocks = [mode(grid, 2**k, a) for k, a in enumerate(amps)]
    res = fefferman_stein_check(blocks, NormSpec("F", s, p, q), t=t,
                                N_decay=2.0, R=2.0)
    expected = np.sqrt(sum((2.0 ** (s * k) * a) ** 2
                           for k, a in enumerate(amps)))
    assert res["Q_blocks"] == pytest.approx(expected, rel=1e-9)
    assert res["Q_star"] == pytest.approx(expected, rel=1e-6)
    assert res["Q_hl"] == pytest.approx(expected, rel=1e-6)


def test_fs_random_family_chain(grid, part):
    from paradiff_lab import dyadic_block
    u = random_band_limited_field(grid, rng_for(54, 0), 20.0, modes=24)
    blocks = [dyadic_block(u, k, part) for k in range(part.J_max + 1)]
    res = fefferman_stein_check(blocks, NormSpec("F", 1.0, 2.0, 2.0),
                                t=0.9, N_decay=2.0, R=part.R)
    assert np.isfinite(res["ratio_star_hl"]) and res["ratio_star_hl"] <= 4.0
    assert np.isfinite(res["ratio_hl_blocks"]) and res["ratio_hl_blocks"] <= 4.0


def test_fs_bad_exponents(grid):
    u0 = mode(grid, 1)
    with pytest.raises(BadExponent):
        fefferman_stein_check([u0], NormSpec("F", 0.0, 2.0, 2.0),
                              t=2.5, N_decay=2.0)
    with pytest.raises(BadExponent):
        fefferman_stein_check([u0], NormSpec("F", 0.0, 2.0, 2.0),
                              t=0.5, N_decay=1.0)


# -- embeddings ----------------------------------------------------------------------


def test_embedding_single_mode(grid, part):
    u = mode(grid, 8)
    assert embedding_check(u, 1.0, 0.5, 2.0, 2.0, 2.0, part)


def test_embedding_lq_monotonicity(grid, part):
    # s' = s with r >= q: exact with constant 1
    rng = rng_for(55, 0)
    for i in range(5):
        u = random_band_limited_field(grid, rng_for(55, 1, i), 14.0)
        assert embedding_check(u, 0.7, 0.7, 2.0, 1.0, 2.0, part)
        assert embedding_check(u, 0.7, 0.7, 2.0, 2.0, np.inf, part)


def test_embedding_constant_closed_form():
    assert embedding_constant(1.0, 1.0, 1.0, 2.0) == 1.0
    assert embedding_constant(1.0, 0.5, 2.0, 2.0) == 1.0  # r >= q
    c = embedding_constant(1.0, 0.5, np.inf, 2.0)  # r < q: Hoelder weights
    assert c == pytest.approx((1.0 / (1.0 - 2.0**-1.0)) ** 0.5)
    with pytest.raises(BadExponent):
        embedding_constant(0.0, 0.0, 2.0, 1.0)


def test_embedding_random_corpus(grid, part):
    rng = rng_for(55, 2)
    for i in range(10):
        u = random_band_limited_field(grid, rng_for(55, 3, i), 14.0)
        assert embedding_check(u, 1.0, 0.3, 2.0, 2.0, 1.0, part)
        assert embedding_check(u, 0.5, -0.5, 2.0, np.inf, 1.0, part,
                               scale="B")


# -- Weierstrass-type signal -----------------------------------------------------------


def test_weierstrass_trivial(grid):
    f = weierstrass_signal(grid, 0.5, 0)
    u = mode(grid, 1)
    assert np.max(np.abs(f.values - u.values)) < 1e-12


def test_weierstrass_lacunary_blocks(grid, part):
    d = 0.5
    f = weierstrass_signal(grid, d, 4)
    from paradiff_lab import dyadic_block
    for j in range(1, 5):
        blk = dyadic_block(f, j, part)
        assert grid.points(blk.support()) == [(2**j,)]
        w = part.level_weights(j)[grid.index_of((2**j,))]
        assert np.max(np.abs(blk.values)) == pytest.approx(
            2.0 ** (-j * d) * w, rel=1e-12)


def test_weierstrass_norm_uniform_over_truncations():
    # the F^{d}_{p,inf} norms of the truncations stay bounded (here: exactly
    # constant) as the truncation grows with matching grids
    d, p = 0.5, 2.0
    norms = []
    for J in (4, 5, 6, 7, 8):
        grid = TorusGrid(1, 4 * 2**J)
        part = make_partition(make_modulation(1.0, 2.0), grid)
        f = weierstrass_signal(grid, d, J)
        norms.append(space_norm(f, NormSpec("F", d, p, np.inf), part))
    assert max(norms) / min(norms) <= 1.0 + 1e-9


def test_weierstrass_grid_too_coarse(grid):
    with pytest.raises(GridTooCoarse):
        weierstrass_signal(grid, 0.5, 5)
