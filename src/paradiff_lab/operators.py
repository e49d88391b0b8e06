"""Operator application, frequency modulation, and the paradifferential split.

The quadrature convention is fixed once: with mean-value-normalized Fourier
coefficients c_eta, the operator acts as

    (a # u)(x) = sum_eta  a(x, eta) c_eta exp(i x.eta),

so no loose 2*pi factors appear anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, LevelOutOfRange, NotAMultiplier, TooLarge
from .lp import (LPPartition, ModulationFunction, cumulative_block,
                 dyadic_block)
from .symbols import DiscreteSymbol, estimate_seminorm, symbol_ladder
from .symbols import symbol_band  # noqa: F401  (re-exported)
from .torus import FreqSet, SpectralField, TorusGrid, sumset


def apply(a: DiscreteSymbol, u: SpectralField) -> SpectralField:
    """v(x) = sum_eta a(x, eta) c_eta e^{i x.eta} on the shared grid."""
    if a.grid != u.grid:
        raise GridMismatch("symbol and field live on different grids")
    idx = np.nonzero(u.coeffs)
    return _mode_sum(u.grid, a.values[(Ellipsis,) + idx], idx, u.coeffs[idx])


def _mode_sum(grid: TorusGrid, cols, idx, c) -> SpectralField:
    """sum_j cols[..., j] c_j e^{i x.eta_j} over the modes eta_j at ``idx``
    in one matmul; the phase overwrites ``cols`` one x axis at a time."""
    x, k = grid.axis_points(), grid.axis_freqs().astype(float)
    for ax, i in enumerate(idx):
        shape = [1] * grid.n + [len(i)]
        shape[ax] = grid.N
        cols *= np.exp(1j * np.outer(x, k[i])).reshape(shape)
    vals = cols.reshape(grid.N**grid.n, len(c)) @ c
    return SpectralField.from_values(grid, vals)


def saturation_level(psi: ModulationFunction, grid: TorusGrid) -> int:
    """Smallest m with psi(2^-m .) identically 1 on the whole lattice."""
    m = 0
    while psi.r * 2**m < grid.max_freq_norm():
        m += 1
    return m


def modulated_symbol(a: DiscreteSymbol, psi: ModulationFunction,
                     m: int) -> DiscreteSymbol:
    """psi(2^-m D_x) a(x, eta) psi(2^-m eta) as a symbol of fixed level m."""
    grid = a.grid
    norms = grid.freq_norms()
    xi_w = psi(norms / 2**m).reshape(grid.shape + (1,) * grid.n)
    eta_w = psi(norms / 2**m).reshape((1,) * grid.n + grid.shape)
    pft = a.partial_ft() * xi_w
    vals = np.fft.ifftn(pft, axes=tuple(range(grid.n))) * grid.N**grid.n
    return DiscreteSymbol(grid, a.d, vals * eta_w, class_tag=a.class_tag)


def modulated_apply(a: DiscreteSymbol, u: SpectralField,
                    psi: ModulationFunction, m: int) -> SpectralField:
    """Apply the level-m frequency-modulated operator.

    Equals ``apply(modulated_symbol(a, psi, m), u)`` without building that
    symbol: psi(2^-m eta) cuts off the input, and only the symbol columns
    at the surviving modes are x-transformed and cut off by psi(2^-m xi).
    Both cutoffs are identically 1 on the lattice once m reaches the
    saturation level, so larger m are clamped there and the unmodulated
    operator is applied directly (bit-stable tail for limit detection).
    """
    if m < 0:
        raise LevelOutOfRange("modulation level must be >= 0")
    grid = u.grid
    if m >= saturation_level(psi, grid) or a.grid != grid:
        return apply(a, u)          # (raises GridMismatch on a grid clash)
    w = psi(grid.freq_norms() / 2**m)
    c = w * u.coeffs
    idx = np.nonzero(c)
    x_axes = tuple(range(grid.n))
    cols = np.fft.fftn(a.values[(Ellipsis,) + idx], axes=x_axes)
    cols = np.fft.ifftn(cols * w[..., None], axes=x_axes)
    return _mode_sum(grid, cols, idx, c[idx])


@dataclass
class LimitReport:
    """Outcome of the vanishing-frequency-modulation limit over several
    modulation functions."""

    converged: bool
    stabilization_m: int | None
    value: SpectralField
    psi_discrepancy: float
    cauchy_profile: list          # one list of sup-norm differences per psi
    psi_params: list = field(default_factory=list)
    tol: float = 0.0


def modulation_limit(a: DiscreteSymbol, u: SpectralField, psis,
                     tol: float = 1e-10) -> LimitReport:
    """Run the modulation sweep m = 0..saturation for each cutoff.

    Converged means: for every psi the successive differences fall (and
    stay) below tol, and the final values across the cutoffs agree to tol.
    The full Cauchy profiles are reported so that refinement studies can
    detect non-decaying differences.
    """
    psis = list(psis)
    if len(psis) < 2:
        raise ValueError("need at least two modulation functions")
    finals, profiles, stabilizations = [], [], []
    for psi in psis:
        m_sat = saturation_level(psi, a.grid)
        prev = modulated_apply(a, u, psi, 0)
        diffs = []
        for m in range(1, m_sat + 1):
            cur = modulated_apply(a, u, psi, m)
            diffs.append(float(np.max(np.abs(cur.values - prev.values))))
            prev = cur
        profiles.append(diffs)
        finals.append(prev)
        stab = None
        for m in range(len(diffs) + 1):
            if all(d <= tol for d in diffs[m:]):
                stab = m
                break
        stabilizations.append(stab)
    disc = 0.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            disc = max(disc, float(np.max(np.abs(
                finals[i].values - finals[j].values))))
    per_psi_ok = all(s is not None for s in stabilizations)
    converged = per_psi_ok and disc <= tol
    stab_m = max(stabilizations) if per_psi_ok else None
    return LimitReport(converged, stab_m, finals[0], disc, profiles,
                       [{"r": p.r, "R": p.R} for p in psis], tol)


def compose_multiplier(a: DiscreteSymbol, b) -> DiscreteSymbol:
    """c(x, eta) = a(x, eta) b(eta) for an x-independent multiplier b.

    ``b`` may be a DiscreteSymbol (checked for x-independence), an array
    over the lattice, or a callable on the per-axis frequencies.
    """
    grid = a.grid
    d2 = 0.0
    if isinstance(b, DiscreteSymbol):
        if b.grid != grid:
            raise GridMismatch("multiplier grid mismatch")
        if not b.is_x_independent():
            raise NotAMultiplier("b(x, eta) depends on x")
        col = b.values[(0,) * grid.n]
        d2 = b.d
    elif callable(b):
        k = grid.axis_freqs().astype(float)
        ks = [k.reshape([grid.N if i == ax else 1 for i in range(grid.n)])
              for ax in range(grid.n)]
        col = np.asarray(b(*ks), dtype=np.complex128)
    else:
        col = np.asarray(b, dtype=np.complex128).reshape(grid.shape)
    vals = a.values * col.reshape((1,) * grid.n + grid.shape)
    return DiscreteSymbol(grid, a.d + d2, vals, class_tag=a.class_tag)


@dataclass(frozen=True)
class Ladder:
    """The Littlewood-Paley ladder of one (symbol, input) pair, levels 0..m:
    symbol bands a_k, cumulative symbols a^k, input blocks u_k and
    cumulative input blocks u^k, together with the pair they came from."""

    a: DiscreteSymbol
    u: SpectralField
    bands: list
    cumulative: list
    blocks: list
    cumulative_blocks: list

    def near_diagonal_symbol(self, k: int, h: int) -> DiscreteSymbol:
        """a^k - a^{k-h} (a^k itself for k < h)."""
        if k < h:
            return self.cumulative[k]
        return self.cumulative[k] - self.cumulative[k - h]

    def cumulative_block(self, k: int) -> SpectralField:
        """u^k; the zero field below level 0."""
        if k < 0:
            return SpectralField.zero(self.u.grid)
        return self.cumulative_blocks[k]

    def built_from(self, a: DiscreteSymbol, u: SpectralField) -> bool:
        """Whether (a, u) equals the pair the ladder was built from."""
        same_a = a is self.a or (a.grid == self.a.grid and a.d == self.a.d
                                 and np.array_equal(a.values, self.a.values))
        same_u = u is self.u or (u.grid == self.u.grid
                                 and np.array_equal(u.coeffs, self.u.coeffs))
        return same_a and same_u


@dataclass
class ParaSplit:
    """The three paradifferential series at a fixed modulation level m.

    Per-term fields are retained: ``low_high[k]`` holds a^{k-h}(x,D)u_k,
    ``high_low[j]`` holds a_j(x,D)u^{j-h}, and ``diagonal[k]`` the pair of
    near-diagonal pieces ((a^k - a^{k-h})(x,D)u_k, a_k(x,D)(u^{k-1}-u^{k-h})).
    ``ladder`` keeps the bands and blocks the terms were built from.
    """

    a1u: SpectralField
    a2u: SpectralField
    a3u: SpectralField
    low_high: list
    high_low: list
    diagonal: list
    partition: LPPartition
    m: int
    ladder: Ladder

    def total(self) -> SpectralField:
        return self.a1u + self.a2u + self.a3u


def para_split(a: DiscreteSymbol, u: SpectralField, part: LPPartition,
               m: int) -> ParaSplit:
    """Exact finite rearrangement of the level-m modulated operator into the
    low-high, near-diagonal, and high-low series."""
    if m > part.J_max:
        raise LevelOutOfRange(f"m={m} exceeds J_max={part.J_max}")
    grid = u.grid
    bands, cumulative = symbol_ladder(a, m, part)
    lad = Ladder(a, u, bands, cumulative,
                 [dyadic_block(u, k, part) for k in range(m + 1)],
                 [cumulative_block(u, k, part) for k in range(m + 1)])
    h = part.h
    zero = SpectralField.zero(grid)
    low_high, high_low, diagonal = [], [], []
    for k in range(m + 1):
        uk = lad.blocks[k]
        low_high.append(apply(cumulative[k - h], uk) if k >= h else zero)
        vk = lad.cumulative_block(k - 1) - lad.cumulative_block(k - h)
        diagonal.append((apply(lad.near_diagonal_symbol(k, h), uk),
                         apply(bands[k], vk)))
        high_low.append(apply(bands[k], lad.cumulative_block(k - h))
                        if k >= h else zero)

    a1u = _sum_fields(low_high, grid)
    a2u = _sum_fields([t2a + t2b for t2a, t2b in diagonal], grid)
    a3u = _sum_fields(high_low, grid)
    return ParaSplit(a1u, a2u, a3u, low_high, high_low, diagonal, part, m,
                     lad)


def _sum_fields(fields, grid):
    total = SpectralField.zero(grid)
    for f in fields:
        total = total + f
    return total


@dataclass
class SupportReport:
    """Per-level corona/ball verification of the paradifferential terms."""

    violations: list            # (series, k, offending points)
    corona_bounds: dict         # k -> (inner, outer) for the corona series
    ball_bounds: dict           # k -> radius for the near-diagonal series
    tdc_corona_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def support_inclusions(split: ParaSplit, tdc_B: float | None = None) -> SupportReport:
    """Exact FreqSet inclusion checks for all retained terms.

    The corona for the low-high and high-low terms at level k is
    [R_h 2^k, (5R/4) 2^k] with R_h = r/2 - R 2^-h; near-diagonal terms must
    stay in the ball of radius 2R 2^k.  With ``tdc_B`` given, near-diagonal
    terms at levels k >= h + 1 + log2(B/r) are additionally confined to the
    corona [ (r / (2^{h+1} B)) 2^k, 2R 2^k ].
    """
    part = split.partition
    r, R, h = part.r, part.R, part.h
    R_h = r / 2.0 - R * 2.0 ** (-h)
    violations = []
    corona_bounds, ball_bounds = {}, {}

    def check(series, k, fld, inner, outer):
        sup = fld.support()
        bad = [p for p in sup
               if not (inner - 1e-12 <= _norm(p) <= outer + 1e-12)]
        if bad:
            violations.append((series, k, bad))

    for k, fld in enumerate(split.low_high):
        corona_bounds[k] = (R_h * 2**k, 1.25 * R * 2**k)
        check("low_high", k, fld, *corona_bounds[k])
    for j, fld in enumerate(split.high_low):
        check("high_low", j, fld, R_h * 2**j, 1.25 * R * 2**j)
    k_tdc = None
    if tdc_B is not None:
        k_tdc = int(np.ceil(h + 1 + np.log2(tdc_B / r)))
    for k, (t2a, t2b) in enumerate(split.diagonal):
        ball_bounds[k] = 2.0 * R * 2**k
        check("diagonal_a", k, t2a, 0.0, ball_bounds[k])
        check("diagonal_b", k, t2b, 0.0, ball_bounds[k])
        if k_tdc is not None and k >= k_tdc:
            inner = (r / (2.0 ** (h + 1) * tdc_B)) * 2**k
            check("diagonal_a_tdc", k, t2a, inner, ball_bounds[k])
            check("diagonal_b_tdc", k, t2b, inner, ball_bounds[k])
    return SupportReport(violations, corona_bounds, ball_bounds,
                         tdc_corona_checked=tdc_B is not None)


def _norm(pt) -> float:
    return float(np.sqrt(sum(c * c for c in pt)))


def spectral_support_bound(a: DiscreteSymbol, u: SpectralField) -> FreqSet:
    """{xi + eta | xi in supp_xi ahat(., eta), eta in supp Fu}, exactly.

    Guaranteed superset of the output support whenever the aliasing
    precondition of :func:`sumset` holds for the two supports.
    """
    grid = u.grid
    pft = a.partial_ft()
    tau = (np.max(np.abs(pft)) or 1.0)
    tau = tau * 1e-10
    u_sup = u.support()
    # enforce the no-wraparound precondition via the sumset guard
    xi_all = a.xi_support()
    sumset(xi_all, u_sup)
    k = grid.axis_freqs()
    pts = set()
    for eta in u_sup:
        idx_eta = grid.index_of(eta)
        mask = np.abs(pft[(Ellipsis,) + idx_eta]) > tau
        for row in np.argwhere(mask):
            xi = tuple(int(k[i]) for i in row)
            pts.add(tuple(x + e for x, e in zip(xi, eta)))
    return FreqSet(frozenset(pts), grid)


def operator_matrix(a: DiscreteSymbol, max_dim: int = 256) -> np.ndarray:
    """Dense matrix of the operator in the Fourier basis (n = 1 only).

    Column eta holds the output coefficients of a # e^{i eta x}; entry
    (zeta, eta) equals ahat(zeta - eta mod N, eta).
    """
    grid = a.grid
    if grid.n != 1:
        raise TooLarge("dense matrix probe is restricted to n = 1")
    if grid.N > max_dim:
        raise TooLarge(f"N = {grid.N} exceeds the matrix cap {max_dim}")
    pft = a.partial_ft()
    N = grid.N
    # rows: output index zeta; columns: input eta; xi-index = zeta - eta mod N
    zeta = np.arange(N)[:, None]
    eta = np.arange(N)[None, :]
    return pft[(zeta - eta) % N, eta]


def adjoint_symbol(a: DiscreteSymbol, max_dim: int = 256) -> DiscreteSymbol:
    """Symbol of the discrete adjoint, extracted from the conjugate
    transpose of the dense Fourier-basis matrix."""
    grid = a.grid
    M = operator_matrix(a, max_dim)
    B = M.conj().T
    N = grid.N
    zeta = np.arange(N)[:, None]
    eta = np.arange(N)[None, :]
    pft_adj = np.zeros_like(B)
    # invert the (zeta, eta) -> (xi = zeta - eta, eta) indexing
    pft_adj[(zeta - eta) % N, eta] = B[zeta, eta]
    return DiscreteSymbol.from_partial_ft(grid, a.d, pft_adj,
                                          class_tag="custom")


def discrete_adjoint_probe(a: DiscreteSymbol, max_dim: int = 256,
                           depths=((0, 0), (1, 0), (0, 1), (1, 1))) -> dict:
    """Numerical probe of membership in the self-adjoint symbol subclass.

    Returns the adjoint matrix action, the extracted adjoint symbol, and
    seminorm estimates for both the symbol and its adjoint at the requested
    derivative depths.
    """
    M = operator_matrix(a, max_dim)
    adj = adjoint_symbol(a, max_dim)
    report = {}
    for alpha, beta in depths:
        key = f"alpha{alpha}_beta{beta}"
        report[key] = {
            "symbol": estimate_seminorm(a, alpha, beta).value,
            "adjoint": estimate_seminorm(adj, alpha, beta).value,
        }
    return {"matrix": M, "adjoint_matrix": M.conj().T,
            "adjoint_symbol": adj, "seminorms": report}
