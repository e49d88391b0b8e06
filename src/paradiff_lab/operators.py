"""Operator application, frequency modulation, and the paradifferential split.

The quadrature convention is fixed once: with mean-value-normalized Fourier
coefficients c_eta, the operator acts as

    (a # u)(x) = sum_eta  a(x, eta) c_eta exp(i x.eta),

so no loose 2*pi factors appear anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, LevelOutOfRange, NotAMultiplier
from .lp import (LPPartition, ModulationFunction, cumulative_block,
                 dyadic_block)
from .symbols import (BLOCK_ENTRIES, DiscreteSymbol, estimate_seminorm,
                      symbol_band)
from .torus import FreqSet, SpectralField, TorusGrid, sumset


def apply(a: DiscreteSymbol, u: SpectralField) -> SpectralField:
    """v(x) = sum_eta a(x, eta) c_eta e^{i x.eta} on the shared grid.

    Since a(x, eta) = sum_k ahat(xi_k, eta) e^{i x.xi_k} on the grid, the
    output coefficient at zeta is the sum of ahat(xi_k, eta_j) c_j over the
    pairs with xi_k + eta_j = zeta (mod N), eta_j the input's modes: one
    scatter in coefficient space."""
    if a.grid != u.grid:
        raise GridMismatch("symbol and field live on different grids")
    idx = np.nonzero(u.coeffs)
    return _scatter(u.grid, a.xi, a.rows[(slice(None),) + idx], idx,
                    u.coeffs[idx])


def _scatter(grid: TorusGrid, xi, cols, idx, c) -> SpectralField:
    """The field whose coefficient at zeta sums cols[k, j] c_j over the
    pairs with xi_k + eta_j = zeta (mod N), eta_j the mode at ``idx``:
    a scatter-add on flat indices, a block of rows at a time, then one
    inverse FFT."""
    coeffs = np.zeros(grid.N**grid.n, dtype=np.complex128)
    step = max(1, BLOCK_ENTRIES // max(1, len(c)))
    for lo in range(0, len(xi), step):
        target = [(xi[lo:lo + step, ax, None] + i) % grid.N
                  for ax, i in enumerate(idx)]
        np.add.at(coeffs, np.ravel_multi_index(target, grid.shape).ravel(),
                  (cols[lo:lo + step] * c).ravel())
    return SpectralField.from_coeffs(grid, coeffs)


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
    symbol: psi(2^-m eta) cuts off the input and psi(2^-m xi_k) the rows,
    in the same scatter as :func:`apply`.  Both cutoffs are identically 1
    on the lattice once m reaches the saturation level, so larger m are
    clamped there and the unmodulated operator is applied directly
    (bit-stable tail for limit detection).
    """
    if m < 0:
        raise LevelOutOfRange("modulation level must be >= 0")
    grid = u.grid
    if m >= saturation_level(psi, grid) or a.grid != grid:
        return apply(a, u)          # (raises GridMismatch on a grid clash)
    w = psi(grid.freq_norms() / 2**m)
    c = w * u.coeffs
    idx = np.nonzero(c)
    cols = a.rows[(slice(None),) + idx] * w[a.xi_index()][:, None]
    return _scatter(grid, a.xi, cols, idx, c[idx])


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
        col = b.rows.sum(axis=0)            # b(0, eta)
        d2 = b.d
    else:
        col = DiscreteSymbol.multiplier(grid, b).rows[0]
    return a.with_rows(a.rows * col, d=a.d + d2)


@dataclass
class ParaSplit:
    """The three paradifferential series at a fixed modulation level m.

    ``series[name][k]`` is the (symbol, input, term) triple of level k,
    term = symbol(x, D) input:

    * ``low_high``: (a^{k-h}, u_k);
    * ``diagonal_a``: (a^k - a^{k-h}, u_k), a^k itself for k < h;
    * ``diagonal_b``: (a_k, u^{k-1} - u^{k-h});
    * ``high_low``: (a_k, u^{k-h}).

    A low-high or high-low term absent at k < h has symbol None and the
    zero field as its term.  ``u`` is the input the split decomposes.
    """

    a1u: SpectralField
    a2u: SpectralField
    a3u: SpectralField
    series: dict
    partition: LPPartition
    m: int
    u: SpectralField

    def total(self) -> SpectralField:
        return self.a1u + self.a2u + self.a3u


def para_split(a: DiscreteSymbol, u: SpectralField, part: LPPartition,
               m: int) -> ParaSplit:
    """Exact finite rearrangement of the level-m modulated operator into the
    low-high, near-diagonal, and high-low series."""
    if m > part.J_max:
        raise LevelOutOfRange(f"m={m} exceeds J_max={part.J_max}")
    h = part.h
    zero = SpectralField.zero(u.grid)
    cumulative = [symbol_band(a, k, part, cumulative=True)
                  for k in range(m + 1)]
    u_cum = [cumulative_block(u, k, part) for k in range(m + 1)]

    def lagged(k):
        return u_cum[k] if k >= 0 else zero

    def triple(sym, w):
        return (sym, w, zero if sym is None else apply(sym, w))

    series = {"low_high": [], "diagonal_a": [], "diagonal_b": [],
              "high_low": []}
    for k in range(m + 1):
        a_k, u_k = symbol_band(a, k, part), dyadic_block(u, k, part)
        low = cumulative[k - h] if k >= h else None
        near = cumulative[k] if low is None else cumulative[k] - low
        series["low_high"].append(triple(low, u_k))
        series["diagonal_a"].append(triple(near, u_k))
        series["diagonal_b"].append(triple(a_k, lagged(k - 1) - lagged(k - h)))
        series["high_low"].append(triple(a_k if k >= h else None,
                                         lagged(k - h)))

    def terms(name):
        return [term for _, _, term in series[name]]

    a1u = sum(terms("low_high"), zero)
    a2u = sum([ta + tb for ta, tb in zip(terms("diagonal_a"),
                                         terms("diagonal_b"))], zero)
    a3u = sum(terms("high_low"), zero)
    return ParaSplit(a1u, a2u, a3u, series, part, m, u)


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

    for k in range(split.m + 1):
        corona_bounds[k] = (R_h * 2**k, 1.25 * R * 2**k)
        ball_bounds[k] = 2.0 * R * 2**k
    k_tdc = None
    if tdc_B is not None:
        k_tdc = int(np.ceil(h + 1 + np.log2(tdc_B / r)))
    for name, triples in split.series.items():
        for k, (_, _, term) in enumerate(triples):
            if name in ("low_high", "high_low"):
                check(name, k, term, *corona_bounds[k])
                continue
            check(name, k, term, 0.0, ball_bounds[k])
            if k_tdc is not None and k >= k_tdc:
                inner = (r / (2.0 ** (h + 1) * tdc_B)) * 2**k
                check(name + "_tdc", k, term, inner, ball_bounds[k])
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
    mag = np.abs(a.rows)
    tau = (float(np.max(mag, initial=0.0)) or 1.0) * 1e-10
    u_sup = u.support()
    # enforce the no-wraparound precondition via the sumset guard
    sumset(a.xi_support(), u_sup)
    eta = np.array(u_sup.sorted_points(), dtype=np.int64).reshape(-1, grid.n)
    cols = mag[(slice(None),) + tuple((eta % grid.N).T)]
    k, j = np.nonzero(cols > tau)
    return FreqSet.from_points(grid, a.xi[k] + eta[j])


def adjoint_symbol(a: DiscreteSymbol) -> DiscreteSymbol:
    """Symbol of the discrete adjoint, exactly from the stored rows.

    The adjoint's partial transform is conj(ahat(-xi, xi + eta)), so row k
    moves to -xi_k as conj(r_k(eta - xi_k)): a roll by xi_k over the eta
    axes."""
    eta_axes = tuple(range(a.grid.n))
    rows = np.empty_like(a.rows)
    for k, (xi, row) in enumerate(zip(a.xi, a.rows)):
        rows[k] = np.conj(np.roll(row, tuple(xi), axis=eta_axes))
    return DiscreteSymbol(a.grid, a.d, class_tag="custom", xi=-a.xi,
                          rows=rows)


def discrete_adjoint_probe(a: DiscreteSymbol,
                           depths=((0, 0), (1, 0), (0, 1), (1, 1))) -> dict:
    """Numerical probe of membership in the self-adjoint symbol subclass.

    Returns the adjoint symbol and seminorm estimates for both the symbol
    and its adjoint at the requested derivative depths, taken along the
    first axis when n = 2.
    """
    adj = adjoint_symbol(a)
    rest = (0,) * (a.grid.n - 1)
    report = {}
    for alpha, beta in depths:
        al, be = (alpha,) + rest, (beta,) + rest
        report[f"alpha{alpha}_beta{beta}"] = {
            "symbol": estimate_seminorm(a, al, be).value,
            "adjoint": estimate_seminorm(adj, al, be).value,
        }
    return {"adjoint_symbol": adj, "seminorms": report}
