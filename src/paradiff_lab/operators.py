"""Operator application, frequency modulation, and the paradifferential split.

The quadrature convention is fixed once: with mean-value-normalized Fourier
coefficients c_eta, the operator acts as

    (a # u)(x) = sum_eta  a(x, eta) c_eta exp(i x.eta),

so no loose 2*pi factors appear anywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AliasingRisk, GridMismatch, LevelOutOfRange,
                     NotAMultiplier)
from .lp import (LPPartition, ModulationFunction, check_grid,
                 cumulative_block, dyadic_block, saturation_level)
from .symbols import (BLOCK_ENTRIES, DiscreteSymbol, estimate_seminorm,
                      symbol_band)  # symbol_band: re-exported
from .torus import SUPPORT_REL_THRESHOLD, SpectralField, TorusGrid


def apply(a: DiscreteSymbol, u):
    """v(x) = sum_eta a(x, eta) c_eta e^{i x.eta} on the shared grid.

    Since a(x, eta) = sum_k ahat(xi_k, eta) e^{i x.xi_k} on the grid, the
    output coefficient at zeta is the sum of ahat(xi_k, eta_j) c_j over the
    pairs with xi_k + eta_j = zeta (mod N), eta_j the input's modes: one
    scatter in coefficient space.

    ``u`` may also be a sequence of fields, which gives their images: one
    scatter over the union of their modes (where a field's zeros add exact
    zeros) per block of max(1, ``BLOCK_ENTRIES`` // N^n) fields, so no
    stack outgrows one field or ``BLOCK_ENTRIES`` entries."""
    out = _apply(a, [u] if isinstance(u, SpectralField) else list(u))
    return out[0] if isinstance(u, SpectralField) else out


def _apply(a: DiscreteSymbol, fields: list, row_w=None) -> list:
    """The images of ``fields`` under ``a`` as :func:`apply` takes them, or,
    with K row weights ``row_w``, under ``a`` with row k weighted by
    row_w[k]: bit for bit the images under ``a.with_rows(a.rows * row_w)``
    without building it (its zero-weight rows add exact zeros, so they are
    skipped)."""
    grid = a.grid
    if any(grid != f.grid for f in fields):
        raise GridMismatch("symbol and field live on different grids")
    xi, live = a.xi, slice(None)
    if row_w is not None:
        live = np.flatnonzero(row_w)
        xi, row_w = xi[live], row_w[None, live]
    per_block = max(1, BLOCK_ENTRIES // grid.N**grid.n)
    out = []
    for lo in range(0, len(fields), per_block):
        block = fields[lo:lo + per_block]
        modes = block[0].coeffs != 0
        for f in block[1:]:
            modes |= f.coeffs != 0
        idx = np.nonzero(modes)
        # the live rows' entries at the modes, gathered without a row copy
        cols = a.rows[(live,) + idx] if row_w is None else a.rows[
            (live[:, None],) + tuple(i[None] for i in idx)]
        out += [SpectralField.from_coeffs(grid, v) for v in _scatter(
            grid, xi, cols, idx, np.array([f.coeffs[idx] for f in block]),
            row_w)]
    return out


def _scatter(grid: TorusGrid, xi, cols, idx, c, row_w=None) -> np.ndarray:
    """The coefficient stack whose level l sums (cols[k, j] row_w[l, k])
    c[l, j] at zeta over the pairs with xi_k + eta_j = zeta (mod N), eta_j
    the mode at ``idx`` (no row weight if ``row_w`` is None; one row of
    weights serves every level): a scatter-add on flat indices, a block of
    rows at a time, in (k, j) order per level."""
    shape = (len(c),) + grid.shape
    coeffs = np.zeros(np.prod(shape), dtype=np.complex128)
    step = max(1, BLOCK_ENTRIES // max(1, c.size))
    for lo in range(0, len(xi), step):
        target = [np.arange(len(c))[:, None, None]] + [
            (xi[lo:lo + step, ax, None] + i) % grid.N
            for ax, i in enumerate(idx)]
        sub = cols[lo:lo + step]
        if row_w is not None:
            sub = sub * row_w[:, lo:lo + step, None]
        np.add.at(coeffs, np.ravel_multi_index(target, shape).ravel(),
                  (sub * c[:, None, :]).ravel())
    return coeffs.reshape(shape)


def modulated_symbol(a: DiscreteSymbol, psi: ModulationFunction,
                     m: int) -> DiscreteSymbol:
    """psi(2^-m D_x) a(x, eta) psi(2^-m eta) as a symbol of fixed level m."""
    grid = a.grid
    w = grid.radial(psi, 2**m)
    pft = (a.partial_ft() * w.reshape(grid.shape + (1,) * grid.n)
           * w.reshape((1,) * grid.n + grid.shape))
    return DiscreteSymbol.from_partial_ft(grid, a.d, pft)


def _modulated_coeffs(a: DiscreteSymbol, u: SpectralField,
                      psi: ModulationFunction, levels) -> np.ndarray:
    """The stacked coefficients of the level-m modulated operator applied
    to u, m in ``levels``: one psi call over the radii |eta| / 2^m at the
    input's modes and the xi_k (m clamped to saturation, where psi is
    exactly 1), then one scatter."""
    grid = u.grid
    if a.grid != grid:
        raise GridMismatch("symbol and field live on different grids")
    idx = np.nonzero(u.coeffs)
    at = tuple(np.concatenate(pair) for pair in zip(idx, a.xi_index()))
    w = psi(grid.freq_norms()[at] / 2.0 ** np.minimum(
        levels, saturation_level(psi, grid))[:, None])
    c = w[:, :len(idx[0])] * u.coeffs[idx]
    keep = c.any(axis=0)
    idx = tuple(i[keep] for i in idx)
    return _scatter(grid, a.xi, a.rows[(slice(None),) + idx], idx,
                    c[:, keep], w[:, len(keep):])


def modulated_apply(a: DiscreteSymbol, u: SpectralField,
                    psi: ModulationFunction, m: int) -> SpectralField:
    """Apply the level-m frequency-modulated operator.

    Equals ``apply(modulated_symbol(a, psi, m), u)`` without building that
    symbol: psi(2^-m eta) cuts off the input and psi(2^-m xi_k) the rows,
    in the scatter of :func:`apply`.  Both cutoffs are identically 1 on the
    lattice once m reaches the saturation level, so larger m give the
    unmodulated operator bit for bit (a stable tail for limit detection).
    """
    if m < 0:
        raise LevelOutOfRange("modulation level must be >= 0")
    return SpectralField.from_coeffs(
        u.grid, _modulated_coeffs(a, u, psi, np.array([m]))[0])


@dataclass
class LimitReport:
    """Outcome of the vanishing-frequency-modulation limit over several
    modulation functions."""

    converged: bool
    stabilization_m: int | None
    value: SpectralField
    psi_discrepancy: float
    cauchy_profile: list          # one list of sup-norm differences per psi


#: Sup-norm difference at or below which modulation levels (and cutoffs)
#: count as agreeing in ``modulation_limit``.
LIMIT_TOL = 1e-10


def modulation_limit(a: DiscreteSymbol, u: SpectralField, psis) -> LimitReport:
    """Run the modulation sweep m = 0..saturation for each cutoff, one
    scatter and inverse FFT per block of levels (``BLOCK_ENTRIES`` entries).

    Converged means: for every psi the successive differences fall (and
    stay) below ``LIMIT_TOL``, and the final values across the cutoffs
    agree to ``LIMIT_TOL``.
    The full Cauchy profiles are reported so that refinement studies can
    detect non-decaying differences.
    """
    psis = list(psis)
    if len(psis) < 2:
        raise ValueError("need at least two modulation functions")
    grid, size = u.grid, u.grid.N**u.grid.n
    per_block = max(1, BLOCK_ENTRIES // size)
    axes = tuple(range(1, grid.n + 1))
    finals, profiles, stabilizations = [], [], []
    for psi in psis:
        levels = np.arange(saturation_level(psi, grid) + 1)
        diffs, prev = [], None
        for lo in range(0, len(levels), per_block):
            coeffs = _modulated_coeffs(a, u, psi, levels[lo:lo + per_block])
            values = np.fft.ifftn(coeffs, axes=axes) * size
            if prev is not None:
                diffs.append(float(np.max(np.abs(values[0] - prev))))
            diffs += np.abs(np.diff(values, axis=0)).max(axis=axes).tolist()
            prev = values[-1]
        profiles.append(diffs)
        finals.append(SpectralField(grid, coeffs[-1], prev))
        stabilizations.append(next((m for m in range(len(diffs) + 1) if all(
            d <= LIMIT_TOL for d in diffs[m:])), None))
    disc = 0.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            disc = max(disc, float(np.max(np.abs(
                finals[i].values - finals[j].values))))
    per_psi_ok = all(s is not None for s in stabilizations)
    converged = per_psi_ok and disc <= LIMIT_TOL
    stab_m = max(stabilizations) if per_psi_ok else None
    return LimitReport(converged, stab_m, finals[0], disc, profiles)


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
    """The three paradifferential series of ``a`` at a fixed modulation
    level m.

    ``series[name][k]`` is the (weights, input, term) triple of level k:
    the K row weights of its level symbol, ``a`` with row k weighted by
    weights[k] (:meth:`level_symbol`), and term = level symbol(x, D) input:

    * ``low_high``: (a^{k-h}, u_k);
    * ``diagonal_a``: (a^k - a^{k-h}, u_k), a^k itself for k < h;
    * ``diagonal_b``: (a_k, u^{k-1} - u^{k-h});
    * ``high_low``: (a_k, u^{k-h}).

    A low-high or high-low term absent at k < h has weights None and the
    zero field as its term.  ``u`` is the input the split decomposes.
    """

    a: DiscreteSymbol
    series: dict
    partition: LPPartition
    m: int
    u: SpectralField

    def level_symbol(self, weights) -> DiscreteSymbol | None:
        """``a`` with row k weighted by weights[k]; None for no weights."""
        if weights is None:
            return None
        a = self.a
        return a.with_rows(a.rows * weights.reshape((-1,) + (1,) * a.grid.n))

    def total(self) -> SpectralField:
        """The sum of every series term: the level-m modulated operator
        applied to ``u``."""
        return sum((term for triples in self.series.values()
                    for _, _, term in triples), SpectralField.zero(self.u.grid))


def para_split(a: DiscreteSymbol, u, part: LPPartition, m: int):
    """Exact finite rearrangement of the level-m modulated operator into the
    low-high, near-diagonal, and high-low series.

    ``u`` may also be a list of fields, which gives their splits.  They
    share one ladder of row weights: a_k, a^k and a^k - a^{k-h} are ``a``
    with row k weighted by phi_k, psi_k and psi_k - psi_{k-h} at xi_k, and
    a level symbol's terms over all the fields come from one row-weighted
    scatter, so no level symbol is built."""
    check_grid(part, a.grid)
    fields = [u] if isinstance(u, SpectralField) else list(u)
    h, nil = part.h, [SpectralField.zero(a.grid)] * len(fields)
    at = a.xi_index()
    psi = [part.cumulative_weights(k)[at] for k in range(m + 1)]
    u_cum = {k: [cumulative_block(f, k, part) for f in fields]
             for k in range(m + 1)}
    series = [{"low_high": [], "diagonal_a": [], "diagonal_b": [],
               "high_low": []} for _ in fields]
    for k in range(m + 1):
        u_k = [dyadic_block(f, k, part) for f in fields]
        band, lag = part.level_weights(k)[at], u_cum.get(k - h, nil)
        mid = [x - y for x, y in zip(u_cum.get(k - 1, nil), lag)]
        low, high = (psi[k - h], band) if k >= h else (None, None)
        near = psi[k] if low is None else psi[k] - psi[k - h]
        terms = _apply(a, mid + (lag if k >= h else []), band)
        level = {"low_high": (low, u_k,
                              nil if low is None else _apply(a, u_k, low)),
                 "diagonal_a": (near, u_k, _apply(a, u_k, near)),
                 "diagonal_b": (band, mid, terms[:len(mid)]),
                 "high_low": (high, lag, terms[len(mid):] or nil)}
        for i, out in enumerate(series):
            for name, (wts, inputs, outs) in level.items():
                out[name].append((wts, inputs[i], outs[i]))
    splits = [ParaSplit(a, s, part, m, f) for s, f in zip(series, fields)]
    return splits[0] if isinstance(u, SpectralField) else splits


@dataclass
class SupportReport:
    """Per-level corona/ball verification of the paradifferential terms."""

    violations: list            # (series, k, offending points)
    corona_bounds: dict         # k -> (inner, outer) for the corona series
    ball_bounds: dict           # k -> radius for the near-diagonal series
    tdc_corona_checked: bool = False


def support_inclusions(split: ParaSplit, tdc_B: float | None = None) -> SupportReport:
    """Exact support inclusion checks for all retained terms.

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
        bad = fld.support() & ~part.grid.annulus(inner, outer)
        if bad.any():
            violations.append((series, k, part.grid.points(bad)))

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


def spectral_support_bound(a: DiscreteSymbol, u: SpectralField) -> np.ndarray:
    """Lattice mask of {xi + eta | xi in supp_xi ahat(., eta), eta in supp Fu},
    exactly; empty when either support is.

    Guaranteed superset of the output support.  Raises AliasingRisk when
    max|xi| + max|eta| >= N/2 over the two supports in the per-axis (sup)
    norm: the sum could then wrap around the lattice, and the grid is too
    small for a valid support statement.
    """
    if a.grid != u.grid:
        raise GridMismatch("symbol and field live on different grids")
    grid = u.grid
    out = np.zeros(grid.shape, dtype=bool)
    xi_sup, u_sup = a.xi_support(), u.support()
    if not xi_sup.any() or not u_sup.any():
        return out
    k_abs = np.abs(grid.axis_freqs())
    xi_max, eta_max = (int(np.max(k_abs[np.concatenate(np.nonzero(m))]))
                       for m in (xi_sup, u_sup))
    if xi_max + eta_max >= grid.nyquist:
        raise AliasingRisk(f"max|xi| + max|eta| = {xi_max}+{eta_max} >= "
                           f"{grid.nyquist}; the sum may wrap around the "
                           "lattice")
    mag = np.abs(a.rows)
    tau = float(np.max(mag)) * SUPPORT_REL_THRESHOLD
    eta = np.nonzero(u_sup)
    k, j = np.nonzero(mag[(slice(None),) + eta] > tau)
    out[tuple((a.xi[k, ax] + eta[ax][j]) % grid.N
              for ax in range(grid.n))] = True
    return out


def adjoint_symbol(a: DiscreteSymbol) -> DiscreteSymbol:
    """Symbol of the discrete adjoint, exactly from the stored rows.

    The adjoint's partial transform is conj(ahat(-xi, xi + eta)), so row k
    moves to -xi_k as conj(r_k(eta - xi_k)): a roll by xi_k over the eta
    axes."""
    eta_axes = tuple(range(a.grid.n))
    rows = np.empty_like(a.rows)
    for k, (xi, row) in enumerate(zip(a.xi, a.rows)):
        rows[k] = np.conj(np.roll(row, tuple(xi), axis=eta_axes))
    return DiscreteSymbol(a.grid, a.d, -a.xi, rows)


def discrete_adjoint_probe(a: DiscreteSymbol) -> dict:
    """Numerical probe of membership in the self-adjoint symbol subclass.

    Returns the adjoint symbol and its seminorm estimates at the derivative
    depths (alpha, beta) in {0, 1}^2, taken along the first axis when
    n = 2.
    """
    adj = adjoint_symbol(a)
    rest = (0,) * (a.grid.n - 1)
    report = {}
    for alpha, beta in ((0, 0), (1, 0), (0, 1), (1, 1)):
        report[f"alpha{alpha}_beta{beta}"] = {"adjoint": estimate_seminorm(
            adj, (alpha,) + rest, (beta,) + rest).value}
    return {"adjoint_symbol": adj, "seminorms": report}
