"""Maximal functions, the symbol factor, and pointwise inequality checkers.

On the torus the sup over all translates equals the sup over one fundamental
period with the periodic distance, so every maximal function here is a
finite (exactly computable) maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (BadExponent, DepthUnsupported, LevelOutOfRange,
                     SupportViolation)
from .lp import ModulationFunction, make_modulation
from .operators import ParaSplit, apply
from .symbols import DiscreteSymbol, _eta_derivative
from .torus import SpectralField, TorusGrid

#: Fast-path screen: translates whose decay weight falls below this cannot
#: influence the maximal function beyond ~1e-14 * max|u| absolute error.
WINDOW_FLOOR = 1e-14


@dataclass(frozen=True)
class MaxParams:
    """Decay exponent N, spectral radius R, moment exponent t in (0, 1]."""

    N: float
    R: float
    t: float = 1.0

    def __post_init__(self):
        if self.N <= 0 or self.R <= 0:
            raise ValueError("N and R must be positive")
        if not (0.0 < self.t <= 1.0):
            raise ValueError("t must lie in (0, 1]")


def torus_offsets(grid: TorusGrid) -> np.ndarray:
    """Periodic distance |y| from the origin for every grid offset."""
    d = grid.axis_points()
    d = np.minimum(d, 2.0 * np.pi - d)
    if grid.n == 1:
        return d
    return np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)


def peetre_weights(grid: TorusGrid, p: MaxParams) -> np.ndarray:
    return (1.0 + p.R * torus_offsets(grid)) ** (-p.N)


def peetre_max(u: SpectralField, p: MaxParams, exact: bool = False) -> np.ndarray:
    """u*(x) = sup_y |u(x-y)| / (1 + R |y|)^N with the periodic metric.

    The default path drops translates whose weight is below the 1e-14
    window floor; ``exact=True`` keeps every competitor (oracle mode).
    """
    grid = u.grid
    w = peetre_weights(grid, p)
    absu = np.abs(u.values)
    if grid.n == 1:
        N = grid.N
        cols = np.arange(N)
        if not exact:
            cols = cols[w >= WINDOW_FLOOR]
        idx = (np.arange(N)[:, None] - cols[None, :]) % N
        return np.max(absu[idx] * w[cols][None, :], axis=1)
    out = np.zeros(grid.shape)
    it = np.argwhere(w >= (0.0 if exact else WINDOW_FLOOR))
    for off in it:
        shifted = np.roll(absu, shift=tuple(off), axis=(0, 1))
        np.maximum(out, shifted * w[tuple(off)], out=out)
    return out


@lru_cache(maxsize=32)
def _ball_masks_fft(n: int, N: int):
    """FFTs of the lattice indicator of |y| <= j*spacing for j = 1..N/2."""
    grid = TorusGrid(n, N)
    d = torus_offsets(grid)
    outs = []
    for j in range(1, N // 2 + 1):
        mask = (d <= j * grid.spacing + 1e-12).astype(float)
        outs.append((np.fft.fftn(mask), float(mask.sum())))
    return outs


def hl_max(u: SpectralField, t: float) -> np.ndarray:
    """Modified Hardy-Littlewood maximal function over the discrete radii
    r = j * spacing, j = 1..N/2, with ball-averaged normalization:

        M_t u(x) = sup_r ( |B_r|^-1 integral_{|x-y|<=r} |u|^t dy )^{1/t}.

    Averaging over the discrete ball (instead of dividing by r^n) makes
    M_t c = |c| exact for constants; the dimensional factor this absorbs
    lands in the fitted comparison constants."""
    if not (0.0 < t <= 1.0):
        raise BadExponent("t must lie in (0, 1]")
    grid = u.grid
    ft = np.fft.fftn(np.abs(u.values) ** t)
    best = np.abs(u.values) ** t   # the degenerate ball {x} itself
    for mask_ft, count in _ball_masks_fft(grid.n, grid.N):
        avg = np.real(np.fft.ifftn(ft * mask_ft)) / count
        np.maximum(best, np.maximum(avg, 0.0), out=best)
    return best ** (1.0 / t)


class FrequencyWindow:
    """Radial eta-cutoff used inside the symbol factor; anything with an
    outer support radius ``R`` and a profile on radii qualifies."""

    def __init__(self, profile, R: float):
        self.profile = profile
        self.R = float(R)

    def __call__(self, radii):
        return self.profile(radii)


def ring_window(inner: float, plateau_lo: float, plateau_hi: float,
                outer: float) -> FrequencyWindow:
    """Smooth annular window vanishing near the origin (for order scans)."""
    rise = ModulationFunction(inner, plateau_lo)
    fall = ModulationFunction(plateau_hi, outer)
    return FrequencyWindow(lambda s: (1.0 - rise(np.asarray(s, float))) * fall(np.asarray(s, float)),
                           outer)


def symbol_factor(a: DiscreteSymbol, p: MaxParams, psi,
                  allow_clipped: bool = False) -> np.ndarray:
    """F_a(N, R; x) = integral (1 + R|y|)^N |F^-1_{eta->y}(a(x,.) chi)| dy
    with chi = psi(. / R); a nonnegative continuous field over x.

    The window must fit inside the lattice unless ``allow_clipped`` is set;
    a clipped window still equals 1 on its plateau, so the factorization
    inequality remains exact, but the decay-scaling fidelity is reduced.
    """
    grid = a.grid
    outer = getattr(psi, "R")
    if p.R * outer > grid.nyquist and not allow_clipped:
        raise LevelOutOfRange(
            f"R * supp(psi) = {p.R * outer} exceeds nyquist {grid.nyquist}")
    chi = psi(grid.freq_norms() / p.R)
    rows = a.values * chi.reshape((1,) * grid.n + grid.shape)
    eta_axes = tuple(range(grid.n, 2 * grid.n))
    # F^-1_{eta->y} with d eta the counting measure and the 2*pi^-n factor
    G = np.fft.ifftn(rows, axes=eta_axes) * grid.N**grid.n / (2.0 * np.pi)**grid.n
    w = (1.0 + p.R * torus_offsets(grid)) ** p.N
    cell = grid.spacing**grid.n
    return np.sum(np.abs(G) * w.reshape((1,) * grid.n + grid.shape),
                  axis=eta_axes) * cell


def check_factorization(a: DiscreteSymbol, u: SpectralField, p: MaxParams,
                        psi: ModulationFunction | None = None) -> dict:
    """max_x |a#u(x)| / (F_a(x) u*(x)); holds iff the ratio is <= 1 + 1e-6.

    Preconditions (checked exactly on the lattice): the input spectrum lies
    in the ball of radius R and the cutoff chi = psi(./R) equals 1 on it.
    """
    if psi is None:
        psi = make_modulation(1.0, 2.0)
    grid = u.grid
    sup = u.support()
    bad = [pt for pt in sup
           if np.sqrt(sum(c * c for c in pt)) > p.R + 1e-12]
    if bad:
        raise SupportViolation("spectrum escapes B(0, R)", bad)
    norms = grid.freq_norms()
    chi = psi(norms / p.R)
    for pt in sup:
        if chi[grid.index_of(pt)] != 1.0:
            raise SupportViolation("cutoff not identically 1 on supp(u^)", [pt])
    lhs = np.abs(apply(a, u).values)
    Fa = symbol_factor(a, p, psi)
    ustar = peetre_max(u, p, exact=True)
    denom = Fa * ustar
    mask = denom > 0
    ratio = float(np.max(lhs[mask] / denom[mask])) if mask.any() else 0.0
    if np.any(lhs[~mask] > 0):
        ratio = np.inf
    return {"max_ratio": ratio, "holds": bool(ratio <= 1.0 + 1e-6)}


def _multi_indices(n: int, max_order: int):
    if n == 1:
        return [(k,) for k in range(max_order + 1)]
    return [(i, j) for i in range(max_order + 1)
            for j in range(max_order + 1 - i)]


def _mihlin_rhs(a: DiscreteSymbol, p: MaxParams, psi) -> np.ndarray:
    grid = a.grid
    K = int(np.floor(p.N + grid.n / 2.0)) + 1
    if K > 4:
        raise DepthUnsupported(f"derivative depth {K} exceeds 4")
    region = (psi(grid.freq_norms() / p.R) > 0).reshape((1,) * grid.n
                                                        + grid.shape)
    eta_axes = tuple(range(grid.n, 2 * grid.n))
    total = np.zeros(grid.shape)
    for alpha in _multi_indices(grid.n, K):
        if sum(alpha) > K:
            continue
        deriv = _eta_derivative(a.values, grid, alpha)
        sq = np.abs(deriv) ** 2 * region
        total += np.sqrt(np.sum(sq, axis=eta_axes)
                         * p.R ** (2 * sum(alpha) - grid.n))
    return total


@lru_cache(maxsize=32)
def _mihlin_constant(n: int, N: int, params: MaxParams, psi) -> float:
    """Calibrated on the identity symbol: the one free constant of the
    Mihlin-type bound for this (grid, N, R, window)."""
    grid = TorusGrid(n, N)
    ident = DiscreteSymbol.identity(grid)
    Fa = symbol_factor(ident, params, psi)
    rhs = _mihlin_rhs(ident, params, psi)
    return float(np.max(Fa / rhs))


def mihlin_bound(a: DiscreteSymbol, p: MaxParams, psi) -> np.ndarray:
    """Derivative-integral majorant of the symbol factor, scaled by the
    constant calibrated once on the identity symbol."""
    c = _mihlin_constant(a.grid.n, a.grid.N, p, psi)
    return c * _mihlin_rhs(a, p, psi)


@dataclass
class ParatermReport:
    """Outcome of the per-term pointwise estimates.

    Each paradifferential term is checked in two independent layers:

    * ``factorization_ratios``: term / (own symbol factor x maximal
      function of its input) -- an exact triangle inequality, so every
      finite entry must be <= 1.  ``max_factorization_ratio`` is the
      largest finite entry, or NaN if any entry is NaN.
    * ``scale_constants``: symbol factor / (dyadic scaling law x the
      same-window identity reference).  Dividing by the reference cancels
      the lattice-resolution transient of the window family, so for a
      symbol that is resolved at the active levels the normalized
      constants are flat in the level.

    ``scaled_ratios`` keeps the raw term / (2^{kd}-weighted maximal
    majorant) numbers for reference; they absorb the symbol's seminorm.
    Trend slopes are computed over the resolved, unclipped levels only.
    """

    factorization_ratios: dict
    scale_constants: dict
    scaled_ratios: dict
    max_factorization_ratio: float
    growth_slopes: dict
    trend_levels: dict

    def pointwise_ok(self, tol: float = 1e-6) -> bool:
        return self.max_factorization_ratio <= 1.0 + tol

    def stable(self, slope_tol: float = 0.8) -> bool:
        return all(s <= slope_tol for s in self.growth_slopes.values())


def _ratio(term, major) -> float:
    """max |term| / major where major > 0; inf if the term has mass where
    the majorant vanishes; NaN if either array holds a NaN."""
    num = np.abs(term.values)
    if np.isnan(num).any() or np.isnan(major).any():
        return np.nan
    mask = major > 0
    if not mask.any():
        return 0.0 if float(np.max(num)) == 0.0 else np.inf
    if np.any(num[~mask] > 1e-13 * max(float(np.max(num)), 1.0)):
        return np.inf
    return float(np.max(num[mask] / major[mask]))


def _log_slope(values, resolved_from: int = 0) -> float:
    """log2-slope of the positive entries at levels >= resolved_from.

    Coarse dyadic levels sample their band on a handful of lattice points,
    so their kernels do not decay and the scaling constants there are
    resolution artifacts; trend detection starts at ``resolved_from``."""
    pts = [(k, v) for k, v in enumerate(values)
           if k >= resolved_from and np.isfinite(v) and v > 0]
    if len(pts) < 3:
        return 0.0
    ks = np.array([k for k, _ in pts], dtype=float)
    vs = np.log2([v for _, v in pts])
    return float(np.polyfit(ks, vs, 1)[0])


def paraterm_pointwise_check(split: ParaSplit, a: DiscreteSymbol,
                             u: SpectralField, p: MaxParams,
                             M: int = 1) -> ParatermReport:
    """Check the pointwise estimates for every retained split term.

    For each series the term is compared against (symbol factor of its own
    level-band symbol) x (maximal function of its own input) -- exact on
    the lattice -- while the dyadic scaling content of the estimates is
    isolated in the per-level constants  max_x F(x) / scaling_law(level).

    The bands and blocks come from ``split.ladder``; ``a`` and ``u`` must
    equal the pair the split was built from (ValueError otherwise).
    """
    lad = split.ladder
    if not lad.built_from(a, u):
        raise ValueError("a and u differ from the pair the split was "
                         "built from")
    part, m = split.partition, split.m
    R, h, d = part.R, part.h, a.d
    grid = u.grid
    psi = part.psi
    r = part.r
    # annular windows equal to 1 on the input's corona but vanishing near
    # the origin: only these make the (R 2^k)^d scaling of the symbol
    # factor meaningful (a ball window is polluted by the origin region)
    block_ring = ring_window(r / (4 * R), r / (2 * R), 1.0, 2.0)
    lag_ring = ring_window(r / (R * 2.0 ** (h + 1)), r / (R * 2.0**h),
                           0.5, 1.0)

    fact, scale, scaled, trends = {}, {}, {}, {}

    def window_reference(pp, window):
        """Symbol factor of the identity symbol through the same window:
        the pure window/weight contribution at this level."""
        chi = window(grid.freq_norms() / pp.R)
        G = np.fft.ifftn(chi) * grid.N**grid.n / (2.0 * np.pi)**grid.n
        w = (1.0 + pp.R * torus_offsets(grid)) ** pp.N
        return float(np.sum(np.abs(G) * w) * grid.spacing**grid.n)

    tiny = 1e-12 * max(u.norm_inf(), 1e-300)

    def run_series(name, entries, law):
        ratios, consts, raw, levels = [], [], [], []
        for k, (sym, w, radius, window, term) in enumerate(entries):
            num = np.abs(term.values)
            if sym is None or w.norm_inf() <= tiny or float(np.max(num)) <= tiny:
                ratios.append(0.0)
                consts.append(0.0)
                raw.append(0.0)
                continue
            pp = MaxParams(p.N, radius)
            F = symbol_factor(sym, pp, window, allow_clipped=True)
            wstar = peetre_max(w, pp, exact=True)
            major = F * wstar
            ratios.append(_ratio(term, major))
            ref = window_reference(pp, window)
            consts.append(float(np.max(F)) / (law(k) * ref))
            raw.append(_ratio(term, law(k) * wstar))
            if radius * getattr(window, "R") <= grid.nyquist:
                levels.append(k)
        fact[name] = ratios
        scale[name] = consts
        scaled[name] = raw
        trends[name] = levels

    def block_window(k):
        return psi if k == 0 else block_ring

    run_series(
        "low_high",
        [(lad.cumulative[k - h] if k >= h else None, lad.blocks[k],
          R * 2.0**k, block_window(k), split.low_high[k])
         for k in range(m + 1)],
        lambda k: (R * 2.0**k) ** d)
    run_series(
        "diagonal_a",
        [(lad.near_diagonal_symbol(k, h), lad.blocks[k], R * 2.0**k,
          block_window(k), split.diagonal[k][0]) for k in range(m + 1)],
        lambda k: (R * 2.0**k) ** d)
    run_series(
        "diagonal_b",
        [(lad.bands[k],
          lad.cumulative_block(k - 1) - lad.cumulative_block(k - h),
          R * 2.0**k, psi if k == 0 else lag_ring, split.diagonal[k][1])
         for k in range(m + 1)],
        lambda k: (R * 2.0**k) ** d)
    # the lagged-cumulative input is a ball, so the high-low constants keep
    # the ball window; they are reported, not trend-asserted
    run_series(
        "high_low",
        [(lad.bands[j], lad.cumulative_block(j - h), R * 2.0 ** max(j - h, 0),
          psi, split.high_low[j]) for j in range(m + 1)],
        lambda j: 2.0 ** (-j * M) * (R * 2.0**j) ** (d + M))

    ratios = [rr for rs in fact.values() for rr in rs]
    worst = max((rr for rr in ratios if np.isfinite(rr)), default=0.0)
    if any(np.isnan(rr) for rr in ratios):
        worst = np.nan
    resolved_from = max(3, (m + 1) // 2)
    slopes = {}
    for name in ("low_high", "diagonal_a", "diagonal_b"):
        usable = [v if k in trends[name] else 0.0
                  for k, v in enumerate(scale[name])]
        slopes[name] = _log_slope(usable, resolved_from)
    return ParatermReport(fact, scale, scaled, worst, slopes, trends)


def yamazaki_constant(s: float, q: float) -> float:
    """Closed-form constant for the weighted cumulative-sum inequality:
    (sum_l 2^{s l min(1,q)})^{q/min(1,q)}, with the Minkowski form at
    q = inf."""
    if s >= 0:
        raise BadExponent("s must be negative")
    if q == np.inf:
        return 1.0 / (1.0 - 2.0**s)
    lam = min(1.0, q)
    return float((1.0 / (1.0 - 2.0 ** (s * lam))) ** (q / lam))


def yamazaki_check(b, s: float, q: float) -> dict:
    """Both sides of  sum_j 2^{sjq} (sum_{k<=j} |b_k|)^q <= c sum_j 2^{sjq}|b_j|^q
    (sup form for q = inf) together with the closed-form constant."""
    if s >= 0:
        raise BadExponent("s must be negative")
    b = np.abs(np.asarray(b, dtype=float))
    cum = np.cumsum(b)
    j = np.arange(b.size)
    if q == np.inf:
        lhs = float(np.max(2.0 ** (s * j) * cum)) if b.size else 0.0
        rhs = float(np.max(2.0 ** (s * j) * b)) if b.size else 0.0
    else:
        lhs = float(np.sum(2.0 ** (s * j * q) * cum**q))
        rhs = float(np.sum(2.0 ** (s * j * q) * b**q))
    c = yamazaki_constant(s, q)
    holds = lhs <= c * rhs * (1.0 + 1e-12) + 1e-300
    return {"lhs": lhs, "rhs": rhs, "rhs_const": c, "holds": bool(holds)}
