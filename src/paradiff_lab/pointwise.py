"""Maximal functions, the symbol factor, and pointwise inequality checkers.

On the torus the sup over all translates equals the sup over one fundamental
period with the periodic distance, so every maximal function here is a
finite (exactly computable) maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import (BadExponent, DepthUnsupported, LevelOutOfRange,
                     SupportViolation)
from .lp import ModulationFunction, make_modulation
from .operators import ParaSplit, apply
from .symbols import DiscreteSymbol, _eta_square_sums
from .torus import SpectralField, TorusGrid


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


def _translates(f: np.ndarray, offsets):
    """Yield (y, f(. - y)) for each lattice offset y in ``offsets``; every
    periodic translate is a slice view of one doubled copy of f."""
    N = f.shape[0]
    doubled = np.tile(f, (2,) * f.ndim)
    for y in offsets:
        yield y, doubled[tuple(slice(N - k, 2 * N - k) for k in y)]


def peetre_max(u: SpectralField, p: MaxParams) -> np.ndarray:
    """u*(x) = sup_y |u(x-y)| / (1 + R |y|)^N with the periodic metric:
    the running max of the weighted translates over every grid offset."""
    grid = u.grid
    w = (1.0 + p.R * torus_offsets(grid)) ** (-p.N)
    out = np.zeros(grid.shape)
    for y, shifted in _translates(np.abs(u.values), np.ndindex(grid.shape)):
        np.maximum(out, shifted * w[y], out=out)
    return out


def hl_max(u: SpectralField, t: float) -> np.ndarray:
    """Modified Hardy-Littlewood maximal function over the discrete radii
    r = j * spacing, j = 1..N/2, with ball-averaged normalization:

        M_t u(x) = sup_r ( |B_r|^-1 integral_{|x-y|<=r} |u|^t dy )^{1/t}.

    The translates are visited in order of |y|, so each ball sum is the
    previous one plus the new shell.  Averaging over the discrete ball
    (instead of dividing by r^n) makes M_t c = |c| exact for constants;
    the dimensional factor this absorbs lands in the fitted comparison
    constants."""
    if not (0.0 < t <= 1.0):
        raise BadExponent("t must lie in (0, 1]")
    grid = u.grid
    f = np.abs(u.values) ** t
    d = torus_offsets(grid).ravel()
    order = np.argsort(d, kind="stable")
    radii = np.arange(1, grid.N // 2 + 1) * grid.spacing + 1e-12
    counts = np.searchsorted(d[order], radii, side="right")
    sweep = _translates(f, zip(*np.unravel_index(order, grid.shape)))
    ball = np.zeros(grid.shape)
    best = f.copy()   # the degenerate ball {x} itself
    done = 0
    for count in counts:
        for _, shifted in islice(sweep, count - done):
            ball += shifted
        done = count
        np.maximum(best, ball / count, out=best)
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
    # F^-1_{eta->y} of each row, with d eta the counting measure and the
    # 2*pi^-n factor; it commutes with the expansion over x
    G = (np.fft.ifftn(a.rows * chi, axes=tuple(range(1, grid.n + 1)))
         * grid.N**grid.n / (2.0 * np.pi)**grid.n)
    w = ((1.0 + p.R * torus_offsets(grid)) ** p.N).ravel()
    total = np.zeros(grid.shape)
    for cols, block in a.columns(G):
        total += np.sum(np.abs(block) * w[cols], axis=-1)
    return total * grid.spacing**grid.n


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
    ustar = peetre_max(u, p)
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
    region = psi(grid.freq_norms() / p.R) > 0
    total = np.zeros(grid.shape)
    for alpha in _multi_indices(grid.n, K):
        sq, = _eta_square_sums(a, alpha, [region])
        total += np.sqrt(sq * p.R ** (2 * sum(alpha) - grid.n))
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

    Trend slopes are computed over the resolved, unclipped levels only.
    """

    factorization_ratios: dict
    scale_constants: dict
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


def paraterm_pointwise_check(split: ParaSplit, p: MaxParams) -> ParatermReport:
    """Check the pointwise estimates for every retained split term.

    For each series the term is compared against (symbol factor of its own
    level-band symbol) x (maximal function of its own input) -- exact on
    the lattice -- while the dyadic scaling content of the estimates is
    isolated in the per-level constants  max_x F(x) / scaling_law(level).

    Every (symbol, input, term) triple comes from ``split.series``.
    """
    part, m = split.partition, split.m
    R, h = part.R, part.h
    grid = part.grid
    psi = part.psi
    r = part.r
    # annular windows equal to 1 on the input's corona but vanishing near
    # the origin: only these make the (R 2^k)^d scaling of the symbol
    # factor meaningful (a ball window is polluted by the origin region)
    block_ring = ring_window(r / (4 * R), r / (2 * R), 1.0, 2.0)
    lag_ring = ring_window(r / (R * 2.0 ** (h + 1)), r / (R * 2.0**h),
                           0.5, 1.0)

    def window_reference(pp, window):
        """Symbol factor of the identity symbol through the same window:
        the pure window/weight contribution at this level."""
        chi = window(grid.freq_norms() / pp.R)
        G = np.fft.ifftn(chi) * grid.N**grid.n / (2.0 * np.pi)**grid.n
        w = (1.0 + pp.R * torus_offsets(grid)) ** pp.N
        return float(np.sum(np.abs(G) * w) * grid.spacing**grid.n)

    tiny = 1e-12 * max(split.u.norm_inf(), 1e-300)

    def level_law(name, k, d):
        """Peetre radius, window and scaling law (for symbol order d) of
        level k.  The lagged-cumulative high-low input is a ball, so the
        high-low constants keep the ball window; they are reported, not
        trend-asserted."""
        if name == "high_low":
            return (R * 2.0 ** max(k - h, 0), psi,
                    2.0 ** (-k) * (R * 2.0**k) ** (d + 1))
        ring = lag_ring if name == "diagonal_b" else block_ring
        return R * 2.0**k, psi if k == 0 else ring, (R * 2.0**k) ** d

    fact, scale, trends = {}, {}, {}
    for name, triples in split.series.items():
        ratios, consts, levels = [], [], []
        for k, (sym, w, term) in enumerate(triples):
            num = np.abs(term.values)
            if sym is None or w.norm_inf() <= tiny or float(np.max(num)) <= tiny:
                ratios.append(0.0)
                consts.append(0.0)
                continue
            radius, window, law = level_law(name, k, sym.d)
            pp = MaxParams(p.N, radius)
            F = symbol_factor(sym, pp, window, allow_clipped=True)
            major = F * peetre_max(w, pp)
            ratios.append(_ratio(term, major))
            ref = window_reference(pp, window)
            consts.append(float(np.max(F)) / (law * ref))
            if radius * getattr(window, "R") <= grid.nyquist:
                levels.append(k)
        fact[name] = ratios
        scale[name] = consts
        trends[name] = levels

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
    return ParatermReport(fact, scale, worst, slopes, trends)


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
