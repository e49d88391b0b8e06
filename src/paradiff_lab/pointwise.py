"""Maximal functions, the symbol factor, and pointwise inequality checkers.

On the torus the sup over all translates equals the sup over one fundamental
period with the periodic distance, so every maximal function here is a
finite (exactly computable) maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (BadExponent, DepthUnsupported, LevelOutOfRange,
                     SupportViolation)
from .lp import STANDARD_CUTOFF, ModulationFunction
from .operators import ParaSplit, apply
from .symbols import DiscreteSymbol, _eta_square_sums
from .torus import SpectralField, TorusGrid


@dataclass(frozen=True)
class MaxParams:
    """Decay exponent N and spectral radius R."""

    N: float
    R: float

    def __post_init__(self):
        if self.N <= 0 or self.R <= 0:
            raise ValueError("N and R must be positive")


def torus_offsets(grid: TorusGrid) -> np.ndarray:
    """Periodic distance |y| from the origin for every grid offset."""
    d = grid.axis_points()
    d = np.minimum(d, 2.0 * np.pi - d)
    if grid.n == 1:
        return d
    return np.sqrt(d[:, None] ** 2 + d[None, :] ** 2)


def _by_distance(grid: TorusGrid) -> tuple:
    """(order, d): the flat lattice offsets in order of |y| (a stable sort,
    so ties keep row-major order) and their sorted distances."""
    d = torus_offsets(grid).ravel()
    order = np.argsort(d, kind="stable")
    return order, d[order]


def _translates(f: np.ndarray, order):
    """Yield (y, f(. - y)) for each flat lattice offset y in ``order``; every
    periodic translate is a slice view of one doubled copy of f."""
    N = f.shape[0]
    doubled = np.tile(f, (2,) * f.ndim)
    for y in zip(*np.unravel_index(order, f.shape)):
        yield y, doubled[tuple(slice(N - k, 2 * N - k) for k in y)]


_MEMO_ENTRIES = 256   # one suite_1d run stores 106
_memo: dict = {}


def _remember(key, out: np.ndarray) -> np.ndarray:
    """Keep ``out`` read-only under ``key``, the oldest entry out first."""
    out.flags.writeable = False
    if len(_memo) >= _MEMO_ENTRIES:
        del _memo[next(iter(_memo))]
    return _memo.setdefault(key, out)


def _content(rows: np.ndarray) -> tuple:
    """The live columns of (K, size) ``rows`` and their entries, as bytes."""
    live = np.flatnonzero(np.any(rows != 0, axis=0))
    return live.tobytes(), rows[:, live].tobytes()


def peetre_max(u: SpectralField, p: MaxParams) -> np.ndarray:
    """u*(x) = sup_y |u(x-y)| / (1 + R |y|)^N with the periodic metric: the
    running max of the weighted translates in order of |y|, until max|u|
    times the largest weight ahead is <= its min over x (no later offset
    can raise it anywhere, so the max is exact).  Memoized on the grid, N,
    R and u's nonzero coefficients (its values derive from them); read-only."""
    grid = u.grid
    key = ("peetre_max", grid, p.N, p.R, *_content(u.coeffs.reshape(1, -1)))
    if key in _memo:
        return _memo[key]
    f = np.abs(u.values)
    w = (1.0 + p.R * torus_offsets(grid)) ** (-p.N)
    order, _ = _by_distance(grid)
    ahead = np.maximum.accumulate(w.ravel()[order][::-1])[::-1]
    out = np.zeros(grid.shape)
    for (y, shifted), bound in zip(_translates(f, order), np.max(f) * ahead):
        if bound <= out.min():
            break
        np.maximum(out, shifted * w[y], out=out)
    return _remember(key, out)


def hl_max(u: SpectralField, t: float) -> np.ndarray:
    """Modified Hardy-Littlewood maximal function over the discrete radii
    r = j * spacing, j = 1..N/2, with ball-averaged normalization:

        M_t u(x) = sup_r ( |B_r|^-1 integral_{|x-y|<=r} |u|^t dy )^{1/t}.

    The translates are visited in order of |y|, so each ball sum is the
    previous one plus the new shell.  Averaging over the discrete ball
    (instead of dividing by r^n) makes M_t c = |c| exact for constants;
    the dimensional factor this absorbs lands in the fitted comparison
    constants.  Memoized like :func:`peetre_max`, on t; read-only."""
    if not (0.0 < t <= 1.0):
        raise BadExponent("t must lie in (0, 1]")
    grid = u.grid
    key = ("hl_max", grid, t, *_content(u.coeffs.reshape(1, -1)))
    if key in _memo:
        return _memo[key]
    f = np.abs(u.values) ** t
    order, d = _by_distance(grid)
    radii = np.arange(1, grid.N // 2 + 1) * grid.spacing + 1e-12
    counts = np.searchsorted(d, radii, side="right")
    sweep = _translates(f, order)
    ball = np.zeros(grid.shape)
    best = f.copy()   # the degenerate ball {x} itself
    done = 0
    for count in counts:
        for _, shifted in islice(sweep, count - done):
            ball += shifted
        done = count
        np.maximum(best, ball / count, out=best)
    return _remember(key, best ** (1.0 / t))


@dataclass(frozen=True)
class RingWindow:
    """Smooth annular window vanishing near the origin (for order scans);
    hashable, and like a modulation function it carries its support R."""

    inner: float
    plateau_lo: float
    plateau_hi: float
    R: float

    def __call__(self, radii) -> np.ndarray:
        return ((1.0 - ModulationFunction(self.inner, self.plateau_lo)(radii))
                * ModulationFunction(self.plateau_hi, self.R)(radii))


def _window(grid: TorusGrid, psi, R: float) -> np.ndarray:
    """psi(|eta| / R) over the lattice, a table of the grid."""
    return grid.table(("window", psi, R), lambda: psi(grid.freq_norms() / R))


def symbol_factor(a: DiscreteSymbol, p: MaxParams, psi,
                  allow_clipped: bool = False) -> np.ndarray:
    """F_a(N, R; x) = integral (1 + R|y|)^N |F^-1_{eta->y}(a(x,.) chi)| dy
    with chi = psi(. / R); a nonnegative continuous field over x, read-only.

    The window must fit inside the lattice unless ``allow_clipped`` is set;
    a clipped window still equals 1 on its plateau, so the factorization
    inequality remains exact, but the decay-scaling fidelity is reduced.
    F_a is memoized on exactly what it reads: grid, N, R, the xi_k and the
    live columns of rows * chi with their bytes.
    """
    grid = a.grid
    if p.R * psi.R > grid.nyquist and not allow_clipped:
        raise LevelOutOfRange(
            f"R * supp(psi) = {p.R * psi.R} exceeds nyquist {grid.nyquist}")
    windowed = a.rows * _window(grid, psi, p.R)
    key = ("symbol_factor", grid, p.N, p.R, a.xi.tobytes(),
           *_content(windowed.reshape(len(a.xi), grid.N**grid.n)))
    if key in _memo:
        return _memo[key]
    # F^-1_{eta->y} of each row, with d eta the counting measure and the
    # 2*pi^-n factor; it commutes with the expansion over x
    G = (np.fft.ifftn(windowed, axes=tuple(range(1, grid.n + 1)))
         * grid.N**grid.n / (2.0 * np.pi)**grid.n)
    w = ((1.0 + p.R * torus_offsets(grid)) ** p.N).ravel()
    total = np.zeros(grid.shape)
    for cols, mod in a.moduli(G):
        total += np.einsum("c,c...->...", w[cols], mod)   # no BLAS threads
    return _remember(key, total * grid.spacing**grid.n)


def max_ratio(num, den, floor: float = 0.0) -> tuple:
    """(ratio, x): the majorant rule of every inequality verdict.

    ratio = max of num / den, where a point with den = 0 counts inf if num
    exceeds ``floor`` there and 0 otherwise; NaN if either array holds a
    NaN.  x is the flat row-major index of the maximum (the first NaN)."""
    num, den = np.broadcast_arrays(np.asarray(num, dtype=float),
                                   np.asarray(den, dtype=float))
    ratios = np.where(num > floor, np.inf, 0.0)
    np.divide(num, den, out=ratios, where=den > 0)
    ratios[np.isnan(num) | np.isnan(den)] = np.nan
    x = int(np.argmax(ratios))
    return float(ratios.flat[x]), x


def check_factorization(a: DiscreteSymbol, u: SpectralField,
                        p: MaxParams) -> dict:
    """max_x |a#u(x)| / (F_a(x) u*(x)) at its x; holds iff <= 1 + 1e-6.

    Preconditions (checked exactly on the lattice): the input spectrum lies
    in the ball of radius R and the cutoff chi = psi(./R) equals 1 on it,
    psi the standard cutoff with (r, R) = (1, 2).
    """
    psi = STANDARD_CUTOFF
    grid = u.grid
    sup = u.support()
    far = sup & ~grid.annulus(0.0, p.R)
    if far.any():
        raise SupportViolation("spectrum escapes B(0, R)", grid.points(far))
    cut = sup & (_window(grid, psi, p.R) != 1.0)
    if cut.any():
        raise SupportViolation("cutoff not identically 1 on supp(u^)",
                               grid.points(cut)[:1])
    ratio, x = max_ratio(np.abs(apply(a, u).values),
                         symbol_factor(a, p, psi) * peetre_max(u, p))
    return {"max_ratio": ratio, "x": x, "holds": bool(ratio <= 1.0 + 1e-6)}


def _mihlin_rhs(a: DiscreteSymbol, p: MaxParams, psi) -> np.ndarray:
    grid = a.grid
    K = int(np.floor(p.N + grid.n / 2.0)) + 1
    if K > 4:
        raise DepthUnsupported(f"derivative depth {K} exceeds 4")
    region = _window(grid, psi, p.R) > 0
    total = np.zeros(grid.shape)
    for alpha in (b for b in np.ndindex(*(K + 1,) * grid.n) if sum(b) <= K):
        sq, = _eta_square_sums(a, alpha, [region])
        total += np.sqrt(sq * p.R ** (2 * sum(alpha) - grid.n))
    return total


def mihlin_bound(a: DiscreteSymbol, p: MaxParams, psi) -> np.ndarray:
    """Derivative-integral majorant of the symbol factor, scaled by its one
    free constant for this (grid, N, R, window), calibrated on the identity
    symbol."""
    ident = DiscreteSymbol.identity(a.grid)
    c = float(np.max(symbol_factor(ident, p, psi)
                     / _mihlin_rhs(ident, p, psi)))
    return c * _mihlin_rhs(a, p, psi)


@dataclass
class ParatermReport:
    """Outcome of the per-term pointwise estimates.

    Each paradifferential term is checked in two independent layers:

    * ``factorization_ratios``: term / (own symbol factor x maximal
      function of its input) by :func:`max_ratio` -- an exact triangle
      inequality, so every finite entry must be <= 1.
      ``max_factorization_ratio`` is the largest finite entry (NaN if any
      entry is NaN), first reached at the series, level and point ``witness``.
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
    witness: dict


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
    block_ring = RingWindow(r / (4 * R), r / (2 * R), 1.0, 2.0)
    lag_ring = RingWindow(r / (R * 2.0 ** (h + 1)), r / (R * 2.0**h),
                          0.5, 1.0)

    # its symbol factor is each level's pure window/weight reference
    ident = DiscreteSymbol.identity(grid)
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

    fact, scale, trends, finite = {}, {}, {}, []
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
            ratio, x = max_ratio(num, F * peetre_max(w, pp),
                                 1e-13 * max(float(np.max(num)), 1.0))
            ratios.append(ratio)
            if not np.isinf(ratio):
                finite.append((ratio, {"series": name, "level": k, "x": x}))
            ref = float(symbol_factor(ident, pp, window,
                                      allow_clipped=True).flat[0])
            consts.append(float(np.max(F)) / (law * ref))
            if radius * getattr(window, "R") <= grid.nyquist:
                levels.append(k)
        fact[name] = ratios
        scale[name] = consts
        trends[name] = levels

    # the first largest finite entry; a NaN outranks every number
    worst, witness = max(finite, default=(0.0, {}),
                         key=lambda e: np.inf if np.isnan(e[0]) else e[0])
    resolved_from = max(3, (m + 1) // 2)
    slopes = {}
    for name in ("low_high", "diagonal_a", "diagonal_b"):
        usable = [v if k in trends[name] else 0.0
                  for k, v in enumerate(scale[name])]
        slopes[name] = _log_slope(usable, resolved_from)
    return ParatermReport(fact, scale, worst, slopes, trends, witness)


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
    (sup form for q = inf) together with the closed-form constant, for each
    sequence along the last axis of ``b``."""
    if s >= 0:
        raise BadExponent("s must be negative")
    b = np.abs(np.asarray(b, dtype=float))
    cum = np.cumsum(b, axis=-1)
    j = np.arange(b.shape[-1])
    if q == np.inf:
        lhs = np.max(2.0 ** (s * j) * cum, axis=-1, initial=0.0)
        rhs = np.max(2.0 ** (s * j) * b, axis=-1, initial=0.0)
    else:
        lhs = np.sum(2.0 ** (s * j * q) * cum**q, axis=-1)
        rhs = np.sum(2.0 ** (s * j * q) * b**q, axis=-1)
    c = yamazaki_constant(s, q)
    holds = lhs <= c * rhs * (1.0 + 1e-12) + 1e-300
    return {"lhs": lhs, "rhs": rhs, "rhs_const": c, "holds": holds}
