"""Symbol families, seminorm estimation, and twisted-diagonal machinery.

A discrete symbol is a(x, eta) on (x-grid) x (frequency lattice).  It is
stored as its partial Fourier transform in x,

    ahat(xi, eta) = F_{x -> xi} a(x, eta),

on an explicit xi-support: K lattice points xi_k, each with a row over eta
(FFT order).  The transform uses the same mean-value normalization as field
coefficients, so an x-independent multiplier is one row at xi = 0.  The
dense array (x axes first, eta axes last) is a derived view.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DepthUnsupported, EmptyShell, GridMismatch,
                     GridTooCoarse, LevelOutOfRange, TooLarge)
from .lp import LPPartition, ModulationFunction, check_grid
from .torus import SUPPORT_REL_THRESHOLD, FreqSet, TorusGrid

#: Largest number of dense symbol entries we are willing to materialize.
DENSE_ENTRY_CAP = 2**24

#: Entries per block of the work arrays behind ``DiscreteSymbol.columns``
#: (dense views, eta-side checks) and ``operators.apply``, so no full-size
#: array is allocated but a result.
BLOCK_ENTRIES = 2**16


def _eta_meshes(grid: TorusGrid) -> tuple:
    """Per-axis integer frequencies as floats, shaped to broadcast over the
    lattice (FFT order)."""
    k = grid.axis_freqs().astype(float)
    return tuple(k.reshape([grid.N if i == ax else 1 for i in range(grid.n)])
                 for ax in range(grid.n))


def _support_rows(grid: TorusGrid, pft: np.ndarray) -> tuple:
    """(xi, rows) of a partial transform over the whole lattice: the
    xi-rows that hold a nonzero entry."""
    keep = np.any(pft != 0, axis=tuple(range(grid.n, 2 * grid.n)))
    k = grid.axis_freqs()
    xi = np.stack([k[i] for i in np.nonzero(keep)], axis=1)
    return xi, pft.reshape((-1,) + grid.shape) if keep.all() else pft[keep]


def _check_dense(grid: TorusGrid):
    if grid.N ** (2 * grid.n) > DENSE_ENTRY_CAP:
        raise TooLarge(f"{grid.N ** (2 * grid.n)} dense entries exceed cap "
                       f"{DENSE_ENTRY_CAP}")


class DiscreteSymbol:
    """A symbol a(x, eta) with declared order d and class metadata, stored
    as its partial transform on an explicit xi-support:

        ahat(xi_k, eta) = rows[k, eta],
        a(x, eta) = sum_k rows[k, eta] e^{i x.xi_k}.

    Attributes
    ----------
    grid : TorusGrid
    d : float
        Declared order.
    xi : int ndarray of shape (K, n), distinct lattice points in
        [-N/2, N/2)^n.
    rows : complex ndarray of shape (K,) + grid.shape (eta in FFT order).
    values : ndarray of shape grid.shape + grid.shape (x first, eta last);
        a dense view, computed on first use and cached.
    class_tag : str
        One of {"S11", "S10", "smoothed_multiplier", "ching", "custom"}.

    Given ``values`` instead of ``xi`` and ``rows``, the rows are the whole
    partial transform (those with a nonzero entry) and ``values`` is kept
    as the cached view.  The dense views are capped at ``DENSE_ENTRY_CAP``
    entries; the stored rows are not.
    """

    __slots__ = ("grid", "d", "class_tag", "xi", "rows", "_values", "_pft")

    def __init__(self, grid, d, values=None, class_tag="custom", *,
                 xi=None, rows=None):
        if (values is None) == (rows is None):
            raise ValueError("give either values or xi and rows")
        self.grid = grid
        self.d = float(d)
        self.class_tag = class_tag
        self._values = self._pft = None
        if values is not None:
            if np.size(values) > DENSE_ENTRY_CAP:
                raise TooLarge(f"{np.size(values)} dense entries exceed cap "
                               f"{DENSE_ENTRY_CAP}")
            values = np.array(values, dtype=np.complex128)
            if not np.isfinite(values).all():
                raise ValueError("symbol values must be finite")
            values.flags.writeable = False
            self._values = values
            xi, rows = _support_rows(grid, np.fft.fftn(
                values, axes=tuple(range(grid.n))) / grid.N**grid.n)
        # wrapped into the lattice box [-N/2, N/2)^n
        self.xi = (np.asarray(xi, dtype=np.int64).reshape(-1, grid.n)
                   + grid.nyquist) % grid.N - grid.nyquist
        self.rows = np.ascontiguousarray(rows, dtype=np.complex128)
        if self.rows.shape != (len(self.xi),) + grid.shape:
            raise ValueError("rows must have shape (K,) + grid.shape")
        if not np.isfinite(self.rows).all():
            raise ValueError("symbol values must be finite")

    @classmethod
    def from_function(cls, grid: TorusGrid, fn, d: float, class_tag="custom"):
        """Sample a callable a(x_meshes, eta_meshes) on the product lattice.

        ``fn`` receives two tuples of broadcastable arrays: per-axis x
        coordinates shaped to the leading axes and per-axis integer
        frequencies shaped to the trailing axes.
        """
        _check_dense(grid)
        n, N = grid.n, grid.N
        x = grid.axis_points()
        k = grid.axis_freqs().astype(float)
        xs, ks = [], []
        for ax in range(n):
            shape = [1] * (2 * n)
            shape[ax] = N
            xs.append(x.reshape(shape))
            shape = [1] * (2 * n)
            shape[n + ax] = N
            ks.append(k.reshape(shape))
        vals = np.broadcast_to(np.asarray(fn(tuple(xs), tuple(ks)),
                                          dtype=np.complex128),
                               grid.shape + grid.shape)
        return cls(grid, d, vals, class_tag)

    @classmethod
    def multiplier(cls, grid: TorusGrid, b, d: float = 0.0,
                   class_tag="smoothed_multiplier"):
        """x-independent symbol b(eta): one xi-row at xi = 0.  ``b`` is an
        array over the lattice or a callable on the per-axis frequencies."""
        row = b(*_eta_meshes(grid)) if callable(b) else b
        row = np.broadcast_to(np.asarray(row, dtype=np.complex128), grid.shape)
        return cls(grid, d, class_tag=class_tag,
                   xi=np.zeros((1, grid.n)), rows=row[None])

    @classmethod
    def identity(cls, grid: TorusGrid):
        return cls.multiplier(grid, np.ones(grid.shape), 0.0, class_tag="S10")

    @classmethod
    def zero(cls, grid: TorusGrid, d: float = 0.0):
        return cls(grid, d, xi=np.zeros((0, grid.n)),
                   rows=np.zeros((0,) + grid.shape))

    @classmethod
    def from_json(cls, grid: TorusGrid, text: str):
        """Load a custom symbol from a JSON table {d, values} (re/im
        interleaved, row-major over x-grid then eta-lattice)."""
        doc = json.loads(text)
        inter = np.asarray(doc["values"], dtype=float)
        flat = inter[0::2] + 1j * inter[1::2]
        return cls(grid, float(doc["d"]),
                   flat.reshape(grid.shape + grid.shape), class_tag="custom")

    def to_json(self) -> str:
        flat = self.values.ravel()
        inter = np.empty(2 * flat.size)
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        return json.dumps({"d": self.d, "values": inter.tolist()})

    # -- dense views -----------------------------------------------------------

    def xi_index(self) -> tuple:
        """Lattice index of each xi_k, one index array per axis."""
        return tuple((self.xi % self.grid.N).T)

    def columns(self, rows=None):
        """Yield ``(cols, block)``, ``block[..., j] = sum_k rows[k, cols[j]]
        e^{i x.xi_k}`` over the x-grid (``cols`` flat lattice indices; the
        columns where every row is zero are skipped): the rows scattered
        over xi and transformed back in x, ``BLOCK_ENTRIES`` entries per
        block.  ``rows`` defaults to the stored rows; a check linear in
        a(x, .) until it takes a modulus runs on the K rows instead."""
        grid = self.grid
        size = grid.N**grid.n
        rows = (self.rows if rows is None else rows).reshape(len(self.xi), size)
        live = np.flatnonzero(np.any(rows != 0, axis=0))
        step = max(1, BLOCK_ENTRIES // size)
        for lo in range(0, len(live), step):
            cols = live[lo:lo + step]
            block = np.zeros(grid.shape + cols.shape, dtype=np.complex128)
            block[self.xi_index()] = rows[:, cols]
            yield cols, np.fft.ifftn(block, axes=tuple(range(grid.n))) * size

    @property
    def values(self) -> np.ndarray:
        """a(x, eta) on the product lattice, cached and read-only."""
        if self._values is None:
            grid = self.grid
            _check_dense(grid)
            vals = np.zeros(grid.shape + (grid.N**grid.n,), dtype=np.complex128)
            for cols, block in self.columns():
                vals[..., cols] = block
            vals.flags.writeable = False
            self._values = vals.reshape(grid.shape + grid.shape)
        return self._values

    def partial_ft(self) -> np.ndarray:
        """F_{x -> xi} a(x, eta) on the whole lattice, cached and read-only;
        xi axes first, FFT order."""
        if self._pft is None:
            _check_dense(self.grid)
            pft = np.zeros(self.grid.shape + self.grid.shape,
                           dtype=np.complex128)
            pft[self.xi_index()] = self.rows
            pft.flags.writeable = False
            self._pft = pft
        return self._pft

    @classmethod
    def from_partial_ft(cls, grid, d, pft, class_tag="custom"):
        """The symbol with partial transform ``pft``, keeping the xi-rows
        that hold a nonzero entry."""
        xi, rows = _support_rows(grid, np.asarray(pft, dtype=np.complex128))
        return cls(grid, d, class_tag=class_tag, xi=xi, rows=rows)

    def with_rows(self, rows, keep=None, d=None) -> "DiscreteSymbol":
        """This symbol's xi-support (restricted to ``keep``) with new rows."""
        xi = self.xi if keep is None else self.xi[keep]
        return DiscreteSymbol(self.grid, self.d if d is None else d,
                              class_tag=self.class_tag, xi=xi, rows=rows)

    def xi_support(self, threshold=None) -> FreqSet:
        """Frequencies xi carrying partial-transform mass (global threshold)."""
        mag = np.max(np.abs(self.rows), axis=tuple(range(1, self.grid.n + 1)),
                     initial=0.0)
        if threshold is None:
            threshold = SUPPORT_REL_THRESHOLD * float(np.max(mag, initial=0.0))
        pts = frozenset(tuple(int(c) for c in p)
                        for p in self.xi[mag > threshold])
        return FreqSet(pts, self.grid)

    def x_band(self) -> float:
        """Support radius of the partial transform in xi (Euclidean)."""
        sup = self.xi_support()
        if not sup.points:
            return 0.0
        return max(float(np.sqrt(sum(c * c for c in p))) for p in sup.points)

    # -- algebra -------------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other over the union of the two supports."""
        if other.grid != self.grid:
            raise GridMismatch("symbols live on different grids")
        grid = self.grid
        xi = np.concatenate([self.xi, other.xi])
        flat = np.ravel_multi_index(tuple((xi % grid.N).T), grid.shape)
        _, first, where = np.unique(flat, return_index=True,
                                    return_inverse=True)
        rows = np.zeros((len(first),) + grid.shape, dtype=np.complex128)
        np.add.at(rows, where, np.concatenate([self.rows, sign * other.rows]))
        return DiscreteSymbol(grid, max(self.d, other.d),
                              class_tag=self.class_tag, xi=xi[first],
                              rows=rows)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        return self.with_rows(self.rows * scalar)

    __rmul__ = __mul__

    def is_x_independent(self, tol=1e-14) -> bool:
        """Whether the rows off xi = 0 vanish to ``tol`` of the peak."""
        mag = np.abs(self.rows)
        peak = float(np.max(mag, initial=0.0)) or 1.0
        off = np.any(self.xi != 0, axis=1)
        return bool(np.max(mag[off], initial=0.0) <= tol * peak)


@dataclass(frozen=True)
class SymbolSeminorm:
    alpha: tuple
    beta: tuple
    value: float


def _as_multi(idx, n: int) -> tuple:
    if isinstance(idx, (int, np.integer)):
        if n == 1:
            return (int(idx),)
        raise ValueError("multi-index required for n > 1")
    t = tuple(int(v) for v in idx)
    if len(t) != n or any(v < 0 for v in t):
        raise ValueError(f"bad multi-index {idx} for n={n}")
    return t


def _eta_derivative(rows: np.ndarray, grid: TorusGrid, alpha: tuple) -> np.ndarray:
    """Centered finite differences in eta (spacing 1) of each row (eta on
    axes 1..n), one-sided at the lattice edges; applied on the shifted
    (monotone-eta) layout."""
    eta_axes = tuple(range(1, grid.n + 1))
    out = np.fft.fftshift(rows, axes=eta_axes)
    for ax, order in enumerate(alpha):
        for _ in range(order):
            out = np.gradient(out, 1.0, axis=1 + ax, edge_order=2)
    return np.fft.ifftshift(out, axes=eta_axes)


def _eta_square_sums(a: DiscreteSymbol, alpha: tuple, masks) -> np.ndarray:
    """Per mask (boolean over the lattice) and x, the sum over the masked
    eta of |D^alpha_eta a(x, eta)|^2; one pass over the columns."""
    live = np.logical_or.reduce(masks, initial=False)
    sums = np.zeros((len(masks),) + a.grid.shape)
    for cols, block in a.columns(_eta_derivative(a.rows, a.grid, alpha) * live):
        sq = np.abs(block) ** 2
        for total, mask in zip(sums, masks):
            total += np.sum(sq * mask.ravel()[cols], axis=-1)
    return sums


def estimate_seminorm(a: DiscreteSymbol, alpha, beta) -> SymbolSeminorm:
    """sup over the lattice of (1+|eta|)^-(d-|a|+|b|) |D^a_eta D^b_x a|.

    eta-derivatives use centered lattice differences, x-derivatives are
    spectral (row k times (i xi_k)^b).  Derivative depth |alpha| + |beta|
    is capped at 4.
    """
    alpha = _as_multi(alpha, a.grid.n)
    beta = _as_multi(beta, a.grid.n)
    if sum(alpha) + sum(beta) > 4:
        raise DepthUnsupported("|alpha| + |beta| must be <= 4")
    rows = a.rows
    lead = (-1,) + (1,) * a.grid.n
    for ax, order in enumerate(beta):
        if order:
            rows = rows * ((1j * a.xi[:, ax]) ** order).reshape(lead)
    expo = a.d - sum(alpha) + sum(beta)
    weight = ((1.0 + a.grid.freq_norms()) ** (-expo)).ravel()
    value = 0.0
    for cols, block in a.columns(_eta_derivative(rows, a.grid, alpha)):
        value = max(value, float(np.max(np.abs(block) * weight[cols])))
    return SymbolSeminorm(alpha, beta, value)


# -- Ching-type lacunary symbols ------------------------------------------


@dataclass(frozen=True)
class ChingProfile:
    """Annular bump A supported in {3/4 <= |eta| <= 5/4}, optionally with a
    directional zero of order ``zero_order`` at the unit vector theta_hat,
    or restricted to a one-sided neighbourhood of theta_hat."""

    zero_order: int = 0
    theta_hat: tuple = (1.0,)
    inner: float = 0.75
    outer: float = 1.25
    plateau_lo: float = 0.875
    plateau_hi: float = 1.125
    one_sided: bool = False

    def __post_init__(self):
        if self.zero_order < 0:
            raise ValueError("zero_order must be >= 0")

    def _radial(self, rho: np.ndarray) -> np.ndarray:
        rise = 1.0 - ModulationFunction(self.inner, self.plateau_lo)(rho)
        fall = ModulationFunction(self.plateau_hi, self.outer)(rho)
        return rise * fall

    def __call__(self, *eta_axes) -> np.ndarray:
        comps = [np.asarray(e, dtype=float) for e in eta_axes]
        rho = np.sqrt(sum(c**2 for c in comps))
        out = self._radial(rho)
        th = np.asarray(self.theta_hat, dtype=float)
        th = th / np.linalg.norm(th)
        radial_coord = sum(c * t for c, t in zip(comps, th))
        if self.zero_order > 0:
            out = out * (radial_coord - 1.0) ** self.zero_order
        if self.one_sided:
            # keep only the component of the annulus around +theta_hat
            out = out * (1.0 - ModulationFunction(0.5, 0.75)(
                np.maximum(radial_coord, 0.0)))
        return out


def ching_symbol(grid: TorusGrid, d: float, theta, A, J: int) -> DiscreteSymbol:
    """Lacunary symbol  sum_{j=0..J} 2^{jd} e^{-i 2^j x.theta} A(2^-j eta).

    ``theta`` is an integer lattice direction; ``A`` an annular profile
    supported in {3/4 <= |eta| <= 5/4}, so the terms occupy disjoint
    frequency annuli.  Requires (5/4) 2^J < nyquist.  Stored as J + 1
    xi-rows: xi_j = -2^j theta with row 2^{jd} A(2^-j .).
    """
    theta = tuple(int(t) for t in (theta if hasattr(theta, "__len__") else (theta,)))
    if len(theta) != grid.n:
        raise ValueError("theta dimension mismatch")
    if 5 * 2 ** (J - 2) >= grid.nyquist:
        raise GridTooCoarse(
            f"5*2^(J-2) = {5 * 2**(J-2)} >= nyquist {grid.nyquist}")

    ks = _eta_meshes(grid)
    rows = [2.0 ** (j * d) * np.broadcast_to(A(*[k / 2**j for k in ks]),
                                             grid.shape)
            for j in range(J + 1)]
    xi = [[-(2**j) * t for t in theta] for j in range(J + 1)]
    return DiscreteSymbol(grid, d, class_tag="ching", xi=xi, rows=rows)


def partial_ft(a: DiscreteSymbol) -> np.ndarray:
    """Column-wise discrete Fourier transform in x for each eta."""
    return a.partial_ft()


# -- twisted diagonal ------------------------------------------------------


@dataclass(frozen=True)
class LocalizationCutoff:
    """chi(xi, eta) = rho(|xi| / max(|eta|, 1)) * sigma(|eta|) with smooth
    ramps rho (1 on [0,1/2], 0 on [1,inf)) and sigma (0 on [0,1], 1 on
    [2,inf)); supported in {1 <= |eta|, |xi| <= |eta|} and equal to 1 on
    {2 <= |eta|, 2|xi| <= |eta|}, homogeneous for t >= 1 once |eta| >= 2."""

    rho: ModulationFunction = field(default=ModulationFunction(0.5, 1.0))

    def __call__(self, xi_norm, eta_norm) -> np.ndarray:
        xi_norm = np.asarray(xi_norm, dtype=float)
        eta_norm = np.asarray(eta_norm, dtype=float)
        sigma = 1.0 - ModulationFunction(1.0, 2.0)(eta_norm)
        ratio = xi_norm / np.maximum(eta_norm, 1.0)
        return self.rho(ratio) * sigma

    def homogeneity_witness(self, samples=((0.5, 3.0), (1.0, 4.0), (2.0, 8.0)),
                            t_values=(1.0, 1.5, 2.0, 4.0)) -> float:
        """Max |chi(t xi, t eta) - chi(xi, eta)| over sample pairs with
        |eta| >= 2; zero up to roundoff by construction."""
        worst = 0.0
        for xi, eta in samples:
            base = float(self(np.array([xi]), np.array([eta]))[0])
            for t in t_values:
                val = float(self(np.array([t * xi]), np.array([t * eta]))[0])
                worst = max(worst, abs(val - base))
        return worst


def _pair_norms(a: DiscreteSymbol):
    """(|xi_k+eta|, |eta|) over the stored rows, shape (K,) + grid.shape."""
    grid = a.grid
    lead = (len(a.xi),) + (1,) * grid.n
    sum_sq = 0.0
    eta_sq = 0.0
    for ax, k in enumerate(_eta_meshes(grid)):
        sum_sq = sum_sq + (a.xi[:, ax].astype(float).reshape(lead) + k) ** 2
        eta_sq = eta_sq + k**2
    return np.sqrt(sum_sq), np.sqrt(eta_sq)


def twisted_diagonal_check(a: DiscreteSymbol, B: float, tol: float = 1e-10):
    """Scan all lattice pairs for mass where B(1+|xi+eta|) < |eta|.

    Returns {"holds": bool, "worst_violation": max relative |ahat| over the
    region that the condition requires to vanish}.
    """
    mag = np.abs(a.rows)
    peak = float(np.max(mag, initial=0.0))
    if peak == 0.0:
        return {"holds": True, "worst_violation": 0.0}
    zeta, eta = _pair_norms(a)
    region = B * (1.0 + zeta) < eta
    worst = float(np.max(mag * region) / peak)
    return {"holds": worst <= tol, "worst_violation": worst}


def localize(a: DiscreteSymbol, chi: LocalizationCutoff,
             eps: float) -> DiscreteSymbol:
    """Twisted-diagonal localization: ahat(xi,eta) chi(xi+eta, eps*eta).

    The result's partial transform is supported where 1+|xi+eta| <= 2eps|eta|.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    zeta, eta = _pair_norms(a)
    return a.with_rows(a.rows * chi(zeta, eps * eta))


@dataclass(frozen=True)
class TDCSeminorm:
    """Shell seminorm at one eps plus the decay fit over dyadic eps."""

    epsilon: float
    alpha: tuple
    value: float
    sigma_hat: float
    c_hat: float
    fit_residual: float
    eps_values: tuple
    seminorm_values: tuple


def _shell_seminorm(a_loc: DiscreteSymbol, alpha: tuple) -> float:
    """sup over dyadic shells R=2^j and x of
    R^{-d} ( sum_{R<=|eta|<=2R} |R^{|a|} D^a_eta a|^2 / R^n )^{1/2}."""
    grid = a_loc.grid
    norms = grid.freq_norms()
    radii = [2.0**j for j in range(int(np.log2(grid.nyquist)))]  # R <= nyq/2
    shells = [(norms >= R) & (norms <= 2 * R) for R in radii]
    for R, shell in zip(radii, shells):
        if not shell.any():
            raise EmptyShell(f"no lattice point in shell [{R}, {2*R}]")
    best = 0.0
    for R, total in zip(radii, _eta_square_sums(a_loc, alpha, shells)):
        per_x = np.sqrt(total * R ** (2 * sum(alpha) - grid.n))
        best = max(best, float(np.max(per_x)) * R ** (-a_loc.d))
    return best


def tdc_seminorm(a: DiscreteSymbol, chi: LocalizationCutoff, eps: float,
                 alpha, eps_family=(0.5, 0.25, 0.125, 0.0625, 0.03125)) -> TDCSeminorm:
    """Discretized localized shell seminorm with its eps -> 0 decay fit.

    The family N(eps) is fitted as log2 N = log2 c + kappa log2 eps over the
    dyadic eps samples; the reported exponent is
    sigma_hat = kappa - n/2 + |alpha|.  A family that is identically zero
    gets the +inf sentinel (faster than any power).
    """
    alpha = _as_multi(alpha, a.grid.n)
    if sum(alpha) > 4:
        raise DepthUnsupported("|alpha| must be <= 4")
    value = _shell_seminorm(localize(a, chi, eps), alpha)
    family = [_shell_seminorm(localize(a, chi, e), alpha) for e in eps_family]
    positive = [(e, v) for e, v in zip(eps_family, family) if v > 0.0]
    if not positive:
        return TDCSeminorm(eps, alpha, value, np.inf, 0.0, 0.0,
                           tuple(eps_family), tuple(family))
    le = np.log2([e for e, _ in positive])
    lv = np.log2([v for _, v in positive])
    if len(positive) == 1:
        kappa, icept = 0.0, lv[0]
    else:
        kappa, icept = np.polyfit(le, lv, 1)
    resid = float(np.max(np.abs(lv - (kappa * le + icept)))) if len(positive) > 1 else 0.0
    sigma_hat = float(kappa) - a.grid.n / 2.0 + sum(alpha)
    return TDCSeminorm(eps, alpha, value, sigma_hat, float(2.0**icept),
                       resid, tuple(eps_family), tuple(family))


def symbol_band(a: DiscreteSymbol, k: int, part: LPPartition,
                cumulative: bool = False) -> DiscreteSymbol:
    """a_k = phi(2^-k D_x) a  (cumulative: a^k = psi(2^-k D_x) a).

    Each stored row is multiplied by the level weight at its xi_k; rows
    whose weight is exactly 0 are dropped.  Levels below zero give the zero
    symbol; levels above J_max raise."""
    check_grid(part, a.grid)
    if k > part.J_max:
        raise LevelOutOfRange(f"level {k} > J_max {part.J_max}")
    if k < 0:
        return DiscreteSymbol.zero(a.grid, a.d)
    w = part.cumulative_weights(k) if cumulative else part.level_weights(k)
    wk = w[a.xi_index()]
    keep = wk != 0
    lead = (-1,) + (1,) * a.grid.n
    return a.with_rows(a.rows[keep] * wk[keep].reshape(lead), keep)
