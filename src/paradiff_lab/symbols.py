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
                     GridTooCoarse, TooLarge)
from .lp import STANDARD_CUTOFF, LPPartition, ModulationFunction, check_grid
from .torus import SUPPORT_REL_THRESHOLD, TorusGrid

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


def _check_dense(grid: TorusGrid):
    if grid.N ** (2 * grid.n) > DENSE_ENTRY_CAP:
        raise TooLarge(f"{grid.N ** (2 * grid.n)} dense entries exceed cap "
                       f"{DENSE_ENTRY_CAP}")


class DiscreteSymbol:
    """A symbol a(x, eta) with declared order d, stored as its partial
    transform on an explicit xi-support:

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

    The constructor alone decides the support: it rejects xi points that
    coincide once wrapped and drops the rows with no nonzero entry.  The
    dense views are capped at ``DENSE_ENTRY_CAP`` entries; the stored rows
    are not.
    """

    __slots__ = ("grid", "d", "xi", "rows", "_values", "_pft")

    def __init__(self, grid, d, xi, rows):
        self.grid = grid
        self.d = float(d)
        self._values = self._pft = None
        xi = np.asarray(xi)
        # integral floats pass (the builders' zeros); a cast would truncate
        if not (np.isfinite(xi).all() and (xi == np.round(xi)).all()):
            raise ValueError("xi points must be integral lattice points")
        # wrapped into the lattice box [-N/2, N/2)^n
        self.xi = (xi.astype(np.int64).reshape(-1, grid.n)
                   + grid.nyquist) % grid.N - grid.nyquist
        self.rows = np.ascontiguousarray(rows, dtype=np.complex128)
        if self.rows.shape != (len(self.xi),) + grid.shape:
            raise ValueError("rows must have shape (K,) + grid.shape")
        if not np.isfinite(self.rows).all():
            raise ValueError("symbol values must be finite")
        # a set, not np.unique, whose first call imports numpy.ma (~17 ms)
        if len(set(map(tuple, self.xi.tolist()))) < len(self.xi):
            raise ValueError("xi points must be distinct on the lattice")
        nonzero = np.any(self.rows != 0, axis=tuple(range(1, grid.n + 1)))
        if not nonzero.all():
            self.xi, self.rows = self.xi[nonzero], self.rows[nonzero]

    @classmethod
    def from_function(cls, grid: TorusGrid, fn, d: float):
        """Sample a callable a(x_meshes, eta_meshes) on the product lattice.

        ``fn`` receives two tuples of broadcastable arrays: per-axis x
        coordinates shaped to the leading axes and per-axis integer
        frequencies shaped to the trailing axes.  The samples' transform in
        x becomes the rows (:meth:`from_partial_ft`).
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
        return cls.from_partial_ft(
            grid, d, np.fft.fftn(vals, axes=tuple(range(n))) / N**n)

    @classmethod
    def multiplier(cls, grid: TorusGrid, b, d: float = 0.0):
        """x-independent symbol b(eta): one xi-row at xi = 0.  ``b`` is an
        array over the lattice or a callable on the per-axis frequencies."""
        row = b(*_eta_meshes(grid)) if callable(b) else b
        row = np.broadcast_to(np.asarray(row, dtype=np.complex128), grid.shape)
        return cls(grid, d, np.zeros((1, grid.n)), row[None])

    @classmethod
    def identity(cls, grid: TorusGrid):
        return cls.multiplier(grid, np.ones(grid.shape), 0.0)

    @classmethod
    def zero(cls, grid: TorusGrid, d: float = 0.0):
        return cls(grid, d, np.zeros((0, grid.n)), np.zeros((0,) + grid.shape))

    @classmethod
    def from_json(cls, grid: TorusGrid, text: str):
        """Load a symbol from a JSON table {d, xi, rows}: the K lattice points
        xi_k, and per point its row over the eta lattice (FFT order,
        row-major) with re/im interleaved."""
        doc = json.loads(text)
        xi = np.asarray(doc["xi"], dtype=float).reshape(-1, grid.n)
        pairs = np.asarray(doc["rows"], dtype=float).reshape(
            (len(xi),) + grid.shape + (2,))
        return cls(grid, doc["d"], xi, pairs[..., 0] + 1j * pairs[..., 1])

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "xi": self.xi.tolist(),
                           "rows": self.rows.view(np.float64).tolist()})

    # -- dense views -----------------------------------------------------------

    def xi_index(self) -> tuple:
        """Lattice index of each xi_k, one index array per axis."""
        return tuple((self.xi % self.grid.N).T)

    def _expand(self, rows, axes):
        """The blocks of :meth:`columns`, transformed back along ``axes``
        only; the other x-axes have extent 1 (xi_k's phase there dropped).
        Every block is one work array, zeroed and transformed in place."""
        grid, size = self.grid, self.grid.N**self.grid.n
        rows = (self.rows if rows is None else rows).reshape(len(self.xi), size)
        live = np.flatnonzero(np.any(rows != 0, axis=0))
        step = max(1, BLOCK_ENTRIES // size)
        shape = tuple(grid.N if i in axes else 1 for i in range(grid.n))
        index = tuple(ix if i in axes else np.zeros_like(ix)
                      for i, ix in enumerate(self.xi_index()))
        extent = int(np.prod(shape))
        work = np.empty(max(BLOCK_ENTRIES, extent), dtype=np.complex128)
        for lo in range(0, len(live), step):
            cols = live[lo:lo + step]
            block = work[:extent * len(cols)].reshape(cols.shape + shape)
            block.fill(0)
            block[(slice(None),) + index] = rows[:, cols].T
            for ax in reversed(axes):   # ifftn's order, not its set-up
                np.fft.ifft(block, axis=1 + ax, norm="forward", out=block)
            yield cols, block

    def columns(self, rows=None):
        """Yield ``(cols, block)``, ``block[j] = sum_k rows[k, cols[j]]
        e^{i x.xi_k}`` over the x-grid (``cols`` flat lattice indices; the
        columns where every row is zero are skipped): the rows scattered
        over xi and transformed back in x, columns first so that transform
        reads memory in order, ``BLOCK_ENTRIES`` entries per block.
        ``rows`` defaults to the stored rows; a check linear in a(x, .)
        until it takes a modulus runs on the K rows instead.  The block is
        one work array that the next block overwrites: copy it to keep it."""
        return self._expand(rows, tuple(range(self.grid.n)))

    def moduli(self, rows=None):
        """Yield ``(cols, |block|)`` over the blocks of :meth:`columns`, with
        x-extent 1 on every axis where all xi_k share their coordinate:
        |sum_k r_k(eta) e^{i x.xi_k}| does not depend on that x_i.  Like
        the block, |block| is one reused buffer that the next overwrites."""
        axes = tuple(np.flatnonzero(np.any(self.xi != self.xi[:1], axis=0)))
        buf = np.empty(max(BLOCK_ENTRIES, self.grid.N**self.grid.n))
        yield from ((c, np.abs(b, out=buf[:b.size].reshape(b.shape)))
                    for c, b in self._expand(rows, axes))

    @property
    def values(self) -> np.ndarray:
        """a(x, eta) on the product lattice, cached and read-only."""
        if self._values is None:
            grid = self.grid
            _check_dense(grid)
            vals = np.zeros(grid.shape + (grid.N**grid.n,), dtype=np.complex128)
            for cols, block in self.columns():
                np.moveaxis(vals, -1, 0)[cols] = block
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
    def from_partial_ft(cls, grid, d, pft):
        """The symbol with partial transform ``pft`` (xi axes first)."""
        xi = grid.axis_freqs()[np.indices(grid.shape).reshape(grid.n, -1).T]
        return cls(grid, d, xi, np.reshape(pft, (-1,) + grid.shape))

    def with_rows(self, rows, d=None) -> "DiscreteSymbol":
        """This symbol's xi-support with new rows."""
        return DiscreteSymbol(self.grid, self.d if d is None else d, self.xi,
                              rows)

    def xi_support(self) -> np.ndarray:
        """xi-lattice mask of the frequencies xi_k whose row peaks above
        ``SUPPORT_REL_THRESHOLD`` of the largest."""
        mag = np.max(np.abs(self.rows), axis=tuple(range(1, self.grid.n + 1)),
                     initial=0.0)
        threshold = SUPPORT_REL_THRESHOLD * float(np.max(mag, initial=0.0))
        mask = np.zeros(self.grid.shape, dtype=bool)
        mask[tuple(ix[mag > threshold] for ix in self.xi_index())] = True
        return mask

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
        return DiscreteSymbol(grid, max(self.d, other.d), xi[first], rows)

    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __mul__(self, scalar):
        return self.with_rows(self.rows * scalar)

    __rmul__ = __mul__

    def is_x_independent(self) -> bool:
        """Whether the rows off xi = 0 vanish to 1e-14 of the peak."""
        mag = np.abs(self.rows)
        peak = float(np.max(mag, initial=0.0)) or 1.0
        off = np.any(self.xi != 0, axis=1)
        return bool(np.max(mag[off], initial=0.0) <= 1e-14 * peak)


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
    for cols, mod in a.moduli(_eta_derivative(a.rows, a.grid, alpha) * live):
        for total, mask in zip(sums, masks):
            total += np.sum(np.square(mod[mask.ravel()[cols]]), axis=0)
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
    for cols, mod in a.moduli(_eta_derivative(rows, a.grid, alpha)):
        value = max(value, float(np.max(mod * weight[cols].reshape(lead))))
    return SymbolSeminorm(alpha, beta, value)


# -- Ching-type lacunary symbols ------------------------------------------


@dataclass(frozen=True)
class ChingProfile:
    """Annular bump A supported in {3/4 <= |eta| <= 5/4}, equal to 1 on
    {7/8 <= |eta| <= 9/8}, optionally with a zero of order ``zero_order``
    at e_1, or restricted to a one-sided neighbourhood of e_1."""

    zero_order: int = 0
    one_sided: bool = False

    def __post_init__(self):
        if self.zero_order < 0:
            raise ValueError("zero_order must be >= 0")

    def __call__(self, *eta_axes) -> np.ndarray:
        comps = [np.asarray(e, dtype=float) for e in eta_axes]
        rho = np.sqrt(sum(c**2 for c in comps))
        out = ((1.0 - ModulationFunction(0.75, 0.875)(rho))
               * ModulationFunction(1.125, 1.25)(rho))
        if self.zero_order > 0:
            out = out * (comps[0] - 1.0) ** self.zero_order
        if self.one_sided:
            # keep only the component of the annulus around +e_1
            out = out * (1.0 - ModulationFunction(0.5, 0.75)(
                np.maximum(comps[0], 0.0)))
        return out


def ching_fits(J: int, N: int) -> bool:
    """Whether Ching J fits the grid size N: 5 * 2^(J-2) < N/2.  A J >= the
    bit length of N never fits, and is rejected before the power is formed."""
    return J < N.bit_length() and 5 * 2 ** (J - 2) < N // 2


def ching_default_J(N: int) -> int:
    """One below the widest J that fits the grid size N (a power of two)."""
    return N.bit_length() - 4


def ching_symbol(grid: TorusGrid, d: float, A, J: int) -> DiscreteSymbol:
    """Lacunary symbol  sum_{j=0..J} 2^{jd} e^{-i 2^j x_1} A(2^-j eta).

    ``A`` is an annular profile supported in {3/4 <= |eta| <= 5/4}, so the
    terms occupy disjoint frequency annuli.  Requires ``ching_fits(J, N)``.
    Stored as J + 1 xi-rows: xi_j = -2^j e_1 with row 2^{jd} A(2^-j .).
    """
    if not ching_fits(J, grid.N):
        raise GridTooCoarse(f"Ching J = {J} does not fit the grid N = "
                            f"{grid.N} (5 * 2^(J-2) < N/2)")

    ks = _eta_meshes(grid)
    rows = [2.0 ** (j * d) * np.broadcast_to(A(*[k / 2**j for k in ks]),
                                             grid.shape)
            for j in range(J + 1)]
    xi = [[-(2**j)] + [0] * (grid.n - 1) for j in range(J + 1)]
    return DiscreteSymbol(grid, d, xi, rows)


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
        sigma = 1.0 - STANDARD_CUTOFF(eta_norm)
        ratio = xi_norm / np.maximum(eta_norm, 1.0)
        return self.rho(ratio) * sigma


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
                 alpha) -> TDCSeminorm:
    """Discretized localized shell seminorm with its eps -> 0 decay fit.

    The family N(eps) is fitted as log2 N = log2 c + kappa log2 eps over the
    dyadic eps samples 2^-1 .. 2^-5; the reported exponent is
    sigma_hat = kappa - n/2 + |alpha|.  A family that is identically zero
    gets the +inf sentinel (faster than any power).
    """
    alpha = _as_multi(alpha, a.grid.n)
    if sum(alpha) > 4:
        raise DepthUnsupported("|alpha| must be <= 4")
    value = _shell_seminorm(localize(a, chi, eps), alpha)
    eps_family = (0.5, 0.25, 0.125, 0.0625, 0.03125)
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

    Each stored row is multiplied by the level weight at its xi_k.  Levels
    below zero give the zero symbol; levels above J_max raise."""
    check_grid(part, a.grid)
    if k < 0:
        return DiscreteSymbol.zero(a.grid, a.d)
    w = part.cumulative_weights(k) if cumulative else part.level_weights(k)
    lead = (-1,) + (1,) * a.grid.n
    return a.with_rows(a.rows * w[a.xi_index()].reshape(lead))
