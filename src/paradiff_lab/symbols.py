"""Symbol families, seminorm estimation, and twisted-diagonal machinery.

A discrete symbol is a(x, eta) sampled on (x-grid) x (frequency lattice),
stored densely with x axes first and eta axes last (eta in FFT order).  The
partial Fourier transform in x,

    ahat(xi, eta) = F_{x -> xi} a(x, eta),

uses the same mean-value normalization as field coefficients, so an
x-independent multiplier has its whole mass in the xi = 0 slice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DepthUnsupported, EmptyShell, GridTooCoarse,
                     LevelOutOfRange, TooLarge)
from .lp import LPPartition, ModulationFunction
from .torus import SUPPORT_REL_THRESHOLD, FreqSet, TorusGrid

#: Largest number of dense symbol entries we are willing to materialize.
DENSE_ENTRY_CAP = 2**24


class DiscreteSymbol:
    """A symbol a(x, eta) with declared order d and class metadata.

    Attributes
    ----------
    grid : TorusGrid
    d : float
        Declared order.
    values : ndarray of shape grid.shape + grid.shape (x first, eta last).
    class_tag : str
        One of {"S11", "S10", "smoothed_multiplier", "ching", "custom"}.
    """

    __slots__ = ("grid", "d", "values", "class_tag", "_pft")

    def __init__(self, grid, d, values, class_tag="custom"):
        if values.size > DENSE_ENTRY_CAP:
            raise TooLarge(f"{values.size} dense entries exceed cap "
                           f"{DENSE_ENTRY_CAP}")
        self.grid = grid
        self.d = float(d)
        self.values = np.ascontiguousarray(values, dtype=np.complex128)
        self.class_tag = class_tag
        self._pft = None

    @classmethod
    def from_function(cls, grid: TorusGrid, fn, d: float, class_tag="custom"):
        """Sample a callable a(x_meshes, eta_meshes) on the product lattice.

        ``fn`` receives two tuples of broadcastable arrays: per-axis x
        coordinates shaped to the leading axes and per-axis integer
        frequencies shaped to the trailing axes.
        """
        n, N = grid.n, grid.N
        if N ** (2 * n) > DENSE_ENTRY_CAP:
            raise TooLarge("grid too large for dense symbol storage")
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
        return cls(grid, d, np.array(vals), class_tag)

    @classmethod
    def multiplier(cls, grid: TorusGrid, b, d: float = 0.0,
                   class_tag="smoothed_multiplier"):
        """x-independent symbol b(eta); ``b`` maps |eta|-compatible arrays."""
        def fn(xs, ks):
            col = b(*ks) if callable(b) else np.asarray(b, dtype=np.complex128)
            ones = np.ones([s.shape[i] for i, s in enumerate(xs)] + [1] * grid.n)
            return ones * col
        return cls.from_function(grid, fn, d, class_tag)

    @classmethod
    def identity(cls, grid: TorusGrid):
        vals = np.ones(grid.shape + grid.shape, dtype=np.complex128)
        return cls(grid, 0.0, vals, class_tag="S10")

    @classmethod
    def zero(cls, grid: TorusGrid, d: float = 0.0):
        return cls(grid, d, np.zeros(grid.shape + grid.shape,
                                     dtype=np.complex128))

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

    # -- algebra -----------------------------------------------------------

    def _x_axes(self):
        return tuple(range(self.grid.n))

    def partial_ft(self) -> np.ndarray:
        """F_{x -> xi} a(x, eta), cached; xi axes first, FFT order."""
        if self._pft is None:
            self._pft = (np.fft.fftn(self.values, axes=self._x_axes())
                         / self.grid.N**self.grid.n)
        return self._pft

    @classmethod
    def from_partial_ft(cls, grid, d, pft, class_tag="custom"):
        vals = np.fft.ifftn(pft, axes=tuple(range(grid.n))) * grid.N**grid.n
        sym = cls(grid, d, vals, class_tag)
        sym._pft = np.asarray(pft, dtype=np.complex128)
        return sym

    def xi_support(self, threshold=None) -> FreqSet:
        """Frequencies xi carrying partial-transform mass (global threshold)."""
        pft = self.partial_ft()
        if threshold is None:
            threshold = SUPPORT_REL_THRESHOLD * float(np.max(np.abs(pft)))
        n = self.grid.n
        mag = np.max(np.abs(pft), axis=tuple(range(n, 2 * n)))
        k = self.grid.axis_freqs()
        idx = np.argwhere(mag > threshold)
        pts = frozenset(tuple(int(k[i]) for i in row) for row in idx)
        return FreqSet(pts, self.grid)

    def x_band(self) -> float:
        """Support radius of the partial transform in xi (Euclidean)."""
        sup = self.xi_support()
        if not sup.points:
            return 0.0
        return max(float(np.sqrt(sum(c * c for c in p))) for p in sup.points)

    def __add__(self, other):
        return DiscreteSymbol(self.grid, max(self.d, other.d),
                              self.values + other.values, self.class_tag)

    def __sub__(self, other):
        return DiscreteSymbol(self.grid, max(self.d, other.d),
                              self.values - other.values, self.class_tag)

    def __mul__(self, scalar):
        return DiscreteSymbol(self.grid, self.d, self.values * scalar,
                              self.class_tag)

    __rmul__ = __mul__

    def is_x_independent(self, tol=1e-14) -> bool:
        ref = self.values[(0,) * self.grid.n]
        peak = float(np.max(np.abs(self.values))) or 1.0
        return bool(np.max(np.abs(self.values - ref)) <= tol * peak)


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


def _eta_derivative(a_vals: np.ndarray, grid: TorusGrid, alpha: tuple) -> np.ndarray:
    """Centered finite differences in eta (spacing 1), one-sided at the
    lattice edges; applied on the shifted (monotone-eta) layout."""
    n = grid.n
    eta_axes = tuple(range(n, 2 * n))
    out = np.fft.fftshift(a_vals, axes=eta_axes)
    for ax, order in enumerate(alpha):
        for _ in range(order):
            out = np.gradient(out, 1.0, axis=n + ax, edge_order=2)
    return np.fft.ifftshift(out, axes=eta_axes)


def _x_derivative(a: DiscreteSymbol, beta: tuple) -> np.ndarray:
    """Spectral x-derivative D^beta_x = (-i d/dx)^beta ... conventional
    D = -i grad; only the modulus enters the seminorms, so the phase
    convention is immaterial."""
    if all(b == 0 for b in beta):
        return a.values
    pft = a.partial_ft().copy()
    k = a.grid.axis_freqs().astype(float)
    n = a.grid.n
    for ax, order in enumerate(beta):
        if order == 0:
            continue
        shape = [1] * (2 * n)
        shape[ax] = a.grid.N
        pft = pft * (1j * k.reshape(shape)) ** order
    return np.fft.ifftn(pft, axes=tuple(range(n))) * a.grid.N**n


def estimate_seminorm(a: DiscreteSymbol, alpha, beta) -> SymbolSeminorm:
    """sup over the lattice of (1+|eta|)^-(d-|a|+|b|) |D^a_eta D^b_x a|.

    eta-derivatives use centered lattice differences, x-derivatives are
    spectral.  Derivative depth |alpha| + |beta| is capped at 4.
    """
    alpha = _as_multi(alpha, a.grid.n)
    beta = _as_multi(beta, a.grid.n)
    if sum(alpha) + sum(beta) > 4:
        raise DepthUnsupported("|alpha| + |beta| must be <= 4")
    work = _x_derivative(a, beta)
    work = _eta_derivative(work, a.grid, alpha)
    expo = a.d - sum(alpha) + sum(beta)
    weight = (1.0 + a.grid.freq_norms()) ** (-expo)
    n = a.grid.n
    shape = (1,) * n + a.grid.shape
    value = float(np.max(np.abs(work) * weight.reshape(shape)))
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
    frequency annuli.  Requires (5/4) 2^J < nyquist.
    """
    theta = tuple(int(t) for t in (theta if hasattr(theta, "__len__") else (theta,)))
    if len(theta) != grid.n:
        raise ValueError("theta dimension mismatch")
    if 5 * 2 ** (J - 2) >= grid.nyquist:
        raise GridTooCoarse(
            f"5*2^(J-2) = {5 * 2**(J-2)} >= nyquist {grid.nyquist}")

    def fn(xs, ks):
        total = 0.0
        for j in range(J + 1):
            phase = sum(x * (2**j * t) for x, t in zip(xs, theta))
            total = total + 2.0 ** (j * d) * np.exp(-1j * phase) \
                * A(*[k / 2**j for k in ks])
        return total

    return DiscreteSymbol.from_function(grid, fn, d, class_tag="ching")


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


def _pair_norms(grid: TorusGrid):
    """(|xi+eta|, |eta|) arrays over the (xi, eta) product lattice."""
    n, N = grid.n, grid.N
    k = grid.axis_freqs().astype(float)
    axes = []
    for ax in range(2 * n):
        shape = [1] * (2 * n)
        shape[ax] = N
        axes.append(k.reshape(shape))
    sum_sq = 0.0
    eta_sq = 0.0
    for ax in range(n):
        sum_sq = sum_sq + (axes[ax] + axes[n + ax]) ** 2
        eta_sq = eta_sq + axes[n + ax] ** 2
    return np.sqrt(sum_sq), np.sqrt(eta_sq)


def twisted_diagonal_check(a: DiscreteSymbol, B: float, tol: float = 1e-10):
    """Scan all lattice pairs for mass where B(1+|xi+eta|) < |eta|.

    Returns {"holds": bool, "worst_violation": max relative |ahat| over the
    region that the condition requires to vanish}.
    """
    pft = a.partial_ft()
    peak = float(np.max(np.abs(pft)))
    if peak == 0.0:
        return {"holds": True, "worst_violation": 0.0}
    zeta, eta = _pair_norms(a.grid)
    region = B * (1.0 + zeta) < eta
    worst = float(np.max(np.abs(pft) * region) / peak)
    return {"holds": worst <= tol, "worst_violation": worst}


def localize(a: DiscreteSymbol, chi: LocalizationCutoff,
             eps: float) -> DiscreteSymbol:
    """Twisted-diagonal localization: ahat(xi,eta) chi(xi+eta, eps*eta).

    The result's partial transform is supported where 1+|xi+eta| <= 2eps|eta|.
    """
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    zeta, eta = _pair_norms(a.grid)
    weights = chi(zeta, eps * eta)
    return DiscreteSymbol.from_partial_ft(
        a.grid, a.d, a.partial_ft() * weights, class_tag=a.class_tag)


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
    deriv = _eta_derivative(a_loc.values, grid, alpha)
    norms = grid.freq_norms().reshape((1,) * grid.n + grid.shape)
    best = 0.0
    R = 1.0
    while R <= grid.nyquist / 2:
        shell = (norms >= R) & (norms <= 2 * R)
        if not shell.any():
            raise EmptyShell(f"no lattice point in shell [{R}, {2*R}]")
        ord_a = sum(alpha)
        sq = np.abs(deriv) ** 2 * shell
        per_x = np.sqrt(np.sum(sq, axis=tuple(range(grid.n, 2 * grid.n)))
                        * R ** (2 * ord_a - grid.n))
        best = max(best, float(np.max(per_x)) * R ** (-a_loc.d))
        R *= 2.0
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

    Levels below zero give the zero symbol; levels above J_max raise."""
    if k > part.J_max:
        raise LevelOutOfRange(f"level {k} > J_max {part.J_max}")
    if k < 0:
        return DiscreteSymbol.zero(a.grid, a.d)
    grid = a.grid
    norms = grid.freq_norms()
    if cumulative:
        w = part.cumulative_weights(k) if k > 0 else part.psi(norms)
    else:
        w = part.level_weights(k)
    w = w.reshape(grid.shape + (1,) * grid.n)
    return DiscreteSymbol.from_partial_ft(grid, a.d, a.partial_ft() * w,
                                          class_tag=a.class_tag)


def symbol_ladder(a: DiscreteSymbol, m: int, part: LPPartition):
    """Bands a_k and cumulative symbols a^k for k = 0..m, as two lists.

    Each band costs one inverse x-transform; a^k is the running sum
    a_0 + ... + a_k, which is exact because psi(2^-k .) = psi +
    sum_{1<=j<=k} phi(2^-j .) telescopes.  The bands equal
    :func:`symbol_band` and the cumulative symbols equal its cumulative
    form up to rounding; none of them caches a partial transform."""
    if m > part.J_max:
        raise LevelOutOfRange(f"level {m} > J_max {part.J_max}")
    grid = a.grid
    pft = a.partial_ft()
    x_axes = tuple(range(grid.n))
    bands, cumulative = [], []
    total = None
    for k in range(m + 1):
        w = part.level_weights(k).reshape(grid.shape + (1,) * grid.n)
        vals = np.fft.ifftn(pft * w, axes=x_axes) * grid.N**grid.n
        total = vals if total is None else total + vals
        bands.append(DiscreteSymbol(grid, a.d, vals, a.class_tag))
        cumulative.append(DiscreteSymbol(grid, a.d, total, a.class_tag))
    return bands, cumulative
