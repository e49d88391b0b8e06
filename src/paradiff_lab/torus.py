"""Discrete periodic domain, spectral transforms, and frequency-set algebra.

The computational domain is the torus [0, 2*pi)^n sampled on N points per
axis (N a power of two), with the integer frequency lattice [-N/2, N/2)^n.
Fourier coefficients carry the mean-value normalization: the coefficient at
frequency 0 equals the mean of the field, so that

    u(x) = sum_eta  coeffs[eta] * exp(i x . eta)

holds exactly on the grid.  This normalization absorbs the (2*pi)^(-n)
quadrature factor of the continuous operator convention once and for all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingRisk, AnnulusOutOfRange, GridMismatch

#: Relative coefficient threshold below which a frequency does not count as
#: part of the spectral support.
SUPPORT_REL_THRESHOLD = 1e-10


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [0, 2*pi)^n with centered frequency lattice.

    Parameters
    ----------
    n : int
        Dimension, 1 or 2.
    N : int
        Points per axis; a power of two, at least 16.
    """

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("dimension n must be 1 or 2")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError("N must be a power of two with N >= 16")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.N

    @property
    def nyquist(self) -> int:
        return self.N // 2

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    def axis_points(self) -> np.ndarray:
        """Grid coordinates along one axis."""
        return np.arange(self.N) * self.spacing

    def axis_freqs(self) -> np.ndarray:
        """Integer frequencies along one axis, in FFT storage order."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N).astype(np.int64)

    def freq_norms(self) -> np.ndarray:
        """Euclidean |eta| over the lattice, FFT order, shape == grid.shape."""
        k = self.axis_freqs().astype(float)
        if self.n == 1:
            return np.abs(k)
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return np.sqrt(kx**2 + ky**2)

    def freq_tuples(self) -> list:
        """All lattice points as integer tuples, in FFT storage order."""
        k = self.axis_freqs()
        if self.n == 1:
            return [(int(v),) for v in k]
        return [(int(a), int(b)) for a in k for b in k]

    def index_of(self, eta) -> tuple:
        """Array index of the lattice point ``eta`` (integer tuple)."""
        return tuple(int(e) % self.N for e in eta)

    def max_freq_norm(self) -> float:
        """Largest Euclidean |eta| represented on the lattice."""
        return float(np.sqrt(self.n) * self.nyquist)


class SpectralField:
    """Complex grid function kept consistent with its Fourier coefficients.

    Attributes
    ----------
    grid : TorusGrid
    values : complex ndarray over grid points
    coeffs : complex ndarray over the frequency lattice (FFT order);
        coeffs[0...] is the mean value of the field.
    support_threshold : float
        Absolute coefficient threshold used by :meth:`support`.
    """

    __slots__ = ("grid", "values", "coeffs", "support_threshold")

    def __init__(self, grid, values, coeffs, support_threshold=None):
        if not (np.isfinite(values).all() and np.isfinite(coeffs).all()):
            raise ValueError("field values and coefficients must be finite")
        self.grid = grid
        self.values = values
        self.coeffs = coeffs
        if support_threshold is None:
            peak = float(np.max(np.abs(coeffs))) if coeffs.size else 0.0
            support_threshold = SUPPORT_REL_THRESHOLD * peak
        self.support_threshold = support_threshold

    @classmethod
    def from_values(cls, grid: TorusGrid, values, support_threshold=None):
        values = np.asarray(values, dtype=np.complex128).reshape(grid.shape)
        coeffs = np.fft.fftn(values) / grid.N**grid.n
        return cls(grid, values, coeffs, support_threshold)

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs, support_threshold=None):
        coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(grid.shape)
        values = np.fft.ifftn(coeffs) * grid.N**grid.n
        return cls(grid, values, coeffs, support_threshold)

    @classmethod
    def zero(cls, grid: TorusGrid):
        z = np.zeros(grid.shape, dtype=np.complex128)
        return cls(grid, z, z.copy(), support_threshold=0.0)

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.values.copy(), self.coeffs.copy(),
                             self.support_threshold)

    def support(self, threshold=None) -> "FreqSet":
        """Frequencies whose coefficient modulus exceeds the threshold."""
        if threshold is None:
            threshold = self.support_threshold
        mask = np.abs(self.coeffs) > threshold
        if not mask.any():
            return FreqSet(frozenset(), self.grid)
        k = self.grid.axis_freqs()
        idx = np.argwhere(mask)
        pts = frozenset(tuple(int(k[i]) for i in row) for row in idx)
        return FreqSet(pts, self.grid)

    def band_limit(self) -> float:
        """Largest |eta| in the spectral support (0.0 for the zero field)."""
        sup = self.support()
        if not sup.points:
            return 0.0
        return max(float(np.sqrt(sum(c * c for c in p))) for p in sup.points)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.values + other.values,
                             self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.values - other.values,
                             self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.values * scalar, self.coeffs * scalar)

    __rmul__ = __mul__

    def to_json(self) -> str:
        """Serialize as {n, N, values: interleaved re/im row-major}."""
        flat = self.values.ravel()
        inter = np.empty(2 * flat.size)
        inter[0::2] = flat.real
        inter[1::2] = flat.imag
        return json.dumps({"n": self.grid.n, "N": self.grid.N,
                           "values": inter.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SpectralField":
        doc = json.loads(text)
        grid = TorusGrid(int(doc["n"]), int(doc["N"]))
        inter = np.asarray(doc["values"], dtype=float)
        values = inter[0::2] + 1j * inter[1::2]
        return cls.from_values(grid, values.reshape(grid.shape))


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def transform(fld: SpectralField, direction: str = "forward") -> SpectralField:
    """Resynchronize one side of a field from the other.

    ``forward`` recomputes coefficients from values, ``inverse`` recomputes
    values from coefficients.  Normalization keeps the zero-frequency
    coefficient equal to the mean value.
    """
    if direction == "forward":
        return SpectralField.from_values(fld.grid, fld.values)
    if direction == "inverse":
        return SpectralField.from_coeffs(fld.grid, fld.coeffs)
    raise ValueError("direction must be 'forward' or 'inverse'")


def band_project(u: SpectralField, inner: float, outer: float) -> SpectralField:
    """Zero all coefficients outside the annulus inner <= |eta| <= outer.

    The projection is exact in the coefficient domain: retained coefficients
    are copied unchanged, all others become exactly zero.
    """
    if inner < 0 or outer < inner:
        raise ValueError("need 0 <= inner <= outer")
    if outer > u.grid.nyquist:
        raise AnnulusOutOfRange(
            f"outer radius {outer} exceeds nyquist {u.grid.nyquist}")
    norms = u.grid.freq_norms()
    mask = (norms >= inner) & (norms <= outer)
    coeffs = np.where(mask, u.coeffs, 0.0 + 0.0j)
    return SpectralField.from_coeffs(u.grid, coeffs)


@dataclass(frozen=True)
class FreqSet:
    """A finite set of integer lattice frequencies on a given grid."""

    points: frozenset
    grid: TorusGrid = field(compare=False)

    def __post_init__(self):
        ny = self.grid.nyquist
        for p in self.points:
            if len(p) != self.grid.n or any(c < -ny or c >= ny for c in p):
                raise ValueError(f"{p} outside the lattice [-{ny}, {ny})^n")

    def issubset(self, other: "FreqSet") -> bool:
        return self.points <= other.points

    def max_abs(self) -> int:
        """Largest coordinate magnitude (the aliasing-relevant size)."""
        if not self.points:
            return 0
        return max(abs(c) for p in self.points for c in p)

    def sorted_points(self) -> list:
        return sorted(self.points)

    def to_json(self) -> str:
        return json.dumps([list(p) for p in self.sorted_points()])

    @classmethod
    def from_points(cls, grid: TorusGrid, pts) -> "FreqSet":
        return cls(frozenset(tuple(int(c) for c in p) for p in pts), grid)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.sorted_points())


def annulus_set(grid: TorusGrid, inner: float, outer: float) -> FreqSet:
    """All lattice points with inner <= |eta| <= outer."""
    norms = grid.freq_norms()
    mask = (norms >= inner) & (norms <= outer)
    k = grid.axis_freqs()
    idx = np.argwhere(mask)
    return FreqSet(frozenset(tuple(int(k[i]) for i in row) for row in idx), grid)


def sumset(A: FreqSet, B: FreqSet) -> FreqSet:
    """Exact Minkowski sum of two frequency sets on a shared lattice.

    Raises AliasingRisk when the sum could leave the lattice box, i.e. when
    max|a| + max|b| >= N/2 in the per-axis (sup) norm; in that case the grid
    is too small for a valid support statement.
    """
    if A.grid != B.grid:
        raise GridMismatch("sumset operands on different grids")
    if not A.points or not B.points:
        return FreqSet(frozenset(), A.grid)
    if A.max_abs() + B.max_abs() >= A.grid.nyquist:
        raise AliasingRisk(
            f"max|a| + max|b| = {A.max_abs()}+{B.max_abs()} >= "
            f"{A.grid.nyquist}; sumset may wrap around the lattice")
    pts = frozenset(tuple(a + b for a, b in zip(pa, pb))
                    for pa in A.points for pb in B.points)
    return FreqSet(pts, A.grid)
