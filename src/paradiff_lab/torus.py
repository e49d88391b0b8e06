"""Discrete periodic domain and spectral transforms.

The computational domain is the torus [0, 2*pi)^n sampled on N points per
axis (N a power of two), with the integer frequency lattice [-N/2, N/2)^n.
Fourier coefficients carry the mean-value normalization: the coefficient at
frequency 0 equals the mean of the field, so that

    u(x) = sum_eta  coeffs[eta] * exp(i x . eta)

holds exactly on the grid.  This normalization absorbs the (2*pi)^(-n)
quadrature factor of the continuous operator convention once and for all.

A frequency set is a boolean mask over the lattice (grid shape, FFT order);
``TorusGrid.points`` lists its signed lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch

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
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

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

    def table(self, key, build):
        """The array ``build()``, computed once per grid and key; read-only."""
        if key not in self._tables:
            self._tables[key] = build()
            self._tables[key].flags.writeable = False
        return self._tables[key]

    def axis_freqs(self) -> np.ndarray:
        """Integer frequencies along one axis, in FFT storage order."""
        return self.table("axis_freqs", lambda: np.fft.fftfreq(
            self.N, d=1.0 / self.N).astype(np.int64))

    def freq_norms(self) -> np.ndarray:
        """Euclidean |eta| over the lattice, FFT order, shape == grid.shape."""
        return self.table("freq_norms", lambda: np.sqrt(sum(
            k**2 for k in np.ix_(*[self.axis_freqs().astype(float)] * self.n))))

    def radial(self, f, R: float) -> np.ndarray:
        """f(|eta| / R) over the lattice for a hashable radial profile f, a
        table of the grid (R = 16 and 16.0 are one key and one division)."""
        return self.table(("radial", f, R), lambda: f(self.freq_norms() / R))

    def annulus(self, inner: float, outer: float) -> np.ndarray:
        """Lattice mask of inner <= |eta| <= outer, each radius widened by
        1e-12 so that a lattice point on it counts as inside."""
        norms = self.freq_norms()
        return (inner - 1e-12 <= norms) & (norms <= outer + 1e-12)

    def points(self, mask) -> list:
        """Sorted signed lattice points (integer tuples) of a lattice mask."""
        k = self.axis_freqs()
        return sorted(tuple(int(k[i]) for i in row) for row in np.argwhere(mask))

    def index_of(self, eta) -> tuple:
        """Array index of the lattice point ``eta`` (integer tuple)."""
        return tuple(int(e) % self.N for e in eta)

    def max_freq_norm(self) -> float:
        """Largest Euclidean |eta| represented on the lattice."""
        return float(np.sqrt(self.n) * self.nyquist)


class SpectralField:
    """Complex grid function stored as its Fourier coefficients.

    Attributes
    ----------
    grid : TorusGrid
    coeffs : complex ndarray over the frequency lattice (FFT order);
        coeffs[0...] is the mean value of the field.
    values : complex ndarray over grid points, a view computed on first
        read as the inverse transform of ``coeffs`` and cached; a caller
        that already holds that transform may pass it to the constructor.
    _energy : None, or (partition, per-level energies ||u_j||_2^2), kept by
        ``spaces.space_norm`` at p = 2 for the partition object it last read.
    """

    __slots__ = ("grid", "coeffs", "_values", "_energy")

    def __init__(self, grid, coeffs, values=None):
        if not np.isfinite(coeffs).all():
            raise ValueError("field values and coefficients must be finite")
        self.grid = grid
        self.coeffs = coeffs
        self._values = values
        self._energy = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = np.fft.ifftn(self.coeffs) * self.grid.N**self.grid.n
        return self._values

    @classmethod
    def from_values(cls, grid: TorusGrid, values):
        values = np.asarray(values, dtype=np.complex128).reshape(grid.shape)
        return cls(grid, np.fft.fftn(values) / grid.N**grid.n, values)

    @classmethod
    def from_coeffs(cls, grid: TorusGrid, coeffs):
        return cls(grid, np.asarray(coeffs, dtype=np.complex128).reshape(
            grid.shape))

    @classmethod
    def zero(cls, grid: TorusGrid):
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    def support(self) -> np.ndarray:
        """Lattice mask of the frequencies whose coefficient modulus exceeds
        ``SUPPORT_REL_THRESHOLD`` of the largest modulus."""
        mag = np.abs(self.coeffs)
        return mag > SUPPORT_REL_THRESHOLD * float(np.max(mag, initial=0.0))

    def band_limit(self) -> float:
        """Largest |eta| in the spectral support (0.0 for the zero field)."""
        return float(np.max(self.grid.freq_norms()[self.support()],
                            initial=0.0))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")
