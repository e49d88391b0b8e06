"""Modulation functions and Littlewood-Paley dyadic block machinery.

A modulation function is a smooth radial cutoff equal to 1 on |eta| <= r and
to 0 on |eta| >= R.  Each one generates a dyadic partition of unity

    1 = psi(eta) + sum_{j>=1} phi(2^-j eta),      phi = psi - psi(2 .),

which is evaluated exactly on the integer lattice.  The ramp between the
plateau and the support edge is the smooth glue

    S(t) = g(1-t) / (g(t) + g(1-t)),   g(t) = exp(-1/t) (t > 0),

rescaled to [r, R] and evaluated only on the open band r < |eta| < R; the
closed plateau / closed complement of the support get exactly 1.0 / 0.0,
which several exactness tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRadii, GridMismatch, GridTooCoarse, LevelOutOfRange
from .torus import SpectralField, TorusGrid


@dataclass(frozen=True)
class ModulationFunction:
    """Radial cutoff: 1 on |eta| <= r, 0 on |eta| >= R, non-increasing."""

    r: float
    R: float

    def __call__(self, radii) -> np.ndarray:
        t = np.abs(np.asarray(radii, dtype=float))
        t -= self.r
        t /= self.R - self.r
        out = np.where(t <= 0.0, 1.0, 0.0)
        # the ramp only on the open band 0 < t < 1, where a NaN t falls too
        band = ~((t <= 0.0) | (t >= 1.0))
        tb = t[band]
        with np.errstate(over="ignore"):
            gt, g1t = np.exp(-1.0 / tb), np.exp(-1.0 / (1.0 - tb))
        out[band] = g1t / (gt + g1t)
        return out

    def scalar(self, radius: float) -> float:
        return float(self(np.array([radius]))[0])


#: The cutoff with (r, R) = (1, 2) behind every scenario's partition and the
#: standard dyadic shells.
STANDARD_CUTOFF = ModulationFunction(1.0, 2.0)


def make_modulation(r: float, R: float) -> ModulationFunction:
    """Build the standard smooth radial cutoff with plateau r and support R."""
    if not (0.0 < r < R):
        raise BadRadii(f"need 0 < r < R, got r={r}, R={R}")
    return ModulationFunction(float(r), float(R))


def minimal_gap(psi: ModulationFunction) -> int:
    """Smallest integer h >= 2 with 2R < r * 2^h."""
    h = 2
    while psi.r * 2**h <= 2.0 * psi.R:
        h += 1
    return h


@dataclass(frozen=True)
class LPPartition:
    """Dyadic Littlewood-Paley partition attached to a grid.

    Attributes
    ----------
    psi : ModulationFunction
    grid : TorusGrid
    h : int
        Band-separation integer, the smallest h >= 2 with 2R < r 2^h.
    J_max : int
        Finest level with R * 2^J_max <= nyquist.
    """

    psi: ModulationFunction
    grid: TorusGrid
    h: int
    J_max: int

    @property
    def r(self) -> float:
        return self.psi.r

    @property
    def R(self) -> float:
        return self.psi.R

    def phi(self, radii) -> np.ndarray:
        """phi = psi - psi(2 .), evaluated on radii."""
        s = np.asarray(radii, dtype=float)
        return self.psi(s) - self.psi(2.0 * s)

    def _level(self, k: int) -> int:
        if not 0 <= k <= self.J_max:
            raise LevelOutOfRange(f"level {k} outside 0..{self.J_max}")
        return k

    def level_weights(self, k: int) -> np.ndarray:
        """Multiplier of level k on the lattice: phi(2^-k eta), psi for k=0
        (a read-only view of :meth:`level_stack`)."""
        return self.level_stack()[self._level(k)]

    def cumulative_weights(self, k: int) -> np.ndarray:
        """psi(2^-k eta) on the lattice, a radial table of the grid."""
        return self.grid.radial(self.psi, 2**self._level(k))

    def level_stack(self) -> np.ndarray:
        """Level weights of k = 0..J_max stacked along a first axis, a table
        of the grid (read-only)."""
        return self.grid.table(("levels", self.psi, self.J_max), lambda: (
            dyadic_ladder(self.psi, self.grid, 0, self.J_max)))


def dyadic_ladder(psi: ModulationFunction, grid: TorusGrid, lo: int,
                  hi: int) -> np.ndarray:
    """psi(2^-lo .), then phi(2^-k .) for k = lo+1..hi, stacked over the
    lattice (a new array): first differences of the grid's radial tables,
    bit for bit since (x / 2^k) * 2 == x / 2^(k-1) exactly."""
    out = np.empty((hi + 1 - lo,) + grid.shape)
    out[0] = grid.radial(psi, 2.0**lo)
    for k in range(lo + 1, hi + 1):
        np.subtract(grid.radial(psi, 2.0**k), grid.radial(psi, 2.0 ** (k - 1)),
                    out=out[k - lo])
    return out


def saturation_level(psi: ModulationFunction, grid: TorusGrid) -> int:
    """Smallest m with psi(2^-m .) identically 1 on the whole lattice."""
    m = 0
    while psi.r * 2**m < grid.max_freq_norm():
        m += 1
    return m


def make_partition(psi: ModulationFunction, grid: TorusGrid) -> LPPartition:
    """Attach a dyadic partition to a grid, with the minimal admissible gap
    h = ``minimal_gap(psi)``."""
    if psi.R >= grid.nyquist:
        raise GridTooCoarse(
            f"support radius {psi.R} >= nyquist {grid.nyquist}")
    J_max = 0
    while psi.R * 2 ** (J_max + 1) <= grid.nyquist:
        J_max += 1
    return LPPartition(psi, grid, minimal_gap(psi), J_max)


def check_grid(part: LPPartition, grid: TorusGrid) -> None:
    """Raise GridMismatch unless ``grid`` is the one the partition's
    weights live on (same dimension and size)."""
    if grid != part.grid:
        raise GridMismatch(f"operand on {grid}, partition on {part.grid}")


def dyadic_block(u: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """u_k = phi(2^-k D) u  (psi(D) u for k = 0, zero field for k < 0)."""
    check_grid(part, u.grid)
    if k < 0:
        return SpectralField.zero(u.grid)
    return SpectralField.from_coeffs(u.grid, u.coeffs * part.level_weights(k))


def cumulative_block(u: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """u^k = psi(2^-k D) u; zero field for k < 0."""
    check_grid(part, u.grid)
    if k < 0:
        return SpectralField.zero(u.grid)
    return SpectralField.from_coeffs(u.grid,
                                     u.coeffs * part.cumulative_weights(k))
