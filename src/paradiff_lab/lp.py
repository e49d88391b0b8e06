"""Modulation functions and Littlewood-Paley dyadic block machinery.

A modulation function is a smooth radial cutoff equal to 1 on |eta| <= r and
to 0 on |eta| >= R.  Each one generates a dyadic partition of unity

    1 = psi(eta) + sum_{j>=1} phi(2^-j eta),      phi = psi - psi(2 .),

which is evaluated exactly on the integer lattice.  The ramp between the
plateau and the support edge is the smooth glue

    S(t) = g(1-t) / (g(t) + g(1-t)),   g(t) = exp(-1/t) (t > 0),

rescaled to [r, R]; it returns exactly 1.0 / 0.0 on the closed plateau /
closed complement of the support, which several exactness tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadRadii, GridMismatch, GridTooCoarse, LevelOutOfRange
from .torus import SpectralField, TorusGrid


def _glue(t: np.ndarray) -> np.ndarray:
    # exp(-1/t) continued by 0 for t <= 0; underflow is harmless here.
    out = np.zeros_like(t)
    m = t > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[m] = np.exp(-1.0 / t[m])
    return out


@dataclass(frozen=True)
class ModulationFunction:
    """Radial cutoff: 1 on |eta| <= r, 0 on |eta| >= R, non-increasing."""

    r: float
    R: float

    def __call__(self, radii) -> np.ndarray:
        s = np.abs(np.asarray(radii, dtype=float))
        t = (s - self.r) / (self.R - self.r)
        gt = _glue(t)
        g1t = _glue(1.0 - t)
        with np.errstate(invalid="ignore"):
            ramp = np.where(t <= 0.0, 1.0,
                            np.where(t >= 1.0, 0.0, g1t / (gt + g1t)))
        return ramp

    def scalar(self, radius: float) -> float:
        return float(self(np.array([radius]))[0])


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
        Band-separation integer, h >= 2 and 2R < r 2^h.
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

    @cached_property
    def _weights(self) -> tuple:
        """(level, cumulative) weights of levels 0..J_max, read-only."""
        norms = self.grid.freq_norms()
        levels = [self.psi(norms)] + [self.phi(norms / 2**k)
                                      for k in range(1, self.J_max + 1)]
        cumulative = [self.psi(norms / 2**k) for k in range(self.J_max + 1)]
        for w in levels + cumulative:
            w.flags.writeable = False
        return levels, cumulative

    def _level(self, table: int, k: int) -> np.ndarray:
        if not 0 <= k <= self.J_max:
            raise LevelOutOfRange(f"level {k} outside 0..{self.J_max}")
        return self._weights[table][k]

    def level_weights(self, k: int) -> np.ndarray:
        """Multiplier of level k on the lattice: phi(2^-k eta), psi for k=0
        (computed once per partition; read-only)."""
        return self._level(0, k)

    def cumulative_weights(self, k: int) -> np.ndarray:
        """psi(2^-k eta) on the lattice (computed once per partition;
        read-only)."""
        return self._level(1, k)

    def params(self) -> dict:
        """Reproducibility header used by experiment records."""
        return {"r": self.r, "R": self.R, "h": self.h, "J_max": self.J_max}


def make_partition(psi: ModulationFunction, grid: TorusGrid,
                   h: int | None = None) -> LPPartition:
    """Attach a dyadic partition to a grid.

    h defaults to the minimal admissible gap; callers may only enlarge it.
    """
    if psi.R >= grid.nyquist:
        raise GridTooCoarse(
            f"support radius {psi.R} >= nyquist {grid.nyquist}")
    h_min = minimal_gap(psi)
    if h is None:
        h = h_min
    elif h < h_min:
        raise ValueError(f"h must be >= {h_min}")
    J_max = int(np.floor(np.log2(grid.nyquist / psi.R) + 1e-12))
    while psi.R * 2 ** (J_max + 1) <= grid.nyquist:
        J_max += 1
    return LPPartition(psi, grid, h, J_max)


def check_grid(part: LPPartition, grid: TorusGrid) -> None:
    """Raise GridMismatch unless ``grid`` is the one the partition's
    weights live on (same dimension and size)."""
    if grid != part.grid:
        raise GridMismatch(f"operand on {grid}, partition on {part.grid}")


def dyadic_block(u: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """u_k = phi(2^-k D) u  (psi(D) u for k = 0, zero field for k < 0)."""
    check_grid(part, u.grid)
    if k > part.J_max:
        raise LevelOutOfRange(f"level {k} > J_max {part.J_max}")
    if k < 0:
        return SpectralField.zero(u.grid)
    return SpectralField.from_coeffs(u.grid, u.coeffs * part.level_weights(k))


def cumulative_block(u: SpectralField, k: int, part: LPPartition) -> SpectralField:
    """u^k = psi(2^-k D) u; zero field for k < 0."""
    check_grid(part, u.grid)
    if k > part.J_max:
        raise LevelOutOfRange(f"level {k} > J_max {part.J_max}")
    if k < 0:
        return SpectralField.zero(u.grid)
    return SpectralField.from_coeffs(u.grid,
                                     u.coeffs * part.cumulative_weights(k))


def block_corona(part: LPPartition, k: int) -> tuple:
    """(inner, outer) radii of the support annulus of level k."""
    if k == 0:
        return (0.0, part.R)
    return (part.r * 2 ** (k - 1), part.R * 2**k)
