"""Seeded random fields and symbols with exactly sparse spectra.

Generators used by both the experiment runner and the test suite.  All
random content is placed on explicit frequency lists with hard zeros
elsewhere, so spectral-support statements about generated objects are exact
set statements rather than threshold judgements.
"""

from __future__ import annotations

import numpy as np

from .symbols import ChingProfile, DiscreteSymbol, ching_symbol
from .torus import SpectralField, TorusGrid


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Deterministic child generator for a labelled stream."""
    return np.random.default_rng(np.random.SeedSequence((seed,) + stream))


def random_band_limited_field(grid: TorusGrid, rng, max_freq: float,
                              modes: int = 12) -> SpectralField:
    """Field with ``modes`` random coefficients inside |eta| <= max_freq."""
    norms = grid.freq_norms()
    candidates = np.argwhere(norms <= max_freq)
    take = min(modes, len(candidates))
    sel = candidates[rng.choice(len(candidates), size=take, replace=False)]
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    amps = rng.standard_normal(take) + 1j * rng.standard_normal(take)
    for row, amp in zip(sel, amps):
        coeffs[tuple(row)] = amp
    peak = np.max(np.abs(coeffs))
    if peak > 0:
        coeffs /= peak
    return SpectralField.from_coeffs(grid, coeffs)


def random_sparse_symbol(grid: TorusGrid, rng, d: float = 0.0,
                         x_band: float | None = None,
                         eta_band: float | None = None,
                         eta_min: float = 0.0,
                         entries: int = 40) -> DiscreteSymbol:
    """Symbol with a sparse partial transform: random mass on ``entries``
    (xi, eta) pairs with |xi| <= x_band, eta_min <= |eta| <= eta_band,
    weighted by (1 + |eta|)^d so the declared order is realized."""
    ny = grid.nyquist
    if x_band is None:
        x_band = ny / 4
    if eta_band is None:
        eta_band = ny / 2
    n = grid.n
    norms = grid.freq_norms()
    xi_ok = np.argwhere(norms <= x_band)
    eta_ok = np.argwhere((norms <= eta_band) & (norms >= eta_min))
    drawn = {}
    for _ in range(entries):
        xi = tuple(xi_ok[rng.integers(len(xi_ok))])
        eta = tuple(eta_ok[rng.integers(len(eta_ok))])
        eta_norm = float(norms[eta])
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        drawn[xi + eta] = amp * (1.0 + eta_norm) ** d   # later draws win
    vals = np.array(list(drawn.values()), dtype=np.complex128)
    peak = np.max(np.abs(vals), initial=0.0)
    if peak > 0:
        vals /= peak
    # one row per drawn xi, in lattice order, as from_partial_ft keeps them
    at = sorted({pair[:n] for pair in drawn})
    rows = np.zeros((len(at),) + grid.shape, dtype=np.complex128)
    for pair, v in zip(drawn, vals):
        rows[(at.index(pair[:n]),) + pair[n:]] = v
    xi = grid.axis_freqs()[np.array(at, dtype=np.int64).reshape(-1, n)]
    return DiscreteSymbol(grid, d, xi, rows)


def _on_ray(grid: TorusGrid, k: int) -> tuple:
    """Array index of the lattice point k e_1."""
    return grid.index_of((k,) + (0,) * (grid.n - 1))


def lacunary_stack(grid: TorusGrid, weights) -> SpectralField:
    """sum_j w_j e^{i 2^j x_1} on the lattice, j = 0..len(weights) - 1."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for j, w in enumerate(weights):
        coeffs[_on_ray(grid, 2**j)] += w
    return SpectralField.from_coeffs(grid, coeffs)


def optimal_stack_weights(J: int, source_smoothness: float) -> np.ndarray:
    """Coherent-stack weights maximizing output mass at frequency zero per
    unit of source norm: w_j proportional to 2^{-2 j s}."""
    return 2.0 ** (-2.0 * source_smoothness * np.arange(J + 1))


def single_band_input(grid: TorusGrid, j: int) -> SpectralField:
    """One mode at 2^j e_1."""
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    coeffs[_on_ray(grid, 2**j)] = 1.0
    return SpectralField.from_coeffs(grid, coeffs)


def offset_stack(grid: TorusGrid, weights) -> SpectralField | None:
    """sum_j w_j e^{i (2^j + 1) x_1}, j = 2..len(weights) + 1: a coherent
    stack on the lacunary points shifted off the ray e_1, probing symbols
    whose profile vanishes exactly there; None when no weight is nonzero."""
    if not np.any(weights):
        return None
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for j, w in enumerate(weights, start=2):
        coeffs[_on_ray(grid, 2**j + 1)] += w
    return SpectralField.from_coeffs(grid, coeffs)


def corpus_members(grid: TorusGrid, J_values, seed: int, profile,
                   n_random: int = 3):
    """Yield (J, members) for each J in ``J_values``, in order: the inputs
    probing the operator norm of a lacunary symbol with annular
    ``profile``, truncated at J, as (name, member) pairs: coherent stacks
    on and off the lacunary ray e_1, single bands, and seeded random fields
    band-limited to |eta| <= 10, below the first unresolved annulus.  A
    member is a field or, for the two stacks weighted by the source
    smoothness s, a function of s giving the field (None when no weight is
    nonzero).

    The off-ray stack is amplitude-adapted: weights b_j 2^{-2 j s} with
    b_j the profile value at the shifted point (1 + 2^-j) e_1, which
    maximizes the coherent output per unit of source norm.  The random
    fields and the b_j, which do not depend on J, are built once; a J's
    stacks and bands when that J is reached."""
    rest = (0.0,) * (grid.n - 1)
    b = [abs(complex(np.asarray(profile((2**j + 1) / 2**j, *rest))))
         for j in range(2, max(J_values, default=0) + 1)]
    randoms = [(f"random_{i}", random_band_limited_field(
        grid, rng_for(seed, 7, i), 10.0)) for i in range(n_random)]
    for J in J_values:
        items = [
            ("optimal_stack", lambda s, J=J: lacunary_stack(
                grid, optimal_stack_weights(J, s))),
            ("uniform_stack", lacunary_stack(grid, np.ones(J + 1))),
            ("single_low", single_band_input(grid, 0)),
            ("single_mid", single_band_input(grid, max(1, J // 2))),
            ("single_top", single_band_input(grid, J)),
        ]
        if J >= 2:
            items.append(("adapted_offset_stack", lambda s, J=J: offset_stack(
                grid, np.array(b[:J - 1]) * 2.0 ** (
                    -2.0 * s * np.arange(2, J + 1)))))
        yield J, items + randoms


def standard_ching(grid: TorusGrid, d: float = 0.0, J: int = 4,
                   zero_order: int = 0, one_sided: bool = False) -> DiscreteSymbol:
    """The canonical lacunary counterexample symbol on this grid."""
    return ching_symbol(grid, d, ChingProfile(zero_order=zero_order,
                                              one_sided=one_sided), J)
