"""Besov / Triebel-Lizorkin quasi-norms and the dyadic convergence criteria.

L_p integrals are Riemann sums with the normalized measure dx / (2*pi)^n, so
a single Fourier mode has unit L_p norm for every p.  All block truncations
stop at the partition's finest level J_max; for band-limited inputs the
truncation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (AliasingRisk, BadExponent, GridTooCoarse,
                     SupportViolation)
from .lp import (STANDARD_CUTOFF, LPPartition, check_grid, dyadic_ladder,
                 saturation_level)
from .operators import apply
from .pointwise import MaxParams, hl_max, max_ratio, peetre_max
from .symbols import DiscreteSymbol
from .torus import SUPPORT_REL_THRESHOLD, SpectralField, TorusGrid


@dataclass(frozen=True)
class NormSpec:
    """Selects a Besov (scale='B') or Triebel-Lizorkin (scale='F') quasi-norm."""

    scale: str
    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.scale not in ("B", "F"):
            raise BadExponent("scale must be 'B' or 'F'")
        if not np.isfinite(self.s):
            raise BadExponent("s must be finite")
        if not (self.p > 0 and self.q > 0):  # NaN fails too
            raise BadExponent("p and q must be positive")
        if self.scale == "F" and np.isinf(self.p):
            raise BadExponent("the F scale requires p < inf")

    @property
    def lam(self) -> float:
        """Subadditivity exponent min(1, p, q)."""
        return min(1.0, self.p, self.q)


def _lp(values: np.ndarray, p: float, axis=None) -> np.ndarray:
    a = np.abs(values)
    if np.isinf(p):
        return np.max(a, axis=axis)
    return np.mean(a**p, axis=axis) ** (1.0 / p)


def lp_norm(values: np.ndarray, p: float) -> float:
    """Normalized-measure L_p norm of grid samples (max for p = inf)."""
    return float(_lp(values, p))


def _lq(arr: np.ndarray, q: float, axis=0) -> np.ndarray:
    if np.isinf(q):
        return np.max(arr, axis=axis)
    return np.sum(arr**q, axis=axis) ** (1.0 / q)


def _dyadic_norm(scale: str, levels: np.ndarray, weights, p: float,
                 q: float) -> float:
    """Quasi-norm of a stack of level values ``levels[j]`` (grid samples,
    an array or a list of arrays) with the level weights w_j:

    B scale:  || {w_j ||levels_j||_p} ||_{l_q}
    F scale:  || || {w_j levels_j} ||_{l_q}(x) ||_p
    """
    levels = np.asarray(levels)
    w = np.array(weights, dtype=float)
    if scale == "B":
        return float(_lq(w * _lp(levels, p, axis=tuple(range(1, levels.ndim))),
                         q))
    a = np.abs(levels)
    a *= w.reshape((-1,) + (1,) * (levels.ndim - 1))
    return lp_norm(_lq(a, q, axis=0), p)


def space_norm(u, spec: NormSpec, part: LPPartition):
    """Quasi-norm from the dyadic blocks u_j, j = 0..J_max.

    B scale:  || {2^{sj} ||u_j||_p} ||_{l_q}
    F scale:  || || {2^{sj} u_j} ||_{l_q}(x) ||_p

    At p = 2 every B norm, and F_{2,2} = B_{2,2}, comes from the coefficients
    by Parseval: ||u_j||_2^2 = sum_eta |phi_j(eta) c_eta|^2, summed over u's
    nonzero modes.  These level energies do not depend on the spec: each
    field keeps those of the partition (object) it was last normed under,
    and the fields without them get theirs from one gather at their
    concatenated modes.  Every other (p, q) takes all blocks from one
    inverse FFT of the stacked level-weighted coefficients.

    ``u`` may also be a sequence of fields, which gives the list of their
    norms.
    """
    fields = [u] if isinstance(u, SpectralField) else list(u)
    for f in fields:
        check_grid(part, f.grid)
    grid = part.grid
    weights = np.array([2.0 ** (spec.s * j) for j in range(part.J_max + 1)])
    if spec.p == 2 and (spec.scale == "B" or spec.q == 2):
        cold = [f for f in fields
                if f._energy is None or f._energy[0] is not part]
        modes = [np.flatnonzero(f.coeffs != 0) for f in cold]
        at = np.concatenate([np.empty(0, np.intp)] + modes)
        c = np.concatenate([np.empty(0, complex)] + [
            f.coeffs.ravel()[m] for f, m in zip(cold, modes)])
        power = part.level_stack().reshape(len(weights), -1)[:, at] ** 2 \
            * np.abs(c) ** 2
        # a field's level energies: the pairwise np.sum of its own columns,
        # so each norm is the one-field norm bit for bit
        ends = np.cumsum([0] + [len(m) for m in modes])
        for f, lo, hi in zip(cold, ends, ends[1:]):
            f._energy = (part, np.sum(power[:, lo:hi], axis=1))
        energy = np.array([f._energy[1] for f in fields])
        norms = _lq(weights * np.sqrt(energy.reshape(-1, len(weights))),
                    spec.q, axis=1).tolist()
    else:
        norms = []
        for f in fields:
            # one stack-sized array, transformed in place
            blocks = f.coeffs * part.level_stack()
            np.fft.ifftn(blocks, axes=tuple(range(1, grid.n + 1)), out=blocks)
            blocks *= grid.N**grid.n
            norms.append(_dyadic_norm(spec.scale, blocks, weights, spec.p,
                                      spec.q))
    return norms[0] if isinstance(u, SpectralField) else norms


def dyadic_dilate(u: SpectralField, k: int) -> SpectralField:
    """One-period realization of the dilation u(2^k .) on the torus.

    Coefficients move from m to 2^k m and are scaled by 2^{-kn}, which
    carries the volume factor of the real-line dilation, so L^1-type norms
    transform by 2^{-kn} exactly.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    grid = u.grid
    out = np.zeros_like(u.coeffs)
    idx = np.nonzero(u.coeffs)
    # in floats, exact for powers of two, where int64 would wrap
    target = [grid.axis_freqs()[i] * 2.0**k for i in idx]
    if any(((t < -grid.nyquist) | (t >= grid.nyquist)).any() for t in target):
        raise AliasingRisk(f"dilation by 2^{k} moves frequencies off the "
                           "lattice")
    out[tuple(t.astype(np.int64) % grid.N for t in target)] = (
        u.coeffs[idx] * 2.0 ** (-k * grid.n))
    return SpectralField.from_coeffs(grid, out)


def homog_besov_norm(b: SpectralField, smoothness: float, p: float = 1.0,
                     q: float = 1.0) -> float:
    """Two-sided homogeneous dyadic norm
    ( sum_{j} (2^{j s} ||b_j||_p)^q )^{1/q},  b_j = phi(2^-j D) b,
    truncated to the lattice-resolvable shells.  The zero mode is quotiented
    out, so inputs should vanish at frequency zero to the needed order."""
    grid = b.grid
    shells = _dyadic_shells(grid)
    blocks = np.fft.ifftn(b.coeffs * shells, axes=tuple(range(1, grid.n + 1)))
    # ||N^n ifft(c)||_p = N^n ||ifft(c)||_p: scale the norms, not the blocks
    return _dyadic_norm("B", blocks, [2.0 ** (j * smoothness) * grid.N**grid.n
                                      for j in range(len(shells))], p, q)


def _dyadic_shells(grid: TorusGrid) -> np.ndarray:
    """The homogeneous dyadic shells phi(2^-j .) that meet the lattice,
    j = 0 .. saturation, stacked along the first axis, phi = psi - psi(2 .)
    for psi = ``lp.STANDARD_CUTOFF``; a table of the grid.  Shell j holds
    2^j e_1 below saturation, and the top shell the far lattice points."""
    psi = STANDARD_CUTOFF
    return grid.table("dyadic_shells", lambda: dyadic_ladder(
        psi, grid, -1, saturation_level(psi, grid))[1:])


def marschall_check(b: DiscreteSymbol, u: SpectralField, k: int,
                    t: float) -> dict:
    """max_x |b#u(x)| / ( ||row_x||_{hom, n/t, 1, t} M_t u(x) ) at its x.

    The symbol rows and the input spectrum must live in B(0, 2^k); the
    row norm uses the dyadic scaling identity to account for the 2^k
    dilation of its frequency argument.  The shell blocks of a row b(x, .)
    are linear in it: they are taken on the stored rows, then expanded."""
    if not (0.0 < t <= 1.0):
        raise BadExponent("t must lie in (0, 1]")
    grid = b.grid
    n = grid.n
    # max over x of |b(x, eta)|: the rows' eta-support and sup|b|
    mag = np.zeros(grid.N**n)
    for cols, mod in b.moduli():
        mag[cols] = np.max(mod, axis=tuple(range(1, n + 1)))
    peak = float(np.max(mag))
    ball = grid.annulus(0.0, 2.0**k)
    if (mag.reshape(grid.shape)[~ball] > SUPPORT_REL_THRESHOLD * peak).any():
        raise SupportViolation("symbol rows escape B(0, 2^k)")
    if (u.support() & ~ball).any():
        raise SupportViolation("input spectrum escapes B(0, 2^k)")
    s_h = n / t
    lhs = np.abs(apply(b, u).values)
    Mt = hl_max(u, t)
    scale = 2.0 ** (k * (s_h - n))
    eta_axes = tuple(range(1, n + 1))
    coeffs = np.fft.fftn(b.rows, axes=eta_axes)
    shell = np.empty_like(coeffs)   # every shell's rows, filtered in place
    terms = []
    for j, w in enumerate(_dyadic_shells(grid)):
        np.multiply(coeffs, w, out=shell)
        np.fft.ifftn(shell, axes=eta_axes, out=shell)
        l1 = np.zeros(grid.shape)
        for _, mod in b.moduli(shell):
            l1 += np.sum(mod, axis=0)
        terms.append(2.0 ** (j * s_h) * l1 / grid.N**n)
    norms = _lq(np.array(terms), t)
    # a row norm below the support threshold of the largest, and a |b#u(x)|
    # below it of the bound sup|b| sum|c|, count as zero, so the verdict
    # does not hang on roundoff of how b is stored
    live = norms > SUPPORT_REL_THRESHOLD * np.max(norms, initial=0.0)
    out_bound = peak * float(np.sum(np.abs(u.coeffs)))
    ratio, x = max_ratio(lhs, np.where(live, scale * norms * Mt, 0.0),
                         SUPPORT_REL_THRESHOLD * out_bound)
    return {"max_ratio": ratio, "x": x}


@dataclass(frozen=True)
class CoronaSpec:
    """Ball/corona condition with inner radii growing like 2^{theta j}.

    theta = 1 is the strict dyadic corona; theta < 1 trades a smoothness
    loss s' < s for the slower inner growth.  Admissibility of (s, s', p, q)
    is validated at construction."""

    A: float
    theta: float
    J: int
    s: float
    p: float
    q: float
    s_prime: float

    def __post_init__(self):
        if self.A <= 1.0:
            raise BadExponent("A must exceed 1")
        if not (0.0 < self.theta <= 1.0):
            raise BadExponent("theta must lie in (0, 1]")
        if self.J < 1:
            raise BadExponent("J must be >= 1")
        if self.theta == 1.0:
            return
        if not self._admissible(1) and not self._admissible(2):
            raise BadExponent(
                f"s'={self.s_prime} inadmissible for s={self.s}, "
                f"theta={self.theta}, p={self.p}, q={self.q}")

    def _admissible(self, n: int) -> bool:
        gap = max(0.0, n / self.p - n)
        if self.s > gap and self.s_prime == self.s:
            return True
        if self.s <= 0 and self.p >= 1 and self.q >= 1 \
                and self.s_prime < self.s / self.theta:
            return True
        loss = (1.0 - self.theta) / self.theta * max(0.0, gap - self.s)
        return self.s_prime < self.s - loss


def corona_sum_check(terms, spec: CoronaSpec, part: LPPartition) -> dict:
    """Exact support validation plus the bound quantity and the summed norm.

    Every term j must satisfy supp F u_j inside the ball B(0, A 2^j); terms
    with j >= J must also stay inside the corona A^-1 2^{theta j} <= |xi|.
    A series of several terms none of which has j >= J rests on the ball
    lemma alone, which needs s > n max(0, 1/p - 1): below it, BadExponent.
    Returns {norm_of_sum, F_bound, ratio}.
    """
    grid = part.grid
    gap = grid.n * max(0.0, 1.0 / spec.p - 1.0)
    if 1 < len(terms) <= spec.J and spec.s <= gap:
        raise BadExponent(f"no term reaches the corona (J={spec.J}, "
                          f"{len(terms)} terms): the ball lemma needs "
                          f"s > {gap}, got s={spec.s}")
    offenders = []
    for j, term in enumerate(terms):
        outer = spec.A * 2.0**j
        inner = (2.0 ** (spec.theta * j) / spec.A) if j >= spec.J else 0.0
        bad = term.support() & ~grid.annulus(inner, outer)
        offenders += [(j, pt) for pt in grid.points(bad)]
    if offenders:
        raise SupportViolation("corona/ball condition violated", offenders)
    F = _dyadic_norm("F", [term.values for term in terms],
                     [2.0 ** (spec.s * j) for j in range(len(terms))],
                     spec.p, spec.q)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    nrm = space_norm(total, NormSpec("F", spec.s_prime, spec.p, spec.q), part)
    return {"norm_of_sum": nrm, "F_bound": F, "ratio": max_ratio(nrm, F)[0]}


def fefferman_stein_check(blocks, spec: NormSpec, t: float, N_decay: float,
                          R: float = 2.0) -> dict:
    """Three-term chain: mixed norm of the block maximal functions, of the
    Hardy-Littlewood regularizations, and of the blocks themselves.

    Requires t < min(p, q) and N >= n/t.  Returns the two consecutive ratios
    together with the three quantities."""
    if t >= min(spec.p, spec.q):
        raise BadExponent("t must be < min(p, q)")
    grid = blocks[0].grid
    if N_decay < grid.n / t:
        raise BadExponent("decay exponent must be >= n/t")
    weights = [2.0 ** (spec.s * k) for k in range(len(blocks))]
    Q1 = _dyadic_norm("F", [peetre_max(blk, MaxParams(N_decay, R * 2.0**k))
                            for k, blk in enumerate(blocks)],
                      weights, spec.p, spec.q)
    Q2 = _dyadic_norm("F", [hl_max(blk, t) for blk in blocks], weights,
                      spec.p, spec.q)
    Q3 = _dyadic_norm("F", [blk.values for blk in blocks], weights, spec.p,
                      spec.q)
    return {"Q_star": Q1, "Q_hl": Q2, "Q_blocks": Q3,
            "ratio_star_hl": max_ratio(Q1, Q2)[0],
            "ratio_hl_blocks": max_ratio(Q2, Q3)[0]}


def embedding_constant(s: float, s_prime: float, q: float, r: float) -> float:
    """Closed-form constant of the elementary dyadic embedding.

    s' = s with r >= q costs nothing; s' < s costs the l_m norm of the
    geometric weight sequence, with 1/m = 1/r - 1/q when r < q."""
    if s_prime == s:
        if r >= q:
            return 1.0
        raise BadExponent("s' = s requires r >= q")
    if s_prime > s:
        raise BadExponent("need s' <= s")
    if r >= q:
        return 1.0
    if np.isinf(r):
        return 1.0
    m = 1.0 / (1.0 / r - (0.0 if np.isinf(q) else 1.0 / q))
    return float((1.0 / (1.0 - 2.0 ** ((s_prime - s) * m))) ** (1.0 / m))


def embedding_check(u: SpectralField, s: float, s_prime: float, p: float,
                    q: float, r: float, part: LPPartition,
                    scale: str = "F") -> bool:
    """norm(u; s', p, r) <= c * norm(u; s, p, q) with the closed-form c."""
    c = embedding_constant(s, s_prime, q, r)
    lhs = space_norm(u, NormSpec(scale, s_prime, p, r), part)
    rhs = space_norm(u, NormSpec(scale, s, p, q), part)
    return bool(lhs <= c * rhs * (1.0 + 1e-9) + 1e-300)


def weierstrass_signal(grid: TorusGrid, d: float, J: int) -> SpectralField:
    """Truncated lacunary signal sum_{j=0..J} 2^{-jd} e^{i 2^j x_1}."""
    if 2**J >= grid.nyquist:
        raise GridTooCoarse(f"2^J = {2**J} >= nyquist {grid.nyquist}")
    coeffs = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(J + 1):
        pt = (2**j,) + (0,) * (grid.n - 1)
        coeffs[grid.index_of(pt)] = 2.0 ** (-j * d)
    return SpectralField.from_coeffs(grid, coeffs)
