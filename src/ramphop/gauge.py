"""Diagonal gauge transforms that symmetrize the ramped-hopping chain.

The imaginary gauge of Hatano & Nelson (PRL 77, 570, 1996) on a ramp: D^-1 H D
with d_{j+1}/d_j = sqrt|t'_j / t_j| makes every bond before the split site
p = |t/gamma| real symmetric and every bond past it i times symmetric.  The
gauge is one cumulative sum of log ratios per block, carried in log form as
it spans many orders of magnitude, plus a quarter turn (power of i) per site
past p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBondError, RegimeMismatchError
from .model import (
    BandedHamiltonian,
    Boundary,
    LatticeParams,
    RegimeKind,
    bond_amplitudes,
    split_point,
)

# Written out so that every zero part is +0.0.
_QUARTER_PHASES = np.array([complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1)])


@dataclass(frozen=True, eq=False)
class GaugeVector:
    """Log-magnitude representation of the diagonal gauge D.

    d_j = i**quarter_phase[j] * exp(log_mag[j]).  The gauge is reset to
    d = 1 at every entry of ``block_starts`` (1-indexed sites);
    quarter_phase is max(j - p, 0) mod 4 at the 0-based site j, zero in
    block A and advancing by one per bond past the split.
    """

    log_mag: np.ndarray
    quarter_phase: np.ndarray
    block_starts: list[int]

    @property
    def length(self) -> int:
        return len(self.log_mag)

    def phases(self) -> np.ndarray:
        """Unit complex factor i**quarter_phase of each d_j."""
        return _QUARTER_PHASES[self.quarter_phase % 4]

    def values(self) -> np.ndarray:
        """Explicit d_j; may under/overflow for long chains, prefer log form."""
        return self.phases() * np.exp(self.log_mag)


@dataclass(frozen=True)
class BlockCoupling:
    a: float
    b: float


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Gauge-transformed chain split at the bond where t_j t'_j changes sign.

    Both blocks are real symmetric zero-diagonal tridiagonals: block_a is
    the gauged chain on sites 1..p, and the physical block on the sites past
    p is i times block_b.
    """

    block_a: BandedHamiltonian
    block_b: BandedHamiltonian
    coupling: BlockCoupling
    decoupled: bool

    @property
    def split(self) -> int:
        return self.block_a.length


def _log_gauge(upper: np.ndarray, lower: np.ndarray, start: int, stop: int) -> np.ndarray:
    """log d on the 0-based sites start..stop-1, from d = 1 at ``start``.

    One cumulative sum of (log|t'_j| - log|t_j|) / 2 over the bonds between
    those sites; ``stop`` must exceed ``start``.
    """
    up, lo = upper[start : stop - 1], lower[start : stop - 1]
    bad = np.flatnonzero((up == 0.0) | (lo == 0.0))
    if bad.size:
        raise DegenerateBondError(f"bond {start + 1 + bad[0]} has a vanishing amplitude")
    steps = 0.5 * (np.log(np.abs(lo)) - np.log(np.abs(up)))
    return np.cumsum(np.concatenate(([0.0], steps)))


def _gauge(params: LatticeParams, p: int, block_starts: list[int]) -> GaugeVector:
    """The gauge of a chain with block A of p sites, reset to d = 1 at each
    of ``block_starts`` (1-indexed sites)."""
    if p == 0 and params.t == 0.0:
        raise DegenerateBondError(
            "t = 0 leaves the anti-symmetrizing gauge ratio undefined"
        )
    n = params.length
    upper, lower = bond_amplitudes(params.t, params.gamma, n)
    bounds = [start - 1 for start in block_starts] + [n]
    blocks = zip(bounds, bounds[1:])
    log_mag = np.concatenate([_log_gauge(upper, lower, a, b) for a, b in blocks])
    quarter = (np.maximum(np.arange(n) - p, 0) % 4).astype(np.int8)
    return GaugeVector(log_mag, quarter, block_starts)


def _symmetric_bonds(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """sgn(t_j) sqrt|t_j t'_j|: the gauged bond, up to a factor i past the split."""
    return np.sign(upper) * np.sqrt(np.abs(upper * lower))


def gauge_vector(params: LatticeParams) -> GaugeVector:
    """Gauge magnitudes and phases that exhibit the block decomposition.

    d_{j+1}/d_j = sqrt|t'_j / t_j| inside each block, times i on every bond
    past the split; the gauge resets to d = 1 just past the split bond.
    """
    regime, p = split_point(params)
    return _gauge(params, p, [1] if regime.split is None else [1, p + 1])


def hermitize(params: LatticeParams) -> BlockDecomposition:
    """Split the gauged chain into a symmetric and an anti-symmetric block.

    The physical spectrum of the decoupled case is the eigenvalues of
    block_a together with i times the eigenvalues of block_b.  For
    non-integer |t/gamma| the blocks stay coupled through (a, b) and their
    union only approximates the spectrum.
    """
    if params.boundary is Boundary.PBC:
        raise RegimeMismatchError("the open-chain gauge does not close around a ring")
    regime, p = split_point(params)
    n = params.length
    upper, lower = bond_amplitudes(params.t, params.gamma, n)
    off = _symmetric_bonds(upper, lower)
    coupling = BlockCoupling(0.0, 0.0)
    if regime.split is not None:
        d_split = np.exp(_log_gauge(upper, lower, 0, p)[-1])  # d at site p, real positive
        # the backward amplitude t - gamma*m vanishes at an integer split
        b = 0.0 if regime.kind is RegimeKind.INTEGER_SPLIT else lower[p - 1] * d_split
        coupling = BlockCoupling(float(upper[p - 1] / d_split), float(b))
    off_a, off_b = off[: max(p - 1, 0)], off[p:]
    return BlockDecomposition(
        block_a=BandedHamiltonian(p, off_a, off_a),
        block_b=BandedHamiltonian(n - p, off_b, off_b),
        coupling=coupling,
        decoupled=regime.decoupled,
    )


def balanced_form(params: LatticeParams) -> tuple[np.ndarray, GaugeVector]:
    """Complex symmetric tridiagonal similar to the open chain.

    Returns the off-diagonal entries (diagonal is zero) together with the
    continuation gauge mapping its eigenvectors back, which runs through the
    split bond without a reset: bonds with positive product become
    sgn(t_j) sqrt(t_j t'_j), bonds with negative product
    i sgn(t_j) sqrt(|t_j t'_j|).  All entries stay of order of the raw
    amplitudes, which is what makes the dense solve well behaved.
    """
    regime, p = split_point(params)
    if regime.kind is RegimeKind.INTEGER_SPLIT:
        raise DegenerateBondError(
            "integer |t/gamma| has an exactly vanishing bond; use hermitize"
        )
    gauge = _gauge(params, p, [1])
    upper, lower = bond_amplitudes(params.t, params.gamma, params.length)
    mag = _symmetric_bonds(upper, lower)
    anti = np.arange(1, params.length) > p
    return np.where(anti, 1.0j * mag, mag + 0.0j), gauge


def ungauge(gauge: GaugeVector, transformed_vec: np.ndarray) -> np.ndarray:
    """Map a gauge-space vector back to the physical chain, v_j = d_j * w_j.

    Evaluated in the log domain and rescaled to unit maximum amplitude, so
    gauge factors far beyond floating range only cost underflow of the
    correspondingly negligible components.
    """
    w = np.asarray(transformed_vec, dtype=complex)
    if w.shape != (gauge.length,):
        raise ValueError(
            f"vector length {w.shape} does not match gauge length {gauge.length}"
        )
    if not np.all(np.isfinite(w)):
        raise OverflowError("non-finite components in transformed vector")
    amp = np.abs(w)
    log_v = np.log(amp, out=np.full(gauge.length, -np.inf), where=amp > 0.0)
    log_v = log_v + gauge.log_mag
    if not np.any(np.isfinite(log_v)):
        raise ValueError("cannot ungauge a zero vector")
    shift = np.max(log_v[np.isfinite(log_v)])
    if not np.isfinite(shift):
        raise OverflowError("gauge magnitudes overflow the representable range")
    # w / |w| would go through 1 / |w|, which overflows for a subnormal |w|
    unit = np.exp(1j * np.angle(w))
    out = np.exp(log_v - shift) * unit * gauge.phases()
    return out

