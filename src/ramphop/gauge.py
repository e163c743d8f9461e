"""Diagonal gauge transforms that symmetrize the ramped-hopping chain.

A diagonal similarity D^-1 H D with d_{j+1}/d_j = sqrt(t'_j / t_j) turns
every bond with positive product t_j t'_j into a real symmetric one.  Bonds
with negative product pick up a factor i per bond instead, so a run of them
becomes i times a real symmetric block.  The gauge magnitudes span many
orders of magnitude, hence everything is carried in log form and phases are
tracked as quarter turns (powers of i) per site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBondError, RegimeMismatchError
from .model import (
    Boundary,
    LatticeParams,
    Regime,
    RegimeKind,
    build_hamiltonian,
    classify_regime,
)

_QUARTER_PHASES = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


@dataclass(frozen=True, eq=False)
class GaugeVector:
    """Log-magnitude representation of the diagonal gauge D.

    d_j = sign[j] * i**quarter_phase[j] * exp(log_mag[j]).  The gauge is
    reset to d = 1 at every entry of ``block_starts`` (1-indexed sites);
    quarter_phase stays 0 inside symmetrizable blocks and advances by one
    per bond inside anti-symmetrizable ones.
    """

    log_mag: np.ndarray
    sign: np.ndarray
    quarter_phase: np.ndarray
    block_starts: list[int]

    @property
    def length(self) -> int:
        return len(self.log_mag)

    def phases(self) -> np.ndarray:
        """Unit complex factor of each d_j (sign and quarter turns)."""
        return self.sign * _QUARTER_PHASES[self.quarter_phase % 4]

    def values(self) -> np.ndarray:
        """Explicit d_j; may under/overflow for long chains, prefer log form."""
        return self.phases() * np.exp(self.log_mag)


@dataclass(frozen=True, eq=False)
class SymTridiag:
    """Real symmetric tridiagonal block; physical block is i*matrix when flagged."""

    diag: np.ndarray
    offdiag: np.ndarray
    imaginary_unit: bool = False

    @property
    def size(self) -> int:
        return len(self.diag)


@dataclass(frozen=True)
class BlockCoupling:
    a: float
    b: float


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """Gauge-transformed chain split at the bond where t_j t'_j changes sign."""

    block_a: SymTridiag
    block_b: SymTridiag
    coupling: BlockCoupling
    decoupled: bool

    @property
    def split(self) -> int:
        return self.block_a.size


def _split_site(regime: Regime) -> int | None:
    if regime.kind in (RegimeKind.INTEGER_SPLIT, RegimeKind.NON_INTEGER_SPLIT):
        return regime.split
    return None


def _check_gauge_preconditions(params: LatticeParams, regime: Regime) -> None:
    if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE and params.t == 0.0:
        raise DegenerateBondError(
            "t = 0 leaves the anti-symmetrizing gauge ratio undefined"
        )


def gauge_vector(params: LatticeParams, *, restart: bool = True) -> GaugeVector:
    """Gauge magnitudes, signs, and phases for the chain.

    With ``restart`` (the default) the gauge resets to 1 just past the split
    bond, which is the form that exhibits the block decomposition.  With
    ``restart=False`` the magnitude recurrence runs through the split bond
    instead, producing the balanced similar matrix used by the dense solver;
    that variant is undefined when the split bond vanishes exactly
    (integer |t/gamma|).
    """
    regime = classify_regime(params)
    _check_gauge_preconditions(params, regime)
    split = _split_site(regime)
    if not restart and regime.kind is RegimeKind.INTEGER_SPLIT:
        raise DegenerateBondError(
            "the split bond vanishes for integer |t/gamma|; use the restarted gauge"
        )
    h = build_hamiltonian(
        LatticeParams(params.t, params.gamma, params.length, Boundary.OBC)
    )
    n = params.length
    log_mag = np.zeros(n)
    sign = np.ones(n, dtype=np.int8)
    quarter = np.zeros(n, dtype=np.int8)
    block_starts = [1]
    for k in range(n - 1):
        bond = k + 1  # 1-indexed bond between sites k and k+1
        if restart and split is not None and bond == split:
            log_mag[k + 1] = 0.0
            quarter[k + 1] = 0
            block_starts.append(split + 1)
            continue
        up, lo = h.upper[k], h.lower[k]
        if up == 0.0 or lo == 0.0:
            raise DegenerateBondError(f"bond {bond} has a vanishing amplitude")
        anti = _bond_is_anti(regime, split, bond)
        log_mag[k + 1] = log_mag[k] + 0.5 * (np.log(abs(lo)) - np.log(abs(up)))
        quarter[k + 1] = (quarter[k] + 1) % 4 if anti else quarter[k]
    return GaugeVector(log_mag, sign, quarter, block_starts)


def _bond_is_anti(regime: Regime, split: int | None, bond: int) -> bool:
    """Anti bonds are decided by position relative to the split, not by the
    floating sign of the product, so a snapped near-integer split bond never
    leaks into a block interior."""
    if regime.kind in (RegimeKind.HERMITIAN, RegimeKind.FULLY_HERMITIZABLE):
        return False
    if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE:
        return True
    return bond > split


def hermitize(params: LatticeParams) -> BlockDecomposition:
    """Split the gauged chain into a symmetric and an anti-symmetric block.

    The physical spectrum of the decoupled case is the eigenvalues of
    block_a together with i times the eigenvalues of block_b.  For
    non-integer |t/gamma| the blocks stay coupled through (a, b) and their
    union only approximates the spectrum.
    """
    if params.boundary is Boundary.PBC:
        raise RegimeMismatchError("the open-chain gauge does not close around a ring")
    regime = classify_regime(params)
    h = build_hamiltonian(params)
    n = params.length
    split = _split_site(regime)
    off = np.sign(h.upper) * np.sqrt(np.abs(h.upper * h.lower))
    # Block A holds sites 1..p: all of a symmetrizable chain, none of an
    # anti-symmetrizable one.  Bond p joins the blocks and belongs to neither.
    if split is None:
        p = 0 if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE else n
        coupling = BlockCoupling(0.0, 0.0)
    else:
        p = split
        gauge = gauge_vector(params)
        d_split = np.exp(gauge.log_mag[p - 1])  # d at site p (1-indexed), real positive
        a = h.upper[p - 1] / d_split
        if regime.kind is RegimeKind.INTEGER_SPLIT:
            b = 0.0  # backward amplitude t - gamma*m vanishes at the split
        else:
            b = h.lower[p - 1] * d_split
        coupling = BlockCoupling(float(a), float(b))
    return BlockDecomposition(
        block_a=SymTridiag(np.zeros(p), off[: max(p - 1, 0)]),
        block_b=SymTridiag(np.zeros(n - p), off[p:], imaginary_unit=True),
        coupling=coupling,
        decoupled=regime.decoupled,
    )


def balanced_form(params: LatticeParams) -> tuple[np.ndarray, GaugeVector]:
    """Complex symmetric tridiagonal similar to the open chain.

    Returns the off-diagonal entries (diagonal is zero) together with the
    continuation gauge mapping its eigenvectors back: bonds with positive
    product become sgn(t_j) sqrt(t_j t'_j), bonds with negative product
    i sgn(t_j) sqrt(|t_j t'_j|).  All entries stay of order of the raw
    amplitudes, which is what makes the dense solve well behaved.
    """
    regime = classify_regime(params)
    if regime.kind is RegimeKind.INTEGER_SPLIT:
        raise DegenerateBondError(
            "integer |t/gamma| has an exactly vanishing bond; use hermitize"
        )
    gauge = gauge_vector(params, restart=False)
    h = build_hamiltonian(
        LatticeParams(params.t, params.gamma, params.length, Boundary.OBC)
    )
    split = _split_site(regime)
    bonds = np.arange(1, params.length)
    anti = np.array([_bond_is_anti(regime, split, b) for b in bonds])
    mag = np.sign(h.upper) * np.sqrt(np.abs(h.upper * h.lower))
    entries = np.where(anti, 1.0j * mag, mag + 0.0j)
    return entries, gauge


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
    unit = np.ones(gauge.length, dtype=complex)
    nz = amp > 0.0
    unit[nz] = w[nz] / amp[nz]
    out = np.exp(log_v - shift) * unit * gauge.phases()
    return out


def gauged_hamiltonian_dense(params: LatticeParams) -> np.ndarray:
    """Dense D^-1 H D with the restarted gauge; small-chain inspection aid."""
    gauge = gauge_vector(params)
    d = gauge.values()
    h = build_hamiltonian(params).to_dense()
    return (h * d[None, :]) / d[:, None]
