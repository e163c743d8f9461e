"""Lattice Hamiltonians with linearly ramped nonreciprocal hopping.

The chain couples neighboring sites j and j+1 (sites counted from 1) through
a forward amplitude t + gamma*j and a backward amplitude t - gamma*j.  The
sign of the bond product (t + gamma*j)(t - gamma*j) = t^2 - gamma^2 j^2
decides whether a bond can be symmetrized or anti-symmetrized by a diagonal
gauge, which is what the regime classification below encodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

# |t/gamma| counts as an integer when within this relative distance of one.
INTEGER_RATIO_RTOL = 1e-12


class Boundary(str, Enum):
    OBC = "obc"
    PBC = "pbc"


class RegimeKind(Enum):
    HERMITIAN = "hermitian"
    FULLY_HERMITIZABLE = "fully_hermitizable"
    INTEGER_SPLIT = "integer_split"
    NON_INTEGER_SPLIT = "non_integer_split"
    FULLY_ANTI_HERMITIZABLE = "fully_anti_hermitizable"


@dataclass(frozen=True)
class LatticeParams:
    """Physical specification of the chain."""

    t: float = 1.0
    gamma: float = 0.0
    length: int = 2
    boundary: Boundary = Boundary.OBC

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.gamma)):
            raise ValueError("t and gamma must be finite")
        # 2L (|t| + |gamma| L)^2 bounds ||H||_F^2 and every bond product; an L
        # past float range makes it inf
        n = float(self.length) if self.length < 2**1023 else math.inf
        largest = abs(self.t) + abs(self.gamma) * n
        if not math.isfinite(2.0 * n * largest * largest):
            raise ValueError("t, gamma and length overflow the matrix norm")
        min_length = 3 if self.boundary is Boundary.PBC else 2
        if self.length < min_length:
            raise ValueError(
                f"length must be >= {min_length} for {self.boundary.value}"
            )


@dataclass(frozen=True)
class Regime:
    """Which solution path applies to a given parameter set.

    ``split`` is the last site of the symmetrizable region: the integer m
    with |t/gamma| = m for INTEGER_SPLIT, floor(|t/gamma|) for
    NON_INTEGER_SPLIT, and None otherwise.
    """

    kind: RegimeKind
    split: int | None = None

    @property
    def decoupled(self) -> bool:
        """True when the chain separates into independent blocks."""
        return self.kind is not RegimeKind.NON_INTEGER_SPLIT


def classify_regime(params: LatticeParams) -> Regime:
    """Classify the parameter regime of a valid ``LatticeParams``.

    Uses |t/gamma| throughout, so negative t or gamma map onto the same
    regimes as their mirrored counterparts.
    """
    if params.gamma == 0.0:
        return Regime(RegimeKind.HERMITIAN)
    ratio = abs(params.t / params.gamma)
    if ratio >= params.length:  # also covers an overflowed quotient
        return Regime(RegimeKind.FULLY_HERMITIZABLE)
    nearest = round(ratio)
    if nearest >= 1 and abs(ratio - nearest) < INTEGER_RATIO_RTOL * max(1.0, ratio):
        if nearest >= params.length:
            return Regime(RegimeKind.FULLY_HERMITIZABLE)
        return Regime(RegimeKind.INTEGER_SPLIT, split=int(nearest))
    s = int(math.floor(ratio))
    if s == 0:
        return Regime(RegimeKind.FULLY_ANTI_HERMITIZABLE)
    return Regime(RegimeKind.NON_INTEGER_SPLIT, split=s)


def split_point(params: LatticeParams) -> tuple[Regime, int]:
    """The regime and p, the number of sites left of the split bond.

    p is L for a symmetrizable chain and 0 for an anti-symmetrizable one.
    Every bond past p is anti-symmetrizable by position, not by the floating
    sign of t_j t'_j, so a snapped near-integer split bond stays out of both
    blocks.
    """
    regime = classify_regime(params)
    if regime.split is not None:
        return regime, regime.split
    return regime, 0 if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE else params.length


def binary_scale(values: np.ndarray, axis: int | None = None):
    """A power of two that brings the largest |value| (along ``axis``) into
    [0.5, 1), or 1.0 where all are zero.

    Dividing by it is exact for every value that stays a normal float, so
    squares and products of the scaled values neither underflow nor
    overflow at any size of t and gamma, and multiplying a result back by
    the right power undoes it exactly.
    """
    top = np.max(np.abs(values), axis=axis, initial=0.0)
    # np.minimum and np.maximum cost a fifth of np.clip on a scalar
    return np.ldexp(1.0, np.minimum(np.maximum(np.frexp(top)[1], -1020), 1020))


@dataclass(frozen=True, eq=False)
class BandedHamiltonian:
    """Zero-diagonal tridiagonal matrix, optionally closed into a ring.

    ``upper[k]`` is the entry at (k, k+1) and ``lower[k]`` the entry at
    (k+1, k) in 0-based indexing, i.e. the bond j = k+1 amplitudes
    t + gamma*j and t - gamma*j.  ``corner_up`` continues the forward
    family at (L-1, 0) and ``corner_down`` the backward family at
    (0, L-1); a unit ``boundary_phase`` e^{i theta} multiplies corner_up
    and its conjugate multiplies corner_down.
    """

    length: int
    upper: np.ndarray
    lower: np.ndarray
    corner_up: float | None = None
    corner_down: float | None = None
    boundary_phase: complex = 1.0 + 0.0j

    @property
    def is_pbc(self) -> bool:
        return self.corner_up is not None

    def effective_corners(self) -> tuple[complex, complex]:
        """Corner entries with the flux twist applied: (at [L-1,0], at [0,L-1])."""
        if not self.is_pbc:
            return 0.0 + 0.0j, 0.0 + 0.0j
        phase = complex(self.boundary_phase)
        return self.corner_up * phase, self.corner_down * phase.conjugate()

    def to_dense(self) -> np.ndarray:
        h = np.zeros((self.length, self.length), dtype=complex)
        idx = np.arange(self.length - 1)
        h[idx, idx + 1] = self.upper
        h[idx + 1, idx] = self.lower
        if self.is_pbc:
            cu, cd = self.effective_corners()
            h[-1, 0] += cu
            h[0, -1] += cd
        return h

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H @ v for a vector or an (L, k) block of columns."""
        v = np.asarray(v)
        rows = (slice(None),) + (None,) * (v.ndim - 1)
        out = np.zeros(v.shape, dtype=np.result_type(v.dtype, complex))
        out[:-1] += self.upper[rows] * v[1:]
        out[1:] += self.lower[rows] * v[:-1]
        if self.is_pbc:
            cu, cd = self.effective_corners()
            out[-1] += cu * v[0]
            out[0] += cd * v[-1]
        return out

    def frobenius_norm(self) -> float:
        corners = [self.corner_up, self.corner_down] if self.is_pbc else []
        scale = float(binary_scale(np.concatenate((self.upper, self.lower, corners))))
        upper, lower = self.upper / scale, self.lower / scale
        total = float(np.sum(upper**2) + np.sum(lower**2))
        for corner in corners:
            total += (corner / scale) ** 2
        return math.sqrt(total) * scale


def bond_amplitudes(t: float, gamma: float, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Forward and backward amplitudes for bonds j = 1..length-1."""
    j = np.arange(1, length, dtype=float)
    return t + gamma * j, t - gamma * j


def build_hamiltonian(params: LatticeParams) -> BandedHamiltonian:
    """Assemble the ramped-hopping matrix for the requested boundary.

    The ring closure continues the linear law to the bond j = L connecting
    site L back to site 1, i.e. corner amplitudes t +- gamma*L.
    """
    upper, lower = bond_amplitudes(params.t, params.gamma, params.length)
    if params.boundary is Boundary.PBC:
        return BandedHamiltonian(
            length=params.length,
            upper=upper,
            lower=lower,
            corner_up=params.t + params.gamma * params.length,
            corner_down=params.t - params.gamma * params.length,
        )
    return BandedHamiltonian(length=params.length, upper=upper, lower=lower)


def build_flux_twisted(params: LatticeParams, theta: float) -> BandedHamiltonian:
    """Ring Hamiltonian with flux theta threaded through the closure bond."""
    if params.boundary is not Boundary.PBC:
        raise ValueError("flux insertion requires periodic boundary conditions")
    phase = complex(math.cos(theta), math.sin(theta))
    return replace(build_hamiltonian(params), boundary_phase=phase)


def build_hatano_nelson(
    t: float, gamma: float, length: int, boundary: Boundary = Boundary.OBC
) -> BandedHamiltonian:
    """Constant-nonreciprocity chain used as the comparison baseline.

    Every bond carries forward amplitude t - gamma and backward amplitude
    t + gamma, the ring closure included.
    """
    params = LatticeParams(t=t, gamma=gamma, length=length, boundary=boundary)
    upper = np.full(length - 1, t - gamma, dtype=float)
    lower = np.full(length - 1, t + gamma, dtype=float)
    if params.boundary is Boundary.PBC:
        return BandedHamiltonian(
            length=length,
            upper=upper,
            lower=lower,
            corner_up=t - gamma,
            corner_down=t + gamma,
        )
    return BandedHamiltonian(length=length, upper=upper, lower=lower)
