"""Spectrum solver for the ramped chain, and its block overlay.

Every chain goes to ``eig_general``: an even ring to LAPACK on the half-size
block of H^2 (an odd ring to LAPACK on H), an open chain to the half-size
sublattice route, which cuts it only at bonds whose product vanishes
exactly, so each answer belongs to the matrix as built.  The block
spectra are the levels of the open chain's two pieces on either side of the
split bond, from that same route.
"""

from __future__ import annotations

import numpy as np

from .eigen import Spectrum, eig_general
from .errors import RegimeMismatchError
from .model import BandedHamiltonian, Boundary, LatticeParams, build_hamiltonian, split_point


def solve_spectrum(params: LatticeParams, want_vectors: bool = False) -> Spectrum:
    """Full spectrum (optionally with right eigenvectors) of the chain."""
    return eig_general(build_hamiltonian(params), want_vectors)


def block_spectra(params: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the two gauge blocks: (real block, i * anti block).

    These are the levels of the open chain's sites 1..p and p+1..L, with
    the split bond p left out: the gauge keeps every bond product u_j l_j,
    which is all the levels depend on.  For decoupled regimes their union is
    the exact spectrum; for non-integer |t/gamma| it is the approximation
    the coupled chain is compared against.
    """
    if params.boundary is Boundary.PBC:
        raise RegimeMismatchError("the block split is defined on the open chain only")
    _, p = split_point(params)
    h = build_hamiltonian(params)
    inner = slice(0, max(p - 1, 0))
    left = BandedHamiltonian(p, h.upper[inner], h.lower[inner])
    right = BandedHamiltonian(h.length - p, h.upper[p:], h.lower[p:])
    return eig_general(left).eigenvalues.real, eig_general(right).eigenvalues
