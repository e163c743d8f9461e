"""Regime-routed spectrum solver for the ramped chain.

Rings and coupled open chains (non-integer split) go to the general solver.
Every other open chain decouples under the gauge transform: its exact real
and imaginary eigenvalues are those of the two symmetric gauge blocks, and
its eigenvectors come from the twisted factorization in the physical frame.
"""

from __future__ import annotations

import numpy as np

from .eigen import Spectrum, chain_spectrum, eig_general, eig_sym_tridiag
from .gauge import hermitize
from .model import Boundary, LatticeParams, build_hamiltonian, classify_regime


def solve_spectrum(params: LatticeParams, want_vectors: bool = False) -> Spectrum:
    """Full spectrum (optionally with right eigenvectors) of the chain."""
    h = build_hamiltonian(params)
    if params.boundary is Boundary.PBC or not classify_regime(params).decoupled:
        return eig_general(h, want_vectors)
    sigma_a, sigma_b = block_spectra(params)
    return chain_spectrum(h, np.concatenate([sigma_a, sigma_b]), want_vectors)


def block_spectra(params: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the two gauge blocks: (real block, i * anti block).

    For decoupled regimes their union is the exact spectrum; for non-integer
    |t/gamma| it is the approximation the coupled chain is compared against.
    """
    dec = hermitize(params)
    sigma_a = eig_sym_tridiag(dec.block_a).eigenvalues.real
    sigma_b = 1j * eig_sym_tridiag(dec.block_b).eigenvalues
    return sigma_a, sigma_b
