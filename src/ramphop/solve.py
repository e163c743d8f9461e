"""Regime-routed spectrum solver for the ramped chain.

Open chains are solved through the gauge transform whenever it decouples
(symmetric-tridiagonal blocks, exact real/imaginary eigenvalues), and their
eigenvectors are ungauged back to the physical frame in log space.  The
coupled non-integer case and rings go through the general solver, which
takes open-chain eigenvalues from the gauge-similar complex-symmetric form
and computes their eigenvectors by inverse iteration in the physical frame.
"""

from __future__ import annotations

import numpy as np

from .eigen import (
    RESIDUAL_RTOL,
    Spectrum,
    SpectrumSource,
    _ShiftedBandedSolver,
    eig_general,
    eig_sym_tridiag,
)
from .gauge import gauge_vector, hermitize, ungauge
from .model import (
    BandedHamiltonian,
    Boundary,
    LatticeParams,
    RegimeKind,
    build_hamiltonian,
    classify_regime,
)


def _column_normalize(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=0)[None, :]


def _finish(h, eigenvalues, vectors) -> Spectrum:
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    residuals = None
    unconverged = None
    if vectors is not None:
        vectors = _column_normalize(vectors[:, order])
        residuals = np.linalg.norm(
            h.matvec(vectors) - vectors * eigenvalues[None, :], axis=0
        )
        unconverged = residuals > RESIDUAL_RTOL * h.frobenius_norm()
    return Spectrum(
        eigenvalues=eigenvalues,
        eigenvectors=vectors,
        residuals=residuals,
        source=SpectrumSource.SYM_TRIDIAG,
        unconverged=unconverged,
    )


def solve_spectrum(
    params: LatticeParams, want_vectors: bool = False, seed: int = 0
) -> Spectrum:
    """Full spectrum (optionally with right eigenvectors) of the chain."""
    h = build_hamiltonian(params)
    if params.boundary is Boundary.PBC:
        return eig_general(h, want_vectors, seed=seed)
    regime = classify_regime(params)

    if regime.kind in (RegimeKind.HERMITIAN, RegimeKind.FULLY_HERMITIZABLE):
        dec = hermitize(params)
        spec = eig_sym_tridiag(dec.block_a, want_vectors)
        vectors = None
        if want_vectors:
            ga = gauge_vector(params)
            vectors = np.column_stack(
                [ungauge(ga, spec.eigenvectors[:, i]) for i in range(spec.size)]
            )
        return _finish(h, spec.eigenvalues, vectors)

    if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE:
        if params.t == 0.0:
            # purely antisymmetric chain; the gauge ratio is degenerate but
            # the general solver handles the matrix directly
            return eig_general(h, want_vectors, seed=seed)
        dec = hermitize(params)
        spec = eig_sym_tridiag(dec.block_b, want_vectors)
        vectors = None
        if want_vectors:
            ga = gauge_vector(params)
            vectors = np.column_stack(
                [ungauge(ga, spec.eigenvectors[:, i]) for i in range(spec.size)]
            )
        return _finish(h, 1j * spec.eigenvalues, vectors)

    if regime.kind is RegimeKind.INTEGER_SPLIT:
        return _solve_integer_split(params, h, regime.split, want_vectors)

    return eig_general(h, want_vectors, seed=seed)


def _solve_integer_split(params, h, m, want_vectors) -> Spectrum:
    dec = hermitize(params)
    spec_a = eig_sym_tridiag(dec.block_a, want_vectors)
    spec_b = eig_sym_tridiag(dec.block_b, want_vectors)
    eigenvalues = np.concatenate([spec_a.eigenvalues, 1j * spec_b.eigenvalues])
    vectors = None
    if want_vectors:
        ga = gauge_vector(params)
        n = params.length
        cols = []
        for i in range(spec_a.size):
            padded = np.zeros(n, dtype=complex)
            padded[:m] = spec_a.eigenvectors[:, i]
            cols.append(ungauge(ga, padded))
        # Eigenstates of the anti block leak back into the first block through
        # the forward amplitude of the split bond: solve the triangular
        # coupling in the gauge frame, carrying the split gauge magnitude as
        # a log shift so nothing overflows.
        off_a = dec.block_a.offdiag
        block_a = BandedHamiltonian(length=m, upper=off_a, lower=off_a)
        log_shift = np.zeros(n)
        log_shift[:m] = -ga.log_mag[m - 1]
        for i in range(spec_b.size):
            mu = spec_b.eigenvalues[i].real
            w_b = spec_b.eigenvectors[:, i]
            rhs = np.zeros(m, dtype=complex)
            rhs[m - 1] = -h.upper[m - 1] * w_b[0]
            tail = _ShiftedBandedSolver(block_a, 1j * mu).solve(rhs)
            padded = np.concatenate([tail, w_b.astype(complex)])
            cols.append(ungauge(ga, padded, log_scale=log_shift))
        vectors = np.column_stack(cols)
    return _finish(h, eigenvalues, vectors)


def block_spectra(params: LatticeParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the two gauge blocks: (real block, i * anti block).

    For decoupled regimes their union is the exact spectrum; for non-integer
    |t/gamma| it is the approximation the coupled chain is compared against.
    """
    dec = hermitize(params)
    sigma_a = eig_sym_tridiag(dec.block_a).eigenvalues.real
    sigma_b = 1j * eig_sym_tridiag(dec.block_b).eigenvalues
    return sigma_a, sigma_b
