import numpy as np
import pytest
from hypothesis import given, settings

from ramphop import (
    Boundary,
    EigenClass,
    LatticeParams,
    RegimeKind,
    block_spectra,
    build_hamiltonian,
    classify,
    classify_regime,
    eig_general,
    solve_spectrum,
)
from ramphop.eigen import RESIDUAL_RTOL
from _oracles import complex_symmetric_levels, gauge_block_levels, max_pairing_gap
from _strategies import open_ramps


def _residual_tol(params):
    return 1e-8 * build_hamiltonian(params).frobenius_norm()


@pytest.mark.parametrize(
    "params",
    [
        LatticeParams(t=1.0, gamma=0.0, length=30),
        LatticeParams(t=1.0, gamma=0.012, length=40),
        LatticeParams(t=1.0, gamma=0.25, length=12),
        LatticeParams(t=1.0, gamma=0.21, length=12),
        LatticeParams(t=1.0, gamma=1.7, length=20),
        LatticeParams(t=-1.3, gamma=0.4, length=11),
        LatticeParams(t=1.0, gamma=-0.23, length=13),
        LatticeParams(t=1.0, gamma=0.3, length=10, boundary=Boundary.PBC),
    ],
)
def test_routed_solver_agrees_with_general_solver(params):
    routed = solve_spectrum(params).eigenvalues
    general = eig_general(build_hamiltonian(params)).eigenvalues
    assert max_pairing_gap(routed, general) < _residual_tol(params)


@pytest.mark.parametrize(
    "params",
    [
        LatticeParams(t=1.0, gamma=0.012, length=40),
        LatticeParams(t=1.0, gamma=0.25, length=12),
        LatticeParams(t=1.0, gamma=0.21, length=12),
        LatticeParams(t=1.0, gamma=1.7, length=20),
        LatticeParams(t=1.0, gamma=0.3, length=10, boundary=Boundary.PBC),
        LatticeParams(t=-1.3, gamma=0.4, length=11),
    ],
)
def test_routed_eigenvectors_have_small_residuals(params):
    spec = solve_spectrum(params, want_vectors=True)
    assert not np.any(spec.unconverged)
    assert np.max(spec.residuals) < _residual_tol(params)
    norms = np.linalg.norm(spec.eigenvectors, axis=0)
    assert np.allclose(norms, 1.0)


def test_integer_split_counts_follow_the_block_sizes():
    # nonzero block parity adds one zero mode, classified onto the real axis
    rng = np.random.default_rng(42)
    for _ in range(25):
        length = int(rng.integers(4, 40))
        m = int(rng.integers(1, length))
        t = float(rng.choice([1.0, -1.0]) * rng.uniform(0.5, 2.0))
        gamma = t / m
        params = LatticeParams(t=t, gamma=gamma, length=length)
        regime = classify_regime(params)
        assert regime.kind is RegimeKind.INTEGER_SPLIT and regime.split == m
        cs = classify(solve_spectrum(params))
        extra_zero = 1 if (length - m) % 2 == 1 else 0
        assert cs.counts.n_real == m + extra_zero
        assert cs.counts.n_imaginary == length - m - extra_zero


def test_odd_odd_integer_split_lists_its_jordan_zero_level_twice():
    # blocks of 5 and 95 sites each hold a zero level; rank H = 99 and
    # rank H^2 = 98 make the pair one 2x2 Jordan block with one eigenvector
    params = LatticeParams(t=1.0, gamma=0.2, length=100)
    h = build_hamiltonian(params)
    dense = h.to_dense()
    assert np.linalg.matrix_rank(dense) == 99
    assert np.linalg.matrix_rank(dense @ dense) == 98
    spec = solve_spectrum(params, want_vectors=True)
    assert not np.any(spec.unconverged)
    assert np.max(spec.residuals) <= RESIDUAL_RTOL * h.frobenius_norm()
    zero = np.argsort(np.abs(spec.eigenvalues))[:2]
    assert np.max(np.abs(spec.eigenvalues[zero])) < 1e-12
    v0, v1 = spec.eigenvectors[:, zero].T
    assert abs(np.vdot(v0, v1)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t, gamma, length", [(0.3, 0.1, 50), (0.7, 0.1, 12)])
def test_snapped_integer_split_solves_the_matrix_as_built(t, gamma, length):
    # |t/gamma| is an integer within the regime's 1e-12, but the split bond
    # products are -3.3e-17 and -1.6e-16, not 0: the levels must be this
    # matrix's, not those of its two blocks
    params = LatticeParams(t=t, gamma=gamma, length=length)
    h = build_hamiltonian(params)
    spec = solve_spectrum(params, want_vectors=True)
    assert not np.any(spec.unconverged)
    oracle = complex_symmetric_levels(t, gamma, length)
    assert max_pairing_gap(spec.eigenvalues, oracle) <= RESIDUAL_RTOL * h.frobenius_norm()


@given(open_ramps())
@settings(max_examples=150, deadline=None)
def test_block_spectra_match_the_dense_gauge_blocks(ramp):
    t, gamma, length = ramp
    params = LatticeParams(t=t, gamma=gamma, length=length)
    tol = RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()
    sigma_a, sigma_b = block_spectra(params)
    ref_a, ref_b = gauge_block_levels(params)
    assert len(sigma_a) == len(ref_a) and len(sigma_b) == len(ref_b)
    assert max_pairing_gap(sigma_a, ref_a) <= tol
    assert max_pairing_gap(sigma_b, ref_b) <= tol


def test_block_spectra_shapes_and_reality():
    sigma_a, sigma_b = block_spectra(LatticeParams(t=1.0, gamma=0.02, length=100))
    assert len(sigma_a) == 50 and len(sigma_b) == 50
    assert np.all(np.abs(np.asarray(sigma_b).real) < 1e-14)


def test_fully_anti_route_is_purely_imaginary():
    spec = solve_spectrum(LatticeParams(t=1.0, gamma=1.5, length=50))
    assert np.max(np.abs(spec.eigenvalues.real)) < 1e-12


def test_purely_antisymmetric_chain_solves_without_the_gauge():
    # t = 0 leaves the gauge ratio undefined; the solver falls back cleanly
    params = LatticeParams(t=0.0, gamma=0.5, length=10)
    spec = solve_spectrum(params, want_vectors=True)
    assert np.max(np.abs(spec.eigenvalues.real)) < 1e-12
    assert not np.any(spec.unconverged)


def test_spectrum_is_sorted_lexicographically():
    spec = solve_spectrum(LatticeParams(t=1.0, gamma=0.21, length=12))
    keys = [(z.real, z.imag) for z in spec.eigenvalues]
    assert keys == sorted(keys)


def test_classified_real_values_match_first_block():
    params = LatticeParams(t=1.0, gamma=0.02, length=100)
    sigma_a, _ = block_spectra(params)
    cs = classify(solve_spectrum(params))
    real_values = np.sort(cs.values(EigenClass.REAL).real)
    assert np.allclose(real_values, np.sort(sigma_a), atol=1e-10)
