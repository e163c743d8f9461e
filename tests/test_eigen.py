import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramphop import (
    Boundary,
    LatticeParams,
    SymTridiag,
    build_flux_twisted,
    build_hamiltonian,
    det_shifted,
    eig_general,
    eig_sym_tridiag,
    residual,
    solve_spectrum,
    spectral_moments,
)
from ramphop.eigen import RESIDUAL_RTOL, SpectrumSource
from _oracles import charpoly, contour_roots, dense_matrix, max_pairing_gap


def _sym(offdiag, diag=None):
    off = np.asarray(offdiag, dtype=float)
    d = np.zeros(len(off) + 1) if diag is None else np.asarray(diag, dtype=float)
    return SymTridiag(diag=d, offdiag=off)


class TestSymTridiag:
    def test_zero_matrix(self):
        spec = eig_sym_tridiag(_sym([0.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [0.0, 0.0, 0.0])
        assert spec.source is SpectrumSource.SYM_TRIDIAG

    def test_uniform_open_chain_closed_form(self):
        spec = eig_sym_tridiag(_sym(np.ones(9)))
        n = np.arange(1, 11)
        expected = np.sort(2.0 * np.cos(n * np.pi / 11.0))
        assert np.allclose(spec.eigenvalues.real, expected, atol=1e-13)

    def test_empty_and_single_site(self):
        assert eig_sym_tridiag(_sym([])).size == 1
        empty = eig_sym_tridiag(SymTridiag(np.zeros(0), np.zeros(0)))
        assert empty.size == 0

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(11)
        block = SymTridiag(rng.standard_normal(40), rng.standard_normal(39))
        spec = eig_sym_tridiag(block, want_vectors=True)
        v = spec.eigenvectors.real
        assert np.max(np.abs(v.T @ v - np.eye(40))) < 1e-9
        assert np.max(spec.residuals) < 1e-12

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_library_on_random_blocks(self, n, seed):
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal(n)
        off = rng.standard_normal(max(n - 1, 0))
        spec = eig_sym_tridiag(SymTridiag(diag, off))
        dense = np.diag(diag)
        if n > 1:
            dense += np.diag(off, 1) + np.diag(off, -1)
        ref = np.linalg.eigvalsh(dense)
        assert np.allclose(spec.eigenvalues.real, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))


class TestGeneralSolver:
    def test_one_by_one(self):
        spec = eig_general(np.array([[2.0 + 3.0j]]))
        assert spec.eigenvalues[0] == 2.0 + 3.0j

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_general(np.zeros((2, 3)))

    @given(st.integers(min_value=2, max_value=18), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_library_on_random_dense(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mine = eig_general(a).eigenvalues
        ref = np.linalg.eigvals(a)
        assert max_pairing_gap(mine, ref) < 1e-9 * max(1.0, float(np.abs(ref).max()))

    def test_non_integer_chain_spectrum_lies_on_the_axes(self):
        params = LatticeParams(t=1.0, gamma=0.07, length=100)
        lam = eig_general(build_hamiltonian(params)).eigenvalues
        on_axis = (np.abs(lam.real) < 1e-6) | (np.abs(lam.imag) < 1e-6)
        assert np.all(on_axis)

    def test_weak_ramp_ring_spectrum_is_a_loop(self):
        params = LatticeParams(t=1.0, gamma=0.001, length=100, boundary=Boundary.PBC)
        lam = eig_general(build_hamiltonian(params)).eigenvalues
        assert np.min(np.abs(lam)) > 1e-3  # encircles but avoids the origin
        assert np.max(np.abs(lam.imag)) > 1e-3  # genuinely off the real axis

    def test_eigenvectors_by_inverse_iteration(self):
        params = LatticeParams(t=1.0, gamma=0.013, length=60)
        h = build_hamiltonian(params)
        spec = eig_general(h, want_vectors=True)
        assert not np.any(spec.unconverged)
        assert np.max(spec.residuals) < 1e-8 * h.frobenius_norm()

    def test_seeded_runs_are_reproducible(self):
        params = LatticeParams(t=1.0, gamma=0.3, length=12, boundary=Boundary.PBC)
        h = build_hamiltonian(params)
        s1 = eig_general(h, want_vectors=True, seed=3)
        s2 = eig_general(h, want_vectors=True, seed=3)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


class TestDeterminant:
    def test_two_site_chain(self):
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=0.5, length=2))
        det = det_shifted(h, 0.0)
        assert det.value() == pytest.approx(-0.75)

    def test_odd_uniform_chain_has_zero_mode(self):
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=0.0, length=3))
        assert det_shifted(h, 0.0).value() == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_at_computed_eigenvalues(self):
        params = LatticeParams(t=1.0, gamma=0.09, length=24)
        h = build_hamiltonian(params)
        lam = eig_general(h).eigenvalues
        for z in lam[::5]:
            det = det_shifted(h, complex(z))
            # |det| over the product of distances to the other eigenvalues
            # estimates the distance to the nearest root
            others = lam[np.abs(lam - z) > 1e-8]
            log_rest = float(np.sum(np.log(np.abs(others - z))))
            assert math.exp(det.log_abs - log_rest) < 1e-6 * h.frobenius_norm()

    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.integers(min_value=3, max_value=11),
        st.booleans(),
        st.floats(min_value=0.0, max_value=6.28),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_library_determinant(self, t, gamma, length, pbc, theta, zr, zi):
        boundary = Boundary.PBC if pbc else Boundary.OBC
        params = LatticeParams(t=t, gamma=gamma, length=length, boundary=boundary)
        if pbc and theta != 0.0:
            h = build_flux_twisted(params, theta)
        else:
            h = build_hamiltonian(params)
        z = complex(zr, zi)
        mine = det_shifted(h, z).value()
        shifted = h.to_dense() - z * np.eye(length)
        ref = np.linalg.det(shifted)
        # roundoff of either determinant scales with the Hadamard bound
        hadamard = float(np.prod(np.linalg.norm(shifted, axis=1)))
        assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12 * max(1.0, hadamard))


class TestMoments:
    def test_uniform_chain_second_moment(self):
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=0.0, length=10))
        assert spectral_moments(h).trace_sq == pytest.approx(18.0)

    def test_ramped_chain_second_moment_closed_form(self):
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=0.02, length=100))
        j = np.arange(1, 100, dtype=float)
        expected = 2.0 * np.sum(1.0 - 0.0004 * j * j)
        assert spectral_moments(h).trace_sq == pytest.approx(expected)

    def test_flux_does_not_change_moments(self):
        params = LatticeParams(t=1.0, gamma=0.2, length=8, boundary=Boundary.PBC)
        m0 = spectral_moments(build_hamiltonian(params))
        m1 = spectral_moments(build_flux_twisted(params, 1.1))
        assert m0.trace_sq == pytest.approx(m1.trace_sq)

    def test_eigenvalue_sums_match_traces(self):
        params = LatticeParams(t=1.1, gamma=0.37, length=30)
        h = build_hamiltonian(params)
        lam = eig_general(h).eigenvalues
        mom = spectral_moments(h)
        fro = h.frobenius_norm()
        assert abs(np.sum(lam)) < 1e-9 * params.length * fro
        assert abs(np.sum(lam**2) - mom.trace_sq) <= 1e-6 * abs(mom.trace_sq)

    def test_log_determinant_identity(self):
        params = LatticeParams(t=1.1, gamma=0.4, length=8)
        h = build_hamiltonian(params)
        lam = eig_general(h).eigenvalues
        mom = spectral_moments(h)
        assert np.sum(np.log(np.abs(lam))) == pytest.approx(mom.log_abs_det, rel=1e-6)


class TestResidual:
    def test_exact_eigenpair(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex)
        v = np.array([1.0, 0.0], dtype=complex)
        assert residual(a, 2.0, v) < 1e-14

    def test_grows_linearly_in_perturbation(self):
        a = np.array([[2.0, 1.0], [0.0, 3.0]], dtype=complex)
        v = np.array([1.0, 0.0], dtype=complex)
        w = np.array([0.0, 1.0], dtype=complex)
        r1 = residual(a, 2.0, v + 1e-6 * w)
        r2 = residual(a, 2.0, v + 2e-6 * w)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-3)

    def test_zero_vector_rejected(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            residual(a, 1.0, np.zeros(2))

    def test_solver_self_check_at_scale(self):
        params = LatticeParams(t=1.0, gamma=0.011, length=100)
        h = build_hamiltonian(params)
        spec = eig_general(h, want_vectors=True)
        assert np.max(spec.residuals) < 1e-8 * h.frobenius_norm()


def test_contour_oracle_agreement_small_instance():
    params = LatticeParams(t=1.2, gamma=0.7, length=5, boundary=Boundary.PBC)
    h = build_hamiltonian(params)
    mine = eig_general(h).eigenvalues
    roots = contour_roots(charpoly(dense_matrix(1.2, 0.7, 5, pbc=True)), 5)
    assert max_pairing_gap(mine, roots) < 1e-8


def test_constant_nonreciprocity_is_exactly_rebalanced():
    # the strong-ramp comparison chain: norm balancing alone cannot see the
    # directional imbalance, the magnitude gauge must recover pure axes
    from ramphop import build_hatano_nelson

    strong = eig_general(build_hatano_nelson(1.0, 1.5, 50)).eigenvalues
    assert np.max(np.abs(strong.real)) < 1e-10
    weak = eig_general(build_hatano_nelson(1.0, 0.5, 50)).eigenvalues
    assert np.max(np.abs(weak.imag)) < 1e-10


def test_long_ring_spectrum_meets_the_trace_identities():
    # panel 5a's ring: eigenvalue condition numbers reach 1e16 here, so only
    # a backward-stable solver keeps the moments
    params = LatticeParams(t=1.0, gamma=0.01, length=200, boundary=Boundary.PBC)
    h = build_hamiltonian(params)
    spec = eig_general(h, want_vectors=True)
    lam = spec.eigenvalues
    mom = spectral_moments(h)
    fro = h.frobenius_norm()
    assert abs(np.sum(lam)) <= 1e-9 * params.length * fro
    assert abs(np.sum(lam**2) - mom.trace_sq) <= 1e-6 * abs(mom.trace_sq) + 1e-9 * fro**2
    assert not np.any(spec.unconverged)
    assert np.max(spec.residuals) <= RESIDUAL_RTOL * fro


def test_long_open_chain_eigenvectors_all_converge():
    # integer split at 100: both gauge blocks' QL eigenvectors are ungauged
    # in log space, and only their componentwise accuracy keeps every pair
    # within tolerance (LAPACK eigh vectors stall here)
    params = LatticeParams(t=1.0, gamma=0.01, length=200)
    spec = solve_spectrum(params, want_vectors=True)
    assert not np.any(spec.unconverged)
    assert np.max(spec.residuals) <= RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()
