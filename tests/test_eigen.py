import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramphop
from ramphop import (
    BandedHamiltonian,
    Boundary,
    LatticeParams,
    build_flux_twisted,
    build_hamiltonian,
    classify,
    det_shifted,
    eig_general,
    eig_sym_tridiag,
    residual,
    solve_spectrum,
    spectral_moments,
)
from ramphop.eigen import (
    RESIDUAL_RTOL,
    ScaledDeterminant,
    _continuant,
    _det_unit,
    _sprod,
    _twisted_vectors,
)
from ramphop.model import binary_scale
from _strategies import amplitudes, open_ramps
from _oracles import (
    bisected_level,
    charpoly,
    complex_symmetric_levels,
    conditioned_levels,
    contour_roots,
    dense_matrix,
    max_pairing_gap,
    nearest_first_gaps,
    scaled_det,
    scaled_product,
)

_EPS = float(np.finfo(float).eps)


def _sym(offdiag):
    off = np.asarray(offdiag, dtype=float)
    return BandedHamiltonian(len(off) + 1, off, off)


class TestSymTridiag:
    def test_zero_matrix(self):
        spec = eig_sym_tridiag(_sym([0.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [0.0, 0.0, 0.0])

    def test_uniform_open_chain_closed_form(self):
        spec = eig_sym_tridiag(_sym(np.ones(9)))
        n = np.arange(1, 11)
        expected = np.sort(2.0 * np.cos(n * np.pi / 11.0))
        assert np.allclose(spec.eigenvalues.real, expected, atol=1e-13)

    def test_empty_and_single_site(self):
        assert eig_sym_tridiag(_sym([])).size == 1
        empty = eig_sym_tridiag(BandedHamiltonian(0, np.zeros(0), np.zeros(0)), want_vectors=True)
        assert empty.size == 0
        assert empty.eigenvectors.shape == (0, 0)

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(11)
        spec = eig_sym_tridiag(_sym(rng.standard_normal(39)), want_vectors=True)
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(40))) < 1e-9
        assert np.max(spec.residuals) < 1e-12

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_library_on_random_blocks(self, n, seed):
        rng = np.random.default_rng(seed)
        off = rng.standard_normal(n - 1)
        spec = eig_sym_tridiag(_sym(off))
        dense = np.diag(off, 1) + np.diag(off, -1)
        ref = np.linalg.eigvalsh(dense)
        assert np.allclose(spec.eigenvalues.real, ref, atol=1e-10 * max(1.0, np.abs(ref).max()))


class TestGeneralSolver:
    def test_rejects_dense_input(self):
        with pytest.raises(TypeError):
            eig_general(np.zeros((2, 3)))
        with pytest.raises(TypeError):
            eig_general(np.eye(2, dtype=complex))

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

    def test_open_chain_eigenvectors_by_twisted_factorization(self):
        params = LatticeParams(t=1.0, gamma=0.013, length=60)
        h = build_hamiltonian(params)
        spec = eig_general(h, want_vectors=True)
        assert not np.any(spec.unconverged)
        assert np.max(spec.residuals) < 1e-8 * h.frobenius_norm()

    def test_seeded_runs_are_reproducible(self):
        params = LatticeParams(t=1.0, gamma=0.3, length=12, boundary=Boundary.PBC)
        h = build_hamiltonian(params)
        s1 = eig_general(h, want_vectors=True)
        s2 = eig_general(h, want_vectors=True)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _paired_route_matches_the_kernel(t, gamma, length):
    """Solve an open chain and check that each level of the second half
    takes its mirror's column with rows 1::2 negated.

    The first half must be the kernel's own columns, the second half the
    mirrors sign-flipped, exactly, with residuals equal to the mirrors' bit
    for bit; where the mirror took no pivot guard, |v| must also equal the
    kernel's own column for -lambda bit for bit.  Returns the chain, its
    levels and the guard mask of the first half.
    """
    h = build_hamiltonian(LatticeParams(t=t, gamma=gamma, length=length))
    spec = eig_general(h, want_vectors=True)
    lam, vectors = spec.eigenvalues, spec.eigenvectors
    assert np.array_equal(lam, -lam[::-1])
    half = len(lam) // 2
    first = len(lam) - half
    solved, guarded = _twisted_vectors(h.upper, h.lower, lam[:first])
    assert np.array_equal(_bits(vectors[:, :first]), _bits(solved))
    mirrors = vectors[:, :half][:, ::-1].copy()
    mirrors[1::2] = -mirrors[1::2]
    assert np.array_equal(_bits(vectors[:, first:]), _bits(mirrors))
    assert np.array_equal(_bits(spec.residuals[first:]), _bits(spec.residuals[:half][::-1]))
    plain = ~guarded[:half][::-1]
    own = _twisted_vectors(h.upper, h.lower, lam[first:])[0][:, plain]
    assert np.array_equal(_bits(np.abs(vectors[:, first:][:, plain])), _bits(np.abs(own)))
    return h, lam, guarded


class TestPairedVectors:
    """Open-chain eigenvectors solved on one level of each +-lambda pair."""

    @given(open_ramps())
    @settings(max_examples=150, deadline=None)
    def test_mirrored_columns_equal_the_kernel_on_every_level(self, ramp):
        _paired_route_matches_the_kernel(*ramp)

    @pytest.mark.parametrize(
        "t, gamma, length", [(1.0, 0.0, 101), (1.0, 0.0, 200), (1.0, -0.1, 200), (1.0, 0.02, 100)]
    )
    def test_partners_of_guarded_columns_are_mirrored_too(self, t, gamma, length):
        # these chains have first-half columns whose sweep hit the pivot guard
        _, lam, guarded = _paired_route_matches_the_kernel(t, gamma, length)
        assert guarded[: len(lam) // 2].any()

    @pytest.mark.parametrize(
        "t, gamma, length",
        [
            (1.0, 0.013, 51),  # odd: the zero level is its own partner
            (1.0, 0.02, 101),  # integer split, blocks of 50 and 51
            (1.0, 0.2, 100),  # odd-odd split: two zero levels
            (1.0, -0.02, 100),
            (-1.0, 0.1, 31),
            (0.7, 0.1, 100),  # an integer split only within rounding
        ],
    )
    def test_odd_chains_integer_splits_and_negative_ramps(self, t, gamma, length):
        _, lam, _ = _paired_route_matches_the_kernel(t, gamma, length)
        if length % 2:
            assert lam[length // 2] == 0.0


def _alternating_chain(length):
    """Symmetric open chain with bonds 0.3, 1.0, 0.3, ...: its two edge
    levels are about 0.3**(length / 2)."""
    bonds = np.where(np.arange(length - 1) % 2 == 0, 0.3, 1.0)
    return BandedHamiltonian(length, bonds, bonds.copy())


class TestOpenChainLevels:
    @given(open_ramps())
    @settings(max_examples=150, deadline=None)
    def test_levels_lie_exactly_on_the_axes_and_match_lapack(self, ramp):
        t, gamma, length = ramp
        h = build_hamiltonian(LatticeParams(t=t, gamma=gamma, length=length))
        lam = eig_general(h).eigenvalues
        assert classify(lam).counts.n_complex == 0
        assert np.all((lam.real == 0.0) | (lam.imag == 0.0))
        # the chain is cut at each exactly vanishing bond product, and each
        # piece of odd size lists its zero level as exactly 0.0
        cuts = np.flatnonzero(h.upper * h.lower == 0.0)
        sizes = np.diff(np.concatenate(([0], cuts + 1, [length])))
        assert np.count_nonzero(lam == 0.0) == np.count_nonzero(sizes % 2)
        oracle = complex_symmetric_levels(t, gamma, length)
        assert max_pairing_gap(lam, oracle) <= RESIDUAL_RTOL * h.frobenius_norm()

    @pytest.mark.parametrize("gamma, length", [(0.2 * (1 + 1e-9), 12), (1 / 3 * (1 + 1e-11), 14)])
    def test_levels_near_zero_keep_full_accuracy(self, gamma, length):
        # just past an odd/odd split one pair of levels is about 1e-5: its mu
        # sits near rounding of the largest mu, and sqrt(mu) alone is off by
        # 2e-13 and 3e-12 times ||H||_F here; the continuant polish and the
        # dense oracle agree to 5e-16
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=gamma, length=length))
        lam = eig_general(h).eigenvalues
        oracle = complex_symmetric_levels(1.0, gamma, length)
        assert max_pairing_gap(lam, oracle) <= 1e-14 * h.frobenius_norm()

    @pytest.mark.parametrize(
        "h, lo, hi, imaginary",
        [
            (build_hamiltonian(LatticeParams(t=0.7, gamma=0.1, length=100)), 1e-9, 1e-8, True),
            (_alternating_chain(40), 1e-11, 1e-10, False),
            (_alternating_chain(400), 1e-106, 1e-104, False),
        ],
        ids=["ramp-0.7-0.1-100", "alternating-40", "alternating-400"],
    )
    def test_tiny_level_pairs_match_a_high_precision_bisection(self, h, lo, hi, imaginary):
        # each chain has one pair +-x far below sqrt(eps) times its largest
        # level, so sqrt(mu) alone has no digit of x right, and a Newton step
        # in x only halves x while +-x lie close together
        pytest.importorskip("mpmath")
        exact = bisected_level(h.upper, h.lower, lo, hi, imaginary)
        lam = eig_general(h).eigenvalues
        part = lam.imag if imaginary else lam.real
        found = part[(part > lo) & (part < hi)]
        assert len(found) == 1
        assert abs(found[0] - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("t, gamma", [(2.5e150, 1e150), (2.5e-85, 1e-85)])
    def test_levels_at_extreme_scale_match_lapack(self, t, gamma):
        # w_i w_{i+1} is about 1e603 and 1e-339 here, outside float range
        h = build_hamiltonian(LatticeParams(t=t, gamma=gamma, length=5))
        lam = eig_general(h).eigenvalues
        oracle = complex_symmetric_levels(t, gamma, 5)
        assert max_pairing_gap(lam, oracle) <= RESIDUAL_RTOL * h.frobenius_norm()

    @pytest.mark.parametrize("exponent", [500, -280, -530])
    def test_levels_scale_exactly_with_a_power_of_two(self, exponent):
        # at 2**-530 the bond products u_j l_j themselves are subnormal
        def levels(scale):
            params = LatticeParams(t=2.5 * scale, gamma=scale, length=12)
            return eig_general(build_hamiltonian(params)).eigenvalues

        lam, base = levels(math.ldexp(1.0, exponent)), levels(1.0)
        assert np.array_equal(lam.real, np.ldexp(base.real, exponent))
        assert np.array_equal(lam.imag, np.ldexp(base.imag, exponent))

    def test_odd_coupled_chain_lists_one_exact_zero_level(self):
        lam = eig_general(build_hamiltonian(LatticeParams(t=1.0, gamma=0.07, length=101))).eigenvalues
        assert np.count_nonzero(lam == 0.0) == 1

    def test_odd_odd_split_lists_two_exact_zero_levels(self):
        # 1 - 0.04 * 25 is exactly 0.0: pieces of 25 and 75 sites, whose zero
        # levels are structural and not left to rounding
        lam = eig_general(build_hamiltonian(LatticeParams(t=1.0, gamma=0.04, length=100))).eigenvalues
        assert np.count_nonzero(lam == 0.0) == 2

    @pytest.mark.parametrize(
        "upper, lower, condition",
        [
            ([1.0, 1.0, 1.0], [1.0, -1.0, 1.0], "change sign more than once"),
            ([1.0j, 1.0], [1.0, 1.0], "non-real"),
        ],
    )
    def test_chain_without_a_symmetrizable_sublattice_is_rejected(self, upper, lower, condition):
        h = BandedHamiltonian(len(upper) + 1, np.array(upper), np.array(lower))
        with pytest.raises(ValueError, match=condition):
            eig_general(h)


@pytest.mark.parametrize("pbc", [False, True])
@pytest.mark.parametrize("exponent", [500, -520])
def test_norms_and_residuals_scale_exactly_with_a_power_of_two(exponent, pbc):
    # at 2**-520 the squares of the entries underflow
    boundary = Boundary.PBC if pbc else Boundary.OBC
    rng = np.random.default_rng(7)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)

    def measures(scale):
        params = LatticeParams(t=1.3 * scale, gamma=0.7 * scale, length=12, boundary=boundary)
        h = build_hamiltonian(params)
        worst = float(np.max(eig_general(h, want_vectors=True).residuals))
        return h.frobenius_norm(), residual(h, complex(0.3, 0.2) * scale, v), worst

    scaled, base = measures(math.ldexp(1.0, exponent)), measures(1.0)
    assert scaled == tuple(math.ldexp(x, exponent) for x in base)


def _full_route(h):
    """Levels of the ring from LAPACK on the whole matrix, sorted as eig_general sorts."""
    dense = h.to_dense()
    lam = np.linalg.eigvals(dense if dense.imag.any() else dense.real).astype(complex)
    return lam[np.lexsort((lam.imag, lam.real))]


class TestBipartiteRings:
    @given(
        st.integers(min_value=2, max_value=30),
        amplitudes,
        amplitudes,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2.0 * math.pi)),
    )
    @settings(max_examples=120, deadline=None)
    def test_even_rings_are_paired_converged_and_match_lapack(self, half, t, gamma, theta):
        length = 2 * half
        params = LatticeParams(t=t, gamma=gamma, length=length, boundary=Boundary.PBC)
        h = build_hamiltonian(params) if theta is None else build_flux_twisted(params, theta)
        spec = eig_general(h, want_vectors=True)
        lam, fro = spec.eigenvalues, h.frobenius_norm()
        dense = dense_matrix(t, gamma, length, pbc=True, theta=theta or 0.0)
        ref, radius = conditioned_levels(dense)
        # the smallest level against the cut-off of the half-size route:
        # eps**(1/4) of the largest level, or ||M||_F / (L ||H||_F)
        block = dense[0::2, 1::2] @ dense[1::2, 0::2]
        cutoff = max(
            _EPS**0.25 * np.max(np.abs(ref)),
            np.linalg.norm(block) / (length * np.linalg.norm(dense)) if dense.any() else 0.0,
        )
        # well clear of the cut-off on either side, the route is known: the
        # half-size route pairs the levels exactly, the full one is LAPACK on H
        if np.min(np.abs(ref)) > 4.0 * cutoff:
            assert np.sort_complex(lam).tobytes() == np.sort_complex(0.0 - lam).tobytes()
        elif np.min(np.abs(ref)) < 0.25 * cutoff:
            assert lam.tobytes() == _full_route(h).tobytes()
        assert not np.any(spec.unconverged)
        assert np.all(spec.residuals <= RESIDUAL_RTOL * fro)
        assert np.allclose(np.linalg.norm(spec.eigenvectors, axis=0), 1.0)
        # the gap holds the errors of both solvers, each a small multiple of
        # the radius: at L = 4, LAPACK on H alone was measured 2.6 radii off
        # a 50-digit reference, where this route stayed within 0.3
        index, gap = nearest_first_gaps(lam, ref)
        assert np.all(gap <= 4.0 * radius[index])

    def test_paper_rings_have_imaginary_levels_exactly_on_the_axis(self):
        for gamma, length, counts in [(0.01, 100, (2, 2, 96)), (0.015, 100, (2, 6, 92))]:
            params = LatticeParams(t=1.0, gamma=gamma, length=length, boundary=Boundary.PBC)
            h = build_hamiltonian(params)
            spec = eig_general(h, want_vectors=True)
            cs = classify(spec)
            assert (cs.counts.n_real, cs.counts.n_imaginary, cs.counts.n_complex) == counts
            imaginary = spec.eigenvalues[cs.codes == 1]
            assert np.all(imaginary.real == 0.0)
            assert np.max(spec.residuals) <= 1e-14 * h.frobenius_norm()

    @pytest.mark.parametrize("exponent", [500, -280, -530])
    def test_levels_scale_exactly_with_a_power_of_two(self, exponent):
        # at 2**-530 the products in H_AB H_BA are subnormal, and at 2**500
        # they overflow, unless the route scales H first
        def solve(scale):
            params = LatticeParams(t=2.5 * scale, gamma=scale, length=12, boundary=Boundary.PBC)
            return eig_general(build_hamiltonian(params), want_vectors=True)

        spec, base = solve(math.ldexp(1.0, exponent)), solve(1.0)
        lam = spec.eigenvalues
        assert np.sort_complex(lam).tobytes() == np.sort_complex(0.0 - lam).tobytes()
        assert np.array_equal(lam.real, np.ldexp(base.eigenvalues.real, exponent))
        assert np.array_equal(lam.imag, np.ldexp(base.eigenvalues.imag, exponent))
        assert not np.any(spec.unconverged)

    def test_zero_levels_take_the_full_route(self):
        # the uniform ring of 8 sites has the levels 2 cos(2 pi k / 8), two of
        # them zero, so mu = 0 and the +- split would lose every digit there
        h = build_hamiltonian(LatticeParams(t=1.0, gamma=0.0, length=8, boundary=Boundary.PBC))
        spec = eig_general(h, want_vectors=True)
        assert spec.eigenvalues.tobytes() == _full_route(h).tobytes()
        assert np.all(spec.residuals <= RESIDUAL_RTOL * h.frobenius_norm())
        expected = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(8) / 8))
        assert np.allclose(spec.eigenvalues.real, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", [None, 0.7])
    def test_odd_rings_take_the_full_route(self, theta):
        params = LatticeParams(t=1.0, gamma=0.1, length=7, boundary=Boundary.PBC)
        h = build_hamiltonian(params) if theta is None else build_flux_twisted(params, theta)
        spec = eig_general(h, want_vectors=True)
        assert spec.eigenvalues.tobytes() == _full_route(h).tobytes()
        assert np.all(spec.residuals <= RESIDUAL_RTOL * h.frobenius_norm())


def test_l400_ring_gives_the_same_bytes_with_one_and_two_blas_threads():
    # an observation on one OpenBLAS build, not a property of the route:
    # there LAPACK eig on the whole 400x400 ring rounds differently with 1
    # and 2 BLAS threads, and eig on its 200x200 block H_AB H_BA does not;
    # another CPU kernel or thread threshold may change that
    src = Path(ramphop.__file__).resolve().parents[1]
    script = (
        "import hashlib, ramphop\n"
        "params = ramphop.LatticeParams(1.0, 0.01, 400, ramphop.Boundary.PBC)\n"
        "lam = ramphop.solve_spectrum(params).eigenvalues\n"
        "print(hashlib.sha256(lam.tobytes()).hexdigest())\n"
    )
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.append(done.stdout)
    assert digests[0] == digests[1]


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
        # LAPACK's LU gives nan on subnormal entries, so the reference
        # factors the matrix scaled by a power of two to max |entry| near 1
        exponent = int(np.frexp(np.max(np.abs(shifted)))[1])
        scaled = np.ldexp(shifted.real, -exponent) + 1j * np.ldexp(shifted.imag, -exponent)
        sign, log_abs = np.linalg.slogdet(scaled)
        ref = sign * math.exp(log_abs + length * exponent * math.log(2.0))
        # roundoff of either determinant scales with the Hadamard bound
        hadamard = float(np.prod(np.linalg.norm(shifted, axis=1)))
        assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12 * max(1.0, hadamard))


    def test_long_ring_past_the_mantissa_chunk(self):
        # 1199 bonds span three mantissa chunks of the bond products, and the
        # corner product outweighs the continuant by about e^354
        length = 1200
        h = build_hamiltonian(
            LatticeParams(t=1.0, gamma=0.0005, length=length, boundary=Boundary.PBC)
        )
        z = 0.05j
        det = det_shifted(h, z)
        sign, log_abs = np.linalg.slogdet(h.to_dense() - z * np.eye(length))
        assert det.log_abs == pytest.approx(log_abs, rel=1e-13)
        assert abs(det.phase - sign) < 1e-12


    @given(
        amplitudes,
        amplitudes,
        st.integers(min_value=3, max_value=120),
        st.booleans(),
        st.floats(min_value=0.0, max_value=6.28),
        amplitudes,
        amplitudes,
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scalar_reference(self, t, gamma, length, pbc, theta, zr, zi):
        # at ordinary amplitudes nothing underflows, and the one-site-at-a-time
        # (mantissa, exponent) determinant is a reference for every digit
        boundary = Boundary.PBC if pbc else Boundary.OBC
        params = LatticeParams(t=t, gamma=gamma, length=length, boundary=boundary)
        h = build_flux_twisted(params, theta) if pbc else build_hamiltonian(params)
        z = complex(zr, zi)
        mine, ref = det_shifted(h, z), ScaledDeterminant(*scaled_det(h, z))
        if ref.mantissa == 0:
            assert mine.mantissa == 0
            return
        assert mine.log_abs == pytest.approx(ref.log_abs, rel=1e-13, abs=1e-13)
        assert abs(mine.phase - ref.phase) <= 1e-13

    @pytest.mark.parametrize("pbc", [False, True])
    @pytest.mark.parametrize("exponent", [-540, -520, 500])
    def test_scaling_the_matrix_by_a_power_of_two_only_moves_the_exponent(self, exponent, pbc):
        boundary = Boundary.PBC if pbc else Boundary.OBC

        def det(scale):
            params = LatticeParams(t=1.3 * scale, gamma=0.7 * scale, length=12, boundary=boundary)
            h = build_flux_twisted(params, 0.4) if pbc else build_hamiltonian(params)
            return det_shifted(h, complex(0.3, 0.2) * scale)

        unit, scaled = det(1.0), det(math.ldexp(1.0, exponent))
        assert unit.mantissa != 0
        assert scaled.mantissa == unit.mantissa
        assert scaled.exponent == unit.exponent + 12 * exponent

    @pytest.mark.parametrize("pbc", [False, True])
    @pytest.mark.parametrize("length", [10, 101, 1200])
    @pytest.mark.parametrize("exponent", [-540, -520, 0, 500])
    def test_matches_slogdet_at_any_scale(self, exponent, length, pbc):
        boundary = Boundary.PBC if pbc else Boundary.OBC
        scale = math.ldexp(1.0, exponent)
        params = LatticeParams(t=scale, gamma=0.3 * scale / length, length=length, boundary=boundary)
        h = build_flux_twisted(params, 0.7) if pbc else build_hamiltonian(params)
        z = complex(0.2, 0.1) * scale
        det = det_shifted(h, z)
        # slogdet on the matrix divided by the scale, which is exact
        sign, log_abs = np.linalg.slogdet((h.to_dense() - z * np.eye(length)) / scale)
        log_abs += length * exponent * math.log(2.0)
        assert det.log_abs == pytest.approx(log_abs, rel=1e-13)
        assert abs(det.phase - sign) < 1e-12


def _unit_disk_points(size):
    polar = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi))
    points = st.lists(polar, min_size=1, max_size=size)
    return points.map(lambda pts: [r * complex(math.cos(a), math.sin(a)) for r, a in pts])


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=400),
    _unit_disk_points(8),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_continuant_on_an_array_matches_one_point_calls(w, points, derivative):
    # the final rescaling brings the sum of the carried moduli into [0.5, 1),
    # so mantissas compared at one exponent are relative to the recurrence's
    # size; numpy rounds complex products differently from Python, and the
    # derivative gathers that rounding faster along the chain (8e-14 seen
    # at 400 sites)
    p, dp, exponent = _continuant(np.array(w), np.array(points), derivative)
    # with no bonds, nothing is rescaled and dp and the exponent stay numbers
    dp, exponent = np.broadcast_to(dp, p.shape), np.broadcast_to(exponent, p.shape)
    for k, z in enumerate(points):
        p1, dp1, exponent1 = _continuant(w, z, derivative)
        assert isinstance(p1, complex)
        shift = math.ldexp(1.0, int(exponent[k] - exponent1))
        assert abs(p[k] * shift - p1) <= 1e-13
        if derivative:
            assert abs(dp[k] * shift - dp1) <= 1e-12
        else:
            assert dp1 == 0.0 and dp[k] == 0.0


def _bits(x) -> bytes:
    """The bytes of a float or complex number as a complex, every nan as one."""
    x = np.asarray(x, dtype=complex)
    return np.where(np.isnan(x), np.nan, x).tobytes()


_SCALES = st.sampled_from([-500, 0, 500]).map(lambda e: math.ldexp(1.0, e))


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=200),
    st.floats(min_value=-1.0, max_value=1.0),
    _SCALES,
    _SCALES,
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_continuant_on_a_real_point_is_the_array_path_bit_for_bit(w, x, w_scale, x_scale, derivative):
    # on real points both paths run the same float arithmetic, so the
    # math.frexp / math.ldexp rescaling of a number must give the bits of
    # the np.frexp / np.ldexp rescaling of an array; past the continuant's
    # bounds |w| <= 1 and |z| <= 1 too, where values overflow to inf and nan
    w = [wk * w_scale for wk in w]
    x *= x_scale
    p1, dp1, e1 = _continuant(w, x, derivative)
    with np.errstate(over="ignore", invalid="ignore"):
        p, dp, e = _continuant(w, np.array([x]), derivative)
    assert isinstance(e1, int)
    # with no bonds nothing is rescaled, and dp and the exponent stay numbers
    dp, e = np.broadcast_to(dp, p.shape), np.broadcast_to(e, p.shape)
    assert _bits(p1) == _bits(p[0]) and _bits(dp1) == _bits(dp[0]) and e1 == e[0]


def _numpy_rescaled_continuant(w, z, derivative):
    """The continuant of a number rescaled with np.frexp and np.ldexp."""
    a = 0.0 - z
    p_prev, p = 1.0, a
    dp_prev, dp = 0.0, (-1.0 if derivative else 0.0)
    exponent = 0
    for start in range(0, len(w), 16):
        for wk in w[start : start + 16]:
            if derivative:
                dp_prev, dp = dp, a * dp - p - wk * dp_prev
            p_prev, p = p, a * p - wk * p_prev
        e = int(np.frexp(abs(p) + abs(p_prev) + abs(dp) + abs(dp_prev) + 2.0**-1022)[1])
        scale = np.ldexp(1.0, -e)
        p, p_prev, dp, dp_prev = p * scale, p_prev * scale, dp * scale, dp_prev * scale
        exponent += e
    return p, dp, exponent


@given(
    st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=200),
    _unit_disk_points(1).map(lambda points: points[0]),
    _SCALES,
    _SCALES,
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_continuant_on_a_complex_point_rescales_as_numpy_does(w, z, w_scale, z_scale, derivative):
    # numpy rounds complex products differently from Python (see the test
    # above that compares with tolerances), so a complex number is held to
    # the same Python recurrence with numpy's rescaling, bit for bit
    w = [wk * w_scale for wk in w]
    z *= z_scale
    p1, dp1, e1 = _continuant(w, z, derivative)
    p, dp, e = _numpy_rescaled_continuant(w, z, derivative)
    assert isinstance(p1, complex) and isinstance(e1, int)
    assert _bits(p1) == _bits(p) and e1 == e
    if derivative:
        assert _bits(dp1) == _bits(dp)
    else:
        assert dp1 == 0.0


def _joined_unit(h, z):
    """binary_scale of the bonds, the corners and z in one complex array."""
    return binary_scale(np.concatenate((h.upper, h.lower, [*h.effective_corners(), z])))


def test_det_unit_takes_numpys_corner_modulus():
    # at t = 1, gamma = 0.01, L = 100 the corner t + gamma L is 2; at theta
    # = 4 numpy's |corner e^{i theta}| is just below 2 while abs() gives 2,
    # so the two moduli choose different powers of two
    params = LatticeParams(t=1.0, gamma=0.01, length=100, boundary=Boundary.PBC)
    h = build_flux_twisted(params, 4.0)
    corner = h.effective_corners()[0]
    assert np.abs(corner) < 2.0 and abs(corner) == 2.0
    z = 0.3 + 0.1j
    assert _det_unit(h, h.effective_corners(), z) == _joined_unit(h, z) == 2.0


@given(
    amplitudes,
    amplitudes,
    st.integers(min_value=3, max_value=40),
    st.booleans(),
    st.floats(min_value=0.0, max_value=6.28),
    st.complex_numbers(max_magnitude=4.0),
    st.sampled_from([-540, -500, 0, 500]),
)
@settings(max_examples=100, deadline=None)
def test_det_unit_is_the_unit_of_the_joined_array(t, gamma, length, pbc, theta, z, exponent):
    scale = math.ldexp(1.0, exponent)
    boundary = Boundary.PBC if pbc else Boundary.OBC
    params = LatticeParams(t=t * scale, gamma=gamma * scale, length=length, boundary=boundary)
    h = build_flux_twisted(params, theta) if pbc else build_hamiltonian(params)
    z *= scale
    assert _det_unit(h, h.effective_corners(), z) == _joined_unit(h, z)


@pytest.mark.parametrize("length", [0, 1, 511, 512, 513, 2000])
def test_chunked_product_matches_the_loop(length):
    rng = np.random.default_rng(length)
    values = rng.choice([-1.0, 1.0], length) * np.exp(rng.uniform(-3.0, 3.0, length))
    m, e = _sprod(values)
    m_ref, e_ref = scaled_product(values)
    log_abs = math.log(abs(m)) + e * math.log(2.0)
    log_ref = math.log(abs(m_ref)) + e_ref * math.log(2.0)
    assert log_abs == pytest.approx(log_ref, rel=1e-12, abs=1e-12)
    assert np.sign(m.real) == np.sign(m_ref.real) and m.imag == 0.0
    if length:
        values[length // 2] = 0.0
        assert _sprod(values) == scaled_product(values) == (0.0, 0)


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
    # the two-site chain [[0, 1], [1, 0]] has the eigenpair (1, (1, 1)/sqrt 2)
    PAIR = _sym([1.0])

    def test_exact_eigenpair(self):
        v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        assert residual(self.PAIR, 1.0, v) < 1e-15

    def test_grows_linearly_in_perturbation(self):
        v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        w = np.array([1.0, -1.0], dtype=complex)
        r1 = residual(self.PAIR, 1.0, v + 1e-6 * w)
        r2 = residual(self.PAIR, 1.0, v + 2e-6 * w)
        assert r2 / r1 == pytest.approx(2.0, rel=1e-3)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            residual(self.PAIR, 1.0, np.zeros(2))

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
    # integer split at 100: the twisted-factorization vectors carry the
    # exponential gauge profile in log space, and only their componentwise
    # accuracy keeps every pair within tolerance (LAPACK eigh vectors of the
    # gauge blocks, ungauged, stall here)
    params = LatticeParams(t=1.0, gamma=0.01, length=200)
    spec = solve_spectrum(params, want_vectors=True)
    assert not np.any(spec.unconverged)
    assert np.max(spec.residuals) <= RESIDUAL_RTOL * build_hamiltonian(params).frobenius_norm()


def test_long_coupled_chain_meets_the_trace_identities():
    # 2000 sites at a non-integer split: the sublattice route solves a
    # 1000-site symmetric problem where dense complex eigvals took seconds
    params = LatticeParams(t=1.0, gamma=0.00123, length=2000)
    h = build_hamiltonian(params)
    lam = solve_spectrum(params).eigenvalues
    mom = spectral_moments(h)
    fro = h.frobenius_norm()
    assert classify(lam).counts.n_complex == 0
    assert abs(np.sum(lam)) <= 1e-9 * params.length * fro
    assert abs(np.sum(lam**2) - mom.trace_sq) <= 1e-6 * abs(mom.trace_sq) + 1e-9 * fro**2
