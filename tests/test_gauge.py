import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramphop import (
    Boundary,
    DegenerateBondError,
    GaugeVector,
    LatticeParams,
    RegimeKind,
    RegimeMismatchError,
    balanced_form,
    build_hamiltonian,
    classify_regime,
    eig_general,
    eig_sym_tridiag,
    gauge_vector,
    hermitize,
    residual,
    ungauge,
)
from _oracles import dense_matrix, gauged_hamiltonian_dense, max_pairing_gap

# Parameter draws whose gauge stays within comfortable floating range.
gauge_params = st.tuples(
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=-1.5, max_value=1.5).filter(lambda g: abs(g) > 1e-3),
    st.integers(min_value=2, max_value=14),
)


def test_reciprocal_limit_has_identity_gauge():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.0, length=5))
    assert np.all(ga.log_mag == 0.0)
    assert np.all(ga.quarter_phase == 0)
    assert ga.block_starts == [1]


def test_short_chain_gauge_values():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.01, length=3))
    d = ga.values()
    assert d[0] == pytest.approx(1.0)
    assert d[1] == pytest.approx(math.sqrt(0.99 / 1.01))
    assert d[2] == pytest.approx(math.sqrt(0.99 / 1.01) * math.sqrt(0.98 / 1.02))


def test_gauge_restarts_past_the_split_bond():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.02, length=100))
    assert ga.block_starts == [1, 51]
    assert ga.log_mag[50] == 0.0  # site 51 restarts at d = 1
    assert np.all(ga.quarter_phase[:51] == 0)
    assert ga.quarter_phase[51] == 1  # first bond past the split is a quarter turn


@given(gauge_params)
@settings(max_examples=60, deadline=None)
def test_gauge_recurrence_matches_bond_ratios(args):
    t, gamma, length = args
    params = LatticeParams(t=t, gamma=gamma, length=length)
    ga = gauge_vector(params)
    h = build_hamiltonian(params)
    split_bonds = {start - 1 for start in ga.block_starts[1:]}
    for k in range(length - 1):
        bond = k + 1
        if bond in split_bonds:
            continue  # the gauge restarts past this bond, no recurrence
        expected = math.sqrt(abs(h.lower[k] / h.upper[k]))
        assert math.exp(ga.log_mag[k + 1] - ga.log_mag[k]) == pytest.approx(
            expected, rel=1e-12
        )


def _gauge_loop(params, restart=True):
    """The per-site gauge recurrence the closed form replaced, kept as the
    reference: (log_mag, quarter_phase, block_starts).  Without ``restart``
    the recurrence runs through the split bond, as for the balanced form."""
    regime = classify_regime(params)
    if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE and params.t == 0.0:
        raise DegenerateBondError("t = 0 leaves the anti-symmetrizing gauge ratio undefined")
    split = regime.split
    h = build_hamiltonian(LatticeParams(params.t, params.gamma, params.length, Boundary.OBC))
    n = params.length
    log_mag = np.zeros(n)
    quarter = np.zeros(n, dtype=np.int8)
    block_starts = [1]
    for k in range(n - 1):
        bond = k + 1  # 1-indexed bond between sites k and k+1
        if restart and split is not None and bond == split:
            block_starts.append(split + 1)
            continue
        up, lo = h.upper[k], h.lower[k]
        if up == 0.0 or lo == 0.0:
            raise DegenerateBondError(f"bond {bond} has a vanishing amplitude")
        if regime.kind is RegimeKind.FULLY_ANTI_HERMITIZABLE:
            anti = True
        else:
            anti = split is not None and bond > split
        log_mag[k + 1] = log_mag[k] + 0.5 * (np.log(abs(lo)) - np.log(abs(up)))
        quarter[k + 1] = (quarter[k] + 1) % 4 if anti else quarter[k]
    return log_mag, quarter, block_starts


def _balanced_gauge_loop(params):
    if classify_regime(params).kind is RegimeKind.INTEGER_SPLIT:
        raise DegenerateBondError(
            "integer |t/gamma| has an exactly vanishing bond; use hermitize"
        )
    return _gauge_loop(params, restart=False)


def _coupling_loop(params):
    """(a, b) across the split bond from the reference gauge at site p."""
    regime = classify_regime(params)
    if regime.split is None:
        return 0.0, 0.0
    p = regime.split
    h = build_hamiltonian(params)
    d_split = np.exp(_gauge_loop(params)[0][p - 1])
    b = 0.0 if regime.kind is RegimeKind.INTEGER_SPLIT else h.lower[p - 1] * d_split
    return h.upper[p - 1] / d_split, b


def _outcome(fn, params):
    try:
        return fn(params)
    except DegenerateBondError as exc:
        return type(exc), str(exc)


# Every regime: integer splits of either sign, then generic draws with t = 0,
# gamma = 0 and both signs of each (t = gamma = 0 has vanishing bonds).
any_regime = st.one_of(
    st.builds(
        lambda t, m, sign, length: (t, sign * t / m, length),
        st.sampled_from([1.0, 0.5, -1.0, 2.0, -0.3]),
        st.integers(min_value=1, max_value=40),
        st.sampled_from([1.0, -1.0]),
        st.integers(min_value=2, max_value=60),
    ),
    st.tuples(
        st.one_of(st.sampled_from([0.0, 1.0, -0.3]), st.floats(min_value=-3.0, max_value=3.0)),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=-2.0, max_value=2.0).filter(lambda g: abs(g) >= 1e-6),
        ),
        st.integers(min_value=2, max_value=60),
    ),
)


@given(any_regime)
@settings(max_examples=200, deadline=None)
def test_closed_form_gauge_matches_the_loop(args):
    params = LatticeParams(*args)
    for fn, ref in (
        (gauge_vector, _gauge_loop),
        (lambda p: balanced_form(p)[1], _balanced_gauge_loop),
    ):
        got, want = _outcome(fn, params), _outcome(ref, params)
        if isinstance(want[0], type):
            assert got == want
            continue
        np.testing.assert_allclose(got.log_mag, want[0], rtol=1e-12, atol=0.0)
        assert np.array_equal(got.quarter_phase, want[1])
        assert got.block_starts == want[2]
    coupling = hermitize(params).coupling
    np.testing.assert_allclose(
        [coupling.a, coupling.b], _coupling_loop(params), rtol=1e-12, atol=0.0
    )


def test_single_block_symmetrization_offdiagonals():
    dec = hermitize(LatticeParams(t=1.0, gamma=0.01, length=100))
    assert dec.block_a.length == 100
    assert dec.block_b.length == 0
    assert dec.decoupled
    j = np.arange(1, 100, dtype=float)
    assert np.allclose(dec.block_a.upper, np.sqrt(1.0 - (0.01 * j) ** 2))
    assert np.array_equal(dec.block_a.lower, dec.block_a.upper)
    assert not dec.block_a.is_pbc


def test_integer_split_blocks_and_coupling():
    dec = hermitize(LatticeParams(t=1.0, gamma=0.02, length=100))
    assert dec.block_a.length == 50
    assert dec.block_b.length == 50
    assert np.array_equal(dec.block_b.lower, dec.block_b.upper)
    assert dec.coupling.b == 0.0
    assert dec.decoupled


def test_non_integer_split_blocks_stay_coupled():
    dec = hermitize(LatticeParams(t=1.0, gamma=0.07, length=100))
    assert (dec.block_a.length, dec.block_b.length) == (14, 86)
    assert dec.coupling.a != 0.0
    assert dec.coupling.b != 0.0
    assert not dec.decoupled


def test_fully_anti_regime_is_one_imaginary_block():
    dec = hermitize(LatticeParams(t=1.0, gamma=1.5, length=10))
    assert dec.block_a.length == 0
    assert dec.block_b.length == 10
    assert np.array_equal(dec.block_b.lower, dec.block_b.upper)


@given(gauge_params)
@settings(max_examples=60, deadline=None)
def test_offdiagonal_squares_reproduce_bond_products(args):
    t, gamma, length = args
    params = LatticeParams(t=t, gamma=gamma, length=length)
    dec = hermitize(params)
    j = np.arange(1, length, dtype=float)
    products = np.abs(t * t - gamma * gamma * j * j)
    split = dec.block_a.length
    if 0 < split < length:
        # the split bond itself is coupling, not block interior
        assert np.allclose(dec.block_a.upper ** 2, products[: split - 1])
        assert np.allclose(dec.block_b.upper ** 2, products[split:])
    else:
        whole = dec.block_a if split == length else dec.block_b
        assert np.allclose(whole.upper ** 2, products)


def test_hermitize_rejects_rings():
    with pytest.raises(RegimeMismatchError):
        hermitize(LatticeParams(t=1.0, gamma=0.1, length=6, boundary=Boundary.PBC))


def test_anti_gauge_with_zero_uniform_hopping_is_degenerate():
    with pytest.raises(DegenerateBondError):
        gauge_vector(LatticeParams(t=0.0, gamma=0.5, length=6))


def test_gauged_matrix_is_similar_small_chain():
    # explicit dense conjugation equals the block structure, eigenvalues intact
    params = LatticeParams(t=1.0, gamma=0.3, length=6)
    gh = gauged_hamiltonian_dense(1.0, 0.3, 6, gauge_vector(params).values())
    ref = np.linalg.eigvals(dense_matrix(1.0, 0.3, 6))
    assert max_pairing_gap(np.linalg.eigvals(gh), ref) < 1e-9


def test_ungauge_identity_in_reciprocal_limit():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.0, length=5))
    v = np.array([0.3, -0.1, 0.7, 0.2, -0.5], dtype=complex)
    out = ungauge(ga, v)
    assert np.allclose(out, v / np.max(np.abs(v)))


def test_ungauge_inverts_the_gauge():
    params = LatticeParams(t=1.0, gamma=0.05, length=12)
    ga = gauge_vector(params)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    w = v / ga.values()  # apply D^-1
    restored = ungauge(ga, w)
    assert np.allclose(restored, v / np.max(np.abs(v)))


def test_ungauge_accepts_a_column_slice():
    # a column of a C-ordered matrix is a strided, non-contiguous view
    params = LatticeParams(t=1.0, gamma=0.05, length=12)
    ga = gauge_vector(params)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
    w = v / ga.values()[:, None]
    assert not w[:, 1].flags.contiguous
    restored = ungauge(ga, w[:, 1])
    assert np.allclose(restored, v[:, 1] / np.max(np.abs(v[:, 1])))


def test_ungauge_keeps_the_phase_of_subnormal_components():
    # numpy forms w / |w| through 1 / |w|, which overflows for a subnormal |w|
    ga = GaugeVector(np.array([0.0, 700.0, 700.0]), np.zeros(3, dtype=int), [1])
    w = np.array([1e-300, complex(-3e-320, 3e-320), complex(0.0, -5e-324)])
    out = ungauge(ga, w)
    assert np.all(np.isfinite(out))
    assert np.allclose(np.angle(out[1:]), [0.75 * math.pi, -0.5 * math.pi])


def test_ungauge_checks_length():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.05, length=12))
    with pytest.raises(ValueError):
        ungauge(ga, np.ones(5, dtype=complex))


def test_ungauge_rejects_zero_vector():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.05, length=4))
    with pytest.raises(ValueError):
        ungauge(ga, np.zeros(4, dtype=complex))


def test_ungauge_rejects_non_finite_input():
    ga = gauge_vector(LatticeParams(t=1.0, gamma=0.05, length=4))
    bad = np.array([1.0, np.inf, 0.0, 0.0], dtype=complex)
    with pytest.raises(OverflowError):
        ungauge(ga, bad)


def test_ungauged_eigenvectors_solve_the_chain():
    params = LatticeParams(t=1.0, gamma=0.1, length=6)
    h = build_hamiltonian(params)
    dec = hermitize(params)
    ga = gauge_vector(params)
    spec = eig_sym_tridiag(dec.block_a, want_vectors=True)
    for i in range(spec.size):
        v = ungauge(ga, spec.eigenvectors[:, i])
        assert residual(h, spec.eigenvalues[i], v) < 1e-10


def test_similarity_invariance_of_the_spectrum():
    # symmetrizable chain: block route and general solver agree
    params = LatticeParams(t=1.0, gamma=0.02, length=40)
    h = build_hamiltonian(params)
    dec = hermitize(params)
    block_eigs = eig_sym_tridiag(dec.block_a).eigenvalues
    general = eig_general(h).eigenvalues
    assert max_pairing_gap(block_eigs, general) < 1e-8 * h.frobenius_norm()


def test_integer_split_union_matches_full_spectrum():
    params = LatticeParams(t=1.0, gamma=0.25, length=12)  # split at 4
    h = build_hamiltonian(params)
    dec = hermitize(params)
    union = np.concatenate(
        [
            eig_sym_tridiag(dec.block_a).eigenvalues,
            1j * eig_sym_tridiag(dec.block_b).eigenvalues,
        ]
    )
    general = eig_general(h).eigenvalues
    assert max_pairing_gap(union, general) < 1e-8 * h.frobenius_norm()


def test_non_integer_union_misses_the_spectrum():
    params = LatticeParams(t=1.0, gamma=0.07, length=100)
    dec = hermitize(params)
    union = np.concatenate(
        [
            eig_sym_tridiag(dec.block_a).eigenvalues,
            1j * eig_sym_tridiag(dec.block_b).eigenvalues,
        ]
    )
    general = eig_general(build_hamiltonian(params)).eigenvalues
    worst = max(float(np.min(np.abs(general - v))) for v in union)
    assert worst > 1e-4


def test_balanced_form_is_similar_to_the_chain():
    params = LatticeParams(t=1.0, gamma=0.11, length=14)
    entries, _ = balanced_form(params)
    n = params.length
    bal = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    bal[idx, idx + 1] = entries
    bal[idx + 1, idx] = entries
    ref = np.linalg.eigvals(dense_matrix(1.0, 0.11, 14))
    assert max_pairing_gap(np.linalg.eigvals(bal), ref) < 1e-10
    assert float(np.max(np.abs(entries))) < 10.0  # stays of bond-amplitude size


def test_balanced_form_rejects_integer_ratio():
    with pytest.raises(DegenerateBondError):
        balanced_form(LatticeParams(t=1.0, gamma=0.25, length=12))
