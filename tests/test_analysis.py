import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramphop import (
    BasePointOnSpectrumError,
    Boundary,
    DegenerateSupportError,
    EigenClass,
    InsufficientLevelsError,
    LatticeParams,
    RegimeMismatchError,
    classify,
    decoupling_check,
    fit_envelope,
    global_envelope,
    level_spacings,
    localization,
    solve_spectrum,
    state_metrics,
    winding_number,
    winding_trace,
)
from ramphop.analysis import CLASSES, LADDER_RELATIVE_STDEV

from _oracles import classify_per_entry, fit_envelope_per_state, localization_per_state

# Components that sit on, just inside and just outside the unit-radius
# tolerance 1e-6, signed zeros, and values that recur across draws.
_COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-7, -5e-7, 1e-6, -1e-6, 1.5e-6, 0.5, -0.5, 1.0, 3.0]),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def _spectra(draw):
    values = draw(st.lists(st.builds(complex, _COMPONENTS, _COMPONENTS), max_size=24))
    if values:  # repeat some levels exactly
        values += draw(st.lists(st.sampled_from(values), max_size=6))
    return values


class TestClassify:
    def test_symmetrizable_chain_is_all_real(self):
        cs = classify(solve_spectrum(LatticeParams(t=1.0, gamma=0.01, length=100)))
        assert cs.counts.n_real == 100
        assert cs.counts.n_imaginary == 0

    def test_ten_levels_turn_imaginary(self):
        cs = classify(solve_spectrum(LatticeParams(t=1.0, gamma=0.011, length=100)))
        assert cs.counts.n_imaginary == 10

    def test_strong_ramp_is_all_imaginary(self):
        cs = classify(solve_spectrum(LatticeParams(t=1.0, gamma=1.5, length=50)))
        assert cs.counts.n_imaginary == 50

    def test_near_origin_counts_as_real(self):
        cs = classify(np.array([1e-9 + 1e-9j, 2.0, 1.5j]))
        labels = [e.label for e in cs.entries]
        assert labels == [EigenClass.REAL, EigenClass.REAL, EigenClass.IMAGINARY]

    def test_partition_and_class_ordering(self):
        values = np.array([0.5, -0.5, 2.0j, -2.0j, 1.0 + 1.0j])
        cs = classify(values)
        assert cs.counts.total == 5
        assert np.allclose(cs.values(EigenClass.REAL).real, [-0.5, 0.5])
        assert np.allclose(cs.values(EigenClass.IMAGINARY).imag, [-2.0, 2.0])

    @given(
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.integers(min_value=2, max_value=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, t, gamma, length):
        spec = solve_spectrum(LatticeParams(t=t, gamma=gamma, length=length))
        cs = classify(spec)
        assert cs.counts.total == length

    @given(_spectra())
    @example([])
    @example([complex(-0.0, 0.0), complex(0.0, -0.0), complex(1e-6, 1e-6), complex(1e-6, 1e-6)])
    @settings(max_examples=300, deadline=None)
    def test_columns_match_the_per_entry_classification(self, values):
        expected, counts, tolerance = classify_per_entry(values)
        cs = classify(np.array(values, dtype=complex))
        got = [(repr(e.value), e.label, e.index_in_class) for e in cs.entries]
        assert got == [(repr(v), label, rank) for v, label, rank in expected]
        assert cs.tolerance == tolerance
        assert (cs.counts.n_real, cs.counts.n_imaginary, cs.counts.n_complex) == tuple(
            counts[label] for label in CLASSES
        )
        by_class = sorted(
            range(len(values)), key=lambda i: (CLASSES.index(expected[i][1]), expected[i][2])
        )
        assert cs.order.tolist() == by_class
        for label in CLASSES:
            members = sorted((rank, repr(v)) for v, lab, rank in expected if lab is label)
            assert [repr(v) for v in cs.values(label).tolist()] == [v for _, v in members]

    def test_classified_values_come_in_sign_pairs(self):
        cs = classify(solve_spectrum(LatticeParams(t=1.0, gamma=0.03, length=60)))
        re = np.sort(cs.values(EigenClass.REAL).real)
        im = np.sort(cs.values(EigenClass.IMAGINARY).imag)
        assert np.allclose(re, -re[::-1], atol=1e-8)
        assert np.allclose(im, -im[::-1], atol=1e-8)


class TestLadder:
    def test_synthetic_equal_spacing(self):
        cs = classify(np.array([1.0, 2.0, 3.0, 4.0]))
        stats = level_spacings(cs, EigenClass.REAL)
        assert np.allclose(stats.spacings, [1.0, 1.0, 1.0])
        assert stats.stdev == 0.0
        assert stats.interior_window == 1.0

    def test_too_few_levels(self):
        cs = classify(np.array([1.0, 2.0]))
        with pytest.raises(InsufficientLevelsError):
            level_spacings(cs, EigenClass.REAL)

    def test_real_ladder_is_flat_imaginary_is_not(self):
        cs1 = classify(solve_spectrum(LatticeParams(t=1.0, gamma=0.01, length=100)))
        real = level_spacings(cs1, EigenClass.REAL)
        assert real.relative_stdev < LADDER_RELATIVE_STDEV
        assert real.is_ladder
        cs2 = classify(solve_spectrum(LatticeParams(t=1.0, gamma=0.02, length=100)))
        imag = level_spacings(cs2, EigenClass.IMAGINARY)
        assert imag.relative_stdev > LADDER_RELATIVE_STDEV
        assert not imag.is_ladder

    def test_interior_window_trims_ten_percent_each_side(self):
        cs = classify(np.arange(1.0, 101.0))
        stats = level_spacings(cs, EigenClass.REAL)
        assert stats.interior_window == pytest.approx(0.8)
        assert len(stats.spacings) == 79


class TestEnvelope:
    def test_exact_gaussian_recovered(self):
        j = np.arange(1, 101, dtype=float)
        state = np.exp(-0.005 * (j - 32.0) ** 2)
        fit = fit_envelope(state, 0.01)
        assert fit.center == pytest.approx(32.0, abs=1e-9)
        assert fit.width_param == pytest.approx(0.005, rel=1e-9)
        assert fit.rms_error < 1e-10

    def test_fixed_center_fit(self):
        j = np.arange(1, 81, dtype=float)
        state = np.exp(-0.01 * (j - 40.0) ** 2)
        fit = fit_envelope(state, 0.02, center=40.0)
        assert fit.width_param == pytest.approx(0.01, rel=1e-9)

    def test_boundary_truncated_profile_reports_edge_center(self):
        j = np.arange(1, 101, dtype=float)
        state = np.exp(-0.0005 * (j - 0.5) ** 2)
        fit = fit_envelope(state, 0.001)
        assert fit.center == 1.0
        assert fit.center_unconstrained < 1.0
        assert fit.width_param == pytest.approx(0.0005, rel=0.05)

    def test_degenerate_support(self):
        state = np.zeros(50)
        state[7] = 1.0
        with pytest.raises(DegenerateSupportError):
            fit_envelope(state, 0.1)

    def test_global_envelope_single_state(self):
        state = np.array([0.2, 1.0, 0.4])
        env = global_envelope(np.column_stack([state]))
        assert np.allclose(env, [0.2, 1.0, 0.4])

    def test_global_envelope_is_pointwise_max(self):
        a = np.array([1.0, 0.1, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.1, 1.0])
        env = global_envelope(np.column_stack([a, b]))
        assert np.allclose(env, [1.0, 0.1, 0.1, 1.0])

    def test_global_envelope_takes_only_a_sites_by_states_matrix(self):
        # a list of states, or one state, is never read as a matrix: np.array([state])
        # would be one 3-site row, whose envelope is [1.0]
        state = np.array([0.2, 1.0, 0.4])
        for family in ([state], state):
            with pytest.raises(TypeError):
                global_envelope(family)

    @pytest.mark.parametrize("exponent", [-600, 600])
    def test_global_envelope_does_not_depend_on_the_scale(self, exponent):
        # the squares of the norms would underflow at 2^-600 and overflow at
        # 2^600; a power-of-two scale keeps every digit
        family = np.array([[1.0, 0.5], [0.5, 1.0], [0.25, 0.1]])
        unit = global_envelope(family)
        assert np.array_equal(global_envelope(family * math.ldexp(1.0, exponent)), unit)


@st.composite
def _profile_families(draw):
    """A (sites, states) matrix of complex profiles and an optional fixed center.

    Each column is a noisy Gaussian (its center may lie past either edge, so
    the fit clamps it), a noisy inverted Gaussian (the quadratic opens
    upwards, so the width is refit), a support of 1-4 sites, or zero.
    """
    n = draw(st.integers(min_value=1, max_value=60))
    sites = np.arange(1, n + 1, dtype=float)
    columns = []
    for kind in draw(st.lists(st.sampled_from(["gauss", "inverted", "narrow", "zero"]),
                              min_size=1, max_size=5)):
        col = np.zeros(n, dtype=complex)
        if kind == "narrow":
            m = draw(st.integers(min_value=1, max_value=min(4, n)))
            start = draw(st.integers(min_value=0, max_value=n - m))
            col[start : start + m] = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
        elif kind != "zero":
            width = draw(st.floats(1e-3, 0.5))
            x0 = draw(st.floats(-0.5 * n, 1.5 * n))
            log_amp = (-width if kind == "gauss" else width) * (sites - x0) ** 2
            noise = np.array(draw(st.lists(st.floats(-0.05, 0.05), min_size=n, max_size=n)))
            phases = np.array(draw(st.lists(st.floats(-np.pi, np.pi), min_size=n, max_size=n)))
            col = np.exp(log_amp - log_amp.max() + noise + 1j * phases)
        columns.append(col)
    center = draw(st.one_of(st.none(), st.floats(1.0, float(n))))
    return np.column_stack(columns), center


def _assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-10, atol=1e-12)


@given(_profile_families())
@settings(max_examples=300, deadline=None)
def test_state_metrics_match_the_per_state_fits(family):
    states, center = family
    if np.any(np.abs(states).max(axis=0) == 0.0):
        with pytest.raises(DegenerateSupportError):
            state_metrics(states, center)
        return
    m = state_metrics(states, center)
    for j in range(states.shape[1]):
        v = states[:, j]
        loc = localization_per_state(v)
        assert m.argmax_site[j] == loc.argmax_site
        _assert_close(m.centroid[j], loc.centroid)
        _assert_close(m.ipr[j], loc.ipr)
        env = (m.env_center[j], m.env_center_unconstrained[j], m.env_width[j], m.env_rms[j])
        try:
            fit = fit_envelope_per_state(v, center)
        except DegenerateSupportError:
            assert np.all(np.isnan(env))
            continue
        assert m.amplitude[j] == fit.amplitude
        assert np.array_equal(m.support[:, j], fit.support_mask)
        _assert_close(env, (fit.center, fit.center_unconstrained, fit.width_param, fit.rms_error))


class TestLocalization:
    def test_point_mass(self):
        state = np.zeros(20)
        state[6] = 1.0  # site 7
        loc = localization(state)
        assert loc.centroid == pytest.approx(7.0)
        assert loc.ipr == pytest.approx(1.0)
        assert loc.argmax_site == 7

    def test_uniform_state(self):
        loc = localization(np.full(100, 0.1))
        assert loc.ipr == pytest.approx(0.01)
        assert loc.centroid == pytest.approx(50.5)

    def test_reciprocal_chain_states_are_extended(self):
        spec = solve_spectrum(LatticeParams(t=1.0, gamma=0.0, length=50), want_vectors=True)
        iprs = [localization(spec.eigenvectors[:, i]).ipr for i in range(spec.size)]
        assert max(iprs) < 2.5 / 50  # sine states carry ipr = 1.5 / L

    def test_bulk_bound_states_sit_deeper_for_larger_imaginary_energy(self):
        spec = solve_spectrum(LatticeParams(t=1.0, gamma=0.011, length=100), want_vectors=True)
        cs = classify(spec)
        pairs = []
        for i, e in enumerate(cs.entries):
            if e.label is EigenClass.IMAGINARY and e.value.imag > 0:
                pairs.append((e.value.imag, localization(spec.eigenvectors[:, i]).centroid))
        pairs.sort()
        centroids = [c for _, c in pairs]
        assert len(centroids) == 5
        assert all(a < b for a, b in zip(centroids, centroids[1:]))


def _phase_steps(params, base, steps):
    """Phase steps of det(H(theta) - base) on a uniform flux grid, each
    determinant from numpy's dense LU."""
    from ramphop.model import build_flux_twisted

    eye = np.eye(params.length)
    signs = [
        np.linalg.slogdet(build_flux_twisted(params, float(th)).to_dense() - base * eye)[0]
        for th in np.linspace(0.0, 2.0 * math.pi, steps + 1)
    ]
    dphi = np.diff(np.angle(signs))
    return (dphi + math.pi) % (2.0 * math.pi) - math.pi


class TestWinding:
    # base points near the levels of a small ring, where 64 flux steps turn
    # the phase by more than pi/2 in one step
    SMALL_RING = LatticeParams(t=1.0, gamma=0.1, length=8, boundary=Boundary.PBC)

    @pytest.mark.parametrize(
        ("base", "winding"),
        [
            (1.9717523426481123 + 0.005291150799733247j, 0),
            (1.9657382117557085 + 0.005717641955583832j, 1),
        ],
    )
    def test_a_phase_jump_refines_the_grid_once(self, base, winding):
        assert np.max(np.abs(_phase_steps(self.SMALL_RING, base, 64))) >= math.pi / 2.0
        trace = winding_trace(self.SMALL_RING, base, 64)
        assert trace.theta_steps == 128
        assert len(trace.thetas) == len(trace.det_phase) == 129
        reference = _phase_steps(self.SMALL_RING, base, 4096)
        assert np.max(np.abs(reference)) < 0.1
        assert trace.winding == round(float(np.sum(reference)) / (2.0 * math.pi)) == winding

    def test_a_phase_jump_that_survives_refinement_is_on_the_spectrum(self):
        base = 1.9684089640203957 + 8.41470984810117e-05j
        with pytest.raises(BasePointOnSpectrumError, match="phase jumps persist"):
            winding_trace(self.SMALL_RING, base, 64)

    def test_constant_nonreciprocity_ring_winds_once(self):
        from ramphop.model import BandedHamiltonian, build_hatano_nelson
        from ramphop.eigen import det_shifted
        import math as m

        # direct flux loop over the comparison ring
        base_h = build_hatano_nelson(1.0, 0.5, 40, Boundary.PBC)
        phases = []
        steps = 256
        for th in np.linspace(0.0, 2.0 * m.pi, steps + 1):
            h = BandedHamiltonian(
                length=40,
                upper=base_h.upper,
                lower=base_h.lower,
                corner_up=base_h.corner_up,
                corner_down=base_h.corner_down,
                boundary_phase=complex(m.cos(th), m.sin(th)),
            )
            d = det_shifted(h, 0.0)
            phases.append(m.atan2(d.phase.imag, d.phase.real))
        dphi = np.diff(phases)
        dphi = (dphi + m.pi) % (2.0 * m.pi) - m.pi
        assert abs(int(round(dphi.sum() / (2.0 * m.pi)))) == 1

    def test_weak_ramp_ring_has_a_point_gap(self):
        params = LatticeParams(t=1.0, gamma=0.001, length=100, boundary=Boundary.PBC)
        assert winding_number(params, 0.0) != 0

    def test_strong_ramp_ring_has_no_point_gap(self):
        params = LatticeParams(t=1.0, gamma=2.0, length=100, boundary=Boundary.PBC)
        assert winding_number(params, 1.0) == 0

    def test_grid_doubling_does_not_change_the_answer(self):
        params = LatticeParams(t=1.0, gamma=0.001, length=60, boundary=Boundary.PBC)
        assert winding_number(params, 0.0, 64) == winding_number(params, 0.0, 128)

    def test_requires_ring_and_enough_steps(self):
        with pytest.raises(RegimeMismatchError):
            winding_number(LatticeParams(t=1.0, gamma=0.001, length=60), 0.0)
        ring = LatticeParams(t=1.0, gamma=0.001, length=60, boundary=Boundary.PBC)
        with pytest.raises(ValueError):
            winding_number(ring, 0.0, 32)

    @pytest.mark.parametrize(
        "scale",
        [1e-12, 1e-150, math.ldexp(1.0, -520), math.ldexp(1.0, 500)],
        ids=["1e-12", "1e-150", "2^-520", "2^500"],
    )
    @pytest.mark.parametrize(("gamma", "winding"), [(0.001, 1), (0.1, 1), (2.0, 0)])
    def test_winding_does_not_depend_on_the_scale(self, scale, gamma, winding):
        # the ring and the base point scaled together: the collapse floor
        # scales with them, and the determinant keeps its digits
        params = LatticeParams(t=scale, gamma=gamma * scale, length=100, boundary=Boundary.PBC)
        assert winding_number(params, scale) == winding

    def test_base_point_on_the_spectrum_is_detected(self):
        # reciprocal ring: spectrum = 2 cos(2 pi k / L), flux-independent points exist
        params = LatticeParams(t=1.0, gamma=0.0, length=64, boundary=Boundary.PBC)
        with pytest.raises(BasePointOnSpectrumError):
            winding_trace(params, complex(2.0 * np.cos(2.0 * np.pi * 16 / 64), 0.0))


class TestDecoupling:
    def test_integer_ratio_certificate(self):
        report = decoupling_check(LatticeParams(t=1.0, gamma=0.02, length=100))
        assert report.ok
        assert report.split == 50
        assert report.max_tail == 0.0
        assert report.max_residual < report.residual_tolerance

    @pytest.mark.parametrize(
        "t, gamma, length, split, n_states",
        [
            (1.0, -0.02, 100, 50, 50),
            (-1.0, 0.02, 100, 50, 50),
            (1.0, -0.1, 25, 10, 15),  # odd L: the closed block B holds the zero level
        ],
    )
    def test_negative_ratio_certifies_the_last_block(self, t, gamma, length, split, n_states):
        # for t/gamma < 0 the forward amplitude of the split bond vanishes,
        # so the sites past the split close on themselves
        report = decoupling_check(LatticeParams(t=t, gamma=gamma, length=length))
        assert report.ok
        assert (report.split, report.n_states) == (split, n_states)
        assert report.max_tail == 0.0
        assert report.max_residual < report.residual_tolerance

    @pytest.mark.parametrize("exponent", [0, -540])
    def test_block_choice_survives_tiny_amplitudes(self, exponent):
        # at 2^-540, t * gamma underflows to 0.0; the block is chosen by the
        # signs, so the one-site block A still closes with the level 0
        scale = math.ldexp(1.0, exponent)
        report = decoupling_check(LatticeParams(t=scale, gamma=scale, length=10))
        assert report.ok
        assert (report.split, report.n_states) == (1, 1)
        assert report.max_residual == 0.0 and report.max_tail == 0.0

    @pytest.mark.parametrize("m", [1, -1, 3, -3])
    @pytest.mark.parametrize("exponent", [-540, 500])
    def test_integer_splits_certify_at_extreme_amplitudes(self, m, exponent):
        # at 2^-540 the block bonds and the residual norms would underflow
        scale = math.ldexp(1.0, exponent)
        report = decoupling_check(LatticeParams(t=m * scale, gamma=scale, length=10))
        base = decoupling_check(LatticeParams(t=float(m), gamma=1.0, length=10))
        assert report.ok
        assert (report.max_residual > 0.0) == (base.max_residual > 0.0)

    def test_non_integer_ratio_is_rejected(self):
        with pytest.raises(RegimeMismatchError):
            decoupling_check(LatticeParams(t=1.0, gamma=0.021, length=100))

    def test_longer_chain_keeps_the_first_block(self):
        report = decoupling_check(LatticeParams(t=1.0, gamma=0.01, length=200))
        assert report.ok and report.split == 100

    def test_block_states_deep_in_the_gauge_stay_finite(self):
        report = decoupling_check(LatticeParams(t=1.0, gamma=0.0008, length=1260))
        assert report.ok and report.split == 1250
        assert np.isfinite(report.max_residual)

    def test_a_non_finite_state_fails_the_certificate(self, monkeypatch):
        import ramphop.analysis as analysis

        real_ungauge = analysis.ungauge

        def one_nan(gauge, w):
            v = real_ungauge(gauge, w)
            v[0] = np.nan
            return v

        monkeypatch.setattr(analysis, "ungauge", one_nan)
        report = decoupling_check(LatticeParams(t=1.0, gamma=0.02, length=100))
        assert not report.ok
        assert np.isnan(report.max_residual)


class TestDissolution:
    def test_imaginary_count_is_monotone_in_the_ramp(self):
        length = 60
        counts = []
        for gamma in np.linspace(0.0, 1.2, 25):
            cs = classify(solve_spectrum(LatticeParams(t=1.0, gamma=float(gamma), length=length)))
            counts.append(cs.counts.n_imaginary)
        assert counts[0] == 0
        assert counts[-1] == length
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_imaginary_states_live_deeper_than_real_ones(self):
        spec = solve_spectrum(LatticeParams(t=1.0, gamma=0.011, length=100), want_vectors=True)
        cs = classify(spec)
        cent = {EigenClass.REAL: [], EigenClass.IMAGINARY: []}
        for i, e in enumerate(cs.entries):
            if e.label in cent:
                cent[e.label].append(localization(spec.eigenvectors[:, i]).centroid)
        assert np.mean(cent[EigenClass.IMAGINARY]) > np.mean(cent[EigenClass.REAL])

    @pytest.mark.parametrize("gamma", [0.02, 0.03])
    def test_interior_bound_states_carry_the_predicted_width(self, gamma):
        length = 100
        spec = solve_spectrum(LatticeParams(t=1.0, gamma=gamma, length=length), want_vectors=True)
        checked = 0
        for i in range(spec.size):
            v = spec.eigenvectors[:, i]
            mask = np.abs(v) > 1e-3 * np.abs(v).max()
            sites = np.nonzero(mask)[0]
            if sites[0] < 3 or sites[-1] > length - 4:
                continue  # boundary-truncated profiles are excluded
            fit = fit_envelope(v, gamma)
            assert fit.width_param == pytest.approx(gamma / 2.0, rel=0.2)
            checked += 1
        assert checked > 10
