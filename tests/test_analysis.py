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
    winding_number,
    winding_trace,
)
from ramphop.analysis import CLASSES, LADDER_RELATIVE_STDEV

from _oracles import classify_per_entry

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
        env = global_envelope([state])
        assert np.allclose(env, [0.2, 1.0, 0.4])

    def test_global_envelope_is_pointwise_max(self):
        a = np.array([1.0, 0.1, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.1, 1.0])
        env = global_envelope([a, b])
        assert np.allclose(env, [1.0, 0.1, 0.1, 1.0])


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


class TestWinding:
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

    def test_non_integer_ratio_is_rejected(self):
        with pytest.raises(RegimeMismatchError):
            decoupling_check(LatticeParams(t=1.0, gamma=0.021, length=100))

    def test_longer_chain_keeps_the_first_block(self):
        report = decoupling_check(LatticeParams(t=1.0, gamma=0.01, length=200))
        assert report.ok and report.split == 100

    # the gauge at the split underflows, which hermitize's block coupling reports
    @pytest.mark.filterwarnings("ignore:divide by zero encountered in scalar divide:RuntimeWarning")
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
