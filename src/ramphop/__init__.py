"""Spectra and skin-effect diagnostics for linearly ramped nonreciprocal chains."""

from .analysis import (
    ClassifiedSpectrum,
    DecouplingReport,
    EigenClass,
    EnvelopeFit,
    LadderStats,
    LocalizationMetrics,
    StateMetrics,
    WindingTrace,
    classify,
    decoupling_check,
    fit_envelope,
    global_envelope,
    level_spacings,
    localization,
    state_metrics,
    winding_number,
    winding_trace,
)
from .eigen import (
    ScaledDeterminant,
    Spectrum,
    det_shifted,
    eig_general,
    eig_sym_tridiag,
    residual,
    spectral_moments,
)
from .errors import (
    BasePointOnSpectrumError,
    ConvergenceError,
    DegenerateBondError,
    DegenerateSupportError,
    InsufficientLevelsError,
    RegimeMismatchError,
)
from .gauge import (
    BlockCoupling,
    BlockDecomposition,
    GaugeVector,
    balanced_form,
    gauge_vector,
    hermitize,
    ungauge,
)
from .model import (
    BandedHamiltonian,
    Boundary,
    LatticeParams,
    Regime,
    RegimeKind,
    build_flux_twisted,
    build_hamiltonian,
    build_hatano_nelson,
    classify_regime,
    split_point,
)
from .solve import block_spectra, solve_spectrum

__all__ = [name for name in dir() if not name.startswith("_")]
