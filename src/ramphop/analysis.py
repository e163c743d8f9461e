"""Observables built on top of raw spectra and eigenstates.

Covers the axis classification of eigenvalues, spacing statistics of the
resulting ladders, Gaussian envelope fits of state profiles, localization
metrics, the flux-insertion winding number of the ring spectrum, and the
block-decoupling certificate for integer |t/gamma|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BasePointOnSpectrumError,
    DegenerateSupportError,
    InsufficientLevelsError,
    RegimeMismatchError,
)
from .eigen import RESIDUAL_RTOL, Spectrum, det_shifted, eig_sym_tridiag, residual
from .gauge import gauge_vector, hermitize, ungauge
from .model import (
    Boundary,
    LatticeParams,
    RegimeKind,
    build_flux_twisted,
    build_hamiltonian,
    classify_regime,
)

# Axis classification tolerance, relative to max(1, spectral radius).
CLASS_TOL_SCALE = 1e-6

# An eigenvalue ladder counts as equally spaced below this relative spread,
# measured over the interior fraction of the sorted levels.
LADDER_RELATIVE_STDEV = 0.05
LADDER_INTERIOR_FRACTION = 0.8

# Sites fainter than this fraction of the peak are left out of envelope fits.
SUPPORT_THRESHOLD = 1e-3

DEFAULT_THETA_STEPS = 256

# A block-A state decouples when its amplitudes past the split stay below this (peak 1).
DECOUPLING_TAIL_TOL = 1e-12


class EigenClass(str, Enum):
    REAL = "real"
    IMAGINARY = "imaginary"
    COMPLEX = "complex"


@dataclass(frozen=True)
class ClassifiedValue:
    """One level of ``ClassifiedSpectrum.entries``."""

    value: complex
    label: EigenClass
    index_in_class: int


@dataclass(frozen=True)
class ClassCounts:
    n_real: int
    n_imaginary: int
    n_complex: int

    @property
    def total(self) -> int:
        return self.n_real + self.n_imaginary + self.n_complex


# Class codes index this tuple: 0 real, 1 imaginary, 2 complex.
CLASSES = tuple(EigenClass)
_CLASS_NAMES = np.array([label.value for label in CLASSES])


@dataclass(eq=False)
class ClassifiedSpectrum:
    """Axis classes of a spectrum, held as one column per property.

    ``eigenvalues`` keeps the input order; ``codes`` holds each level's
    class code (its position in ``CLASSES``) and ``ranks`` its position
    inside its class.  ``order`` lists the level indices class by class,
    real then imaginary then complex, each class in rank order.
    """

    eigenvalues: np.ndarray
    codes: np.ndarray
    ranks: np.ndarray
    order: np.ndarray
    counts: ClassCounts
    tolerance: float

    def class_names(self) -> np.ndarray:
        """The class name of each level, in eigenvalue order."""
        return _CLASS_NAMES[self.codes]

    def mask(self, label: EigenClass) -> np.ndarray:
        """Whether each level, in eigenvalue order, belongs to one class."""
        return self.codes == CLASSES.index(label)

    def values(self, label: EigenClass) -> np.ndarray:
        """Members of one class, sorted by their class ordering."""
        return self.eigenvalues[self.order[self.mask(label)[self.order]]]

    @property
    def entries(self) -> list[ClassifiedValue]:
        """One record per level in eigenvalue order, built from the columns."""
        rows = zip(self.eigenvalues.tolist(), self.codes.tolist(), self.ranks.tolist())
        return [ClassifiedValue(value, CLASSES[code], rank) for value, code, rank in rows]


def classify(spectrum: Spectrum | np.ndarray) -> ClassifiedSpectrum:
    """Label each eigenvalue by its distance to the real and imaginary axes.

    A value within tolerance of both axes (i.e. near the origin) counts as
    real, which keeps zero modes on the real ladder.  Inside its class a
    level is ranked by its real part (real class), its imaginary part
    (imaginary class) or its real then imaginary part (complex class); ties
    keep eigenvalue order.
    """
    if isinstance(spectrum, Spectrum):
        if bool(np.any(spectrum.unconverged)):
            raise ValueError("spectrum carries unconverged eigenpairs")
        spectrum = spectrum.eigenvalues
    values = np.asarray(spectrum, dtype=complex)
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    tolerance = CLASS_TOL_SCALE * max(1.0, radius)
    re, im = values.real, values.imag
    # near the origin the real class wins the tie
    codes = np.where(np.abs(im) <= tolerance, 0, np.where(np.abs(re) <= tolerance, 1, 2))
    # np.lexsort is stable and sorts by its last key first
    order = np.lexsort((np.where(codes == 2, im, 0.0), np.where(codes == 1, im, re), codes))
    counts = np.bincount(codes, minlength=len(CLASSES))
    starts = np.cumsum(counts) - counts
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.arange(len(values)) - starts[codes[order]]
    return ClassifiedSpectrum(
        eigenvalues=values,
        codes=codes,
        ranks=ranks,
        order=order,
        counts=ClassCounts(*counts.tolist()),
        tolerance=float(tolerance),
    )


@dataclass(frozen=True)
class LadderStats:
    spacings: np.ndarray
    mean: float
    stdev: float
    relative_stdev: float
    interior_window: float

    @property
    def is_ladder(self) -> bool:
        return self.relative_stdev < LADDER_RELATIVE_STDEV


def level_spacings(cs: ClassifiedSpectrum, which: EigenClass) -> LadderStats:
    """Consecutive spacings of one sorted ladder, over its interior window."""
    if which is EigenClass.REAL:
        levels = np.sort(cs.values(EigenClass.REAL).real)
    elif which is EigenClass.IMAGINARY:
        levels = np.sort(cs.values(EigenClass.IMAGINARY).imag)
    else:
        raise ValueError("spacings are defined for the real or imaginary ladder")
    n = len(levels)
    if n < 3:
        raise InsufficientLevelsError(f"need at least 3 levels, got {n}")
    trim = int(round(n * (1.0 - LADDER_INTERIOR_FRACTION) / 2.0))
    trim = min(trim, (n - 3) // 2)
    kept = levels[trim : n - trim]
    spacings = np.diff(kept)
    mean = float(np.mean(spacings))
    stdev = float(np.std(spacings))
    rel = stdev / abs(mean) if mean != 0.0 else math.inf
    return LadderStats(
        spacings=spacings,
        mean=mean,
        stdev=stdev,
        relative_stdev=rel,
        interior_window=len(kept) / n,
    )


@dataclass(eq=False)
class EnvelopeFit:
    """Least-squares Gaussian fit of a profile, amplitude * exp(-w (x-x0)^2).

    The fit runs on log amplitudes over the support mask.  The reported
    center is constrained to the site range [1, L]; a distribution whose
    quadratic fit extrapolates past the first site (a boundary-truncated
    Gaussian) reports the edge site, with the width refit at that center.
    The raw stationary point is kept in ``center_unconstrained``.
    """

    amplitude: float
    center: float
    width_param: float
    rms_error: float
    support_mask: np.ndarray
    center_unconstrained: float


def fit_envelope(
    state: np.ndarray, gamma: float, center: float | None = None
) -> EnvelopeFit:
    """Fit a Gaussian envelope to an amplitude profile.

    ``gamma`` names the physical context (the ramped chain predicts a width
    of |gamma|/2) but does not enter the fit.  Pass ``center`` to fit the
    width with the center held fixed.
    """
    amp = np.abs(np.asarray(state, dtype=complex))
    peak = float(np.max(amp))
    if peak == 0.0:
        raise DegenerateSupportError("zero profile")
    mask = amp > SUPPORT_THRESHOLD * peak
    if int(np.sum(mask)) < 5:
        raise DegenerateSupportError(f"support has {int(np.sum(mask))} sites, need 5")
    n = len(amp)
    sites = np.arange(1, n + 1, dtype=float)
    x = sites[mask]
    y = np.log(amp[mask] / peak)

    if center is None:
        xm = float(np.mean(x))
        u = x - xm
        basis = np.stack([u * u, u, np.ones_like(u)], axis=1)
        coef = np.linalg.solve(basis.T @ basis, basis.T @ y)
        c2, c1 = float(coef[0]), float(coef[1])
        if c2 < 0.0:
            center_unc = xm - c1 / (2.0 * c2)
        else:
            center_unc = float(sites[int(np.argmax(amp))])
        fitted_center = min(max(center_unc, 1.0), float(n))
        if fitted_center != center_unc or c2 >= 0.0:
            width = _refit_width(x, y, fitted_center)
        else:
            width = -c2
    else:
        center_unc = float(center)
        fitted_center = float(center)
        width = _refit_width(x, y, fitted_center)

    model = np.exp(-width * (x - fitted_center) ** 2)
    rms = float(np.sqrt(np.mean((amp[mask] / peak - model) ** 2)))
    return EnvelopeFit(
        amplitude=peak,
        center=fitted_center,
        width_param=float(width),
        rms_error=rms,
        support_mask=mask,
        center_unconstrained=center_unc,
    )


def _refit_width(x: np.ndarray, y: np.ndarray, center: float) -> float:
    """Least squares of y against -w (x-center)^2 + const."""
    q = (x - center) ** 2
    qm = q - np.mean(q)
    denom = float(qm @ qm)
    if denom == 0.0:
        return 0.0
    slope = float(qm @ (y - np.mean(y))) / denom
    return -slope


def global_envelope(states) -> np.ndarray:
    """Pointwise maximum amplitude over a family of states, unit peak.

    Each state enters with unit 2-norm so the family shares one scale; the
    combined profile is then rescaled to maximum one.
    """
    if isinstance(states, np.ndarray) and states.ndim == 2:
        mat = states.astype(complex)
    else:
        seq = [np.asarray(s, dtype=complex) for s in states]
        if not seq:
            raise ValueError("need at least one state")
        mat = np.column_stack(seq)
    if mat.shape[1] == 0:
        raise ValueError("need at least one state")
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("zero-norm state in family")
    amp = np.abs(mat) / norms[None, :]
    env = amp.max(axis=1)
    return env / env.max()


@dataclass(frozen=True)
class LocalizationMetrics:
    centroid: float
    ipr: float
    argmax_site: int


def localization(state: np.ndarray) -> LocalizationMetrics:
    """Probability centroid, inverse participation ratio, and peak site."""
    w = np.abs(np.asarray(state, dtype=complex)) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("zero vector has no localization metrics")
    sites = np.arange(1, len(w) + 1, dtype=float)
    return LocalizationMetrics(
        centroid=float(sites @ w) / total,
        ipr=float(np.sum(w * w)) / total**2,
        argmax_site=int(np.argmax(w)) + 1,
    )


@dataclass(eq=False)
class WindingTrace:
    thetas: np.ndarray
    det_log_abs: np.ndarray
    det_phase: np.ndarray
    winding: int
    theta_steps: int

    @property
    def point_gap(self) -> bool:
        return self.winding != 0


def winding_trace(
    params: LatticeParams, base: complex, theta_steps: int = DEFAULT_THETA_STEPS
) -> WindingTrace:
    """Phase winding of det(H(theta) - base) around one flux quantum.

    The grid is refined once if any step turns the phase by more than pi/2;
    jumps that survive refinement, like a vanishing determinant, mean the
    base point is on (or hugging) the spectrum.
    """
    if params.boundary is not Boundary.PBC:
        raise RegimeMismatchError("winding is defined for the ring")
    if theta_steps < 64:
        raise ValueError("need at least 64 flux steps")
    base = complex(base)
    h0 = build_hamiltonian(params)
    scale = max(1.0, h0.frobenius_norm() / math.sqrt(params.length), abs(base))
    floor = 1e-9 * scale

    def attempt(steps: int) -> WindingTrace | None:
        thetas = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        log_abs = np.empty(steps + 1)
        phase = np.empty(steps + 1)
        for i, th in enumerate(thetas):
            det = det_shifted(build_flux_twisted(params, float(th)), base)
            log_abs[i] = det.log_abs
            phase[i] = math.atan2(det.phase.imag, det.phase.real)
        mean_dist = np.exp(log_abs / params.length)  # geometric mean |E_n - base|
        if not np.all(np.isfinite(log_abs)) or float(np.min(mean_dist)) < floor:
            raise BasePointOnSpectrumError(
                f"determinant collapses along the flux loop (min {np.min(mean_dist):.3e})"
            )
        dphi = np.diff(phase)
        dphi = (dphi + math.pi) % (2.0 * math.pi) - math.pi
        if float(np.max(np.abs(dphi))) >= math.pi / 2.0:
            return None
        winding = int(round(float(np.sum(dphi)) / (2.0 * math.pi)))
        return WindingTrace(thetas, log_abs, phase, winding, steps)

    trace = attempt(theta_steps)
    if trace is None:
        trace = attempt(2 * theta_steps)
    if trace is None:
        raise BasePointOnSpectrumError(
            "phase jumps persist after grid refinement; base point too close to the spectrum"
        )
    return trace


def winding_number(
    params: LatticeParams, base: complex, theta_steps: int = DEFAULT_THETA_STEPS
) -> int:
    return winding_trace(params, base, theta_steps).winding


@dataclass(frozen=True)
class DecouplingReport:
    ok: bool
    split: int
    n_states: int
    max_residual: float
    max_tail: float
    residual_tolerance: float
    tail_tolerance: float


def decoupling_check(params: LatticeParams) -> DecouplingReport:
    """Certify that block-A eigenstates, padded with zeros, solve the chain.

    Only meaningful at integer |t/gamma|, where the backward amplitude of
    the split bond vanishes and the first block closes on itself.
    """
    regime = classify_regime(params)
    if regime.kind is not RegimeKind.INTEGER_SPLIT:
        raise RegimeMismatchError(
            f"decoupling requires integer |t/gamma|, got {regime.kind.value}"
        )
    if params.boundary is not Boundary.OBC:
        raise RegimeMismatchError("decoupling certificate applies to the open chain")
    m = regime.split
    h = build_hamiltonian(params)
    tol = RESIDUAL_RTOL * h.frobenius_norm()
    dec = hermitize(params)
    ga = gauge_vector(params)
    spec_a = eig_sym_tridiag(dec.block_a, want_vectors=True)
    residuals = np.zeros(spec_a.size)
    tails = np.zeros(spec_a.size)
    for idx in range(spec_a.size):
        v = ungauge(ga, np.pad(spec_a.eigenvectors[:, idx], (0, params.length - m)))
        tails[idx] = np.max(np.abs(v[m:]), initial=0.0)
        residuals[idx] = residual(h, spec_a.eigenvalues[idx], v)
    # np.max carries a nan through, and a nan fails both comparisons
    max_res = float(np.max(residuals, initial=0.0))
    max_tail = float(np.max(tails, initial=0.0))
    return DecouplingReport(
        ok=max_res < tol and max_tail < DECOUPLING_TAIL_TOL,
        split=m,
        n_states=spec_a.size,
        max_residual=max_res,
        max_tail=max_tail,
        residual_tolerance=tol,
        tail_tolerance=DECOUPLING_TAIL_TOL,
    )
