"""Observables built on top of raw spectra and eigenstates.

Covers the axis classification of eigenvalues, spacing statistics of the
resulting ladders, localization metrics and Gaussian envelope fits of state
profiles (one column computation over a matrix of states, of which the
single-state ``localization`` and ``fit_envelope`` are one-column calls),
the flux-insertion winding number of the ring spectrum, and the
block-decoupling certificate for integer |t/gamma|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    BasePointOnSpectrumError,
    DegenerateSupportError,
    InsufficientLevelsError,
    RegimeMismatchError,
)
from .eigen import RESIDUAL_RTOL, Spectrum, det_shifted, eig_general, residual
from .gauge import gauge_vector, hermitize, ungauge
from .model import (
    Boundary,
    LatticeParams,
    RegimeKind,
    binary_scale,
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


@dataclass(eq=False)
class StateMetrics:
    """Localization and Gaussian-envelope fields of a family of states.

    ``profiles`` holds each column's amplitudes over its peak ``amplitude``,
    and ``support`` marks the sites above SUPPORT_THRESHOLD of that peak;
    both are (sites, states).  Every other field holds one entry per column.
    The ``env_*`` fields are the fit that ``EnvelopeFit`` describes; they
    are nan for a column whose support has fewer than 5 sites.
    """

    centroid: np.ndarray
    ipr: np.ndarray
    argmax_site: np.ndarray
    amplitude: np.ndarray
    profiles: np.ndarray
    support: np.ndarray
    env_center: np.ndarray
    env_center_unconstrained: np.ndarray
    env_width: np.ndarray
    env_rms: np.ndarray


def state_metrics(states: np.ndarray, center: float | None = None) -> StateMetrics:
    """Probability centroid, inverse participation ratio, peak site and
    Gaussian envelope of every column of a (sites, states) matrix at once.

    Each envelope is the least-squares quadratic in the centred site fitted
    to the column's log amplitudes over its support, all columns solved as
    one batch of 3x3 normal equations.  Where that quadratic opens upwards,
    its peak site stands in for the stationary point.  The center is clamped
    to [1, L], and where it was clamped or the quadratic opens upwards the
    width is refit with the center held fixed.  Passing ``center`` fits every
    width at that fixed center.  A zero column raises
    ``DegenerateSupportError``.

    The work runs on a (states, sites) copy, one state per contiguous row,
    and every sum over sites is numpy's sum along that row: it adds in an
    order fixed by the row alone, so each state's fields are the same bits
    whichever states share its batch.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[0] == 0:
        raise ValueError(f"need a (sites, states) matrix, got shape {states.shape}")
    amp = np.abs(states.T, order="C")
    peak = amp.max(axis=1)
    if np.any(peak == 0.0):
        raise DegenerateSupportError(f"state {int(np.argmin(peak))} is a zero profile")
    sites = np.arange(1, amp.shape[1] + 1, dtype=float)
    # squares of the unscaled amplitudes, so that ties fall as on |v|^2 itself
    argmax_site = np.argmax(amp * amp, axis=1) + 1
    peak_site = sites[amp.argmax(axis=1)]
    mask = amp > SUPPORT_THRESHOLD * peak[:, None]
    ratio = np.divide(amp, peak[:, None], out=amp)  # amp is not needed past here
    centroid, ipr = _moments(ratio, sites)
    env_center, env_unconstrained, env_width, env_rms = _fit_rows(
        ratio, mask, sites, peak_site, center
    )
    return StateMetrics(
        centroid=centroid,
        ipr=ipr,
        argmax_site=argmax_site,
        amplitude=peak,
        profiles=ratio.T,
        support=mask.T,
        env_center=env_center,
        env_center_unconstrained=env_unconstrained,
        env_width=env_width,
        env_rms=env_rms,
    )


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over sites of a * b, one entry per row."""
    return (a * b).sum(axis=1)


def _moments(ratio: np.ndarray, sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centroid and inverse participation ratio of the weights ratio^2."""
    w = ratio * ratio
    total = w.sum(axis=1)
    return _row_dot(w, sites) / total, _row_dot(w, w) / (total * total)


def _fit_rows(
    ratio: np.ndarray,
    mask: np.ndarray,
    sites: np.ndarray,
    peak_site: np.ndarray,
    center: float | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(center, unconstrained center, width, rms) of each row of a peak-one
    profile over its support ``mask``; nan where that has fewer than 5 sites."""
    count = mask.sum(axis=1)
    few = count < 5
    y = np.log(ratio, out=np.zeros_like(ratio), where=mask)
    if center is None:
        xm = _row_dot(mask, sites) / count
        c2, c1 = _quadratic_fit(sites - xm[:, None], y, mask, count, few)
        opens_down = c2 < 0.0
        shift = np.divide(c1, 2.0 * c2, out=np.zeros_like(c1), where=opens_down)
        unconstrained = np.where(opens_down, xm - shift, peak_site)
        fitted = np.clip(unconstrained, 1.0, sites[-1])
        refit = (fitted != unconstrained) | ~opens_down
        width = np.where(refit, _refit_widths(sites, y, mask, count, fitted), -c2)
    else:
        unconstrained = fitted = np.full(len(count), float(center))
        width = _refit_widths(sites, y, mask, count, fitted)
    # the misfit of the Gaussian, formed in one buffer
    misfit = sites - fitted[:, None]
    misfit *= misfit
    misfit *= -width[:, None]
    misfit *= mask
    np.exp(misfit, out=misfit)
    np.subtract(ratio, misfit, out=misfit)
    misfit *= mask
    rms = np.sqrt(_row_dot(misfit, misfit) / count)
    return tuple(np.where(few, np.nan, field) for field in (fitted, unconstrained, width, rms))


def _quadratic_fit(
    u: np.ndarray, y: np.ndarray, mask: np.ndarray, count: np.ndarray, few: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(c2, c1) of the least-squares c2 u^2 + c1 u + c0 to each row of y
    over its support, from one batch of 3x3 normal equations; ``u`` is
    overwritten."""
    u *= mask
    u2 = u * u
    s1, s2 = u.sum(axis=1), u2.sum(axis=1)
    s3, s4 = _row_dot(u2, u), _row_dot(u2, u2)
    normal = np.stack(
        [np.stack(row, axis=-1) for row in ((s4, s3, s2), (s3, s2, s1), (s2, s1, count))],
        axis=-2,
    )
    normal[few] = np.eye(3)  # may be singular there, and is not reported
    rhs = np.stack([_row_dot(u2, y), _row_dot(u, y), y.sum(axis=1)], axis=-1)
    coef = np.linalg.solve(normal, rhs[..., None])[..., 0]
    return coef[:, 0], coef[:, 1]


def _refit_widths(
    x: np.ndarray, y: np.ndarray, mask: np.ndarray, count: np.ndarray, center: np.ndarray
) -> np.ndarray:
    """Least squares of each row's y against -w (x-center)^2 + const over
    its support; 0 where (x-center)^2 is constant there."""
    qm = x - center[:, None]
    qm *= qm
    qm *= mask
    qm -= (qm.sum(axis=1) / count)[:, None]
    qm *= mask
    denom = _row_dot(qm, qm)
    slope = _row_dot(qm, y - (y.sum(axis=1) / count)[:, None])
    return np.divide(-slope, denom, out=np.zeros_like(denom), where=denom != 0.0)


def fit_envelope(
    state: np.ndarray, gamma: float, center: float | None = None
) -> EnvelopeFit:
    """Fit a Gaussian envelope to an amplitude profile: ``state_metrics`` on
    one column.

    ``gamma`` names the physical context (the ramped chain predicts a width
    of |gamma|/2) but does not enter the fit.  Pass ``center`` to fit the
    width with the center held fixed.
    """
    m = state_metrics(np.asarray(state)[:, None], center)
    support = m.support[:, 0]
    if int(support.sum()) < 5:
        raise DegenerateSupportError(f"support has {int(support.sum())} sites, need 5")
    return EnvelopeFit(
        amplitude=float(m.amplitude[0]),
        center=float(m.env_center[0]),
        width_param=float(m.env_width[0]),
        rms_error=float(m.env_rms[0]),
        support_mask=support,
        center_unconstrained=float(m.env_center_unconstrained[0]),
    )


def global_envelope(states: np.ndarray) -> np.ndarray:
    """Pointwise maximum amplitude over a (sites, states) matrix, unit peak.

    Each state enters with unit 2-norm so the family shares one scale; the
    combined profile is then rescaled to maximum one.  Each column is first
    divided by a power of two near its largest amplitude, which is exact, so
    the squares in its norm neither underflow nor overflow.
    """
    if not isinstance(states, np.ndarray) or states.ndim != 2:
        raise TypeError("states must be a (sites, states) ndarray, one state per column")
    mat = states.astype(complex)
    if mat.shape[1] == 0:
        raise ValueError("need at least one state")
    mat /= binary_scale(mat, axis=0)
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
    """Probability centroid, inverse participation ratio, and peak site:
    ``state_metrics`` on one column."""
    m = state_metrics(np.asarray(state)[:, None])
    return LocalizationMetrics(
        centroid=float(m.centroid[0]), ipr=float(m.ipr[0]), argmax_site=int(m.argmax_site[0])
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

    The ring is built once, and each flux step swaps only its boundary
    phase before ``det_shifted`` evaluates the scaled-continuant pair.  The
    grid is refined once if any step turns the phase by more than pi/2;
    jumps that survive refinement, like a vanishing determinant, mean the
    base point is on (or hugging) the spectrum.  The determinant vanishes
    when its geometric mean |det|^(1/L) falls below 1e-9 times the larger
    of ||H||_F / sqrt(L) and |base|, a floor that scales with the ring.
    """
    if params.boundary is not Boundary.PBC:
        raise RegimeMismatchError("winding is defined for the ring")
    if theta_steps < 64:
        raise ValueError("need at least 64 flux steps")
    base = complex(base)
    h0 = build_hamiltonian(params)
    scale = max(h0.frobenius_norm() / math.sqrt(params.length), abs(base))
    floor = 1e-9 * scale

    def attempt(steps: int) -> WindingTrace | None:
        thetas = np.linspace(0.0, 2.0 * math.pi, steps + 1)
        log_abs = np.empty(steps + 1)
        phase = np.empty(steps + 1)
        for i, th in enumerate(thetas.tolist()):
            # the ring of build_flux_twisted(params, th), its bonds built once
            ring = replace(h0, boundary_phase=complex(math.cos(th), math.sin(th)))
            det = det_shifted(ring, base)
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
    """Certify that the eigenstates of the block that closes on itself,
    padded with zeros, solve the chain.

    Only meaningful at integer |t/gamma|.  For t/gamma > 0 the backward
    amplitude of the split bond vanishes and block A, on sites 1..p, closes
    on itself; for t/gamma < 0 the forward amplitude vanishes and block B,
    on the sites past p, does, with levels i times those of ``block_b``.
    ``split`` is p either way, and the tail is the largest amplitude off
    the certified block.
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
    # the signs, not their product, which underflows at tiny t and gamma
    if (params.t > 0) == (params.gamma > 0):
        spec = eig_general(dec.block_a, want_vectors=True)
        levels, pad, outside = spec.eigenvalues, (0, params.length - m), slice(m, None)
    else:
        spec = eig_general(dec.block_b, want_vectors=True)
        levels, pad, outside = 1j * spec.eigenvalues, (m, 0), slice(None, m)
    residuals = np.zeros(spec.size)
    tails = np.zeros(spec.size)
    for idx in range(spec.size):
        v = ungauge(ga, np.pad(spec.eigenvectors[:, idx], pad))
        tails[idx] = np.max(np.abs(v[outside]), initial=0.0)
        residuals[idx] = residual(h, levels[idx], v)
    # np.max carries a nan through, and a nan fails both comparisons
    max_res = float(np.max(residuals, initial=0.0))
    max_tail = float(np.max(tails, initial=0.0))
    return DecouplingReport(
        ok=max_res < tol and max_tail < DECOUPLING_TAIL_TOL,
        split=m,
        n_states=spec.size,
        max_residual=max_res,
        max_tail=max_tail,
        residual_tolerance=tol,
        tail_tolerance=DECOUPLING_TAIL_TOL,
    )
