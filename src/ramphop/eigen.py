"""Eigensolvers and exact matrix functionals for the chain matrices.

Every matrix here is a ``BandedHamiltonian``.  Eigenvalues come from LAPACK
through numpy: ``eigvalsh`` for the real symmetric gauge blocks,
``eigvals``/``eig`` for rings, and ``eigvals`` of the gauge-similar
complex-symmetric form for coupled open chains.  Every open-chain and
gauge-block eigenvector comes from one O(n) kernel in ``chain_spectrum``:
Fernando's twisted factorization, carried in log modulus and phase so that
entries far beyond floating range only cost underflow of the negligible
ones.  Shifted determinants come from the tridiagonal continuant recurrence
with a carried power-of-two exponent, including the rank-two correction for
ring closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import BandedHamiltonian

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)

# Accuracy target: residuals are measured against this multiple of the
# Frobenius norm of the matrix being solved.
RESIDUAL_RTOL = 1e-8

# Factors per partial product of frexp mantissas: each lies in [0.5, 1), so
# a chunk stays above 2**-512 and cannot underflow.
_MANTISSA_CHUNK = 512


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues (and optionally right eigenvectors) of one matrix.

    Eigenvalues are sorted by (real, imaginary) part; eigenvector columns
    follow the same order and carry unit 2-norm.  ``residuals`` is present
    exactly when eigenvectors are, and pairs whose residual misses the
    tolerance, or is not a number, are marked in ``unconverged`` rather than
    aborting the solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residuals: np.ndarray | None
    unconverged: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.unconverged is None:
            self.unconverged = np.zeros(len(self.eigenvalues), dtype=bool)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


# ---------------------------------------------------------------------------
# eigenvectors by twisted factorization
# ---------------------------------------------------------------------------


def _guard_pivots(p: np.ndarray, tiny: float) -> np.ndarray:
    p[np.abs(p) < tiny] = tiny
    return p


def _log_polar_cumprod(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running products down axis 0 as (log modulus, unit phase).

    The phase is written over ``ratios``.  A zero ratio gives log modulus
    -inf and phase 1, so everything past an exactly vanishing bond comes
    out exactly zero.
    """
    log_mag = np.abs(ratios)
    zero = log_mag == 0.0
    np.divide(ratios, log_mag, out=ratios, where=~zero)
    ratios[zero] = 1.0
    np.log(log_mag, out=log_mag, where=~zero)
    log_mag[zero] = -np.inf
    np.cumsum(log_mag, axis=0, out=log_mag)
    np.cumprod(ratios, axis=0, out=ratios)
    return log_mag, ratios


def _twisted_vectors(upper, lower, eigenvalues) -> np.ndarray:
    """Right eigenvectors of a zero-diagonal tridiagonal, one unit column per eigenvalue.

    Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997;
    Dhillon & Parlett, LAA 387, 2004, as in LAPACK ``dlar1v``), for all
    eigenvalues at once: the loop runs over sites, numpy over eigenvalues.
    With shift -lambda, the forward pivots are
    d+_k = -lambda - u_{k-1} l_{k-1} / d+_{k-1}, the backward pivots d-_k
    follow the same rule from the other end, and the two meet at the twist r
    minimising |d+_k + d-_k + lambda|.  From v_r = 1 the vector runs outward
    as v_k = -u_k v_{k+1} / d+_k below the twist and v_k = -l_{k-1} v_{k-1}
    / d-_k above it, every row but r satisfied exactly.  Entries are carried as log modulus and phase and normalised
    once at the end, so the exponential gauge profiles of the ramped chain
    never overflow.  The pivots depend on the bond products only, which
    makes the result the same as running on any diagonally similar form
    and mapping back.  A pivot below eps * scale is replaced by that value.
    """
    n = len(upper) + 1
    shift = np.repeat(-eigenvalues[None, :], n, axis=0)
    bonds = (upper * lower)[:, None]
    scale = max(
        float(np.max(np.abs(shift), initial=0.0)),
        float(np.max(np.abs(upper), initial=0.0)),
        float(np.max(np.abs(lower), initial=0.0)),
    )
    tiny = max(_EPS * scale, float(np.finfo(float).tiny))
    fwd = np.empty_like(shift)
    bwd = np.empty_like(shift)
    fwd[:1] = shift[:1]
    bwd[-1:] = shift[-1:]
    for k in range(n - 1):
        fwd[k + 1] = shift[k + 1] - bonds[k] / _guard_pivots(fwd[k], tiny)
        j = n - 2 - k
        bwd[j] = shift[j] - bonds[j] / _guard_pivots(bwd[j + 1], tiny)
    shift -= fwd
    shift -= bwd
    twist = np.argmin(np.abs(shift), axis=0)
    del shift
    site = np.arange(n)[:, None]
    # pivots become the ratios v_k / v_{k+1} below the twist and
    # v_k / v_{k-1} above it, and 1 everywhere else
    below, above = fwd, bwd
    np.divide(-upper[:, None], fwd[:-1], out=below[:-1])
    below[site >= twist] = 1.0
    np.divide(-lower[:, None], bwd[1:], out=above[1:])
    above[site <= twist] = 1.0
    log_v, v = _log_polar_cumprod(above)
    log_below, phase_below = _log_polar_cumprod(below[::-1])
    log_v += log_below[::-1]
    v *= phase_below[::-1]
    log_v -= np.max(log_v, axis=0)
    v *= np.exp(log_v)
    v /= np.linalg.norm(v, axis=0)
    return v


def eig_sym_tridiag(block: BandedHamiltonian, want_vectors: bool = False) -> Spectrum:
    """Eigendecomposition of a real symmetric zero-diagonal gauge block.

    Eigenvalues come from LAPACK ``eigvalsh`` (ascending) and eigenvectors,
    through ``chain_spectrum``, from the twisted factorization, whose tiny
    components keep the relative accuracy that log-domain ungauging needs.
    The gauge blocks are unreduced (no zero off-diagonal), so their
    eigenvalues are simple; a repeated eigenvalue of a reduced block would
    get repeated vectors.  Returns the spectrum of the stored real matrix;
    callers holding an anti-symmetrizable block multiply by i themselves.
    """
    return chain_spectrum(block, np.linalg.eigvalsh(block.to_dense().real), want_vectors)


# ---------------------------------------------------------------------------
# scaled determinant arithmetic (mantissa * 2**exponent)
# ---------------------------------------------------------------------------


def _ldexp_c(m: complex, k: int) -> complex:
    return complex(math.ldexp(m.real, k), math.ldexp(m.imag, k))


def _snorm(m: complex, e: int) -> tuple[complex, int]:
    if m == 0:
        return 0.0 + 0.0j, 0
    k = math.frexp(abs(m))[1]
    if -512 < k < 512:
        return m, e
    return _ldexp_c(m, -k), e + k


def _smul(a: tuple[complex, int], b: tuple[complex, int]) -> tuple[complex, int]:
    return _snorm(a[0] * b[0], a[1] + b[1])


def _sadd(a: tuple[complex, int], b: tuple[complex, int]) -> tuple[complex, int]:
    if a[0] == 0:
        return b
    if b[0] == 0:
        return a
    if a[1] < b[1]:
        a, b = b, a
    shift = b[1] - a[1]
    if shift < -2000:
        return a
    return _snorm(a[0] + _ldexp_c(b[0], shift), a[1])


def _sprod(values: np.ndarray) -> tuple[complex, int]:
    """Product of real factors as (mantissa, exponent); any zero gives (0, 0)."""
    mantissas, exponents = np.frexp(values)
    if not np.all(mantissas):
        return 0.0 + 0.0j, 0
    m, e = 1.0, int(np.sum(exponents, dtype=np.int64))
    for i in range(0, len(mantissas), _MANTISSA_CHUNK):
        m, k = math.frexp(m * float(np.prod(mantissas[i : i + _MANTISSA_CHUNK])))
        e += k
    return complex(m), e


def _continuant(upper, lower, z) -> tuple[complex, int]:
    """Determinant of (T - zI) for the zero-diagonal tridiagonal T."""
    a = 0j - z
    exp = 0
    p_prev, p = 1.0 + 0.0j, a
    for up, lo in zip(upper, lower):
        w = complex(up) * complex(lo)
        p_prev, p = p, a * p - w * p_prev
        m = max(abs(p), abs(p_prev))
        if m > 2.0**256:
            p = _ldexp_c(p, -512)
            p_prev = _ldexp_c(p_prev, -512)
            exp += 512
        elif 0.0 < m < 2.0**-256:
            p = _ldexp_c(p, 512)
            p_prev = _ldexp_c(p_prev, 512)
            exp -= 512
    return _snorm(p, exp)


def _det_scaled(h: BandedHamiltonian, z: complex) -> tuple[complex, int]:
    """det(H - zI): continuant plus ring-closure correction."""
    p = _continuant(h.upper, h.lower, z)
    if not h.is_pbc:
        return p
    n = h.length
    if n < 3:
        raise ValueError("corner-corrected determinant requires dimension >= 3")
    q = _continuant(h.upper[1 : n - 2], h.lower[1 : n - 2], z)
    corner_up, corner_down = h.effective_corners()
    cu = (complex(corner_up), 0)
    cd = (complex(corner_down), 0)
    cucd = _smul(cu, cd)
    sgn = 1.0 if n % 2 == 1 else -1.0
    cyc_u = _smul(cu, _sprod(h.upper))
    cyc_d = _smul(cd, _sprod(h.lower))
    cyc = _smul((sgn + 0.0j, 0), _sadd(cyc_u, cyc_d))
    return _sadd(p, _sadd(_smul((-1.0 + 0.0j, 0), _smul(cucd, q)), cyc))


@dataclass(frozen=True)
class ScaledDeterminant:
    """Determinant as mantissa * 2**exponent to dodge overflow."""

    mantissa: complex
    exponent: int

    @property
    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.exponent * _LN2

    @property
    def phase(self) -> complex:
        if self.mantissa == 0:
            return 0.0 + 0.0j
        return self.mantissa / abs(self.mantissa)

    def value(self) -> complex:
        return _ldexp_c(self.mantissa, self.exponent)


def det_shifted(h, z: complex) -> ScaledDeterminant:
    """det(H - zI) via the continuant recurrence with scale tracking."""
    if not isinstance(h, BandedHamiltonian):
        raise TypeError("det_shifted expects a banded matrix")
    mantissa, exponent = _det_scaled(h, complex(z))
    return ScaledDeterminant(mantissa, exponent)


@dataclass(frozen=True)
class SpectralMoments:
    trace: float
    trace_sq: float
    log_abs_det: float
    det_phase: complex


def spectral_moments(h: BandedHamiltonian) -> SpectralMoments:
    """Exact trace identities and the scaled determinant at z = 0.

    The diagonal vanishes, so tr H = 0 and tr H^2 is twice the sum of bond
    products, the ring closure included; the flux phases cancel in that
    product.
    """
    trace_sq = 2.0 * float(np.sum(h.upper * h.lower))
    if h.is_pbc:
        trace_sq += 2.0 * h.corner_up * h.corner_down
    det = det_shifted(h, 0.0)
    return SpectralMoments(
        trace=0.0,
        trace_sq=trace_sq,
        log_abs_det=det.log_abs,
        det_phase=det.phase,
    )


def residual(h: BandedHamiltonian, eigenvalue: complex, v: np.ndarray) -> float:
    """Relative eigenpair defect ||H v - E v|| / ||v||."""
    v = np.asarray(v, dtype=complex)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("zero vector has no residual")
    return float(np.linalg.norm(h.matvec(v) - eigenvalue * v)) / nv


# ---------------------------------------------------------------------------
# general complex spectra
# ---------------------------------------------------------------------------


def _checked(h: BandedHamiltonian, lam, vectors) -> Spectrum:
    """Spectrum with residuals ||H v - E v||; a nan residual counts as unconverged."""
    hv, fro = h.matvec(vectors), h.frobenius_norm()
    hv -= vectors * lam[None, :]
    residuals = np.linalg.norm(hv, axis=0)
    return Spectrum(
        eigenvalues=lam,
        eigenvectors=vectors,
        residuals=residuals,
        unconverged=~(residuals <= RESIDUAL_RTOL * max(fro, 1e-300)),
    )


def chain_spectrum(h: BandedHamiltonian, eigenvalues, want_vectors: bool) -> Spectrum:
    """Spectrum of an open chain whose eigenvalues are already known.

    Sorts them by (real, imaginary) part and, when asked, adds the
    twisted-factorization eigenvectors with their residuals on the banded
    ``matvec``.  A chain of no sites has an empty spectrum.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    lam = lam[np.lexsort((lam.imag, lam.real))]
    if not want_vectors:
        return Spectrum(eigenvalues=lam, eigenvectors=None, residuals=None)
    vectors = _twisted_vectors(h.upper, h.lower, lam) if h.length else np.zeros((0, 0), complex)
    return _checked(h, lam, vectors)


def _symmetric_chain(h: BandedHamiltonian) -> np.ndarray:
    """Dense complex-symmetric tridiagonal similar to an open chain.

    The off-diagonal sqrt(upper * lower) is the diagonal gauge similarity
    of the chain: it keeps entries of the size of the amplitudes, where the
    raw nonreciprocal chain would let rounding move its eigenvalues off the
    real and imaginary axes.
    """
    off = np.sqrt(h.upper * h.lower + 0j)
    return BandedHamiltonian(h.length, off, off).to_dense()


def eig_general(h: BandedHamiltonian, want_vectors: bool = False) -> Spectrum:
    """Complex spectrum of a banded Hamiltonian.

    Rings are handed to LAPACK (``numpy.linalg.eig``).  An open chain takes
    its eigenvalues from LAPACK on the gauge-similar complex-symmetric form
    and its eigenvectors from the twisted factorization on the chain itself.
    Everything is deterministic.  Residuals are ||H v - E v|| against the
    matrix as given, and a pair that misses the tolerance is flagged in
    ``unconverged``, not fatal.
    """
    if not isinstance(h, BandedHamiltonian):
        raise TypeError("eig_general expects a banded matrix")
    dense = h.to_dense() if h.is_pbc else _symmetric_chain(h)
    if not dense.imag.any():
        # a real matrix keeps its spectrum exactly closed under conjugation
        dense = dense.real
    if not h.is_pbc:
        return chain_spectrum(h, np.linalg.eigvals(dense), want_vectors)
    if want_vectors:
        lam, vectors = np.linalg.eig(dense)
    else:
        lam, vectors = np.linalg.eigvals(dense), None
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order].astype(complex)
    if vectors is None:
        return Spectrum(eigenvalues=lam, eigenvectors=None, residuals=None)
    return _checked(h, lam, vectors[:, order].astype(complex))
