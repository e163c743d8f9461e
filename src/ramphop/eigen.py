"""Eigensolvers and exact matrix functionals for the chain matrices.

Two solver routes are provided: an implicit-shift QL iteration for the real
symmetric tridiagonal blocks produced by the gauge transform, whose
eigenvectors stay componentwise accurate enough to be ungauged in log space,
and a general complex solver for everything else.  The general solver hands
rings and dense matrices to LAPACK; open chains get LAPACK eigenvalues of
their gauge-similar complex-symmetric form and O(n) inverse-iteration
eigenvectors in the physical frame.  Shifted determinants are evaluated by
the tridiagonal continuant recurrence with a carried power-of-two exponent,
including the rank-two correction for ring closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConvergenceError
from .model import BandedHamiltonian

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)

# Accuracy target: residuals are measured against this multiple of the
# Frobenius norm of the matrix being solved.
RESIDUAL_RTOL = 1e-8

# Total sweep budget per matrix, scaled by dimension.
SWEEPS_PER_EIGENVALUE = 50

_INVIT_RESTARTS = 3
_INVIT_STEPS = 5


class SpectrumSource(Enum):
    SYM_TRIDIAG = "sym_tridiag"
    GENERAL_QR = "general_qr"


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues (and optionally right eigenvectors) of one matrix.

    Eigenvalues are sorted by (real, imaginary) part; eigenvector columns
    follow the same order and carry unit 2-norm.  ``residuals`` is present
    exactly when eigenvectors are, and entries whose inverse iteration
    stalled are marked in ``unconverged`` rather than aborting the solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    residuals: np.ndarray | None
    source: SpectrumSource
    unconverged: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.unconverged is None:
            self.unconverged = np.zeros(len(self.eigenvalues), dtype=bool)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


# ---------------------------------------------------------------------------
# symmetric tridiagonal solver (implicit-shift QL)
# ---------------------------------------------------------------------------


def _tqli(d: np.ndarray, e: np.ndarray, z: np.ndarray | None) -> None:
    """Implicit-shift QL on (d, e) in place; rotations accumulated into z."""
    n = len(d)
    budget = SWEEPS_PER_EIGENVALUE * max(1, n)
    sweeps = 0
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > budget:
                raise ConvergenceError(
                    f"tridiagonal QL exceeded {budget} sweeps at index {l}"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if z is not None:
                    f_col = z[:, i + 1].copy()
                    z[:, i + 1] = s * z[:, i] + c * f_col
                    z[:, i] = c * z[:, i] - s * f_col
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0


def eig_sym_tridiag(block, want_vectors: bool = False) -> Spectrum:
    """Eigendecomposition of a real symmetric tridiagonal block.

    Returns the spectrum of the stored real matrix (ascending); callers
    holding an anti-symmetrizable block multiply by i themselves.
    """
    diag = np.asarray(block.diag, dtype=float)
    off = np.asarray(block.offdiag, dtype=float)
    n = len(diag)
    if n == 0:
        return Spectrum(
            eigenvalues=np.zeros(0, dtype=complex),
            eigenvectors=np.zeros((0, 0), dtype=complex) if want_vectors else None,
            residuals=np.zeros(0) if want_vectors else None,
            source=SpectrumSource.SYM_TRIDIAG,
        )
    d = diag.copy()
    e = np.zeros(n)
    e[: n - 1] = off
    z = np.eye(n) if want_vectors else None
    _tqli(d, e, z)
    order = np.argsort(d, kind="stable")
    d = d[order]
    vectors = None
    residuals = None
    if want_vectors:
        z = z[:, order]
        tv = diag[:, None] * z
        if n > 1:
            tv[:-1] += off[:, None] * z[1:]
            tv[1:] += off[:, None] * z[:-1]
        residuals = np.linalg.norm(tv - z * d[None, :], axis=0)
        vectors = z.astype(complex)
    return Spectrum(
        eigenvalues=d.astype(complex),
        eigenvectors=vectors,
        residuals=residuals,
        source=SpectrumSource.SYM_TRIDIAG,
    )


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
    m, e = 1.0 + 0.0j, 0
    for x in values:
        m, e = _snorm(m * complex(x), e)
        if m == 0:
            return 0.0 + 0.0j, 0
    return m, e


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


def residual(h, eigenvalue: complex, v: np.ndarray) -> float:
    """Relative eigenpair defect ||H v - E v|| / ||v||."""
    v = np.asarray(v, dtype=complex)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("zero vector has no residual")
    if isinstance(h, BandedHamiltonian):
        hv = h.matvec(v)
    else:
        hv = np.asarray(h, dtype=complex) @ v
    return float(np.linalg.norm(hv - eigenvalue * v)) / nv


# ---------------------------------------------------------------------------
# linear solves for inverse iteration
# ---------------------------------------------------------------------------


def _tridiag_factor(dl, d, du, safe_pivot):
    """LU with partial pivoting of a tridiagonal matrix (LAPACK gttrf layout)."""
    n = len(d)
    du2 = np.zeros(max(n - 2, 0), dtype=complex)
    swap = np.zeros(max(n - 1, 0), dtype=bool)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0:
                d[i] = safe_pivot
            fact = dl[i] / d[i]
            dl[i] = fact
            d[i + 1] = d[i + 1] - fact * du[i]
        else:
            swap[i] = True
            fact = d[i] / dl[i]
            d[i] = dl[i]
            dl[i] = fact
            temp = du[i]
            du[i] = d[i + 1]
            d[i + 1] = temp - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
    if d[n - 1] == 0:
        d[n - 1] = safe_pivot
    return dl, d, du, du2, swap


def _tridiag_solve(factors, rhs):
    dl, d, du, du2, swap = factors
    n = len(d)
    x = rhs.astype(complex).copy()
    for i in range(n - 1):
        if swap[i]:
            x[i], x[i + 1] = x[i + 1], x[i] - dl[i] * x[i + 1]
        else:
            x[i + 1] = x[i + 1] - dl[i] * x[i]
    x[n - 1] = x[n - 1] / d[n - 1]
    if n > 1:
        x[n - 2] = (x[n - 2] - du[n - 2] * x[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1] - du2[i] * x[i + 2]) / d[i]
    return x


class _ShiftedBandedSolver:
    """Apply (H - zI)^-1 for an open banded chain in O(n) by pivoted LU."""

    def __init__(self, h: BandedHamiltonian, z: complex):
        scale = max(
            abs(z),
            float(np.max(np.abs(h.upper), initial=0.0)),
            float(np.max(np.abs(h.lower), initial=0.0)),
            1e-300,
        )
        self._factors = _tridiag_factor(
            h.lower.astype(complex),
            np.full(h.length, -z, dtype=complex),
            h.upper.astype(complex),
            _EPS * scale,
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _tridiag_solve(self._factors, rhs)


def _inverse_iteration(h: BandedHamiltonian, z: complex, rng, tol):
    solver = _ShiftedBandedSolver(h, z)
    n = h.length
    best_res = math.inf
    best_v = None
    for _ in range(_INVIT_RESTARTS):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        for _ in range(_INVIT_STEPS):
            w = solver.solve(v)
            norm_w = float(np.linalg.norm(w))
            if not math.isfinite(norm_w) or norm_w == 0.0:
                break
            v = w / norm_w
            res = float(np.linalg.norm(h.matvec(v) - z * v))
            if res < best_res:
                best_res = res
                best_v = v.copy()
            if res <= tol:
                return best_v, best_res, True
    if best_v is None:
        best_v = np.zeros(n, dtype=complex)
        best_v[0] = 1.0
        best_res = float(np.linalg.norm(h.matvec(best_v) - z * best_v))
    return best_v, best_res, False


def _symmetric_chain(h: BandedHamiltonian) -> np.ndarray:
    """Dense complex-symmetric tridiagonal similar to an open chain.

    The off-diagonal sqrt(upper * lower) is the diagonal gauge similarity
    of the chain: it keeps entries of the size of the amplitudes, where the
    raw nonreciprocal chain would let rounding move its eigenvalues off the
    real and imaginary axes.
    """
    off = np.sqrt(h.upper * h.lower + 0j)
    a = np.zeros((h.length, h.length), dtype=complex)
    idx = np.arange(h.length - 1)
    a[idx, idx + 1] = off
    a[idx + 1, idx] = off
    return a


def eig_general(h, want_vectors: bool = False, *, seed: int = 0) -> Spectrum:
    """Complex spectrum of a banded Hamiltonian or a dense square matrix.

    Rings and dense input are handed to LAPACK (``numpy.linalg.eig``) and
    are deterministic.  An open chain takes its eigenvalues from LAPACK on
    the gauge-similar complex-symmetric form, and its eigenvectors from O(n)
    inverse iteration on the chain itself with restarts drawn from ``seed``;
    a pair that stalls is flagged in ``unconverged``, not fatal.  Residuals
    are ||H v - E v|| against the matrix as given.
    """
    banded = isinstance(h, BandedHamiltonian)
    if banded:
        fro = h.frobenius_norm()
        dense = h.to_dense() if h.is_pbc else _symmetric_chain(h)
    else:
        dense = np.asarray(h, dtype=complex)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("matrix must be square")
        if dense.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        fro = float(np.linalg.norm(dense))
    if not dense.imag.any():
        # a real matrix keeps its spectrum exactly closed under conjugation
        dense = dense.real
    n = dense.shape[0]
    inverse_iterate = want_vectors and banded and not h.is_pbc
    vectors = None
    if want_vectors and not inverse_iterate:
        lam, vectors = np.linalg.eig(dense)
    else:
        lam = np.linalg.eigvals(dense)
    lam = lam.astype(complex)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    residuals = None
    unconverged = np.zeros(n, dtype=bool)
    if want_vectors:
        tol = RESIDUAL_RTOL * max(fro, 1e-300)
        if inverse_iterate:
            rng = np.random.default_rng(seed)
            vectors = np.empty((n, n), dtype=complex)
            residuals = np.empty(n)
            for i, z in enumerate(lam):
                v, res, ok = _inverse_iteration(h, complex(z), rng, tol)
                vectors[:, i] = v
                residuals[i] = res
                unconverged[i] = not ok
        else:
            vectors = vectors[:, order].astype(complex)
            hv = h.matvec(vectors) if banded else dense @ vectors
            residuals = np.linalg.norm(hv - vectors * lam[None, :], axis=0)
            unconverged = residuals > tol
    return Spectrum(
        eigenvalues=lam,
        eigenvectors=vectors,
        residuals=residuals,
        source=SpectrumSource.GENERAL_QR,
        unconverged=unconverged,
    )
