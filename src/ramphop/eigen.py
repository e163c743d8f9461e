"""Eigensolvers and exact matrix functionals for the chain matrices.

Every matrix here is a ``BandedHamiltonian``.  An open chain, gauge blocks
included, takes its levels +-sqrt(mu) from LAPACK ``eigvalsh`` on the
half-size real symmetric sublattice form of H^2 of each piece between
exactly vanishing bonds, and its eigenvectors from one O(n) kernel,
Fernando's twisted factorization, carried in log modulus and phase so that
entries far beyond floating range only cost underflow of the negligible
ones; the kernel solves one level of each +-lambda pair, and a sublattice
sign flip gives the other.  An even ring takes its levels +-sqrt(mu) and
eigenvectors from LAPACK ``eig`` on the half-size block H_AB H_BA of H^2;
odd rings, and even rings with a level too near zero for the square root,
go to LAPACK on the whole matrix.  One continuant kernel, a loop over
sites on a single point or on an array of points with a power-of-two
exponent carried beside it, gives the shifted determinants, ring-closure
terms included, and the Newton polish of an open chain's levels near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import BandedHamiltonian, binary_scale

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_LN2 = math.log(2.0)

# Accuracy target: residuals are measured against this multiple of the
# Frobenius norm of the matrix being solved.
RESIDUAL_RTOL = 1e-8

# Factors per partial product of frexp mantissas: each lies in [0.5, 1), so
# a chunk stays above 2**-512 and cannot underflow.
_MANTISSA_CHUNK = 512

# Sites per rescaling in _continuant: with |w| <= 1 and |z| <= 1 its values
# grow by at most 2**16 between two rescalings.
_RESCALE_SITES = 16

# Levels sqrt(mu) with |mu| below this fraction of the largest |mu| have
# lost digits to the square root: on an open chain they get Newton steps in
# mu on the continuant, and a ring with one is solved whole.  Where the
# continuant is only known to rounding, a step still lowers mu by about a
# factor eps, so _NEWTON_STEPS lets mu fall from 1 to 2**-1074 that way.
_POLISH_RTOL = math.sqrt(_EPS)
_NEWTON_STEPS = 64


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


def _twisted_vectors(upper, lower, eigenvalues):
    """Right eigenvectors of a zero-diagonal tridiagonal, one unit column per eigenvalue.

    Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997;
    Dhillon & Parlett, LAA 387, 2004, as in LAPACK ``dlar1v``), for all
    eigenvalues at once: the loop runs over sites, numpy over eigenvalues,
    and each step advances the forward and backward sweeps together.
    With shift -lambda, the forward pivots are
    d+_k = -lambda - u_{k-1} l_{k-1} / d+_{k-1}, the backward pivots d-_k
    follow the same rule from the other end, and the two meet at the twist r
    minimising |d+_k + d-_k + lambda|.  From v_r = 1 the vector runs outward
    as v_k = -u_k v_{k+1} / d+_k below the twist and v_k = -l_{k-1} v_{k-1}
    / d-_k above it, every row but r satisfied exactly.  Entries are carried
    as log modulus and phase and normalised once at the end, so the
    exponential gauge profiles of the ramped chain never overflow.  The
    pivots depend on the bond products only, which makes the result the
    same as running on any diagonally similar form and mapping back.

    A pivot below eps * scale is replaced by that value.  Returned are the
    vectors and a mask of the columns where that happened.

    The bonds and levels are first divided by one power of two, which keeps
    the bond products from underflowing at tiny amplitudes; the vectors do
    not depend on it.
    """
    n = len(upper) + 1
    unit = binary_scale(np.concatenate((upper, lower)))
    upper, lower = upper / unit, lower / unit
    shift = -eigenvalues / unit
    scale = max(
        float(np.max(np.abs(shift), initial=0.0)),
        float(np.max(np.abs(upper), initial=0.0)),
        float(np.max(np.abs(lower), initial=0.0)),
    )
    tiny = max(_EPS * scale, _TINY)
    # row k holds the forward pivot d+_k and the backward pivot d-_{n-1-k}
    pivots = np.empty((n, 2, len(shift)), dtype=shift.dtype)
    pivots[0] = shift
    bonds = upper * lower
    steps = np.stack((bonds, bonds[::-1]), axis=1)[:, :, None]
    # a first pass without the guard: a pivot below tiny shows up in it
    # unchanged, since every pivot before it is the same either way
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            np.divide(steps[k], pivots[k], out=pivots[k + 1])
            np.subtract(shift, pivots[k + 1], out=pivots[k + 1])
    guarded = np.any(np.abs(pivots[:-1]) < tiny, axis=(0, 1))
    if guarded.any():
        # columns are independent: rerun the ones that need the guard
        redo_shift = shift[guarded]
        redo = np.empty((n, 2, len(redo_shift)), dtype=shift.dtype)
        redo[0] = redo_shift
        for k in range(n - 1):
            p = redo[k]
            p[np.abs(p) < tiny] = tiny
            np.subtract(redo_shift, steps[k] / p, out=redo[k + 1])
        pivots[:, :, guarded] = redo
        del redo
    fwd = pivots[:, 0].copy()
    bwd = pivots[::-1, 1].copy()
    del pivots
    gap = shift - fwd
    gap -= bwd
    twist = np.argmin(np.abs(gap), axis=0)
    del gap
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
    return v, guarded


def _chain_vectors(upper, lower, lam) -> np.ndarray:
    """Unit eigenvectors of an open zero-diagonal chain, for sorted levels ``lam``.

    The levels of ``_chain_levels`` come in exact pairs, so after the sort
    ``lam == -lam[::-1]``.  With D = diag((-1)^k), D H D = -H, so D v
    belongs to -lambda whenever v belongs to lambda.  The twisted
    factorization runs on the first half of the levels (with the middle
    level of an odd chain, its own partner), and each level of the second
    half takes the column of its mirror with rows 1::2 negated, as
    ``_bipartite_ring`` does.  Negation is exact, so each partner's |v| and
    residual equal its mirror's bit for bit.
    """
    first = len(lam) - len(lam) // 2
    solved = _twisted_vectors(upper, lower, lam[:first])[0]
    vectors = np.concatenate((solved, solved[:, : len(lam) - first][:, ::-1]), axis=1)
    odd = vectors[1::2, first:]
    np.negative(odd, out=odd)
    return vectors


def eig_sym_tridiag(block: BandedHamiltonian, want_vectors: bool = False) -> Spectrum:
    """Eigendecomposition of an open zero-diagonal chain, such as a gauge block.

    The open-chain route of ``eig_general``: eigenvalues from the half-size
    sublattice form of H^2, eigenvectors from the twisted factorization,
    whose tiny components keep the relative accuracy that log-domain
    ungauging needs.  A real symmetric block has real levels; callers
    holding an anti-symmetrizable block multiply by i themselves.
    """
    if block.is_pbc:
        raise ValueError("eig_sym_tridiag solves open chains only")
    return eig_general(block, want_vectors)


# ---------------------------------------------------------------------------
# the continuant and scaled determinants
# ---------------------------------------------------------------------------


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


def _continuant(w, z, derivative=False):
    """det(T - zI) of a zero-diagonal tridiagonal T with bond products ``w``.

    Runs p_k = -z p_{k-1} - w_{k-1} p_{k-2} from p_0 = 1 over the len(w) + 1
    sites and returns (p, dp/dz, exponent), the value being p * 2**exponent;
    dp/dz is carried only with ``derivative`` and is 0 otherwise.  The same
    arithmetic runs on a complex number ``z`` with ``w`` a list of Python
    numbers, and on an array of points, where each w_k is a number or a row
    over the points.  Callers scale so that |w| <= 1 and |z| <= 1: then p
    grows by at most a factor 2 per site, and every _RESCALE_SITES sites all
    carried values are multiplied by the power of two that brings the sum
    of their moduli into [0.5, 1), which is exact.  The sum takes in dp,
    which near a root can outgrow p, and the smallest normal float, which
    keeps the factor finite when all the values are 0 or subnormal.  For a
    number that factor is an ``np.float64``, a ``float``, so p stays a
    Python complex.
    """
    a = 0.0 - z
    p_prev, p = 1.0, a
    dp_prev, dp = 0.0, (-1.0 if derivative else 0.0)
    exponent = np.int64(0)
    for start in range(0, len(w), _RESCALE_SITES):
        if derivative:
            for wk in w[start : start + _RESCALE_SITES]:
                p_prev, p, dp_prev, dp = p, a * p - wk * p_prev, dp, a * dp - p - wk * dp_prev
        else:
            for wk in w[start : start + _RESCALE_SITES]:
                p_prev, p = p, a * p - wk * p_prev
        e = np.frexp(abs(p) + abs(p_prev) + abs(dp) + abs(dp_prev) + _TINY)[1]
        scale = np.ldexp(1.0, -e)
        p, p_prev, dp, dp_prev = p * scale, p_prev * scale, dp * scale, dp_prev * scale
        exponent = exponent + e
    return p, dp, exponent


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
        m, e = self.mantissa, self.exponent
        return complex(math.ldexp(m.real, e), math.ldexp(m.imag, e))


def det_shifted(h, z: complex) -> ScaledDeterminant:
    """det(H - zI) from the continuant, plus the ring-closure terms of a ring.

    The bonds, the corners and z are first divided by one power of two that
    brings the largest of them into [0.5, 1), so that the continuant's
    inputs meet its bounds; the determinant of n sites takes n times that
    exponent back.  A ring of n sites adds -c_u c_d times the continuant of
    the n - 2 inner sites and (-1)^(n+1) (c_u prod u + c_d prod l), the
    four terms brought to the largest of their exponents and summed with
    ``math.fsum`` on the real and imaginary parts, so that the sum, which
    cancels near a level of the ring, rounds once.
    """
    if not isinstance(h, BandedHamiltonian):
        raise TypeError("det_shifted expects a banded matrix")
    n = h.length
    if h.is_pbc and n < 3:
        raise ValueError("corner-corrected determinant requires dimension >= 3")
    z = complex(z)
    corner_up, corner_down = h.effective_corners()
    unit = binary_scale(np.concatenate((h.upper, h.lower, [corner_up, corner_down, z])))
    upper, lower = h.upper / unit, h.lower / unit
    w = (upper * lower).tolist()
    shift = z / unit
    mantissa, _, exponent = _continuant(w, shift)
    if h.is_pbc:
        q, _, e_q = _continuant(w[1 : n - 2], shift)
        cu, cd = corner_up / unit, corner_down / unit
        sgn = 1.0 if n % 2 == 1 else -1.0
        m_u, e_u = _sprod(upper)
        m_d, e_d = _sprod(lower)
        terms = [
            (mantissa, exponent), (-cu * cd * q, e_q), (sgn * cu * m_u, e_u), (sgn * cd * m_d, e_d)
        ]
        exponent = max((e for m, e in terms if m), default=0)
        scaled = [m * np.ldexp(1.0, e - exponent) for m, e in terms if m]
        mantissa = complex(math.fsum(c.real for c in scaled), math.fsum(c.imag for c in scaled))
    exponent = int(exponent) + n * (math.frexp(unit)[1] - 1)
    return ScaledDeterminant(complex(mantissa), exponent)


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
    """Relative eigenpair defect ||H v - E v|| / ||v||, each norm taken
    on its vector scaled by a power of two."""
    v = np.array(v, dtype=complex)
    defect = h.matvec(v) - eigenvalue * v
    nv = float(_norm(v))
    if nv == 0.0:
        raise ValueError("zero vector has no residual")
    return float(_norm(defect)) / nv


def _norm(x: np.ndarray, axis: int | None = None):
    """2-norm of ``x`` (along ``axis``), taken on ``x`` divided in place by
    a power of two, so that the squares neither underflow nor overflow."""
    scale = binary_scale(x, axis)
    x /= scale
    return np.linalg.norm(x, axis=axis) * scale


# ---------------------------------------------------------------------------
# general complex spectra
# ---------------------------------------------------------------------------


def _checked(h: BandedHamiltonian, lam, vectors) -> Spectrum:
    """Spectrum with residuals ||H v - E v||; a nan residual counts as unconverged."""
    hv, fro = h.matvec(vectors), h.frobenius_norm()
    hv -= vectors * lam[None, :]
    residuals = _norm(hv, axis=0)
    return Spectrum(
        eigenvalues=lam,
        eigenvectors=vectors,
        residuals=residuals,
        unconverged=~(residuals <= RESIDUAL_RTOL * max(fro, 1e-300)),
    )


def _piece_roots(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt|mu| and mu over the eigenvalues mu of S for one piece.

    ``w`` are the piece's bond products, none of them zero.  The pair k
    (bonds k and k+1) lies in the sublattice of parity k; the odd one, the
    smaller on an odd piece, is preferred.  When S is the larger sublattice
    of an odd piece, its eigenvalue nearest zero is the zero level, left out.
    """
    pairs = w[:-1] * w[1:]
    parity = next((s for s in (1, 0) if not np.any(pairs[s::2] < 0.0)), None)
    if parity is None:
        raise ValueError(
            "open chain has no symmetrizable sublattice: its bond products "
            "u_j l_j change sign more than once"
        )
    padded = np.concatenate(([0.0], w, [0.0]))
    diag = (padded[:-1] + padded[1:])[parity::2]
    sym = np.diag(diag)  # eigvalsh reads the lower triangle only
    sym[np.arange(1, len(diag)), np.arange(len(diag) - 1)] = np.sqrt(pairs[parity::2])
    mu = np.linalg.eigvalsh(sym)
    if len(w) % 2 == 0 and parity == 0:
        mu = np.delete(mu, np.argmin(np.abs(mu)))
    root = np.sqrt(np.abs(mu))
    small = np.abs(mu) <= _POLISH_RTOL * np.max(np.abs(mu), initial=0.0)
    if np.any(small):
        # Newton in x**2 on the continuant: a real level x (mu > 0) is a root
        # of the continuant p of w, and an imaginary level iy (mu < 0) makes
        # y a root of the continuant of -w.  p(x) is Q(x**2), or x Q(x**2) on
        # a piece of odd size, and the step Q / Q' in x**2 is 2x p / p', or
        # 2x**2 p / (x p' - p); in x itself a step only halves x while the
        # two roots +-x are near each other.  A step that is not finite is
        # not taken.
        x = root[small]
        omega = w[:, None] * np.where(mu[small] > 0, 1.0, -1.0)
        for _ in range(_NEWTON_STEPS):
            p, dp, _ = _continuant(omega, x, derivative=True)
            square = x * x
            with np.errstate(divide="ignore", invalid="ignore"):
                step = 2.0 * square * p / (x * dp - p) if len(w) % 2 == 0 else 2.0 * x * p / dp
            step[~np.isfinite(step)] = 0.0
            x = np.sqrt(np.abs(square - step))
            if np.all(np.abs(step) <= _EPS * square):
                break
        root[small] = x
    return root, mu


def _chain_levels(h: BandedHamiltonian) -> np.ndarray:
    """Eigenvalues of an open zero-diagonal chain from half of H^2.

    With bond products w_j = u_j l_j, H^2 splits over the two sublattices
    into tridiagonals with diagonal w_{i-1} + w_i and off-diagonal products
    w_i w_{i+1}.  The chain is cut at every bond whose product is exactly
    0.0, and never elsewhere.  On each piece, a sublattice with no negative
    pair product has the symmetric form S, with off-diagonal
    sqrt(w_i w_{i+1}), which goes to ``eigvalsh``; the levels are
    +-sqrt(mu) over its eigenvalues mu: real for mu > 0, imaginary for
    mu < 0, each with an exactly zero other part (Golub & Kahan, SIAM J.
    Numer. Anal. B 2, 1965, square a zero-diagonal tridiagonal the same
    way).  Each piece of odd size holds exactly one zero level, written as
    0.0 and not polished; other levels whose square root loses digits are
    refined on the piece's continuant.  The bond products must be real;
    those of a ramped chain change sign at most once.
    """
    if h.length == 0:
        return np.zeros(0, dtype=complex)
    # a power-of-two scale keeps w_j and w_i w_{i+1} inside float range at
    # any size of t and gamma; it is undone exactly on the levels
    scale = binary_scale(np.concatenate((h.upper, h.lower)))
    w = (h.upper / scale) * (h.lower / scale)
    if np.iscomplexobj(w):
        if np.any(w.imag):
            raise ValueError("open chain has non-real bond products u_j l_j")
        w = w.real
    edges = np.concatenate(([-1], np.flatnonzero(w == 0.0), [len(w)]))
    pieces = [w[a + 1 : b] for a, b in zip(edges[:-1], edges[1:])]
    roots, mus = zip(*(_piece_roots(piece) for piece in pieces))
    root = np.concatenate(roots) * scale
    mu = np.concatenate(mus * 2)
    signed = np.concatenate((root, 0.0 - root))
    zeros = sum(len(piece) % 2 == 0 for piece in pieces)
    levels = np.zeros(len(signed) + zeros, dtype=complex)
    levels.real[: len(signed)] = np.where(mu > 0.0, signed, 0.0)
    levels.imag[: len(signed)] = np.where(mu < 0.0, signed, 0.0)
    return levels


def _bipartite_ring(dense: np.ndarray, want_vectors: bool):
    """Levels and unit eigenvectors of an even ring from half of H^2, or None.

    The even sites A and the odd sites B of an even ring are its two
    sublattices, so H^2 splits into blocks and M = H_AB H_BA is one of them,
    of half the size.  LAPACK ``eig`` on M gives mu and x; the levels are
    +-sqrt(mu), and the eigenvector of lambda is x on A and H_BA x / lambda
    on B.  The spectrum is then exactly closed under E -> -E, and a real
    negative mu gives levels with an exactly zero real part.

    The square root turns the backward error eps ||M|| of mu into an error
    of about eps ||M|| / (2 |lambda|) on lambda.  None, and the caller
    solves H itself, when some |mu| is at most sqrt(eps) times the largest,
    or some |lambda| is below ||M||_F / (L ||H||_F): that level would miss
    the L eps ||H||_F that LAPACK on H is held to.
    """
    # a power-of-two scale keeps the products in M inside float range at any
    # size of t and gamma; it is undone exactly on the levels, and the
    # eigenvectors do not depend on it
    scale = binary_scale(dense)
    ab, ba = dense[0::2, 1::2] / scale, dense[1::2, 0::2] / scale
    block = ab @ ba
    if want_vectors:
        mu, x = np.linalg.eig(block)
    else:
        mu, x = np.linalg.eigvals(block), None
    size = np.abs(mu)
    if np.any(size <= _POLISH_RTOL * np.max(size)):
        return None
    # every entry of H lies in H_AB or H_BA
    fro = np.hypot(np.linalg.norm(ab), np.linalg.norm(ba))
    if np.any(np.sqrt(size) * fro <= np.linalg.norm(block) / len(dense)):
        return None
    unscaled = np.sqrt(mu.astype(complex))
    # + 0.0 turns each -0.0 part into +0.0, so 0.0 - root mirrors root exactly
    root = unscaled * scale + 0.0
    lam = np.concatenate((root, 0.0 - root))
    if x is None:
        return lam, None
    half = len(root)
    vectors = np.empty((len(dense), len(lam)), dtype=complex)
    vectors[0::2, :half] = vectors[0::2, half:] = x
    y = vectors[1::2, :half]
    np.matmul(ba, x, out=y)
    y /= unscaled
    np.negative(y, out=vectors[1::2, half:])
    vectors /= np.linalg.norm(vectors, axis=0)
    return lam, vectors


def eig_general(h: BandedHamiltonian, want_vectors: bool = False) -> Spectrum:
    """Complex spectrum of a banded Hamiltonian, sorted by (real, imaginary) part.

    An open chain takes its levels from ``_chain_levels``, each exactly real
    or exactly imaginary, and its eigenvectors from the twisted
    factorization, run on one level of each +- pair and mirrored onto the
    other by a sublattice sign flip in ``_chain_vectors``; bond products
    that are not real, or change sign more than once within a piece,
    raise ``ValueError``.  An even ring takes
    its levels and eigenvectors from ``_bipartite_ring``, in exact +- pairs;
    an odd ring, or an even one that route turns back, goes to LAPACK
    ``eig`` on the whole matrix.  Either way ring levels come from LAPACK,
    whose last digits can change with the BLAS thread count.  Residuals
    are ||H v - E v|| against the matrix as given, and a pair that misses
    the tolerance is flagged in ``unconverged``, not fatal.
    """
    if not isinstance(h, BandedHamiltonian):
        raise TypeError("eig_general expects a banded matrix")
    if not h.is_pbc:
        lam = _chain_levels(h)
        lam = lam[np.lexsort((lam.imag, lam.real))]
        if not want_vectors:
            return Spectrum(eigenvalues=lam, eigenvectors=None, residuals=None)
        vectors = _chain_vectors(h.upper, h.lower, lam) if h.length else np.zeros((0, 0), complex)
        return _checked(h, lam, vectors)
    dense = h.to_dense()
    if not dense.imag.any():
        # a real matrix keeps its spectrum exactly closed under conjugation
        dense = dense.real
    solved = _bipartite_ring(dense, want_vectors) if h.length % 2 == 0 else None
    if solved is None:
        solved = np.linalg.eig(dense) if want_vectors else (np.linalg.eigvals(dense), None)
    lam, vectors = solved
    del dense  # freed before the sort and the check
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order].astype(complex)
    if vectors is None:
        return Spectrum(eigenvalues=lam, eigenvectors=None, residuals=None)
    return _checked(h, lam, vectors[:, order].astype(complex, copy=False))
