"""Independent reference constructions used as test oracles.

Everything here is deliberately written from the model definition rather
than by calling package internals: dense matrices are assembled entry by
entry, characteristic polynomials come from a polynomial-coefficient
continuant, and roots are located by argument-principle bisection on
rectangles, so solver output can be checked against an unrelated route.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from ramphop import DegenerateSupportError, EigenClass, hermitize
from ramphop.analysis import (
    CLASS_TOL_SCALE,
    SUPPORT_THRESHOLD,
    EnvelopeFit,
    LocalizationMetrics,
)


def dense_matrix(
    t: float,
    gamma: float,
    length: int,
    pbc: bool = False,
    theta: float = 0.0,
) -> np.ndarray:
    """Direct entry-by-entry assembly of the ramped-hopping matrix."""
    h = np.zeros((length, length), dtype=complex)
    for j in range(1, length):  # bond j couples sites j and j+1 (1-indexed)
        h[j - 1, j] = t + gamma * j
        h[j, j - 1] = t - gamma * j
    if pbc:
        h[length - 1, 0] += (t + gamma * length) * cmath.exp(1j * theta)
        h[0, length - 1] += (t - gamma * length) * cmath.exp(-1j * theta)
    return h


def complex_symmetric_levels(t: float, gamma: float, length: int) -> np.ndarray:
    """Open-chain eigenvalues from LAPACK on the complex-symmetric similar form.

    The tridiagonal with both off-diagonals sqrt(u_j l_j + 0j), assembled
    entry by entry, is diagonally similar to the open chain; its dense
    complex ``eigvals`` is O(L^3) and leaves rounding-sized parts off the
    axes, but shares no code with the sublattice route.
    """
    h = np.zeros((length, length), dtype=complex)
    for j in range(1, length):
        u, lo = t + gamma * j, t - gamma * j
        h[j - 1, j] = h[j, j - 1] = cmath.sqrt(u * lo + 0j)
    return np.linalg.eigvals(h)


def gauge_block_levels(params) -> tuple[np.ndarray, np.ndarray]:
    """Block levels of the gauge route: dense ``eigvalsh`` of ``hermitize``'s blocks.

    Returns (levels of block A, i times levels of block B), each ascending.
    This keeps the dense gauge-block solve as a reference for the block
    spectra, which the package computes on the physical sub-chains.
    """

    def levels(block):
        dense = np.zeros((block.length, block.length))
        idx = np.arange(block.length - 1)
        dense[idx, idx + 1] = block.upper
        dense[idx + 1, idx] = block.lower
        return np.linalg.eigvalsh(dense)

    dec = hermitize(params)
    return levels(dec.block_a), 1j * levels(dec.block_b)


def gauged_hamiltonian_dense(t: float, gamma: float, length: int, d: np.ndarray) -> np.ndarray:
    """D^-1 H D of the open chain for the diagonal gauge entries ``d``."""
    h = dense_matrix(t, gamma, length)
    return (h * d[None, :]) / d[:, None]


def hatano_nelson_dense(t: float, gamma: float, length: int, pbc: bool = False) -> np.ndarray:
    h = np.zeros((length, length), dtype=complex)
    for j in range(length - 1):
        h[j, j + 1] = t - gamma
        h[j + 1, j] = t + gamma
    if pbc:
        h[length - 1, 0] += t - gamma
        h[0, length - 1] += t + gamma
    return h


def max_pairing_gap(a, b) -> float:
    """Greedy nearest matching between two equal-size eigenvalue multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert len(a) == len(b)
    used = np.zeros(len(b), dtype=bool)
    worst = 0.0
    for x in sorted(a, key=lambda z: (z.real, z.imag)):
        d = np.abs(b - x)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst


def conditioned_levels(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigenvalues of ``dense`` and the radius that pins each one down.

    The radius is n eps ||A||_F kappa_j, the first-order change of
    eigenvalue j under a backward error of n eps ||A||_F, with kappa_j =
    ||x_j|| ||y_j|| / |y_j^H x_j| from the columns of the eigenvector matrix
    and the rows of its inverse.  A singular eigenvector matrix (a defective
    matrix) pins no eigenvalue down: every radius is inf.
    """
    n = dense.shape[0]
    values, right = np.linalg.eig(dense)
    try:
        with np.errstate(all="ignore"):
            left = np.linalg.inv(right)
            kappa = np.linalg.norm(right, axis=0) * np.linalg.norm(left, axis=1)
        kappa[~np.isfinite(kappa)] = math.inf
    except np.linalg.LinAlgError:
        kappa = np.full(n, math.inf)
    return values, n * np.finfo(float).eps * np.linalg.norm(dense) * kappa


def nearest_first_gaps(values, ref) -> tuple[np.ndarray, np.ndarray]:
    """Pair two equal-size multisets, the nearest remaining pair first.

    Returns, for each pair, the index into ``ref`` and the distance.
    """
    values = np.asarray(values, dtype=complex)
    ref = np.asarray(ref, dtype=complex)
    assert len(values) == len(ref)
    dist = np.abs(values[:, None] - ref[None, :])
    used_v = np.zeros(len(values), dtype=bool)
    used_r = np.zeros(len(ref), dtype=bool)
    index, gap = [], []
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), len(ref))
        if used_v[i] or used_r[j]:
            continue
        used_v[i] = used_r[j] = True
        index.append(j)
        gap.append(dist[i, j])
    return np.array(index, dtype=int), np.array(gap)


def closure_defect(values, mapping) -> float:
    """How far the set is from being closed under a value mapping."""
    values = np.asarray(values, dtype=complex)
    return max(float(np.min(np.abs(values - mapping(v)))) for v in values)


# ---------------------------------------------------------------------------
# characteristic polynomial via a polynomial-coefficient continuant
# ---------------------------------------------------------------------------


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.convolve(a, b)


def _poly_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=complex)
    out[: len(a)] += a
    out[: len(b)] += b
    return out


def charpoly(dense: np.ndarray) -> np.ndarray:
    """Coefficients (ascending powers of z) of det(H - zI).

    Runs the three-term continuant recurrence with polynomial coefficients
    for the tridiagonal part and adds the ring-closure correction: the
    interior continuant term and the two directed cyclic products.
    """
    n = dense.shape[0]
    diag = np.array([dense[i, i] for i in range(n)])
    upper = np.array([dense[i, i + 1] for i in range(n - 1)])
    lower = np.array([dense[i + 1, i] for i in range(n - 1)])
    cu = dense[n - 1, 0] if n > 1 else 0.0
    cd = dense[0, n - 1] if n > 1 else 0.0

    def continuant(d, u, lo):
        p_prev = np.array([1.0 + 0.0j])
        if len(d) == 0:
            return p_prev
        p = np.array([d[0], -1.0], dtype=complex)
        for k in range(1, len(d)):
            term = _poly_mul(np.array([d[k], -1.0], dtype=complex), p)
            w = u[k - 1] * lo[k - 1]
            p, p_prev = _poly_add(term, -w * p_prev), p
        return p

    poly = continuant(diag, upper, lower)
    if n >= 3 and (cu != 0.0 or cd != 0.0):
        q = continuant(diag[1 : n - 1], upper[1 : n - 2], lower[1 : n - 2])
        sign = 1.0 if n % 2 == 1 else -1.0
        cyc = sign * (cu * np.prod(upper) + cd * np.prod(lower))
        poly = _poly_add(poly, -cu * cd * q)
        poly = _poly_add(poly, np.array([cyc], dtype=complex))
    return poly


# ---------------------------------------------------------------------------
# scalar determinant with (mantissa, exponent) arithmetic, one site at a time
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


def _sfsum(terms) -> tuple[complex, int]:
    """Sum of (mantissa, exponent) terms, rounded once: each is brought to
    the largest exponent and the real and imaginary parts go to ``math.fsum``."""
    terms = [(m, e) for m, e in terms if m != 0]
    if not terms:
        return 0.0 + 0.0j, 0
    top = max(e for _, e in terms)
    scaled = [_ldexp_c(m, e - top) for m, e in terms]
    return _snorm(complex(math.fsum(c.real for c in scaled), math.fsum(c.imag for c in scaled)), top)


def scaled_product(values) -> tuple[complex, int]:
    """Product of the factors as (mantissa, exponent), one factor at a time;
    any zero gives (0, 0)."""
    m, e = 1.0 + 0.0j, 0
    for x in values:
        m, e = _snorm(m * complex(x), e)
        if m == 0:
            return 0.0 + 0.0j, 0
    return m, e


def _scaled_continuant(upper, lower, z) -> tuple[complex, int]:
    """det(T - zI) for the zero-diagonal tridiagonal T, rescaled by 2**512
    whenever its values leave [2**-256, 2**256]."""
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


def scaled_det(h, z: complex) -> tuple[complex, int]:
    """det(H - zI) of a ``BandedHamiltonian`` as (mantissa, exponent): the
    continuant plus the ring-closure terms, summed with one rounding, on
    the amplitudes as given, so it underflows where they do."""
    p = _scaled_continuant(h.upper, h.lower, z)
    if not h.is_pbc:
        return p
    n = h.length
    q = _scaled_continuant(h.upper[1 : n - 2], h.lower[1 : n - 2], z)
    corner_up, corner_down = h.effective_corners()
    cu = (complex(corner_up), 0)
    cd = (complex(corner_down), 0)
    sgn = 1.0 if n % 2 == 1 else -1.0
    sign = (sgn + 0.0j, 0)
    return _sfsum(
        [
            p,
            _smul((-1.0 + 0.0j, 0), _smul(_smul(cu, cd), q)),
            _smul(sign, _smul(cu, scaled_product(h.upper))),
            _smul(sign, _smul(cd, scaled_product(h.lower))),
        ]
    )


def bisected_level(upper, lower, lo: float, hi: float, imaginary: bool = False) -> float:
    """The root x in (lo, hi) of det(H - xI), or of det(H - ixI) with
    ``imaginary``, for the open zero-diagonal chain with real bonds
    ``upper`` and ``lower``, by bisection on its continuant at 80 digits.

    det(H - ixI) is i^n det(H/i - xI), and H/i has the bond products
    -u_j l_j, so both cases bisect a real continuant of the exact products.
    The midpoint is geometric, so a bracket over decades closes as fast as
    a narrow one.  The bracket must hold one root: a sign change is
    checked, not counted.
    """
    import mpmath

    with mpmath.workdps(80):
        sign = -1 if imaginary else 1
        w = [sign * mpmath.mpf(float(u)) * mpmath.mpf(float(v)) for u, v in zip(upper, lower)]

        def det(x):
            p_prev, p = mpmath.mpf(1), -x
            for wk in w:
                p_prev, p = p, -x * p - wk * p_prev
            return p

        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        f_lo = det(lo)
        if f_lo * det(hi) >= 0:
            raise ValueError("the continuant does not change sign on the bracket")
        while hi - lo > mpmath.mpf(10) ** -40 * lo:
            mid = mpmath.sqrt(lo * hi)
            f_mid = det(mid)
            if f_mid * f_lo > 0:
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return float(lo)


def _polyval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z, dtype=complex)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _winding_count(coeffs: np.ndarray, x0, x1, y0, y1) -> int | None:
    """Zeros inside a rectangle by boundary phase winding; None if unresolved."""
    corners = [
        complex(x0, y0),
        complex(x1, y0),
        complex(x1, y1),
        complex(x0, y1),
        complex(x0, y0),
    ]
    samples = 32
    for _ in range(6):
        pts = []
        for a, b in zip(corners[:-1], corners[1:]):
            s = np.linspace(0.0, 1.0, samples, endpoint=False)
            pts.append(a + (b - a) * s)
        z = np.concatenate(pts + [np.array([corners[0]])])
        vals = _polyval(coeffs, z)
        if np.any(vals == 0.0) or not np.all(np.isfinite(vals)):
            return None
        ph = np.angle(vals)
        d = np.diff(ph)
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        if float(np.max(np.abs(d))) < math.pi / 2.0:
            return int(round(float(np.sum(d)) / (2.0 * math.pi)))
        samples *= 2
    return None


def contour_roots(coeffs: np.ndarray, n_roots: int, tol: float = 1e-10) -> np.ndarray:
    """All polynomial roots located by rectangle bisection of the winding.

    Rectangles whose boundary passes too close to a root are jittered by an
    irrational offset and recounted, so roots sitting on the axes (the
    common case here) do not wedge the subdivision.
    """
    lead = coeffs[-1]
    bound = 1.0 + max(abs(c / lead) for c in coeffs[:-1]) if len(coeffs) > 1 else 1.0
    off = (math.sqrt(2.0) - 1.0) * 1e-3 * bound
    half = 1.5 * bound + 10.0 * off
    boxes = [(-half + off, half + off, -half + off / 2.0, half + off / 2.0, n_roots)]
    roots: list[complex] = []
    guard = 0
    while boxes:
        guard += 1
        if guard > 200000:
            raise RuntimeError("contour bisection did not terminate")
        x0, x1, y0, y1, expect = boxes.pop()
        count = _winding_count(coeffs, x0, x1, y0, y1)
        if count is None:
            # nudge the box; a root is hugging the boundary
            jx = (x1 - x0) * 1e-3 * math.sqrt(3.0)
            jy = (y1 - y0) * 1e-3 * math.sqrt(5.0)
            count = _winding_count(coeffs, x0 - jx, x1 + jx, y0 - jy, y1 + jy)
            if count is None:
                count = _winding_count(
                    coeffs, x0 - 7 * jx, x1 + 3 * jx, y0 - 5 * jy, y1 + 9 * jy
                )
            if count is None:
                raise RuntimeError("cannot resolve winding around a box")
        if count <= 0:
            continue
        if max(x1 - x0, y1 - y0) < tol:
            center = complex(0.5 * (x0 + x1), 0.5 * (y0 + y1))
            roots.extend([center] * count)
            continue
        xm = 0.5 * (x0 + x1)
        ym = 0.5 * (y0 + y1)
        for bx in ((x0, xm), (xm, x1)):
            for by in ((y0, ym), (ym, y1)):
                boxes.append((bx[0], bx[1], by[0], by[1], count))
    if len(roots) != n_roots:
        raise RuntimeError(f"found {len(roots)} roots, expected {n_roots}")
    return np.array(roots)


def classify_per_entry(values) -> tuple[list[tuple[complex, EigenClass, int]], dict, float]:
    """The axis classification one level at a time, with a Python sort per class.

    Returns (value, label, rank in class) per level in input order, the
    count of each class and the tolerance.
    """
    values = np.asarray(values, dtype=complex)
    radius = float(np.max(np.abs(values))) if len(values) else 0.0
    tolerance = CLASS_TOL_SCALE * max(1.0, radius)

    def _label(v: complex) -> EigenClass:
        if abs(v.imag) <= tolerance:
            return EigenClass.REAL  # near the origin this wins the tie
        if abs(v.real) <= tolerance:
            return EigenClass.IMAGINARY
        return EigenClass.COMPLEX

    labels = [_label(v) for v in values]
    entries: list = [None] * len(values)
    counts = {}
    for label, key in (
        (EigenClass.REAL, lambda i: values[i].real),
        (EigenClass.IMAGINARY, lambda i: values[i].imag),
        (EigenClass.COMPLEX, lambda i: (values[i].real, values[i].imag)),
    ):
        members = [i for i in range(len(values)) if labels[i] is label]
        members.sort(key=key)
        counts[label] = len(members)
        for rank, i in enumerate(members):
            entries[i] = (complex(values[i]), label, rank)
    return entries, counts, float(tolerance)


def fit_envelope_per_state(state: np.ndarray, center: float | None = None) -> EnvelopeFit:
    """The Gaussian envelope fit of one profile, with its own 3x3 solve.

    Keeps the per-state fit as a reference for the column computation in
    ``state_metrics``: the quadratic in the centred site comes from the
    normal equations of an explicit basis matrix.
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


def localization_per_state(state: np.ndarray) -> LocalizationMetrics:
    """Centroid, inverse participation ratio and peak site of one state, from |v|^2."""
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
