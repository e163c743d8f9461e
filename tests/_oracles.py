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

from ramphop import EigenClass, hermitize
from ramphop.analysis import CLASS_TOL_SCALE


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
